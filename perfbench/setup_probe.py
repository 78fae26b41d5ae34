"""One set-up of a workload in a fresh interpreter: import the program,
generate the seed's inputs and, for the Spark workload, start a
SparkSession. Prints ``ready`` when set-up is done, then stops the session
(waiting for the JVM to exit) and exits.

``run.py`` starts this script several times and times each process from
launch to its ``ready`` line, so ``setup_s`` includes everything a first
call pays before it can start, imports and JVM launch included, but not
the tear-down. Run it with the environment ``run.py`` sets up:

    python3 perfbench/setup_probe.py <workload> <seed>
"""
import sys

import run


def main(workload: str, seed: int) -> None:
    import workloads

    w = workloads.WORKLOADS[workload]
    workloads.make_inputs(w.graphs, seed)
    spark = None
    if w.spark:
        import repro.cliques.spark_count  # noqa: F401  (imports pyspark)
        from workloads import SPARK_SLICES

        spark = run.start_spark(run.OUT / "tmp", SPARK_SLICES)
    print("ready", flush=True)
    if spark is not None:
        run.stop_spark(spark)


if __name__ == "__main__":
    sys.path.insert(0, str(run.ROOT / "src"))
    main(sys.argv[1], int(sys.argv[2]))
