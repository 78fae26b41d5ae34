"""Benchmark of ``repro.nucleus.decomp.nucleus_decomposition``.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from ``src/``.
One run sets up the workload, runs one cold pass over its cells, then
warm passes until ``--seconds`` have gone by. Every call is checked
against a reference digest. With ``--trace 1`` the warm passes alternate
untraced and traced, and the per-layer metrics of the traced passes are
reported instead of the end-to-end ones. The last line of standard
output is one JSON object; see README.md for every metric.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
SETUP_REPS = 5  # fresh-interpreter set-ups per run, local workloads
SPARK_SETUP_REPS = 3  # the same for spark-count, each launching a JVM
RUN_CAL_REPS = 15  # kernel runs per run-level speed reading
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def configure_env(src: Path, tmp: Path) -> None:
    """Environment for this process and every process it starts; must run
    before numpy or pyspark is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    path = os.environ.get("PYTHONPATH")
    # Spark's Python workers import repro from the checkout too.
    os.environ["PYTHONPATH"] = str(src) + (os.pathsep + path if path else "")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_SUBMIT_ARGS"] = "pyspark-shell"
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    tmp.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(src))


def start_spark(tmp: Path, slices: int):
    from pyspark.sql import SparkSession

    k = min(2, len(os.sched_getaffinity(0)))
    spark = (
        SparkSession.builder.master(f"local[{k}]")
        .appName("perfbench")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.driver.memory", "1g")
        .config("spark.sql.shuffle.partitions", str(slices))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.local.dir", str(tmp))
        .config("spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={shlex.quote(str(tmp))} -XX:-UsePerfData")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and the JVM behind it, and wait for the JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()  # the JVM exits when its stdin closes
        proc.wait(timeout=60)
    SparkContext._gateway = SparkContext._jvm = None


def timed_setups(workload: str, seed: int, reps: int, scaled: bool) -> tuple[list[float], list[float]]:
    """Seconds from launching ``setup_probe.py`` to its ``ready`` line, once
    per fresh interpreter: (raw, at reference speed). With ``scaled`` each
    probe is rescaled like a call in ``measure.run_pass``, by kernel
    readings just before and just after it; else the two lists are equal."""
    from measure import REF_CAL_S, calibrate

    probe = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    raw, norm = [], []
    cal_before = calibrate() if scaled else REF_CAL_S
    for _ in range(reps):
        t = time.perf_counter()
        with subprocess.Popen(probe, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            raw.append(time.perf_counter() - t)
            proc.stdout.read()
        if proc.returncode or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
        cal_after = calibrate() if scaled else REF_CAL_S
        norm.append(raw[-1] * REF_CAL_S / ((cal_before + cal_after) / 2))
        cal_before = cal_after
    return raw, norm


def references(seed: int, keys: list[str]) -> dict[str, str]:
    """Stored or cached digests; missing ones are computed in a child
    process, so the reference's memory stays out of peak_rss_mb."""
    from reference import load_digests, save_cache

    refs = load_digests(seed)
    missing = sorted(set(keys) - set(refs))
    if missing:
        cmd = [sys.executable, str(HERE / "reference.py"), "--seeds", str(seed), "--keys", *missing]
        out = subprocess.run(cmd, check=True, cwd=ROOT, capture_output=True, text=True).stdout
        found = json.loads(out.strip().splitlines()[-1])[str(seed)]
        save_cache(seed, found)
        refs.update(found)
    return refs


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def per_layer_unit(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if name.endswith(("_frac", "_per_probe")):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0, help="0 = the SURROGATES graphs as generated")
    ap.add_argument("--seconds", type=float, default=8.0, help="warm-pass measuring time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "nucleus" / "decomp.py").is_file():
        print(f"perfbench: no program source under {src}; run from a checkout root", file=sys.stderr)
        return 2
    tmp = OUT / "tmp"
    configure_env(src, tmp)

    from measure import REF_CAL_S, calibrate, quartiles, run_pass
    from spans import Tracer
    from workloads import SPARK_SLICES, WORKLOADS, make_inputs

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]

    refs = references(args.seed, [c.key for c in w.cells])
    scaled = not w.spark  # see measure.py: Spark's work runs outside this process
    reps = SPARK_SETUP_REPS if w.spark else SETUP_REPS
    setups_raw, setups = ([], []) if args.trace else timed_setups(w.name, args.seed, reps, scaled)
    inputs = make_inputs(w.graphs, args.seed)
    spark, session_s = None, 0.0
    if w.spark:
        import repro.cliques.spark_count  # noqa: F401  (lets the tracer find spark_s_counts)

        # Taken before the JVM exists: its start-up threads would slow the kernel.
        cal_ready = calibrate(RUN_CAL_REPS)
        t = time.perf_counter()
        spark = start_spark(tmp, SPARK_SLICES)
        session_s = time.perf_counter() - t
    try:
        cold = run_pass(w.cells, inputs, refs, spark=spark, scaled=scaled)
        warm, traced, tracers = [], [], []
        deadline = time.perf_counter() + args.seconds
        while True:
            warm.append(run_pass(w.cells, inputs, refs, spark=spark, scaled=scaled))
            if args.trace:
                tracers.append(Tracer())
                traced.append(run_pass(w.cells, inputs, refs, spark=spark, tracer=tracers[-1], scaled=scaled))
            if time.perf_counter() >= deadline:
                break
    finally:
        if spark is not None:
            stop_spark(spark)
    passes = [cold, *warm, *traced]
    if not scaled:  # speed readings from before the JVM started and after it exited
        run_scale = REF_CAL_S / ((cal_ready + calibrate(RUN_CAL_REPS)) / 2)
        for p in passes:
            p.norm_s = p.raw_s * run_scale
    for i, tr in enumerate(tracers):
        tr.dump(OUT / f"spans-{w.name}-seed{args.seed}-pass{i + 1}.jsonl")

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    q1, sweep, q3 = quartiles([p.norm_s for p in warm])
    raw = statistics.median(p.raw_s for p in warm)
    print(f"perfbench {w.name} seed={args.seed} trace={args.trace}: {len(w.cells)} cells, "
          f"1 cold + {len(warm)} warm passes" + (f" + {len(traced)} traced" if traced else ""))
    print(f"  failed_frac      {failed / attempted:.4f} ratio ({failed} of {attempted} calls)")
    print(f"  sweep_s          {sweep:.4f} s  (median of {len(warm)}, q1 {q1:.4f}, q3 {q3:.4f}; "
          f"raw wall median {raw:.4f} s)")

    if args.trace:
        metrics = {}
        for name in traced[0].layers:
            vals = [p.layers[name] for p in traced]
            metrics[name] = metric(statistics.fmean(vals), per_layer_unit(name))
        overhead = statistics.median(p.norm_s for p in traced) / sweep - 1
        metrics["trace.overhead_frac"] = metric(overhead, "ratio")
        for name, m in metrics.items():
            print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    else:
        setup_s = statistics.median(setups)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "sweep_s": metric(sweep, "s"),
            "cold_pass_s": metric(cold.norm_s, "s"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(rss_mb, "MB"),
            "table_mem_units": metric(float(cold.table_mem_units), "units"),
        }
        print(f"  cold_pass_s      {cold.norm_s:.4f} s  (raw wall {cold.raw_s:.4f} s)")
        print(f"  setup_s          {setup_s:.4f} s  (median of {reps} fresh-interpreter set-ups; "
              f"raw wall {', '.join(f'{t:.3f}' for t in setups_raw)} s)")
        if w.spark:
            print(f"  (the passes' own SparkSession started in {session_s:.3f} s; not part of setup_s)")
        print(f"  peak_rss_mb      {rss_mb:.1f} MB" + ("  (driver process only)" if w.spark else ""))
        print(f"  table_mem_units  {cold.table_mem_units} units (one pass)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
