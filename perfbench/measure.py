"""Timed passes over a workload's cells, with speed calibration.

The shared machine's CPU speed drifts by up to 1.4x within a minute
(measured: one process timing the same sparse-count pass read 3.1 to
4.9 s). Wall time alone would put that drift into every metric, so a
fixed calibration kernel, which does not touch the program, runs before
the first cell of a pass and after every cell. Each call's wall time is
rescaled by ``REF_CAL_S / cal``, where ``cal`` is the mean of the
kernel times just before and just after the call: the reported seconds
are seconds at the speed at which the kernel takes ``REF_CAL_S``. The
raw wall times are kept alongside and printed.

The Spark workload's calls are not rescaled one by one: their work runs
in the JVM and Python workers, whose speed the driver-side kernel does
not see, and a kernel run right after a Spark job is disturbed by the
JVM's own background threads. Measured over five runs, per-call
rescaling widened the spread of its cold pass from 1.09x (max over min)
to 1.25x and of its warm passes from 1.09x to 1.15x. ``run.py`` instead
rescales its passes by one speed reading taken before the SparkSession
starts and after it stops, which follows the machine's drift between
runs. ``run.py`` rescales each local set-up probe like a call here, and
leaves the Spark workload's set-up probes, which are mostly a JVM
launch, unscaled.
"""
from __future__ import annotations

import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from reference import digest
from spans import Tracer, instrumented, layer_metrics
from workloads import Cell

__all__ = ["REF_CAL_S", "calibrate", "PassResult", "run_pass", "quartiles"]

REF_CAL_S = 0.002  # kernel time on the reference machine (4-core Xeon at 2.1 GHz)
CAL_REPS = 5

_CAL_A = np.arange(0, 3000, 2, dtype=np.int64)
_CAL_B = np.arange(0, 3000, 3, dtype=np.int64)


def _kernel() -> int:
    """Interpreter loop, tuple-keyed dict and small sorted-array numpy
    calls: the same mix of work as the program's clique listing."""
    d: dict[tuple[int, int], int] = {}
    x = 0
    for i in range(2000):
        x = (x * 31 + i) % 1000003
        d[(i, x & 255)] = x
    for _ in range(40):
        x += len(np.intersect1d(_CAL_A, _CAL_B, assume_unique=True))
    return x + len(np.unique(np.fromiter(d.values(), dtype=np.int64, count=len(d))))


def calibrate(reps: int = CAL_REPS) -> float:
    """Median seconds of one kernel run, now."""
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


@dataclass
class PassResult:
    raw_s: float = 0.0  # summed wall time of the pass's calls
    norm_s: float = 0.0  # the same, rescaled to the reference speed
    attempted: int = 0
    failed: int = 0
    table_mem_units: int = 0
    allocated_cells: int = 0
    work: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)


def run_pass(
    cells: list[Cell],
    inputs: dict[str, tuple[np.ndarray, int]],
    refs: dict[str, str],
    *,
    spark=None,
    tracer: Tracer | None = None,
    scaled: bool = True,
) -> PassResult:
    """Run every cell once; time each call and check it against its
    reference. ``scaled=False`` skips the calibration (norm_s = raw_s)."""
    from repro.nucleus import decomp

    res = PassResult()
    cal_before = calibrate() if scaled else REF_CAL_S
    with instrumented(tracer) if tracer else nullcontext():
        for cell in cells:
            edges, n = inputs[cell.graph]
            out = None
            t = time.perf_counter()
            try:
                with tracer.span("decomp.call") if tracer else nullcontext():
                    out = decomp.nucleus_decomposition(edges, cell.r, cell.s, cell.config, spark=spark, n=n)
            except Exception:
                traceback.print_exc(file=sys.stderr)
            dt = time.perf_counter() - t
            cal_after = calibrate() if scaled else REF_CAL_S
            res.raw_s += dt
            res.norm_s += dt * REF_CAL_S / ((cal_before + cal_after) / 2)
            cal_before = cal_after
            res.attempted += 1
            if out is None or digest(out.vmat, out.core) != refs.get(cell.key):
                res.failed += 1
                print(f"perfbench: {cell.name}: result differs from the reference", file=sys.stderr)
            if out is not None:
                res.table_mem_units += out.table_memory_units
                res.allocated_cells += out.table_allocated_cells
                res.work += out.counters.work
    if tracer:
        res.layers = layer_metrics(tracer)
        res.layers["decomp.work"] = res.work
        res.layers["tables.allocated_cells"] = res.allocated_cells
    return res


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles gives them; one value repeats."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
