"""Span tracing of one ``nucleus_decomposition`` call, done from outside.

``instrumented(tracer)`` temporarily replaces the names bound in
``repro.nucleus.decomp`` (and ``spark_s_counts`` in
``repro.cliques.spark_count``) with wrappers that open a span, call the
original and close the span. The objects those names build (the clique
table, the bucketing structure, the U aggregator, the contraction state)
get their methods wrapped per instance, so calls through ``super()`` are
not counted twice and nothing is left behind on the classes.

A span has an id, a name, a parent, start and end times and a few counts
read at the call boundary. A span's self time is its duration minus the
durations of its direct children; self times partition the root span, so
the per-layer self times plus ``decomp.self.s`` add up to the call.
The program itself is not changed; tracing inside it is later work.
"""
from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable

import numpy as np

__all__ = ["Span", "Tracer", "instrumented", "GROUP_LAYER", "LAYERS", "layer_self_times", "layer_metrics"]

# span name -> layer (the repro module that does the work)
GROUP_LAYER = {
    "graphs.csr": "graphs",
    "graphs.orient": "graphs",
    "cliques.count": "cliques.listing",
    "cliques.extend": "cliques.listing",
    "spark.count": "cliques.spark_count",
    "tables.build": "tables.clique_table",
    "tables.lookup": "tables.clique_table",
    "tables.decode": "tables.clique_table",
    "tables.space": "tables.clique_table",
    "bucketing.init": "bucketing",
    "bucketing.next": "bucketing",
    "bucketing.update": "bucketing",
    "aggregation.make": "aggregation",
    "aggregation.begin": "aggregation",
    "aggregation.record": "aggregation",
    "aggregation.drain": "aggregation",
    "contract.init": "nucleus.contract",
    "contract.note": "nucleus.contract",
    "contract.run": "nucleus.contract",
    "decomp.call": "nucleus.decomp",
}
LAYERS = list(dict.fromkeys(GROUP_LAYER.values()))


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "counts")

    def __init__(self, id: int, name: str, parent: int | None, start: float):
        self.id, self.name, self.parent, self.start = id, name, parent, start
        self.end = start
        self.counts: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def as_list(self) -> list:
        return [self.id, self.name, self.parent, self.start, self.end, self.counts]


class Tracer:
    """Keeps spans in memory; ``dump`` writes them out at the end of a run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self.bucketings: list[Any] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1].id if self._open else None
        sp = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(sp)
        self._open.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """fn wrapped in a span; ``after(span, result, *args, **kwargs)`` reads counts."""

        def wrapper(*args, **kwargs):
            with self.span(name) as sp:
                before = _stats_before(kwargs)
                out = fn(*args, **kwargs)
                if before is not None:
                    _stats_after(sp, kwargs["stats"], before)
                if after is not None:
                    after(sp, out, *args, **kwargs)
                return out

        wrapper.__wrapped__ = fn
        return wrapper

    def self_times(self) -> np.ndarray:
        dur = np.array([sp.end - sp.start for sp in self.spans])
        child = np.zeros(len(self.spans))
        for sp in self.spans:
            if sp.parent is not None:
                child[sp.parent] += sp.end - sp.start
        return dur - child

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write('["id", "name", "parent", "start", "end", "counts"]\n')
            for sp in self.spans:
                fh.write(json.dumps(sp.as_list()) + "\n")


def _stats_before(kwargs: dict) -> tuple[int, int] | None:
    st = kwargs.get("stats")
    return None if st is None else (st.cliques_found, st.intersect_work)


def _stats_after(sp: Span, st, before: tuple[int, int]) -> None:
    found = st.cliques_found - before[0]
    sp.add("found", found)
    sp.add("probes", st.intersect_work - before[1])
    sp.add("empty", int(found == 0))


def _patch_methods(tracer: Tracer, obj: Any, names: dict[str, str], after: dict | None = None) -> None:
    after = after or {}
    for meth, span_name in names.items():
        setattr(obj, meth, tracer.wrap(span_name, getattr(obj, meth), after.get(meth)))


def _count_len(key: str):
    """Count the length of the first argument."""

    def after(sp, out, first, *args, **kwargs):
        sp.add(key, len(first))

    return after


def _table_built(tracer: Tracer):
    def after(sp, table, vmat, *args, **kwargs):
        sp.add("rows", len(vmat))
        _patch_methods(
            tracer,
            table,
            {
                "lookup": "tables.lookup",
                "decode": "tables.decode",
                "row_indices": "tables.space",
                "memory_units": "tables.space",
                "allocated_cells": "tables.space",
            },
            {"lookup": _lookup_counts, "decode": _count_len("ids")},
        )

    return after


def _lookup_counts(sp, out, vmat, *args, **kwargs):
    sp.add("keys", len(out))
    sp.add("misses", int((out < 0).sum()))


def _aggregator_made(tracer: Tracer):
    def after(sp, agg, *args, **kwargs):
        _patch_methods(
            tracer,
            agg,
            {"begin_round": "aggregation.begin", "record": "aggregation.record", "drain": "aggregation.drain"},
            {"record": _count_len("recorded"), "drain": lambda sp, out, *a, **k: sp.add("drained", len(out))},
        )

    return after


def _bucketing_factory(tracer: Tracer, cls: type) -> Callable:
    def build(*args, **kwargs):
        with tracer.span("bucketing.init"):
            b = cls(*args, **kwargs)
        _patch_methods(
            tracer,
            b,
            {"next_bucket": "bucketing.next", "update": "bucketing.update"},
            {"next_bucket": lambda sp, out, *a, **k: sp.add("rounds", 1)},
        )
        tracer.bucketings.append(b)
        return b

    return build


def _contraction_factory(tracer: Tracer, cls: type) -> Callable:
    def build(*args, **kwargs):
        with tracer.span("contract.init"):
            st = cls(*args, **kwargs)
        _patch_methods(tracer, st, {"note_peeled_edges": "contract.note"})
        return st

    return build


def _contract_run(tracer: Tracer, fn: Callable) -> Callable:
    def run(und, state, edge_peeled):
        with tracer.span("contract.run") as sp:
            before = state.contractions
            out = fn(und, state, edge_peeled)
            sp.add("fired", state.contractions - before)
            return out

    return run


def _spark_counted(tracer: Tracer, fn: Callable) -> Callable:
    """Spark fan-out span; task count from the status tracker of its job group."""

    def run(spark, dg, r, s, **kwargs):
        sc = spark.sparkContext
        group = f"perfbench-{len(tracer.spans)}"
        with tracer.span("spark.count") as sp:
            sc.setJobGroup(group, "perfbench spark.count")
            try:
                vmat, cnts = fn(spark, dg, r, s, **kwargs)
            finally:
                sc.setLocalProperty("spark.jobGroup.id", None)
            sp.add("rows", len(vmat))
            st = sc.statusTracker()
            for jid in st.getJobIdsForGroup(group):
                info = st.getJobInfo(jid)
                for sid in info.stageIds if info else ():
                    stage = st.getStageInfo(sid)
                    sp.add("tasks", stage.numTasks if stage else 0)
        return vmat, cnts

    return run


@contextmanager
def instrumented(tracer: Tracer):
    """Route every layer call of ``nucleus_decomposition`` through ``tracer``."""
    from repro.nucleus import decomp

    patches: list[tuple[Any, str, Callable]] = [
        (decomp, "build_csr", tracer.wrap("graphs.csr", decomp.build_csr)),
        (decomp, "make_rank", tracer.wrap("graphs.orient", decomp.make_rank)),
        (decomp, "relabel", tracer.wrap("graphs.orient", decomp.relabel)),
        (decomp, "orient_csr", tracer.wrap("graphs.orient", decomp.orient_csr)),
        (decomp, "s_counts_per_r_clique", tracer.wrap("cliques.count", decomp.s_counts_per_r_clique)),
        (
            decomp,
            "extend_cliques",
            tracer.wrap("cliques.extend", decomp.extend_cliques, lambda sp, *a, **k: sp.add("calls", 1)),
        ),
        (decomp, "make_table", tracer.wrap("tables.build", decomp.make_table, _table_built(tracer))),
        (
            decomp,
            "make_aggregator",
            tracer.wrap("aggregation.make", decomp.make_aggregator, _aggregator_made(tracer)),
        ),
        (decomp, "Bucketing", _bucketing_factory(tracer, decomp.Bucketing)),
        (decomp, "ContractionState", _contraction_factory(tracer, decomp.ContractionState)),
        (decomp, "maybe_contract", _contract_run(tracer, decomp.maybe_contract)),
    ]
    spark_mod = sys.modules.get("repro.cliques.spark_count")
    if spark_mod is not None:  # imported lazily by decomp; only the Spark workload loads it
        patches.append((spark_mod, "spark_s_counts", _spark_counted(tracer, spark_mod.spark_s_counts)))
    originals = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    for mod, name, new in patches:
        setattr(mod, name, new)
    try:
        yield tracer
    finally:
        for mod, name, old in originals:
            setattr(mod, name, old)


# per-layer metric -> what it sums: self time of a span name, a span count,
# or a ratio of two span counts
TIMED = [
    "cliques.count", "cliques.extend", "tables.lookup", "tables.build", "tables.decode",
    "bucketing.next", "bucketing.update", "aggregation.record", "aggregation.drain",
    "graphs.csr", "graphs.orient", "spark.count",
]
COUNTED = {
    "cliques.count.found": "cliques.count.found",
    "cliques.count.probes": "cliques.count.probes",
    "cliques.extend.calls": "cliques.extend.calls",
    "cliques.extend.found": "cliques.extend.found",
    "cliques.extend.probes": "cliques.extend.probes",
    "tables.lookup.keys": "tables.lookup.keys",
    "tables.build.rows": "tables.build.rows",
    "tables.decode.ids": "tables.decode.ids",
    "bucketing.rounds": "bucketing.next.rounds",
    "aggregation.recorded": "aggregation.record.recorded",
    "aggregation.drained": "aggregation.drain.drained",
    "spark.count.tasks": "spark.count.tasks",
    "spark.count.rows": "spark.count.rows",
    "contract.fired": "contract.run.fired",
}
RATIOS = {
    "cliques.extend.empty_frac": ("cliques.extend.empty", "cliques.extend.calls"),
    "cliques.extend.found_per_probe": ("cliques.extend.found", "cliques.extend.probes"),
    "tables.lookup.miss_frac": ("tables.lookup.misses", "tables.lookup.keys"),
    "aggregation.unique_frac": ("aggregation.drain.drained", "aggregation.record.recorded"),
}


def layer_self_times(tracer: Tracer) -> dict[str, float]:
    """Summed self time of each layer's spans. Together they cover every
    traced call exactly: their sum is the calls' summed wall time."""
    layer_s = {layer: 0.0 for layer in LAYERS}
    for sp, st in zip(tracer.spans, tracer.self_times()):
        layer_s[GROUP_LAYER[sp.name]] += st
    return layer_s


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals of one traced pass, keyed by per-layer metric name."""
    by_name: dict[str, float] = {}
    counts: dict[str, float] = {}
    for sp, st in zip(tracer.spans, tracer.self_times()):
        by_name[sp.name] = by_name.get(sp.name, 0.0) + st
        for k, v in sp.counts.items():
            counts[f"{sp.name}.{k}"] = counts.get(f"{sp.name}.{k}", 0) + v

    m = {f"{name}.s": by_name.get(name, 0.0) for name in TIMED}
    m.update({metric: counts.get(key, 0) for metric, key in COUNTED.items()})
    for metric, (num, den) in RATIOS.items():
        m[metric] = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
    m["bucketing.moves"] = sum(b.bucket_moves for b in tracer.bucketings)
    m["bucketing.rematerializations"] = sum(b.rematerializations for b in tracer.bucketings)
    layer_s = layer_self_times(tracer)
    m["contract.s"] = layer_s["nucleus.contract"]
    m["decomp.self.s"] = layer_s["nucleus.decomp"]
    return m
