"""Self-tests of the benchmark (not of the program).

    python3 -m pytest perfbench -q -p no:cacheprovider
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from measure import run_pass  # noqa: E402
from reference import digest, reference_core  # noqa: E402
from spans import GROUP_LAYER, LAYERS, Tracer, instrumented, layer_self_times  # noqa: E402
from workloads import WORKLOADS, Cell, make_inputs  # noqa: E402

from repro.experiments import _best_config  # noqa: E402
from repro.graphs.gen import community_graph, surrogate  # noqa: E402
from repro.nucleus import decomp  # noqa: E402
from repro.nucleus.decomp import DecompConfig  # noqa: E402


@pytest.fixture(scope="module")
def small():
    """A small clique-rich graph, cells that reach every local layer, and references."""
    edges = community_graph(12, 5, 9, p_intra=0.85, inter_per_vertex=1.0, seed=5)
    n = int(edges.max()) + 1
    cells = [
        Cell("g", 2, 3, "best", _best_config(2, 3)),  # hash U + contraction
        Cell("g", 3, 4, "best", _best_config(3, 4)),
        Cell("g", 3, 4, "1-level/array", DecompConfig(aggregation="array")),
    ]
    refs = {c.key: digest(*reference_core(edges, c.r, c.s)) for c in cells}
    return cells, {"g": (edges, n)}, refs


def test_reference_matches_program(small):
    cells, inputs, refs = small
    res = run_pass(cells, inputs, refs)
    assert (res.attempted, res.failed) == (len(cells), 0)


def test_truss_and_nd_references_agree(small):
    _, inputs, _ = small
    edges = inputs["g"][0]
    from reference import _nd, _networkx_truss

    assert digest(*_networkx_truss(edges)) == digest(*_nd(edges, 2, 3))


def test_corrupted_core_counts_as_failed(small, monkeypatch):
    cells, inputs, refs = small
    real = decomp.nucleus_decomposition

    def corrupted(*args, **kwargs):
        out = real(*args, **kwargs)
        out.core = out.core.copy()
        out.core[0] += 1
        return out

    monkeypatch.setattr(decomp, "nucleus_decomposition", corrupted)
    res = run_pass(cells, inputs, refs)
    assert res.attempted == len(cells)
    assert res.failed / res.attempted > 0


def test_raising_call_counts_as_failed(small, monkeypatch):
    cells, inputs, refs = small

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(decomp, "nucleus_decomposition", broken)
    res = run_pass(cells, inputs, refs)
    assert res.failed == res.attempted == len(cells)


@pytest.fixture(scope="module")
def traced(small):
    cells, inputs, refs = small
    tracer = Tracer()
    res = run_pass(cells, inputs, refs, tracer=tracer)
    assert res.failed == 0
    return tracer, res


def test_spans_form_a_tree(traced):
    tracer, _ = traced
    spans = tracer.spans
    roots = [sp for sp in spans if sp.parent is None]
    assert [sp.name for sp in roots] == ["decomp.call"] * 3
    for sp in spans:
        assert sp.name in GROUP_LAYER
        assert sp.start <= sp.end
        if sp.parent is not None:
            parent = spans[sp.parent]
            assert parent.id < sp.id  # parents open first: no cycles
            assert parent.start <= sp.start and sp.end <= parent.end
    # siblings do not overlap
    for sp in spans:
        kids = [c for c in spans if c.parent == sp.id]
        for a, b in zip(kids, kids[1:]):
            assert a.end <= b.start
    # every local layer shows up
    assert {GROUP_LAYER[sp.name] for sp in spans} == set(LAYERS) - {"cliques.spark_count"}


def test_self_times_add_up_to_call_time(traced):
    tracer, res = traced
    m = res.layers
    layer_s = layer_self_times(tracer)
    call_s = sum(sp.end - sp.start for sp in tracer.spans if sp.parent is None)
    layer_sum = sum(t for layer, t in layer_s.items() if layer != "nucleus.decomp")
    assert math.isclose(layer_sum + m["decomp.self.s"], call_s, rel_tol=1e-9)
    assert m["contract.s"] == layer_s["nucleus.contract"]
    assert call_s <= res.raw_s
    assert m["decomp.self.s"] > 0
    assert m["bucketing.rounds"] > 0 and m["cliques.extend.calls"] > 0


def test_instrumentation_is_undone(small):
    names = ["build_csr", "make_table", "Bucketing", "make_aggregator", "extend_cliques", "maybe_contract"]
    before = [getattr(decomp, n) for n in names]
    with instrumented(Tracer()):
        assert [getattr(decomp, n) for n in names] != before
    assert [getattr(decomp, n) for n in names] == before


def test_seed_zero_is_the_surrogate_and_seeds_relabel():
    a0 = make_inputs(["youtube-lite"], 0)["youtube-lite"][0]
    assert np.array_equal(a0, surrogate("youtube-lite"))
    a1, n1 = make_inputs(["youtube-lite"], 1)["youtube-lite"]
    b1, _ = make_inputs(["youtube-lite"], 1)["youtube-lite"]
    assert np.array_equal(a1, b1)
    assert not np.array_equal(a0, a1)
    assert a1.max() < n1
    deg0 = np.sort(np.bincount(a0.ravel(), minlength=n1))
    deg1 = np.sort(np.bincount(a1.ravel(), minlength=n1))
    assert np.array_equal(deg0, deg1)


def test_workloads_and_metrics_match_benchmark_json(traced):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {w.name: w.why for w in WORKLOADS.values()}
    for w in WORKLOADS.values():
        assert w.cells and all(c.config.counting == ("spark" if w.spark else "local") for c in w.cells)
    _, res = traced
    layer_names = set(res.layers) | {"trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names


def test_exits_nonzero_without_program():
    """A checkout holding only BENCHMARK.json and perfbench/ must fail, not report."""
    bare = HERE / ".out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sparse-count", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=120,
    )
    shutil.rmtree(bare)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
