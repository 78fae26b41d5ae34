"""ARB-NUCLEUS-DECOMP vs the brute-force reference, across graphs,
(r, s) values, and every §5 optimization configuration."""
import numpy as np
import pytest

from repro.nucleus.decomp import DecompConfig, nucleus_decomposition
from repro.nucleus.reference import reference_nucleus
from repro.tables.clique_table import TableConfig

from .fixtures import FIG1_34_CORE, SMALL_GRAPHS

GRAPHS = ["fig1", "k4", "k6", "bowtie", "two-tri", "er30", "comm", "rmat6", "path6"]
RS = [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)]


def run(name, r, s, **kw):
    cfg = DecompConfig(**kw)
    return nucleus_decomposition(SMALL_GRAPHS[name], r, s, cfg)


@pytest.mark.parametrize("name", GRAPHS)
@pytest.mark.parametrize("r,s", RS)
def test_matches_reference_default_config(name, r, s):
    res = run(name, r, s)
    assert res.core_dict() == reference_nucleus(SMALL_GRAPHS[name], r, s)


def test_fig1_34_exact():
    """The paper's worked example, verbatim."""
    res = run("fig1", 3, 4)
    assert res.core_dict() == FIG1_34_CORE
    assert res.rho == 3  # three peeling rounds in Figure 1
    assert res.max_core == 2


def test_fig1_23_is_truss():
    res = run("fig1", 2, 3)
    ref = reference_nucleus(SMALL_GRAPHS["fig1"], 2, 3)
    assert res.core_dict() == ref
    assert res.core_dict()[(0, 1)] == 3  # K5 edges survive to trussness 3


TABLE_CONFIGS = [
    TableConfig(levels=1),
    TableConfig(levels=2, first_level="array", decode="pointer"),
    TableConfig(levels=2, first_level="array", decode="binsearch"),
    TableConfig(levels=2, first_level="array", contiguous=False, decode="binsearch"),
    TableConfig(levels=2, first_level="hash", decode="pointer"),
    TableConfig(levels=3, first_level="hash", decode="pointer"),
    TableConfig(levels=3, first_level="hash", decode="binsearch"),
]


@pytest.mark.parametrize("cfg", TABLE_CONFIGS, ids=lambda c: c.label())
@pytest.mark.parametrize("name,r,s", [("fig1", 3, 4), ("comm", 3, 4), ("er30", 2, 3)])
def test_all_table_configs_agree(cfg, name, r, s):
    res = run(name, r, s, table=cfg)
    assert res.core_dict() == reference_nucleus(SMALL_GRAPHS[name], r, s)


@pytest.mark.parametrize("agg", ["array", "list-buffer", "hash"])
@pytest.mark.parametrize("name,r,s", [("fig1", 3, 4), ("er30", 2, 3), ("comm", 2, 4)])
def test_all_aggregators_agree(agg, name, r, s):
    res = run(name, r, s, aggregation=agg)
    assert res.core_dict() == reference_nucleus(SMALL_GRAPHS[name], r, s)


@pytest.mark.parametrize("orientation", ["degree", "degeneracy", "goodrich-pszona"])
@pytest.mark.parametrize("name,r,s", [("fig1", 3, 4), ("er30", 2, 3)])
def test_all_orientations_agree(orientation, name, r, s):
    res = run(name, r, s, orientation=orientation)
    assert res.core_dict() == reference_nucleus(SMALL_GRAPHS[name], r, s)


@pytest.mark.parametrize("name,r,s", [("fig1", 3, 4), ("comm", 3, 4), ("er40", 2, 3)])
def test_relabeling_agrees(name, r, s):
    res = run(name, r, s, relabel=True)
    assert res.core_dict() == reference_nucleus(SMALL_GRAPHS[name], r, s)


@pytest.mark.parametrize("name", ["fig1", "er30", "er40", "comm"])
def test_contraction_agrees(name):
    res = run(name, 2, 3, contraction=True)
    assert res.core_dict() == reference_nucleus(SMALL_GRAPHS[name], 2, 3)


def test_contraction_actually_contracts():
    res = run("er40", 2, 3, contraction=True)
    assert res.contractions >= 1


def test_combined_optimizations():
    """The paper's overall-best setting: two-level contiguous stored-pointer
    T, list buffer, relabeling."""
    cfg = DecompConfig(
        table=TableConfig(levels=2, first_level="array", decode="pointer"),
        relabel=True,
        aggregation="list-buffer",
    )
    res = nucleus_decomposition(SMALL_GRAPHS["comm"], 3, 4, cfg)
    assert res.core_dict() == reference_nucleus(SMALL_GRAPHS["comm"], 3, 4)


def test_result_sorted_and_aligned():
    res = run("fig1", 2, 3)
    assert np.array_equal(res.vmat, res.vmat[np.lexsort((res.vmat[:, 1], res.vmat[:, 0]))])
    assert len(res.core) == len(res.vmat)


def test_rho_counts_rounds():
    res = run("k6", 2, 3)  # all K6 edges peel in one round
    assert res.rho == 1
    assert res.max_core == 4


def test_empty_r_clique_set():
    res = nucleus_decomposition(SMALL_GRAPHS["path6"], 3, 4)
    assert res.rho == 0 and len(res.vmat) == 0


def test_invalid_rs():
    with pytest.raises(ValueError):
        nucleus_decomposition(SMALL_GRAPHS["k4"], 3, 3)


@pytest.mark.parametrize(
    "make,match",
    [
        (lambda: DecompConfig(counting="sprak"), "counting.*'sprak'"),
        (lambda: run("k4", 2, 3, counting="spark"), "counting='spark'.*spark="),
        (lambda: nucleus_decomposition(np.array([(0, 1), (-1, 2)]), 2, 3), "non-negative.*-1"),
        (lambda: nucleus_decomposition(np.array([0, 1, 2]), 2, 3), r"edges.*\(3,\)"),
        (lambda: nucleus_decomposition(np.array([(0.0, 1.0)]), 2, 3), "edges.*float64"),
        (lambda: DecompConfig(aggregation="hsh"), "aggregation.*'hsh'"),
        (lambda: DecompConfig(orientation="degre"), "orientation.*'degre'"),
        (lambda: DecompConfig(num_open_buckets=0), "num_open_buckets.*>= 1.*0"),
        (lambda: DecompConfig(num_open_buckets=-3), "num_open_buckets.*>= 1.*-3"),
        (lambda: DecompConfig(spark_slices=0), "spark_slices.*>= 1.*0"),
        (
            lambda: nucleus_decomposition(np.array([(0, 5), (1, 2), (0, 1), (0, 2)]), 2, 3, n=3),
            "n=3.*largest vertex id 5",
        ),
    ],
    ids=[
        "counting-typo",
        "spark-without-session",
        "negative-id",
        "1-d-edges",
        "float-edges",
        "aggregation-typo",
        "orientation-typo",
        "zero-open-buckets",
        "negative-open-buckets",
        "zero-spark-slices",
        "n-below-max-id",
    ],
)
def test_bad_input_fails_fast(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_counters_populated():
    res = run("comm", 3, 4)
    c = res.counters
    assert c.work > 0 and c.span_logs > 0 and c.rounds == res.rho
    assert c.scliques_discovered > 0
    assert c.wall_seconds > 0


@pytest.mark.parametrize(
    "name,r,s,agg,want",
    [
        ("fig1", 3, 4, "list-buffer", dict(work=294.0, span_logs=28.073549220576048, serialized_ops=0.0, rounds=3, scliques_discovered=24)),
        ("er30", 2, 4, "array", dict(work=4541.0, span_logs=137.3929366770385, serialized_ops=91.0, rounds=8, scliques_discovered=204)),
        ("comm", 3, 5, "hash", dict(work=4310.0, span_logs=64.18947501009619, serialized_ops=0.0, rounds=3, scliques_discovered=220)),
    ],
    ids=["fig1-3-4", "er30-2-4-array", "comm-3-5-hash"],
)
def test_counters_pinned(name, r, s, agg, want):
    """The cost model charges Alg 2's work: one table lookup per discovery
    and r-subset, although the peel loop looks up each distinct s-clique of
    a round once. Rounds peel several r-cliques of one s-clique here.
    ``work`` also counts the counting kernel's probes, which depend on the
    degeneracy order's tie-break; the other fields do not."""
    res = run(name, r, s, aggregation=agg)
    got = {k: getattr(res.counters, k) for k in want}
    assert got == pytest.approx(want, rel=1e-12)
    assert res.rho == want["rounds"]


def test_k_cores_match_classic_peeling():
    """(1,2) nucleus == k-core numbers; check against direct peeling."""
    from repro.graphs.csr import build_csr

    edges = SMALL_GRAPHS["er30"]
    res = run("er30", 1, 2)
    got = {v[0]: c for v, c in zip(res.vmat.tolist(), res.core.tolist())}
    und = build_csr(edges)
    # classic k-core peeling
    deg = und.degrees().copy().astype(int)
    alive = set(range(und.n))
    core = {}
    k = 0
    while alive:
        v = min(alive, key=lambda x: deg[x])
        k = max(k, deg[v])
        core[v] = k
        alive.remove(v)
        for w in und.neighbors(v):
            if int(w) in alive:
                deg[int(w)] -= 1
    assert got == core
