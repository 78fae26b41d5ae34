"""CSR construction and orientation invariants."""
import numpy as np
import pytest

from repro.graphs.csr import build_csr, orient_csr
from repro.graphs.orient import degree_order

from .fixtures import SMALL_GRAPHS


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_symmetry(name):
    und = build_csr(SMALL_GRAPHS[name])
    for v in range(und.n):
        for w in und.neighbors(v):
            assert v in und.neighbors(int(w))


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_sorted_neighbors(name):
    und = build_csr(SMALL_GRAPHS[name])
    for v in range(und.n):
        nb = und.neighbors(v)
        assert (np.diff(nb) > 0).all(), "sorted, no duplicates"


def test_m_counts_arcs():
    und = build_csr(SMALL_GRAPHS["k4"])
    assert und.m == 12  # 6 edges * 2 directions


def test_self_loops_and_dups_dropped():
    e = np.array([(0, 1), (1, 0), (0, 0), (0, 1), (1, 2)])
    und = build_csr(e)
    assert und.m == 4
    assert und.degree(0) == 1 and und.degree(1) == 2


def test_isolated_vertices_via_n():
    und = build_csr(np.array([(0, 1)]), n=5)
    assert und.n == 5 and und.degree(4) == 0


def lexsort_csr(edges, n):
    """Reference construction: canonical unique edges, both directions,
    arcs ordered by lexsort on (source, target), offsets by counting."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    e = e[e[:, 0] != e[:, 1]]
    canon = {(min(a, b), max(a, b)) for a, b in e.tolist()}
    src = np.array([a for a, b in canon] + [b for a, b in canon], dtype=np.int64)
    dst = np.array([b for a, b in canon] + [a for a, b in canon], dtype=np.int64)
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    offsets = np.zeros(n + 1, dtype=np.int64)
    for v in src.tolist():
        offsets[v + 1] += 1
    return np.cumsum(offsets), dst, src * n + dst


@pytest.mark.parametrize(
    "edges,n",
    [
        (SMALL_GRAPHS["fig1"], None),
        (SMALL_GRAPHS["rmat6"], None),
        (np.array([(3, 1), (1, 3), (2, 2), (1, 3), (0, 3), (3, 0), (4, 4)]), None),
        (np.array([(0, 1), (1, 2), (1, 0)]), 6),
        (np.array([(5, 5), (5, 5)]), 8),
        (np.empty((0, 2), dtype=np.int64), 4),
    ],
    ids=["fig1", "rmat6", "dups-and-self-loops", "isolated-trailing", "only-self-loops", "empty"],
)
def test_matches_lexsort_construction(edges, n):
    und = build_csr(edges, n)
    want_n = int(edges.max()) + 1 if n is None else n
    offsets, nbrs, keys = lexsort_csr(edges, want_n)
    assert und.n == want_n
    assert np.array_equal(und.offsets, offsets)
    assert np.array_equal(und.nbrs, nbrs)
    assert np.array_equal(und.arc_keys, keys)


def test_orient_keeps_arc_keys_aligned():
    und = build_csr(SMALL_GRAPHS["comm"])
    dg = orient_csr(und, degree_order(und))
    src = np.repeat(np.arange(dg.n), dg.degrees())
    assert np.array_equal(dg.arc_keys, src * dg.n + dg.nbrs)


def test_n_not_above_max_id_fails_fast():
    with pytest.raises(ValueError, match="n=3 must exceed the largest vertex id 5"):
        build_csr(np.array([(0, 5), (1, 2)]), n=3)
    with pytest.raises(ValueError, match="n=5 must exceed the largest vertex id 5"):
        build_csr(np.array([(0, 5)]), n=5)


def test_empty_graph():
    und = build_csr(np.empty((0, 2), dtype=np.int64), n=3)
    assert und.n == 3 and und.m == 0


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_orient_halves_arcs(name):
    und = build_csr(SMALL_GRAPHS[name])
    dg = orient_csr(und, degree_order(und))
    assert dg.m == und.m // 2


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_orient_is_dag_by_rank(name):
    und = build_csr(SMALL_GRAPHS[name])
    rank = degree_order(und)
    dg = orient_csr(und, rank)
    for v in range(dg.n):
        for w in dg.neighbors(v):
            assert rank[v] < rank[int(w)]
