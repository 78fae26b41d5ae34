"""The level-at-a-time clique kernel vs brute-force enumeration."""
from itertools import combinations
from math import comb

import numpy as np
import pytest

from repro.cliques.listing import Stats, extend_cliques, list_cliques, s_counts_per_r_clique, unique_rows
from repro.graphs.csr import build_csr, orient_csr
from repro.graphs.orient import make_rank
from repro.nucleus.reference import brute_force_cliques

from .fixtures import SMALL_GRAPHS, k_complete


def setup(name, orientation="degree"):
    und = build_csr(SMALL_GRAPHS[name])
    dg = orient_csr(und, make_rank(und, orientation))
    return und, dg


def clique_set(mat):
    return {tuple(row) for row in np.sort(mat, axis=1).tolist()}


def expected_s_counts(und, r, s):
    expected = {R: 0 for R in brute_force_cliques(und, r)}
    for S in brute_force_cliques(und, s):
        for sub in combinations(S, r):
            expected[sub] += 1
    return expected


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
@pytest.mark.parametrize("c", [2, 3, 4, 5])
def test_count_matches_brute_force(name, c):
    und, dg = setup(name)
    assert len(list_cliques(dg, c)) == len(brute_force_cliques(und, c))


@pytest.mark.parametrize("name", ["fig1", "k6", "er30", "comm"])
@pytest.mark.parametrize("c", [3, 4])
@pytest.mark.parametrize("orientation", ["degree", "degeneracy", "goodrich-pszona"])
def test_count_orientation_invariant(name, c, orientation):
    und, dg = setup(name, orientation)
    got = list_cliques(dg, c)
    assert clique_set(got) == set(brute_force_cliques(und, c))
    assert len(got) == len(clique_set(got)), "each clique listed once"


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_enumerate_matches_brute_force(name):
    und, dg = setup(name)
    assert clique_set(list_cliques(dg, 3)) == set(brute_force_cliques(und, 3))


def test_k_complete_counts():
    _, dg = setup("k7")
    for c in range(1, 8):
        assert len(list_cliques(dg, c)) == comb(7, c)


def test_fig1_triangle_count():
    _, dg = setup("fig1")
    assert len(list_cliques(dg, 3)) == 14  # stated in the paper


@pytest.mark.parametrize("name", ["fig1", "k6", "er30", "comm", "two-tri"])
@pytest.mark.parametrize("r,s", [(1, 2), (2, 3), (2, 4), (3, 4), (3, 5)])
def test_s_counts_per_r_clique(name, r, s):
    und, dg = setup(name)
    vmat, cnts = s_counts_per_r_clique(dg, r, s)
    assert np.array_equal(vmat, np.unique(vmat, axis=0)), "rows sorted and lexsorted"
    got = {tuple(row): c for row, c in zip(vmat.tolist(), cnts.tolist())}
    assert got == expected_s_counts(und, r, s)


def test_fig1_34_initial_counts():
    """Paper: cdg->0; abf,aef,bef->1; abe->3; the rest->2."""
    _, dg = setup("fig1")
    vmat, cnts = s_counts_per_r_clique(dg, 3, 4)
    got = {tuple(row): int(c) for row, c in zip(vmat.tolist(), cnts.tolist())}
    assert got[(2, 3, 6)] == 0
    assert got[(0, 1, 5)] == got[(0, 4, 5)] == got[(1, 4, 5)] == 1
    assert got[(0, 1, 4)] == 3
    assert sorted(got.values()) == [0, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3]


def test_large_vertex_ids():
    """A K6 on ids near 2^20: packing 4 such ids into one int64 overflows."""
    base = (1 << 20) - 3
    edges = k_complete(6) + base
    und = build_csr(edges)
    dg = orient_csr(und, make_rank(und, "degeneracy"))
    vmat, cnts = s_counts_per_r_clique(dg, 4, 5)
    assert vmat.tolist() == [[base + i for i in c] for c in combinations(range(6), 4)]
    assert (cnts == 2).all()  # each 4-clique of K6 lies in 6 - 4 = 2 5-cliques
    full = extend_cliques(und, dg, vmat, 1)
    assert len(full) == len(vmat) * 2
    assert clique_set(full) == {tuple(base + i for i in c) for c in combinations(range(6), 5)}


@pytest.mark.parametrize("name", ["fig1", "k6", "er30", "comm"])
@pytest.mark.parametrize("r,s", [(2, 3), (2, 4), (3, 4), (3, 5)])
def test_extend_lists_scliques_containing_R(name, r, s):
    und, dg = setup(name)
    s_cliques = brute_force_cliques(und, s)
    for R in brute_force_cliques(und, r)[:20]:
        found = [tuple(row) for row in extend_cliques(und, dg, np.array([R]), s - r).tolist()]
        expected = {S for S in s_cliques if set(R) <= set(S)}
        assert set(found) == expected
        assert len(found) == len(set(found)), "each s-clique listed once"


@pytest.mark.parametrize("name", ["fig1", "er30", "comm"])
@pytest.mark.parametrize("r,s", [(1, 3), (2, 3), (2, 4), (3, 5)])
def test_extend_many_rows(name, r, s):
    """One call over all r-cliques lists each s-clique once per r-subset."""
    und, dg = setup(name)
    R = np.array(brute_force_cliques(und, r), dtype=np.int64).reshape(-1, r)
    stats = Stats()
    got = extend_cliques(und, dg, R, s - r, stats=stats)
    expected = sorted(S for S in brute_force_cliques(und, s) for _ in combinations(S, r))
    assert sorted(map(tuple, got.tolist())) == expected
    assert stats.cliques_found == len(expected)


def test_intersect_neighborhoods():
    """The first UPDATE level is the common neighbourhood of R."""
    und, dg = setup("fig1")
    # common neighbours of a=0, b=1 in Fig 1: c, d, e, f
    got = extend_cliques(und, dg, np.array([[0, 1]]), 1)
    assert got.tolist() == [[0, 1, 2], [0, 1, 3], [0, 1, 4], [0, 1, 5]]


def test_stats_counts_cliques():
    _, dg = setup("k6")
    stats = Stats()
    n = len(list_cliques(dg, 3, stats=stats))
    assert stats.cliques_found == n == 20
    s_counts_per_r_clique(dg, 2, 3, stats=stats)
    assert stats.cliques_found == 20 + comb(6, 2) + comb(6, 3)


def test_roots_partition_counts():
    """Listing over a partition of roots concatenates to the full list."""
    und, dg = setup("er30")
    parts = [list_cliques(dg, 3, roots=np.arange(lo, min(lo + 7, dg.n))) for lo in range(0, dg.n, 7)]
    whole = np.concatenate(parts)
    assert len(whole) == len(list_cliques(dg, 3))
    assert clique_set(whole) == set(brute_force_cliques(und, 3))


@pytest.mark.parametrize("shape", [(0, 3), (1, 2), (200, 3), (500, 5)])
def test_unique_rows(shape):
    """Distinct rows in lexicographic order, each input row mapped to its own."""
    rows = np.random.default_rng(shape[0]).integers(0, 4, size=shape) + (1 << 40)
    uniq, group = unique_rows(rows)
    assert np.array_equal(uniq, np.unique(rows, axis=0))
    assert np.array_equal(uniq[group], rows) and group.dtype == np.int64
