"""Orientation orderings: validity and out-degree bounds."""
import networkx as nx
import numpy as np
import pytest

from repro.graphs.csr import build_csr, orient_csr
from repro.graphs.gen import SURROGATES, surrogate
from repro.graphs.orient import (
    degeneracy_order,
    degree_order,
    goodrich_pszona_order,
    make_rank,
    relabel,
)

from .fixtures import MEDIUM_GRAPHS, SMALL_GRAPHS

ALL = {**SMALL_GRAPHS, **MEDIUM_GRAPHS}
WITH_SURROGATES = sorted(ALL) + sorted(SURROGATES)


def edges_of(name):
    return ALL[name] if name in ALL else surrogate(name)


def sequential_goodrich_pszona(und, eps=1.0):
    """Per-vertex reference: each round ranks the lowest (degree, id)
    n_live * eps / (1 + eps) live vertices, then decrements the live
    neighbours of each removed vertex one vertex at a time."""
    deg = und.degrees().astype(np.int64)
    alive = np.ones(und.n, dtype=bool)
    rank = np.empty(und.n, dtype=np.int64)
    pos = 0
    while alive.any():
        live = np.flatnonzero(alive)
        k = max(1, int(len(live) * eps / (1.0 + eps)))
        order = live[np.lexsort((live, deg[live]))][:k]
        rank[order] = pos + np.arange(len(order))
        pos += len(order)
        alive[order] = False
        for v in order:
            nb = und.neighbors(v)
            deg[nb[alive[nb]]] -= 1
    return rank


@pytest.mark.parametrize("name", sorted(ALL))
@pytest.mark.parametrize("kind", ["degree", "degeneracy", "goodrich-pszona"])
def test_rank_is_permutation(name, kind):
    und = build_csr(ALL[name])
    rank = make_rank(und, kind)
    assert sorted(rank.tolist()) == list(range(und.n))


@pytest.mark.parametrize("name", WITH_SURROGATES)
def test_degeneracy_out_degree_bound(name):
    """No vertex has more than d neighbours ranked after it."""
    und = build_csr(edges_of(name))
    rank, d = degeneracy_order(und)
    dg = orient_csr(und, rank)
    assert int(dg.degrees().max(initial=0)) <= d


@pytest.mark.parametrize("name", sorted(ALL))
def test_goodrich_pszona_out_degree_reasonable(name):
    """GP is an O(alpha) orientation: out-degree O(degeneracy) with small constant."""
    und = build_csr(ALL[name])
    _, d = degeneracy_order(und)
    dg = orient_csr(und, goodrich_pszona_order(und))
    assert int(dg.degrees().max(initial=0)) <= max(4, 4 * d)


@pytest.mark.parametrize("name", WITH_SURROGATES)
def test_degeneracy_equals_max_core_number(name):
    edges = edges_of(name)
    g = nx.Graph()
    g.add_edges_from(edges.tolist())
    g.remove_edges_from(nx.selfloop_edges(g))
    assert degeneracy_order(build_csr(edges))[1] == max(nx.core_number(g).values())


@pytest.mark.parametrize("name", WITH_SURROGATES)
@pytest.mark.parametrize("eps", [1.0, 0.25])
def test_goodrich_pszona_matches_sequential_reference(name, eps):
    und = build_csr(edges_of(name))
    assert np.array_equal(goodrich_pszona_order(und, eps=eps), sequential_goodrich_pszona(und, eps))


def test_degeneracy_of_complete_graph():
    und = build_csr(SMALL_GRAPHS["k6"])
    assert degeneracy_order(und)[1] == 5


def test_degeneracy_of_path():
    und = build_csr(SMALL_GRAPHS["path6"])
    assert degeneracy_order(und)[1] == 1


def test_unknown_kind_raises():
    und = build_csr(SMALL_GRAPHS["k4"])
    with pytest.raises(ValueError):
        make_rank(und, "nope")


def test_relabel_roundtrip():
    edges = SMALL_GRAPHS["fig1"]
    und = build_csr(edges)
    rank = make_rank(und, "degeneracy")
    new_edges, perm = relabel(edges, rank)
    back = perm[new_edges]
    assert np.array_equal(
        np.sort(np.sort(back, axis=1), axis=0), np.sort(np.sort(edges, axis=1), axis=0)
    )


def test_relabel_makes_identity_rank():
    edges = SMALL_GRAPHS["comm"]
    und = build_csr(edges)
    rank = make_rank(und, "degeneracy")
    new_edges, _ = relabel(edges, rank)
    und2 = build_csr(new_edges, und.n)
    dg2 = orient_csr(und2, np.arange(und.n))
    # after relabeling, rank order == id order: every arc goes id-up
    for v in range(dg2.n):
        assert (dg2.neighbors(v) > v).all()
