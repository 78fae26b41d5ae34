"""Low out-degree orientations (§3 "O(alpha)-Orientation") and relabeling.

Three orderings are provided, mirroring the options in Shi et al. [60]:

* ``degree_order``   — order by (degree, id); the cheap heuristic.
* ``degeneracy_order`` — Julienne's k-core order (Dhulipala, Blelloch,
  Shun, SPAA 2017), as in Shi et al.'s parallel clique counting: each
  round removes every live vertex of live degree <= k at once, where k is
  the running maximum of the minimum live degree. It returns the exact
  degeneracy d <= 2*alpha - 1 and bounds every out-degree by d; ties
  inside a round are broken by (degree, id), so the order is not the
  one-vertex-at-a-time minimum-degree order.
* ``goodrich_pszona_order`` — round-based: repeatedly remove the
  epsilon-fraction of lowest-degree vertices; O(log n) rounds, constant-
  factor approximation of the degeneracy ordering (the parallel-friendly
  variant analysed in the paper).

Both peeling orders share one round loop whose neighbour decrement is one
gather and one ``np.bincount`` per round.

``relabel`` renames vertices by orientation rank (§5.4 graph
relabeling), so clique vertices are discovered in increasing label order
and no per-clique re-sorting is needed.
"""
from __future__ import annotations

import numpy as np

from .csr import CSR

__all__ = [
    "degree_order",
    "degeneracy_order",
    "goodrich_pszona_order",
    "make_rank",
    "ORIENTATIONS",
    "relabel",
]


def degree_order(csr: CSR) -> np.ndarray:
    """rank[v] = position of v when sorted by (degree, id)."""
    order = np.lexsort((np.arange(csr.n), csr.degrees()))
    rank = np.empty(csr.n, dtype=np.int64)
    rank[order] = np.arange(csr.n)
    return rank


def _removed_neighbour_counts(csr: CSR, out: np.ndarray, alive: np.ndarray) -> np.ndarray:
    """For every vertex, how many of the just-removed vertices ``out`` it
    neighbours, counting live vertices only (``alive`` already excludes
    ``out``). One gather over the removed vertices' lists and one bincount."""
    starts = csr.offsets[out]
    lens = csr.offsets[out + 1] - starts
    nb = csr.nbrs[np.arange(lens.sum()) + np.repeat(starts - np.cumsum(lens) + lens, lens)]
    return np.bincount(nb[alive[nb]], minlength=csr.n)


def _peel_in_rounds(csr: CSR, pick) -> tuple[np.ndarray, int]:
    """Round-based peeling shared by both peeling orders.

    Each round, ``pick(degrees, k)`` selects the live vertices to remove
    from their live degrees (in id order) and k, the running maximum of
    the minimum live degree. The removed vertices get the next
    consecutive ranks in (degree, id) order, and each live neighbour
    loses one degree per removed neighbour. Returns (rank, final k).
    """
    n = csr.n
    deg = csr.degrees().astype(np.int64)
    alive = np.ones(n, dtype=bool)
    rank = np.empty(n, dtype=np.int64)
    live = np.arange(n, dtype=np.int64)
    pos = 0
    k = 0
    while len(live):
        d = deg[live]
        k = max(k, int(d.min()))
        sel = pick(d, k)
        out = live[sel][np.argsort(d[sel], kind="stable")]
        live = live[~sel]
        rank[out] = pos + np.arange(len(out))
        pos += len(out)
        alive[out] = False
        deg -= _removed_neighbour_counts(csr, out, alive)
    return rank, k


def degeneracy_order(csr: CSR) -> tuple[np.ndarray, int]:
    """k-core order in rounds (Julienne); returns (rank, degeneracy).

    Each round removes every live vertex whose live degree is at most k,
    the running maximum of the minimum live degree. The final k is the
    degeneracy d, and each vertex has at most d neighbours ranked after
    it: they were all live, and so counted in its degree, when it left.
    """
    return _peel_in_rounds(csr, lambda d, k: d <= k)


def goodrich_pszona_order(csr: CSR, *, eps: float = 1.0) -> np.ndarray:
    """Round-based peeling: each round removes the lowest-degree
    n_live * eps / (1 + eps) vertices (at least 1). O(log n) rounds."""
    frac = eps / (1.0 + eps)

    def lowest(d: np.ndarray, k: int) -> np.ndarray:
        sel = np.zeros(len(d), dtype=bool)
        sel[np.argsort(d, kind="stable")[: max(1, int(len(d) * frac))]] = True
        return sel

    return _peel_in_rounds(csr, lowest)[0]


_RANKS = {
    "degree": degree_order,
    "degeneracy": lambda csr: degeneracy_order(csr)[0],
    "goodrich-pszona": goodrich_pszona_order,
}
ORIENTATIONS = tuple(_RANKS)


def make_rank(csr: CSR, kind: str = "degeneracy") -> np.ndarray:
    """Factory over the three orderings named in ``ORIENTATIONS``."""
    if kind not in _RANKS:
        raise ValueError(f"unknown orientation kind {kind!r}; expected one of {ORIENTATIONS}")
    return _RANKS[kind](csr)


def relabel(edges: np.ndarray, rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rename vertices so that vertex id == orientation rank (§5.4).

    Returns (relabeled edge array, perm) where perm[new_id] = old_id,
    letting callers translate clique vertices back to original ids.
    """
    new_edges = rank[edges]
    perm = np.empty(len(rank), dtype=np.int64)
    perm[rank] = np.arange(len(rank))
    return new_edges, perm
