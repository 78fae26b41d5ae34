"""Low out-degree orientations (§3 "O(alpha)-Orientation") and relabeling.

Three orderings are provided, mirroring the options in Shi et al. [60]:

* ``degree_order``   — order by (degree, id); the cheap heuristic.
* ``degeneracy_order`` — exact minimum-degree peeling (k-core order);
  out-degree bounded by the degeneracy d <= 2*alpha - 1.
* ``goodrich_pszona_order`` — round-based: repeatedly remove the
  epsilon-fraction of lowest-degree vertices; O(log n) rounds, constant-
  factor approximation of the degeneracy ordering (the parallel-friendly
  variant analysed in the paper).

``relabel`` renames vertices by orientation rank (§5.4 graph
relabeling), so clique vertices are discovered in increasing label order
and no per-clique re-sorting is needed.
"""
from __future__ import annotations

import numpy as np

from .csr import CSR, build_csr

__all__ = [
    "degree_order",
    "degeneracy_order",
    "goodrich_pszona_order",
    "make_rank",
    "ORIENTATIONS",
    "relabel",
    "degeneracy",
]


def degree_order(csr: CSR) -> np.ndarray:
    """rank[v] = position of v when sorted by (degree, id)."""
    order = np.lexsort((np.arange(csr.n), csr.degrees()))
    rank = np.empty(csr.n, dtype=np.int64)
    rank[order] = np.arange(csr.n)
    return rank


def degeneracy_order(csr: CSR) -> tuple[np.ndarray, int]:
    """Exact degeneracy (min-degree peeling) order; returns (rank, degeneracy)."""
    n = csr.n
    deg = csr.degrees().copy()
    rank = np.full(n, -1, dtype=np.int64)
    # Bucket queue over degrees.
    maxd = int(deg.max()) if n else 0
    buckets: list[list[int]] = [[] for _ in range(maxd + 1)]
    for v in range(n):
        buckets[deg[v]].append(v)
    degeneracy_val = 0
    cur = 0
    pos = 0
    while pos < n:
        while cur <= maxd and not buckets[cur]:
            cur += 1
        v = buckets[cur].pop()
        if rank[v] != -1 or deg[v] != cur:
            # stale entry (degree decreased since enqueue)
            if rank[v] == -1 and deg[v] < cur:
                buckets[deg[v]].append(v)
                cur = deg[v]
            continue
        rank[v] = pos
        pos += 1
        degeneracy_val = max(degeneracy_val, cur)
        for w in csr.neighbors(v):
            if rank[w] == -1:
                deg[w] -= 1
                buckets[deg[w]].append(w)
                if deg[w] < cur:
                    cur = deg[w]
    return rank, degeneracy_val


def goodrich_pszona_order(csr: CSR, *, eps: float = 1.0) -> np.ndarray:
    """Round-based peeling: each round removes the lowest-degree
    n_live * eps / (1 + eps) vertices (at least 1). O(log n) rounds."""
    n = csr.n
    deg = csr.degrees().astype(np.int64).copy()
    alive = np.ones(n, dtype=bool)
    rank = np.empty(n, dtype=np.int64)
    pos = 0
    frac = eps / (1.0 + eps)
    while alive.any():
        live = np.flatnonzero(alive)
        k = max(1, int(len(live) * frac))
        order = live[np.lexsort((live, deg[live]))][:k]
        rank[order] = pos + np.arange(len(order))
        pos += len(order)
        alive[order] = False
        # decrement degrees of remaining neighbours
        for v in order:
            nb = csr.neighbors(v)
            deg[nb[alive[nb]]] -= 1
    return rank


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


def degeneracy(csr: CSR) -> int:
    return degeneracy_order(csr)[1]


def relabel(edges: np.ndarray, rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rename vertices so that vertex id == orientation rank (§5.4).

    Returns (relabeled edge array, perm) where perm[new_id] = old_id,
    letting callers translate clique vertices back to original ids.
    """
    new_edges = rank[edges]
    perm = np.empty(len(rank), dtype=np.int64)
    perm[rank] = np.arange(len(rank))
    return new_edges, perm
