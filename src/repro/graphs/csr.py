"""Compressed sparse row graph representation (§3 "Graph Storage").

The paper stores graphs in CSR and adjacency hash tables; here sorted
CSR neighbour arrays double as the hash-free intersection substrate
(sorted-array intersection has the same O(min(n1, n2))-ish cost profile
as the parallel hash-table intersection used in the analysis).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CSR", "build_csr", "orient_csr"]


@dataclass
class CSR:
    """Adjacency structure: neighbours of v are nbrs[offsets[v]:offsets[v+1]], sorted."""

    n: int
    offsets: np.ndarray  # int64, len n+1
    nbrs: np.ndarray  # int64, len = sum of degrees
    # Packed arc keys u*n + v in ascending order (rows grouped by u and
    # sorted by v), aligned with nbrs, so testing an arc is one binary search.
    arc_keys: np.ndarray

    @property
    def m(self) -> int:
        """Number of directed arcs stored (2x edges for an undirected CSR)."""
        return int(len(self.nbrs))

    def neighbors(self, v: int) -> np.ndarray:
        return self.nbrs[self.offsets[v] : self.offsets[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.offsets[v + 1] - self.offsets[v])

    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def subgraph(self, keep: np.ndarray, src: np.ndarray) -> CSR:
        """The CSR of the arcs selected by the boolean mask ``keep``;
        ``src`` is the source vertex of every arc."""
        counts = np.bincount(src[keep], minlength=self.n)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        return CSR(self.n, offsets, self.nbrs[keep], self.arc_keys[keep])


def build_csr(edges: np.ndarray, n: int | None = None) -> CSR:
    """Build a symmetric CSR from an (m, 2) undirected edge array.

    Self loops and duplicate edges are dropped; each edge contributes an
    arc in both directions; neighbour lists are sorted ascending. ``n``
    must exceed every vertex id.
    """
    edges = np.asarray(edges, dtype=np.int64)
    top = int(edges.max()) if len(edges) else -1
    if n is None:
        n = top + 1
    elif n <= top:
        raise ValueError(f"n={n} must exceed the largest vertex id {top}")
    u, v = edges[:, 0], edges[:, 1]
    keep = u != v
    u, v = u[keep], v[keep]
    # One sort of both directions' packed keys orders the arcs by (source,
    # target) and drops duplicate edges.
    keys = np.unique(np.concatenate((u * n + v, v * n + u)))
    offsets = np.concatenate(([0], np.cumsum(np.bincount(keys // n, minlength=n))))
    return CSR(n, offsets, keys % n, keys)


def orient_csr(csr: CSR, rank: np.ndarray) -> CSR:
    """Directed CSR keeping only arcs u -> v with rank[u] < rank[v].

    This is the a-orientation of §3: with ``rank`` from a degeneracy or
    Goodrich-Pszona ordering, out-degrees are O(alpha). Neighbour lists
    stay sorted by vertex id so intersections remain merge-based.
    """
    src = np.repeat(np.arange(csr.n, dtype=np.int64), csr.degrees())
    return csr.subgraph(rank[src] < rank[csr.nbrs], src)
