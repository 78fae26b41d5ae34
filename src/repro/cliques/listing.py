"""REC-LIST-CLIQUES (Algorithm 1), one level at a time, and the counting
and UPDATE kernels built on it.

Algorithm 1 grows a clique by intersecting its candidate set with the
directed (O(alpha)-oriented) neighbourhood of each new vertex, so each
c-clique is found exactly once, in DG order. Here a whole frontier of
partial cliques grows together: the (rows, k) matrix is expanded by the
out-neighbours of each row's last vertex, and a candidate is kept only if
it is adjacent to every earlier vertex of its row, tested by binary
search on the graph's sorted packed arc keys (``CSR.arc_keys``). That is
Algorithm 1's intersect-then-keep step, applied to every partial clique
of a level at once instead of to one vertex at a time.

Work matches O(m * alpha^(c-2)) per Shi et al. [60]; ``Stats`` counts
the operations that the work-span cost model (instrument.py) consumes.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ..graphs.csr import CSR

__all__ = ["Stats", "list_cliques", "unique_rows", "s_counts_per_r_clique", "extend_cliques"]


@dataclass
class Stats:
    """Operation counters feeding the work-span cost model."""

    intersect_work: int = 0  # candidates probed for adjacency
    cliques_found: int = 0  # cliques returned


def _grow(rows: np.ndarray, expand: CSR, adj: CSR, stats: Stats) -> np.ndarray:
    """Every one-vertex extension of the (q, k) frontier ``rows``.

    Candidates are the ``expand``-neighbours of each row's last vertex; a
    candidate w is kept if ``adj`` has an arc from each other vertex of
    the row to w. Returns the (q', k + 1) matrix of kept extensions.
    """
    starts = expand.offsets[rows[:, -1]]
    deg = expand.offsets[rows[:, -1] + 1] - starts
    parent = np.repeat(np.arange(len(rows)), deg)
    cand = expand.nbrs[np.arange(len(parent)) + np.repeat(starts - np.cumsum(deg) + deg, deg)]
    stats.intersect_work += len(cand)
    keys = adj.arc_keys
    for j in range(rows.shape[1] - 1):
        key = rows[parent, j] * adj.n + cand
        hit = keys[np.minimum(np.searchsorted(keys, key), len(keys) - 1)] == key
        parent, cand = parent[hit], cand[hit]
    return np.column_stack((rows[parent], cand))


def unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of an integer matrix, and the group of each input row.

    Returns (uniq, group): the lexicographically sorted distinct rows and,
    for every input row i, the index ``group[i]`` of its row in ``uniq``.
    Rows are grouped by a column-wise lexsort, never by packing their ids
    into one integer, which overflows int64 once n^r > 2^63.
    """
    order = np.lexsort(rows.T[::-1])
    srt = rows[order]
    first = np.ones(len(srt), dtype=bool)
    first[1:] = (srt[1:] != srt[:-1]).any(axis=1)
    group = np.empty(len(rows), dtype=np.int64)
    group[order] = np.cumsum(first) - 1
    return srt[first], group


def list_cliques(
    dg: CSR,
    c: int,
    *,
    roots: np.ndarray | None = None,
    stats: Stats | None = None,
) -> np.ndarray:
    """Every c-clique of the oriented graph as an (n_c, c) matrix.

    Each row lists its vertices in DG order. ``roots`` restricts the
    first vertex to a subset (the Spark fan-out unit).
    """
    stats = stats or Stats()
    first = np.arange(dg.n) if roots is None else np.asarray(roots, dtype=np.int64)
    rows = first.reshape(-1, 1)
    for _ in range(c - 1):
        rows = _grow(rows, dg, dg, stats)
    stats.cliques_found += len(rows)
    return rows


def s_counts_per_r_clique(
    dg: CSR,
    r: int,
    s: int,
    *,
    roots: np.ndarray | None = None,
    stats: Stats | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """s-clique count of every r-clique (COUNT-FUNC of Algorithm 2).

    Returns (vmat, counts): the lexicographically sorted (n_r, r) matrix
    of sorted r-clique rows and the aligned int64 counts. r-cliques with
    no incident s-clique are included (they form the 0-bucket). With a
    restricted root set (the Spark fan-out), an s-clique rooted here may
    contain r-cliques rooted in other partitions; those rows appear with
    partial counts that are summed downstream (groupBy().sum()).
    """
    r_mat = np.sort(list_cliques(dg, r, roots=roots, stats=stats), axis=1)
    s_mat = np.sort(list_cliques(dg, s, roots=roots, stats=stats), axis=1)
    subsets = s_mat[:, list(combinations(range(s), r))].reshape(-1, r)
    vmat, group = unique_rows(np.concatenate((r_mat, subsets)))
    return vmat, np.bincount(group[len(r_mat):], minlength=len(vmat))


def extend_cliques(
    und: CSR,
    dg: CSR,
    R: np.ndarray,
    need: int,
    *,
    stats: Stats | None = None,
) -> np.ndarray:
    """Every s-clique containing a row of the (q, r) matrix R, where
    need = s - r (UPDATE, Algorithm 2 lines 13-18).

    Each row starts from its minimum-degree member in ``und``, so the
    first level probes O(min_i deg(v_i)) candidates, the bound of Lemma
    4.1; the other extra vertices follow DG order. An s-clique is listed
    once for each row of R it contains. Returns the (k, s) matrix of
    s-cliques with sorted rows.
    """
    stats = stats or Stats()
    R = np.asarray(R, dtype=np.int64)
    rows = R.copy()
    i = np.arange(len(R))
    lo = np.argmin(und.degrees()[R], axis=1)
    rows[i, lo], rows[i, -1] = R[i, -1], R[i, lo]
    rows = _grow(rows, und, und, stats)
    for _ in range(need - 1):
        rows = _grow(rows, dg, und, stats)
    stats.cliques_found += len(rows)
    return np.sort(rows, axis=1)
