"""The clique count table ``T`` of ARB-NUCLEUS-DECOMP (paper §5.1-5.3).

Supports every configuration evaluated in §6.2:

* ``levels=1`` — one hash table keyed by the packed r-clique.
* ``levels=2, first_level='array'`` — the paper's *two-level* option: an
  array of size n indexed by the first vertex, pointing at last-level
  tables keyed by the remaining (r-1)-clique.
* ``levels=l, first_level='hash'`` — the *l-multi-level* option: nested
  single-vertex hash tables for the first l-1 vertices, a last level
  keyed by the (r-l+1)-vertex suffix.
* ``contiguous`` — last-level tables packed into one block (with barrier
  cells) vs separately allocated per-region arrays (§5.2).
* ``decode='pointer'`` — inverse index map by scanning right to an
  empty/barrier cell holding an up-pointer (§5.3, contiguous only);
  ``decode='binsearch'`` — binary search over per-level region starts.

Every hash level is a ``_Level``: one region (hash table) per distinct
prefix of the columns before it, keyed by its own columns. An array
first level maps v1 straight to a region of the next level. An
r-clique's identifier everywhere else in the algorithm (bucketing,
counts, core numbers) is its absolute cell position in the last level,
exactly as in §5.3.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .open_addr import EMPTY_BIT, PAYLOAD_MASK, capacity_for, region_find, region_insert
from .packing import fits, pack, unpack

__all__ = ["TableConfig", "CliqueTable", "make_table", "min_levels"]

FIRST_LEVELS = ("array", "hash")
DECODES = ("pointer", "binsearch")


@dataclass(frozen=True)
class TableConfig:
    levels: int = 1
    first_level: str = "array"  # 'array' | 'hash'; relevant for levels >= 2
    contiguous: bool = True
    decode: str = "pointer"  # 'pointer' | 'binsearch'
    load: float = 0.5

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise ValueError(f"TableConfig.levels must be >= 1, got {self.levels!r}")
        if self.first_level not in FIRST_LEVELS:
            raise ValueError(
                f"TableConfig.first_level must be one of {FIRST_LEVELS}, got {self.first_level!r}"
            )
        if self.decode not in DECODES:
            raise ValueError(f"TableConfig.decode must be one of {DECODES}, got {self.decode!r}")
        if not 0 < self.load <= 1:
            raise ValueError(f"TableConfig.load must be in (0, 1], got {self.load!r}")
        if self.decode == "pointer" and not self.contiguous:
            raise ValueError(
                "TableConfig.decode='pointer' scans the cells and needs contiguous=True, "
                f"got contiguous={self.contiguous!r}"
            )

    def label(self) -> str:
        if self.levels == 1:
            return "1-level"
        kind = "2-level" if (self.levels == 2 and self.first_level == "array") else f"{self.levels}-multi"
        return f"{kind}/{'contig' if self.contiguous else 'noncontig'}/{self.decode}"


def min_levels(n: int, r: int) -> int:
    """Smallest l such that the last-level key (r-l+1 vertices) fits 63 bits."""
    for levels in range(1, r + 1):
        if fits(n, r - levels + 1):
            return levels
    raise ValueError(f"no level count fits r={r}, n={n}")


class _Level:
    """One level of T: open-addressing regions laid end to end, each
    followed by a barrier cell; empty and barrier cells hold the region's
    up-pointer (its parent's cell one level up, or v1 under an array
    first level). Non-contiguous, the regions are copied into separately
    allocated blocks (§5.2) addressed by the same absolute positions.

    ``key_pos`` is the cell of each inserted key, in input order;
    ``child`` maps a cell to its region one level down (non-last levels).
    """

    __slots__ = ("starts", "caps", "parent", "size", "key_pos", "cells", "blocks", "child")

    def __init__(self, region_of, keys, parent, load: float, contiguous: bool):
        self.caps = capacity_for(np.bincount(region_of, minlength=len(parent)), load)
        sizes = self.caps + 1
        self.starts = np.cumsum(sizes) - sizes
        self.parent = parent
        cells = np.repeat(EMPTY_BIT | np.maximum(parent, 0).astype(np.uint64), sizes)
        self.key_pos = region_insert(cells, self.starts[region_of], self.caps[region_of], keys)
        self.size = len(cells)
        self.cells = cells if contiguous else None
        self.blocks = None if contiguous else [
            cells[s : s + c + 1].copy() for s, c in zip(self.starts.tolist(), self.caps.tolist())
        ]
        self.child = None

    def region_at(self, pos: np.ndarray) -> np.ndarray:
        """Region of each absolute cell position."""
        return np.searchsorted(self.starts, pos, side="right") - 1

    def find(self, regs: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Cell of each key in its region; -1 if absent or ``regs`` < 0."""
        if self.cells is not None:
            safe = np.maximum(regs, 0)
            return region_find(self.cells, np.where(regs >= 0, self.starts[safe], -1), self.caps[safe], keys)
        out = np.full(len(keys), -1, dtype=np.int64)
        idx = np.flatnonzero(regs >= 0)
        for rid, sel in _groups(regs[idx]):
            sel = idx[sel]
            pos = region_find(self.blocks[rid], 0, self.caps[rid], keys[sel])
            out[sel] = np.where(pos >= 0, pos + self.starts[rid], -1)
        return out

    def values(self, pos: np.ndarray) -> np.ndarray:
        """Cell contents at absolute positions."""
        if self.cells is not None:
            return self.cells[pos]
        out = np.empty(len(pos), dtype=np.uint64)
        for rid, sel in _groups(self.region_at(pos)):
            out[sel] = self.blocks[rid][pos[sel] - self.starts[rid]]
        return out


class CliqueTable:
    """See module docstring. Build once from the full set of r-cliques."""

    def __init__(self, vmat: np.ndarray, n: int, config: TableConfig | None = None):
        config = config or TableConfig()
        vmat = np.asarray(vmat, dtype=np.int64)
        if vmat.ndim != 2:
            vmat = vmat.reshape(-1, 1)
        self.n = int(n)
        self.r = int(vmat.shape[1]) if vmat.size else (vmat.shape[1] or 1)
        if config.levels > self.r:  # the paper requires l <= r
            config = replace(config, levels=self.r)
        self.config = config
        self.suffix_w = self.r - config.levels + 1
        if not fits(n, self.suffix_w):
            raise ValueError(
                f"last-level key of {self.suffix_w} vertices does not fit for n={n}; "
                f"need levels >= {min_levels(n, self.r)}"
            )
        self.n_cliques = int(len(vmat))
        order = np.lexsort(tuple(vmat[:, j] for j in range(self.r - 1, -1, -1)))
        self._build(vmat[order], order)

    # ------------------------------------------------------------------ build
    def _build(self, vmat: np.ndarray, order: np.ndarray) -> None:
        """Level (c, w) stores each distinct (c+w)-prefix of the sorted
        rows under its columns c..c+w-1, in the region of its c-prefix;
        the width-0 prefix is one region."""
        cfg = self.config
        L = cfg.levels
        array_first = L >= 2 and cfg.first_level == "array"
        self.spans = [(c, 1) for c in range(int(array_first), L - 1)] + [(L - 1, self.suffix_w)]
        new_c = _new_prefix(vmat, self.spans[0][0])
        self.first = None
        if array_first:
            heads = vmat[new_c, 0]
            self.first = np.full(self.n, -1, dtype=np.int64)
            self.first[heads] = np.arange(len(heads))
            parent = heads  # a level-2 region's up-pointer is v1 itself
        else:
            parent = np.array([-1], dtype=np.int64)
        self.levels: list[_Level] = []
        for c, w in self.spans:
            new_e = _new_prefix(vmat, c + w)
            entries = np.flatnonzero(new_e)
            region_of = (np.cumsum(new_c) - 1)[entries]
            keys = pack(vmat[entries, c : c + w], self.n)
            last = c + w == self.r  # §5.2's layout choice is the last level's
            lvl = _Level(region_of, keys, parent, cfg.load, cfg.contiguous or not last)
            if not last:
                lvl.child = np.full(lvl.size, -1, dtype=np.int64)
                lvl.child[lvl.key_pos] = np.arange(len(entries))
            self.levels.append(lvl)
            parent, new_c = lvl.key_pos, new_e
        self._row_index = np.empty(len(vmat), dtype=np.int64)
        self._row_index[order] = parent
        self.capacity = self.levels[-1].size

    # ------------------------------------------------------------------ query
    def row_indices(self) -> np.ndarray:
        """Cell index of each input row, in original input order."""
        return self._row_index

    def occupied_indices(self) -> np.ndarray:
        """Sorted cell indices of all stored r-cliques."""
        last = self.levels[-1]
        return np.flatnonzero((last.values(np.arange(last.size)) & EMPTY_BIT) == 0)

    def lookup(self, vmat: np.ndarray) -> np.ndarray:
        """Cell index of each query r-clique (rows sorted asc); -1 if absent.
        One walk down: each level maps (region, key) to a cell, and the
        cell to its region one level down."""
        vmat = np.atleast_2d(np.asarray(vmat, dtype=np.int64))
        if self.first is not None:
            regs = self.first[vmat[:, 0]]
        else:
            regs = np.zeros(len(vmat), dtype=np.int64)
        for lvl, (c, w) in zip(self.levels, self.spans):
            pos = lvl.find(regs, pack(vmat[:, c : c + w], self.n))
            if lvl.child is not None:
                regs = np.where(pos >= 0, lvl.child[pos], -1)
        return pos

    # ----------------------------------------------------------------- decode
    def decode(self, idx: np.ndarray) -> np.ndarray:
        """Inverse index map: cell indices -> (k, r) sorted vertex matrix.
        One walk up: read a level's columns from the cell, then step to
        the parent cell — by scanning right to the region's up-pointer
        (pointer) or by binary search over region starts (binsearch)."""
        cur = np.asarray(idx, dtype=np.int64)
        out = np.empty((len(cur), self.r), dtype=np.int64)
        for lvl, (c, w) in zip(reversed(self.levels), reversed(self.spans)):
            out[:, c : c + w] = unpack(lvl.values(cur), self.n, w)
            if c == 0:
                return out
            if self.config.decode == "pointer":
                cur = _scan_up(lvl.cells, cur)
            else:
                cur = lvl.parent[lvl.region_at(cur)]
        out[:, 0] = cur  # array first level: the last up-pointer is v1
        return out

    # ------------------------------------------------------------------ space
    def memory_units(self) -> int:
        """Units per the paper's model (Figs 3-4): one per stored vertex,
        one per pointer (array slots count as pointers)."""
        units = self.n_cliques * self.suffix_w
        if self.first is not None:
            units += self.n
        return units + sum(2 * len(lvl.key_pos) for lvl in self.levels[:-1])

    def allocated_cells(self) -> int:
        """Actually allocated cells, including empties and barriers."""
        total = sum(lvl.size for lvl in self.levels)
        return total + (self.n if self.first is not None else 0)


def _new_prefix(mat: np.ndarray, j: int) -> np.ndarray:
    """Whether each sorted row starts a new distinct j-prefix (j = 0: only
    the first row)."""
    new = np.ones(len(mat), dtype=bool)
    new[1:] = np.any(mat[1:, :j] != mat[:-1, :j], axis=1)
    return new


def _groups(rid: np.ndarray):
    """Yield (region, indices into ``rid``) for each distinct region."""
    idx = np.argsort(rid, kind="stable")
    for sel in np.split(idx, np.flatnonzero(np.diff(rid[idx])) + 1):
        if len(sel):
            yield int(rid[sel[0]]), sel


def _scan_up(cells: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """For each cell index, scan right to the first empty/barrier cell and
    return its payload (the up-pointer)."""
    pos = idx + 1
    out = np.full(len(idx), -1, dtype=np.int64)
    active = np.ones(len(idx), dtype=bool)
    while active.any():
        sel = np.flatnonzero(active)
        vals = cells[pos[sel]]
        hit = (vals & EMPTY_BIT) != 0
        out[sel[hit]] = (vals[hit] & PAYLOAD_MASK).astype(np.int64)
        active[sel[hit]] = False
        pos[sel[~hit]] += 1
    return out


def make_table(vmat: np.ndarray, n: int, config: TableConfig | None = None) -> CliqueTable:
    """Factory; auto-raises the level count when the key would not fit."""
    config = config or TableConfig()
    r = vmat.shape[1] if vmat.ndim == 2 else 1
    need = min_levels(n, r)
    if config.levels < need:
        config = replace(config, levels=need)
    return CliqueTable(vmat, n, config)
