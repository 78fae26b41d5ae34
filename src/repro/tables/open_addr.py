"""Vectorized linear-probing open addressing over regions of a shared
cell array.

A *region* is a slice ``[start, start + cap)`` of the cell array used as
one hash table, followed by one explicit *barrier* cell at
``start + cap`` (paper §5.3: barriers between tables hold up-pointers).
Empty cells carry ``EMPTY_BIT`` plus an up-pointer payload. Probing is
modulo ``cap`` (the barrier is never probed), and every region keeps at
least one empty probe-able cell, so searches terminate.

``region_insert`` and ``region_find`` take one (start, cap) pair per key
(or one pair broadcast to every key) and probe all pending keys at once
with a mask-driven loop — the batch analogue of the paper's concurrent
hash table inserts and lookups.
"""
from __future__ import annotations

import numpy as np

from .packing import EMPTY_BIT, PAYLOAD_MASK

__all__ = ["hash_u64", "capacity_for", "region_insert", "region_find", "EMPTY_BIT", "PAYLOAD_MASK"]


def hash_u64(x: np.ndarray) -> np.ndarray:
    """Splitmix64-style mixer, vectorized on uint64."""
    x = np.asarray(x, dtype=np.uint64).copy()
    x = (x + np.uint64(0x9E3779B97F4A7C15)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    x ^= x >> np.uint64(30)
    x = (x * np.uint64(0xBF58476D1CE4E5B9)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    x ^= x >> np.uint64(27)
    x = (x * np.uint64(0x94D049BB133111EB)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    x ^= x >> np.uint64(31)
    return x


def capacity_for(count, load: float = 0.5):
    """Probe-able capacity per key count (scalar or array), guaranteeing
    >= 1 empty cell for 0 < load <= 1."""
    return np.maximum(2, np.ceil(np.asarray(count) / load).astype(np.int64) + 1)


def _broadcast(starts, caps, k: int) -> tuple[np.ndarray, np.ndarray]:
    starts = np.broadcast_to(np.asarray(starts, dtype=np.int64), (k,))
    caps = np.broadcast_to(np.asarray(caps, dtype=np.int64), (k,))
    return starts, caps


def region_insert(cells: np.ndarray, starts, caps, keys: np.ndarray) -> np.ndarray:
    """Insert keys, each into its region; returns absolute cell positions.

    Keys must be distinct within a region and no region may receive more
    keys than it has empty cells. When several keys reach the same empty
    cell in one step, the lowest-indexed key claims it and the others
    probe on, so positions depend only on the input.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    k = len(keys)
    starts, caps = _broadcast(starts, caps, k)
    out = np.empty(k, dtype=np.int64)
    offs = (hash_u64(keys) % caps.astype(np.uint64)).astype(np.int64)
    pending = np.arange(k)
    while len(pending):
        pos = starts[pending] + offs[pending]
        free = np.flatnonzero(cells[pos] & EMPTY_BIT)
        # pending is ascending, so the first occurrence is the lowest key
        cell, first = np.unique(pos[free], return_index=True)
        won = free[first]
        cells[cell] = keys[pending[won]]
        out[pending[won]] = cell
        pending = np.delete(pending, won)
        offs[pending] = (offs[pending] + 1) % caps[pending]
    return out


def region_find(cells: np.ndarray, starts, caps, keys: np.ndarray) -> np.ndarray:
    """Batch lookup: absolute cell position per (region, key), -1 if absent.

    ``starts``/``caps`` are per-key arrays or scalars broadcast to every
    key; entries with ``starts < 0`` are treated as not-found immediately.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    k = len(keys)
    out = np.full(k, -1, dtype=np.int64)
    if k == 0:
        return out
    starts, caps = _broadcast(starts, caps, k)
    active = starts >= 0
    pos = np.zeros(k, dtype=np.int64)
    idx0 = np.flatnonzero(active)
    pos[idx0] = starts[idx0] + (
        hash_u64(keys[idx0]) % caps[idx0].astype(np.uint64)
    ).astype(np.int64)
    while True:
        idx = np.flatnonzero(active)
        if len(idx) == 0:
            break
        vals = cells[pos[idx]]
        hit = vals == keys[idx]
        empty = (vals & EMPTY_BIT) != 0
        out[idx[hit]] = pos[idx[hit]]
        active[idx[hit | empty]] = False
        adv = idx[~(hit | empty)]
        pos[adv] = starts[adv] + (pos[adv] - starts[adv] + 1) % caps[adv]
    return out
