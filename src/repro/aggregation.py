"""The three options for aggregating the set U of updated r-cliques (§5.5).

All three produce identical round results (the sorted unique ids whose
counts changed); they differ in how parallel threads would reserve
space, which we model with contention counters consumed by the
work-span simulator (instrument.py):

* ``SimpleArrayU``  — one shared next-slot cursor: every first-touch of
  an r-clique performs a fetch-and-add on the same variable, so all
  insertions serialize: ``serialized_ops`` grows by #insertions.
* ``ListBufferU``   — per-thread cursors over per-thread blocks; threads
  only contend when reserving a fresh block: ``serialized_ops`` grows by
  #block reservations (#insertions / buffer_size).
* ``HashTableU``    — no reservation at all (hashing spreads insertions)
  but the table must be sized for the round and cleared afterwards:
  ``clear_work`` grows by the allocated capacity.

First-touch detection uses a round-stamp array, the practical
equivalent of "if this is the first modification of the r-clique's
count this round".
"""
from __future__ import annotations

import numpy as np

__all__ = ["make_aggregator", "AGGREGATIONS", "SimpleArrayU", "ListBufferU", "HashTableU"]


class _BaseU:
    def __init__(self, capacity: int):
        self.stamp = np.full(capacity, -1, dtype=np.int64)
        self.round = -1
        self.serialized_ops = 0  # ops that serialize across threads (span cost)
        self.clear_work = 0  # extra parallel work (work cost)
        self._parts: list[np.ndarray] = []

    def begin_round(self, round_no: int, n_peeled: int, max_updates_per_peel: int) -> None:
        self.round = round_no
        self._parts = []

    def record(self, ids: np.ndarray) -> None:
        """Register ids whose count changed; the ids of one call must be
        distinct (the peel loop passes ``np.unique`` output)."""
        ids = np.asarray(ids, dtype=np.int64)
        fresh = ids[self.stamp[ids] != self.round]
        self.stamp[fresh] = self.round
        if len(fresh):
            self._parts.append(fresh)
            self._on_insert(len(fresh))

    def drain(self) -> np.ndarray:
        out = (
            np.unique(np.concatenate(self._parts))
            if self._parts
            else np.empty(0, dtype=np.int64)
        )
        self._parts = []
        return out

    def _on_insert(self, k: int) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SimpleArrayU(_BaseU):
    def _on_insert(self, k: int) -> None:
        self.serialized_ops += k  # one shared fetch-and-add per insertion


class ListBufferU(_BaseU):
    def __init__(self, capacity: int, *, buffer_size: int = 64, n_threads: int = 60):
        super().__init__(capacity)
        self.buffer_size = buffer_size
        self.n_threads = n_threads

    def _on_insert(self, k: int) -> None:
        # Threads only contend when a per-thread block fills up; the first
        # block per thread is pre-assigned.
        blocks = max(0, int(np.ceil(k / self.buffer_size)) - self.n_threads)
        self.serialized_ops += blocks

    def drain(self) -> np.ndarray:
        out = super().drain()
        self.clear_work += len(out)  # filter of unused slots before returning U
        return out


class HashTableU(_BaseU):
    def begin_round(self, round_no: int, n_peeled: int, max_updates_per_peel: int) -> None:
        super().begin_round(round_no, n_peeled, max_updates_per_peel)
        # Space sized from the number of peeled r-cliques this round.
        self._alloc = 2 * max(1, n_peeled * max_updates_per_peel)

    def _on_insert(self, k: int) -> None:
        pass  # hashing spreads insertions; no shared cursor

    def drain(self) -> np.ndarray:
        out = super().drain()
        self.clear_work += min(self._alloc, len(self.stamp))  # clear U for reuse
        return out


_KINDS = {"array": SimpleArrayU, "list-buffer": ListBufferU, "hash": HashTableU}
AGGREGATIONS = tuple(_KINDS)


def make_aggregator(kind: str, capacity: int) -> _BaseU:
    if kind not in _KINDS:
        raise ValueError(f"unknown aggregation kind {kind!r}; expected one of {AGGREGATIONS}")
    return _KINDS[kind](capacity)
