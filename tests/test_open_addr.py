"""Open-addressing primitive: insert/find over shared-array regions."""
import numpy as np
import pytest

from repro.tables.open_addr import (
    EMPTY_BIT,
    capacity_for,
    hash_u64,
    region_find,
    region_insert,
)


def test_capacity_always_leaves_empty():
    for c in [0, 1, 5, 100]:
        assert capacity_for(c) > c


def test_hash_u64_deterministic_and_spread():
    x = np.arange(1000, dtype=np.uint64)
    h1, h2 = hash_u64(x), hash_u64(x)
    assert np.array_equal(h1, h2)
    assert len(np.unique(h1 % np.uint64(256))) > 200


def test_insert_find_single_region():
    keys = np.arange(100, dtype=np.uint64)
    cap = capacity_for(100)
    cells = np.full(cap + 1, EMPTY_BIT, dtype=np.uint64)
    pos = region_insert(cells, 0, cap, keys)
    found = region_find(
        cells, np.zeros(100, np.int64), np.full(100, cap), keys
    )
    assert np.array_equal(found, pos)


def test_find_missing_returns_minus_one():
    keys = np.array([5, 9], dtype=np.uint64)
    cap = capacity_for(2)
    cells = np.full(cap + 1, EMPTY_BIT, dtype=np.uint64)
    region_insert(cells, 0, cap, keys)
    q = np.array([5, 7, 9, 100], dtype=np.uint64)
    out = region_find(cells, np.zeros(4, np.int64), np.full(4, cap), q)
    assert out[1] == -1 and out[3] == -1
    assert out[0] >= 0 and out[2] >= 0


def test_multiple_regions_shared_array():
    """One insert call fills several regions; the same keys go to each."""
    caps = capacity_for(np.array([3, 4, 0, 5]))
    starts = np.cumsum(caps + 1) - (caps + 1)
    cells = np.full(int((caps + 1).sum()), EMPTY_BIT, dtype=np.uint64)
    region = np.array([0, 0, 0, 1, 1, 1, 1, 3, 3, 3, 3, 3])
    keys = np.array([1, 2, 3, 1, 2, 3, 4, 1, 2, 3, 4, 5], dtype=np.uint64)
    pos = region_insert(cells, starts[region], caps[region], keys)
    again = np.full_like(cells, EMPTY_BIT)
    assert np.array_equal(region_insert(again, starts[region], caps[region], keys), pos)
    assert np.array_equal(again, cells), "positions depend only on the input"
    assert len(np.unique(pos)) == len(keys)
    # every key lands inside its own region, never on the barrier cell
    assert ((pos >= starts[region]) & (pos < starts[region] + caps[region])).all()
    assert (cells[starts + caps] == EMPTY_BIT).all()
    assert np.array_equal(cells[pos], keys)
    assert np.array_equal(region_find(cells, starts[region], caps[region], keys), pos)


def test_negative_start_is_not_found():
    cells = np.full(4, EMPTY_BIT, dtype=np.uint64)
    out = region_find(
        cells,
        np.array([-1], np.int64),
        np.array([3], np.int64),
        np.array([1], np.uint64),
    )
    assert out[0] == -1


def _one_home(cap: int, count: int) -> np.ndarray:
    """``count`` distinct keys that all hash to the same cell of a region."""
    cand = np.arange(200 * cap * count, dtype=np.uint64)
    home = hash_u64(cand) % np.uint64(cap)
    return cand[home == home[0]][:count]


def test_high_load_probing():
    g = np.random.default_rng(3)
    spread = np.unique(g.integers(0, 1 << 40, 500).astype(np.uint64))
    for keys in (spread, _one_home(101, 100)):
        cap = len(keys) + 1  # load just under 1
        start = 7
        cells = np.full(start + cap + 1, EMPTY_BIT, dtype=np.uint64)
        pos = region_insert(cells, start, cap, keys)
        assert len(np.unique(pos)) == len(keys)
        assert ((pos >= start) & (pos < start + cap)).all() and cells[start + cap] == EMPTY_BIT
        assert np.array_equal(region_find(cells, start, cap, keys), pos)
    # all keys share one home cell: the lowest-indexed contender claims
    # each cell and the rest probe on
    home = int(pos[0]) - start
    assert np.array_equal(pos, start + (home + np.arange(len(keys))) % cap)
