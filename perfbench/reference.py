"""Correctness reference for the benchmark's cells.

A cell's reference is a digest of its sorted (vmat, core) pair, computed
independently of ARB-NUCLEUS-DECOMP:

* (2,3) cells: truss numbers from networkx (``k_truss`` for growing k);
  an edge's (2,3) core number is its truss number minus 2.
* every other cell: the serial ND baseline ``baselines.nd.nd_decomposition``.

``digests.json`` (next to this file) stores digests for the seeds the
benchmark is usually run with. For any other seed ``run.py`` calls this
script in a child process before timing and caches the answer under
``.out/``. Regenerate the stored file with

    python3 perfbench/reference.py --seeds 0-63 --write
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
STORED = HERE / "digests.json"
CACHE = HERE / ".out" / "digests-cache.json"

__all__ = ["digest", "reference_core", "load_digests", "save_cache", "compute_digests"]


def digest(vmat: np.ndarray, core: np.ndarray) -> str:
    """sha256 of the (vmat, core) pair with rows sorted, independent of input order."""
    vmat = np.sort(np.asarray(vmat, dtype=np.int64), axis=1)
    core = np.asarray(core, dtype=np.int64)
    if len(vmat):
        order = np.lexsort(tuple(vmat[:, j] for j in range(vmat.shape[1] - 1, -1, -1)))
        vmat, core = vmat[order], core[order]
    h = hashlib.sha256()
    h.update(str(vmat.shape).encode())
    h.update(np.ascontiguousarray(vmat, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(core, dtype="<i8").tobytes())
    return h.hexdigest()[:32]


def _networkx_truss(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    import networkx as nx

    g = nx.Graph()
    g.add_edges_from((int(u), int(v)) for u, v in edges if u != v)
    vmat, core = [], []
    k = 3
    while g.number_of_edges():
        inner = nx.k_truss(g, k)
        for u, v in g.edges():
            if not inner.has_edge(u, v):
                vmat.append((min(u, v), max(u, v)))
                core.append(k - 3)  # truss number k-1, minus 2
        g = inner
        k += 1
    return np.array(vmat, dtype=np.int64).reshape(-1, 2), np.array(core, dtype=np.int64)


def _nd(edges: np.ndarray, r: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    from repro.baselines.nd import nd_decomposition

    core, _ = nd_decomposition(edges, r, s)
    keys = list(core)
    vmat = np.array(keys, dtype=np.int64).reshape(-1, r)
    return vmat, np.array([core[k] for k in keys], dtype=np.int64)


def reference_core(edges: np.ndarray, r: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    if (r, s) == (2, 3):
        return _networkx_truss(edges)
    return _nd(edges, r, s)


def compute_digests(seed: int, keys: list[str]) -> dict[str, str]:
    """Reference digests for ``"graph r,s"`` keys on this seed's inputs."""
    from workloads import make_inputs

    parsed = [(k, k.split()[0], *map(int, k.split()[1].split(","))) for k in keys]
    inputs = make_inputs(sorted({g for _, g, _, _ in parsed}), seed)
    return {k: digest(*reference_core(inputs[g][0], r, s)) for k, g, r, s in parsed}


def _read(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return {}


def load_digests(seed: int) -> dict[str, str]:
    """Stored digests for a seed, overlaid on the run-time cache."""
    return {**_read(CACHE).get(str(seed), {}), **_read(STORED).get(str(seed), {})}


def _merge(path: Path, seed: int, found: dict[str, str]) -> None:
    data = _read(path)
    data.setdefault(str(seed), {}).update(found)
    data = {s: dict(sorted(d.items())) for s, d in sorted(data.items(), key=lambda kv: int(kv[0]))}
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=1) + "\n")
    os.replace(tmp, path)


def save_cache(seed: int, found: dict[str, str]) -> None:
    _merge(CACHE, seed, found)


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="0", help="seed or inclusive range, e.g. 0-19")
    ap.add_argument("--keys", nargs="*", help='"graph r,s" keys (default: every cell of every workload)')
    ap.add_argument("--write", action="store_true", help="merge the digests into digests.json")
    args = ap.parse_args(argv)

    from workloads import WORKLOADS

    keys = args.keys or sorted({c.key for w in WORKLOADS.values() for c in w.cells})
    out = {}
    for seed in _seed_range(args.seeds):
        out[str(seed)] = compute_digests(seed, keys)
        if args.write:
            _merge(STORED, seed, out[str(seed)])
    print(json.dumps(out))


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    main()
