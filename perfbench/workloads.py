"""The benchmark's workloads: which (graph, r, s, config) cells a pass runs,
and how a seed turns into input edge arrays.

Every input is a SNAP surrogate from ``repro.graphs.gen``. Seed 0 is the
surrogate exactly as ``surrogate(name)`` returns it (the graphs behind
``results/``); any other seed relabels its vertices with a seeded
permutation and shuffles the edge order and edge direction. The clique
structure, rho and core-number distribution are therefore the same for
every seed, while hash-table layouts, orientation tie-breaks and visiting
orders change. New random graphs per seed would instead move the work of
the dense cells by more than any bound the benchmark could afford (see
README.md, "Seeds").
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

import numpy as np

from repro.experiments import T_CONFIGS, _best_config
from repro.graphs.gen import surrogate
from repro.nucleus.decomp import DecompConfig

__all__ = ["Cell", "Workload", "WORKLOADS", "SPARK_SLICES", "make_inputs", "permuted"]

SPARK_SLICES = 8  # fixed, so a pass schedules the same tasks on every machine


@dataclass
class Cell:
    graph: str
    r: int
    s: int
    label: str
    config: DecompConfig

    @property
    def key(self) -> str:
        """Reference key: the result depends on graph, r and s, not on config."""
        return f"{self.graph} {self.r},{self.s}"

    @property
    def name(self) -> str:
        return f"{self.graph} ({self.r},{self.s}) {self.label}"


@dataclass
class Workload:
    name: str
    why: str
    cells: list[Cell]
    spark: bool = False

    @property
    def graphs(self) -> list[str]:
        return sorted({c.graph for c in self.cells})


def _best(graph: str, r: int, s: int) -> Cell:
    return Cell(graph, r, s, "best", _best_config(r, s))


def _sparse_count() -> list[Cell]:
    return [_best(g, r, s) for g in ("skitter-lite", "youtube-lite") for r, s in ((2, 3), (3, 4), (4, 5))]


def _dense_peel() -> list[Cell]:
    return [_best("orkut-lite", 2, 3), _best("orkut-lite", 2, 4), _best("dblp-lite", 3, 6)]


def _table_variants() -> list[Cell]:
    cells = [
        Cell("dblp-lite", 3, 4, label, DecompConfig(table=tcfg, aggregation="array"))
        for label, tcfg in T_CONFIGS
    ]
    best24 = _best_config(2, 4)
    cells += [
        Cell("dblp-lite", 2, 4, f"U={agg}", replace(best24, aggregation=agg))
        for agg in ("array", "list-buffer", "hash")
    ]
    return cells


def _spark_count() -> list[Cell]:
    cells = []
    for g, r, s in (("skitter-lite", 3, 4), ("orkut-lite", 3, 4), ("skitter-lite", 4, 5)):
        cfg = replace(_best_config(r, s), counting="spark", spark_slices=SPARK_SLICES)
        cells.append(Cell(g, r, s, f"spark/{SPARK_SLICES}", cfg))
    return cells


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "sparse-count",
            "skewed rMAT graphs where counting, orientation and table build dominate and rho <= 22",
            _sparse_count(),
        ),
        Workload(
            "dense-peel",
            "long peels (rho up to 188) where UPDATE and table lookups dominate; the only contraction cell",
            _dense_peel(),
        ),
        Workload(
            "table-variants",
            "every T layout and U aggregator the paper measures, so a change tuned to the default shows",
            _table_variants(),
        ),
        Workload(
            "spark-count",
            "the only workload whose counting goes through the Spark fan-out",
            _spark_count(),
            spark=True,
        ),
    )
}


def permuted(edges: np.ndarray, n: int, seed: int, salt: str) -> np.ndarray:
    """Seeded relabeling of vertices 0..n-1 plus edge order and direction."""
    if seed == 0:
        return edges
    rng = np.random.default_rng([seed, zlib.crc32(salt.encode())])
    perm = rng.permutation(n)
    out = perm[edges][rng.permutation(len(edges))]
    flip = rng.random(len(out)) < 0.5
    out[flip] = out[flip][:, ::-1]
    return out


def make_inputs(graphs: list[str], seed: int) -> dict[str, tuple[np.ndarray, int]]:
    """graph name -> (edge array, vertex count) for this seed."""
    inputs = {}
    for name in graphs:
        edges = surrogate(name)
        n = int(edges.max()) + 1
        inputs[name] = (permuted(edges, n, seed, name), n)
    return inputs
