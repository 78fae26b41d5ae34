"""Spark counting fan-out == local kernel and a DuckDB self-join;
Spark-counted decomposition matches the reference."""
import numpy as np
import pandas as pd
import pytest

from repro.cliques.listing import s_counts_per_r_clique
from repro.cliques.spark_count import spark_s_counts
from repro.graphs.csr import build_csr, orient_csr
from repro.graphs.gen import rmat
from repro.graphs.orient import make_rank
from repro.nucleus.decomp import DecompConfig, nucleus_decomposition
from repro.nucleus.reference import reference_nucleus
from repro.oracle import assert_equivalent

from .fixtures import FIG1_EDGES, SMALL_GRAPHS


def _dg(edges):
    und = build_csr(edges)
    return und, orient_csr(und, make_rank(und, "degeneracy"))


@pytest.mark.parametrize("r,s", [(2, 3), (3, 4), (2, 4)])
def test_spark_counts_match_local_fig1(spark, r, s):
    _, dg = _dg(FIG1_EDGES)
    vmat, cnts = spark_s_counts(spark, dg, r, s, n_slices=4)
    local_vmat, local_cnts = s_counts_per_r_clique(dg, r, s)
    assert np.array_equal(vmat, local_vmat) and np.array_equal(cnts, local_cnts)
    assert cnts.dtype == local_cnts.dtype == np.int64


def test_spark_counts_match_local_rmat(spark):
    _, dg = _dg(rmat(8, 900, seed=23))
    vmat, cnts = spark_s_counts(spark, dg, 2, 3, n_slices=8)
    local_vmat, local_cnts = s_counts_per_r_clique(dg, 2, 3)
    assert np.array_equal(vmat, local_vmat) and np.array_equal(cnts, local_cnts)
    assert cnts.dtype == local_cnts.dtype == np.int64


def test_spark_triangle_counts_vs_duckdb_oracle(spark):
    """Per-edge triangle counts from the Spark fan-out equal a DuckDB
    self-join over the symmetric arc list."""
    und, dg = _dg(rmat(8, 900, seed=23))
    vmat, cnts = spark_s_counts(spark, dg, 2, 3, n_slices=8)
    got = spark.createDataFrame(pd.DataFrame({"u": vmat[:, 0], "v": vmat[:, 1], "cnt": cnts}))
    src = np.repeat(np.arange(und.n), und.degrees())
    arcs = pd.DataFrame({"u": src, "v": und.nbrs})
    assert_equivalent(
        got,
        """
        SELECT e.u, e.v, count(x.v) AS cnt
        FROM arcs e
        LEFT JOIN arcs w ON w.u = e.u
        LEFT JOIN arcs x ON x.u = e.v AND x.v = w.v
        WHERE e.u < e.v
        GROUP BY e.u, e.v
        """,
        arcs=arcs,
    )


@pytest.mark.parametrize("name,r,s", [("fig1", 3, 4), ("er30", 2, 3)])
def test_decomp_with_spark_counting(spark, name, r, s):
    cfg = DecompConfig(counting="spark", spark_slices=4)
    res = nucleus_decomposition(SMALL_GRAPHS[name], r, s, cfg, spark=spark)
    assert res.core_dict() == reference_nucleus(SMALL_GRAPHS[name], r, s)


def test_spark_counts_empty_graph(spark):
    und = build_csr(np.array([(0, 1), (2, 3)]), n=4)
    dg = orient_csr(und, np.arange(4))
    vmat, cnts = spark_s_counts(spark, dg, 2, 3, n_slices=2)
    # two disjoint edges: both are 2-cliques with zero incident triangles
    assert len(vmat) == 2 and (cnts == 0).all() and cnts.dtype == np.int64
