"""The ``Graph`` substrate: a directed graph held as Spark DataFrames.

A :class:`Graph` is the input of every algorithm in this repo. It stores

* ``edges``   — ``(src: long, dst: long)``, deduplicated, cached;
* ``nodes``   — ``(node: long)`` for every node ``0..n-1``;
* ``degrees`` — ``(node: long, deg: long)`` with the *out*-degree of every
  node (0 for dead ends).

Graphs are *cleaned* on construction, mirroring the paper's pipeline:
self-loops and duplicate edges are dropped, isolated nodes (no in- **and**
no out-edges) are removed, and the remaining node ids are relabelled to the
dense range ``0..n-1``.

Dead-end semantics (paper §2): a walk at a node with no out-neighbours jumps
back to the *source* ``s``. :meth:`Graph.query_view` materialises this as
virtual edges ``(dead, s)`` with degree 1 so that every algorithm — push,
power iteration, walks, exact solve — shares one rule.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark import Broadcast
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.window import Window

from repro.linalg.csr import CSR


@dataclass
class Graph:
    """A cleaned directed graph backed by Spark DataFrames."""

    spark: SparkSession
    edges: DataFrame  # (src, dst) deduplicated, no self-loops
    nodes: DataFrame  # (node,) == 0..n-1
    degrees: DataFrame  # (node, deg) out-degrees, deg >= 0
    n: int
    m: int
    _csr_cache: CSR | None = field(default=None, repr=False, compare=False)
    _csr_broadcast: Broadcast | None = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def from_edges(
        spark: SparkSession,
        edges: DataFrame | pd.DataFrame,
        *,
        undirected: bool = False,
    ) -> "Graph":
        """Build a cleaned :class:`Graph` from an edge list.

        ``edges`` needs columns ``src`` and ``dst`` (any integer type). When
        ``undirected`` is set, every edge is mirrored before cleaning — the
        paper does the same for DBLP and Orkut.
        """
        if isinstance(edges, pd.DataFrame):
            edges = spark.createDataFrame(edges[["src", "dst"]])
        e = edges.select(
            F.col("src").cast("long").alias("src"),
            F.col("dst").cast("long").alias("dst"),
        )
        if undirected:
            e = e.unionByName(e.select(F.col("dst").alias("src"), F.col("src").alias("dst")))
        e = e.where(F.col("src") != F.col("dst")).distinct()

        # Isolated-node removal is implicit: only endpoints of surviving
        # edges are kept. Relabel to 0..n-1 in (old-id) order so results are
        # deterministic and reference/CSR code can index by node id.
        touched = (
            e.select(F.col("src").alias("old"))
            .unionByName(e.select(F.col("dst").alias("old")))
            .distinct()
        )
        w = touched.select(
            F.col("old"),
            (F.row_number().over(Window.orderBy("old")) - 1).alias("node"),
        )
        mapping = w.cache()
        e2 = (
            e.join(mapping.withColumnRenamed("old", "src").withColumnRenamed("node", "s2"), "src")
            .join(mapping.withColumnRenamed("old", "dst").withColumnRenamed("node", "d2"), "dst")
            .select(F.col("s2").alias("src"), F.col("d2").alias("dst"))
        )
        e2 = e2.cache()
        m = e2.count()
        n = mapping.count()
        nodes = spark.range(n).select(F.col("id").alias("node")).cache()
        degrees = (
            nodes.join(
                e2.groupBy(F.col("src").alias("node")).agg(F.count("*").alias("deg")),
                "node",
                "left",
            )
            .select("node", F.coalesce("deg", F.lit(0)).cast("long").alias("deg"))
            .cache()
        )
        mapping.unpersist()
        return Graph(spark=spark, edges=e2, nodes=nodes, degrees=degrees, n=n, m=m)

    @staticmethod
    def from_pandas_edges(
        spark: SparkSession, src: np.ndarray, dst: np.ndarray, *, undirected: bool = False
    ) -> "Graph":
        """Convenience wrapper for numpy edge arrays (generators use this)."""
        pdf = pd.DataFrame({"src": np.asarray(src, dtype=np.int64), "dst": np.asarray(dst, dtype=np.int64)})
        return Graph.from_edges(spark, pdf, undirected=undirected)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def dead_ends(self) -> DataFrame:
        """Nodes with out-degree 0 — ``(node,)``."""
        return self.degrees.where(F.col("deg") == 0).select("node")

    def query_view(self, s: int) -> tuple[DataFrame, DataFrame]:
        """``(adj, degrees_q)`` for a query rooted at source ``s``.

        ``adj`` is ``(src, dst, deg)`` — the edge relation pre-joined with
        the *effective* out-degree, augmented with one virtual edge
        ``(dead, s)`` per dead-end node (paper's jump-back-to-source rule).
        ``degrees_q`` is ``(node, deg)`` with dead ends at degree 1.
        """
        dead = self.dead_ends()
        degrees_q = self.degrees.select(
            "node", F.when(F.col("deg") == 0, F.lit(1)).otherwise(F.col("deg")).alias("deg")
        )
        virt = dead.select(F.col("node").alias("src"), F.lit(int(s)).cast("long").alias("dst"))
        edges_q = self.edges.unionByName(virt)
        adj = edges_q.join(degrees_q.withColumnRenamed("node", "src"), "src").select(
            "src", "dst", "deg"
        )
        return adj, degrees_q

    # ------------------------------------------------------------------
    # Driver-side export
    # ------------------------------------------------------------------
    def to_csr(self) -> CSR:
        """Collect the graph as a numpy CSR (out-adjacency, by node id).

        Dead ends have an empty row; consumers apply the jump-to-source rule
        themselves (see :mod:`repro.linalg`). Cached — the graph is
        immutable.
        """
        if self._csr_cache is None:
            pdf = self.edges.toPandas()
            self._csr_cache = CSR.from_edges(
                self.n, pdf["src"].to_numpy(np.int64), pdf["dst"].to_numpy(np.int64)
            )
        return self._csr_cache

    def csr_broadcast(self) -> Broadcast:
        """The CSR as a broadcast ``(n, indptr, indices)`` for the walk
        simulator, created on first use and destroyed by :meth:`unpersist`.

        It lives as long as the graph, not the query: walk results are
        cached, not checkpointed, so an evicted partition is recomputed
        through the walk UDF and needs the broadcast again.
        """
        if self._csr_broadcast is None:
            csr = self.to_csr()
            self._csr_broadcast = self.spark.sparkContext.broadcast((csr.n, csr.indptr, csr.indices))
        return self._csr_broadcast

    def avg_degree(self) -> float:
        """``m / n`` — the Table 1 density statistic."""
        return self.m / self.n

    def unpersist(self) -> None:
        for df in (self.edges, self.nodes, self.degrees):
            df.unpersist()
        if self._csr_broadcast is not None:
            self._csr_broadcast.destroy()
            self._csr_broadcast = None
