"""Shared machinery for the distributed SSPPR algorithms: sparse vectors
and the push engine.

Vectors over nodes are sparse DataFrames ``(node: long, <col>: double)``;
zero coordinates are simply absent. One *push superstep* over the
degree-annotated adjacency ``adj = (src, dst, deg)`` computes

    msgs(dst) = Σ_{(src,dst) ∈ E, src pushed} (1−α) · r(src) / deg(src)

— the distributed form of Eq. (8). The residue is truncated with eager
``localCheckpoint`` every superstep (the vectors are small; the edge
relation is the big, cached side), π̂ every ``PI_CHECKPOINT_EVERY``.

The paper's methods are one push at different thresholds, and so is the
engine: :func:`push_state` holds a query's state and :func:`run_frontier`
pushes supersteps at a threshold until the caller's stop rule holds or the
frontier is sparse enough to drain on the driver. PowItr and SimFwdPush are
its threshold-0 case (Lemma 4.1).
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.graphs.graph import Graph

#: supersteps between eager checkpoints of π̂, which only accumulates (the
#: residue feeds the next join and is checkpointed every superstep)
PI_CHECKPOINT_EVERY = 8
MAX_SUPERSTEPS_DEFAULT = 10_000


@dataclass
class PPRResult:
    """Output of a distributed SSPPR run."""

    pi: DataFrame  # (node, pi) — the reserve / estimate vector, sparse
    r: DataFrame  # (node, r) — the residue vector, sparse
    stats: dict = field(default_factory=dict)

    def pi_vector(self, n: int) -> np.ndarray:
        return _to_dense(self.pi, n, "pi")

    def r_vector(self, n: int) -> np.ndarray:
        return _to_dense(self.r, n, "r")


def _to_dense(df: DataFrame, n: int, col: str) -> np.ndarray:
    out = np.zeros(n, dtype=np.float64)
    pdf = df.toPandas()
    if len(pdf):
        out[pdf["node"].to_numpy(np.int64)] = pdf[col].to_numpy(np.float64)
    return out


def empty_vec(spark, col: str) -> DataFrame:
    return spark.createDataFrame([], f"node long, {col} double")


def unit_vec(spark, node: int, col: str) -> DataFrame:
    return spark.createDataFrame([(int(node), 1.0)], f"node long, {col} double")


def vec_add(a: DataFrame, b: DataFrame, col: str) -> DataFrame:
    """Sparse vector sum (union + re-aggregate)."""
    return (
        a.select("node", col)
        .unionByName(b.select("node", col))
        .groupBy("node")
        .agg(F.sum(col).alias(col))
    )


def vec_scale(a: DataFrame, factor: float, col: str) -> DataFrame:
    return a.select("node", (F.col(col) * F.lit(factor)).alias(col))


def push_msgs(frontier: DataFrame, adj: DataFrame, alpha: float) -> DataFrame:
    """Messages produced by pushing every node in ``frontier`` (node, r):
    each out-neighbour receives ``(1−α)·r/deg``. Returns sparse (node, r)."""
    return (
        frontier.join(adj, frontier["node"] == adj["src"])
        .select(
            F.col("dst").alias("node"),
            ((1.0 - alpha) * F.col("r") / F.col("deg")).alias("r"),
        )
        .groupBy("node")
        .agg(F.sum("r").alias("r"))
    )


def materialize(df: DataFrame) -> DataFrame:
    """Eager localCheckpoint: cuts lineage and caches the (small) vector.

    Vectors hold at most n rows; collapsing to one partition first makes
    the checkpoint and every downstream join/aggregate a single-task job.
    """
    return df.coalesce(1).localCheckpoint(eager=True)


def _active(r_max: float, exclude: int | None) -> Column:
    """The paper's activity rule ``r(s,v) > d_v · r_max``; an ``exclude``
    node never counts as active (its residue accumulates un-pushed)."""
    active = F.col("r") > F.col("deg") * F.lit(r_max)
    return active if exclude is None else active & (F.col("node") != F.lit(int(exclude)))


def split_active(
    r: DataFrame, degrees_q: DataFrame, r_max: float, exclude: int | None = None
) -> tuple[DataFrame, DataFrame]:
    """Partition the residue vector into (active, inactive) w.r.t. the
    paper's activity rule ``r(s,v) > d_v · r_max``."""
    joined = r.join(degrees_q, "node")
    active = _active(r_max, exclude)
    return joined.where(active).select("node", "r"), joined.where(~active).select("node", "r")


def frontier_stats(
    r: DataFrame, degrees_q: DataFrame, r_max: float, exclude: int | None = None
) -> tuple[float, int, int]:
    """One action returning ``(r_sum, #active nodes, Σ deg over active)``."""
    active = _active(r_max, exclude)
    row = (
        r.join(degrees_q, "node")
        .agg(
            F.sum("r").alias("rs"),
            F.sum(F.when(active, 1).otherwise(0)).alias("na"),
            F.sum(F.when(active, F.col("deg")).otherwise(0)).alias("da"),
        )
        .collect()[0]
    )
    return float(row["rs"] or 0.0), int(row["na"] or 0), int(row["da"] or 0)


def check_query(
    g: Graph,
    s: int,
    *,
    alpha: float,
    lam: float | None = None,
    r_max: float | None = None,
    eps: float | None = None,
) -> None:
    """Reject a bad query argument with ``ValueError``. ``g.n`` is a plain
    int, so this runs no Spark job."""
    if not 0 <= s < g.n:
        raise ValueError(f"source {s} is not a node of the graph (0 <= s < {g.n})")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if lam is not None and not 0.0 < lam < 1.0:
        raise ValueError(f"lam must lie in (0, 1), got {lam}")
    if r_max is not None and not r_max > 0.0:
        raise ValueError(f"r_max must be positive, got {r_max}")
    if eps is not None and not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")


# ----------------------------------------------------------------------
# The push engine
# ----------------------------------------------------------------------
@dataclass
class PushState:
    """One query's push: the cached query view, the sparse ``r`` and ``π̂``,
    and the counters. ``r_sum`` is as of the last :func:`frontier_stats`."""

    g: Graph
    s: int
    alpha: float
    max_supersteps: int
    adj: DataFrame
    deg_q: DataFrame
    r: DataFrame
    pi: DataFrame
    supersteps: int = 0
    edge_pushes: int = 0
    r_sum: float = 1.0

    @property
    def trickle(self) -> int:
        """Frontiers of at most this many nodes are drained on the driver: a
        superstep costs the same for a handful of nodes as for thousands."""
        return max(8, self.g.n // 64)


@contextmanager
def push_state(
    g: Graph, s: int, *, alpha: float, max_supersteps: int = MAX_SUPERSTEPS_DEFAULT, **targets: float | None
) -> Iterator[PushState]:
    """The push state of a query from ``s`` (``r = e_s``, ``π̂ = 0``) after
    checking its arguments (``targets``: ``lam``, ``r_max``). On exit π̂ is
    checkpointed and the query view released, the latter on error paths
    too."""
    check_query(g, s, alpha=alpha, **targets)
    adj, deg_q = g.query_view(s)
    adj = adj.cache()
    deg_q = deg_q.cache()
    try:
        r, pi = materialize(unit_vec(g.spark, s, "r")), materialize(empty_vec(g.spark, "pi"))
        st = PushState(g, s, alpha, max_supersteps, adj, deg_q, r, pi)
        yield st
        st.pi = materialize(st.pi)
    finally:
        adj.unpersist()
        deg_q.unpersist()


def push_superstep(st: PushState, threshold: float, exclude: int | None = None) -> None:
    """Push every node active w.r.t. ``threshold`` once, synchronously. At
    threshold 0 the frontier is all of ``r``, so no split is built."""
    if st.supersteps >= st.max_supersteps:
        raise RuntimeError(f"superstep limit {st.max_supersteps} hit before the push converged")
    if threshold == 0.0 and exclude is None:
        frontier, rest = st.r, None
    else:
        frontier, rest = split_active(st.r, st.deg_q, threshold, exclude)
    st.pi = vec_add(st.pi, vec_scale(frontier, st.alpha, "r").withColumnRenamed("r", "pi"), "pi")
    msgs = push_msgs(frontier, st.adj, st.alpha)
    st.r = materialize(msgs if rest is None else vec_add(rest, msgs, "r").where(F.col("r") > 0.0))
    st.supersteps += 1
    if st.supersteps % PI_CHECKPOINT_EVERY == 0:
        st.pi = materialize(st.pi)


def drain_on_driver(st: PushState, threshold: float, exclude: int | None = None) -> None:
    """Finish the push at ``threshold`` with a FIFO queue on the driver."""
    from repro.core import driver_tail  # imports this module

    st.pi = materialize(st.pi)
    st.pi, st.r, pushes = driver_tail.finish_on_driver(
        st.g, st.s, st.pi, st.r, threshold, st.alpha, exclude=exclude
    )
    st.edge_pushes += pushes


#: ``rule(r_sum, n_active)`` — a caller's stop or hand-to-driver rule
Rule = Callable[[float, int], bool]


def run_frontier(
    st: PushState,
    threshold: float,
    *,
    stop: Rule | None = None,
    to_driver: Rule | None = None,
    exclude: int | None = None,
) -> None:
    """Push supersteps at ``threshold`` until no node is active or
    ``stop(r_sum, n_active)`` holds; once ``to_driver(r_sum, n_active)``
    holds, the rest is drained on the driver instead. Each superstep takes
    one :func:`frontier_stats` action."""
    while True:
        st.r_sum, n_active, deg_active = frontier_stats(st.r, st.deg_q, threshold, exclude)
        if n_active == 0 or (stop is not None and stop(st.r_sum, n_active)):
            return
        if to_driver is not None and to_driver(st.r_sum, n_active):
            drain_on_driver(st, threshold, exclude)
            return
        push_superstep(st, threshold, exclude)
        st.edge_pushes += deg_active
