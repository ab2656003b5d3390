"""Pre-computed random-walk indexes (FORA+ and SpeedPPR-Index).

An index is a parquet relation ``(start, walk_idx, endpoint, pending)``
holding ``K_v`` source-independent α-walk results per node ``v``
(``walk_idx`` ∈ 1..K_v). The two policies from the paper:

* **FORA+**: ``K_v = ⌊d_v·√(W/m)⌋ + 1`` with ``W`` computed for one target
  ε — so the index *depends on ε* and must be rebuilt for smaller ε.
* **SpeedPPR-Index**: ``K_v = d_v`` — at most ``m`` walks, ε-independent
  (the paper's headline index improvement).

``pending`` walks froze at a dead end; queries finish them with fresh
walks from the actual source (see :mod:`repro.linalg.walks`).
"""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro import ALPHA_DEFAULT
from repro.core.montecarlo import num_walks, simulate_walks_df
from repro.graphs.graph import Graph


def _dir_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(root, f))
    return total


@dataclass
class WalkIndex:
    """A persisted walk index plus its build metadata."""

    path: str
    walks: DataFrame  # (start, walk_idx, endpoint, pending)
    size_bytes: int
    build_seconds: float
    policy: str
    num_walks_stored: int

    @staticmethod
    def load(spark: SparkSession, path: str, policy: str = "?") -> "WalkIndex":
        walks = spark.read.parquet(path)
        return WalkIndex(
            path=path,
            walks=walks,
            size_bytes=_dir_bytes(path),
            build_seconds=float("nan"),
            policy=policy,
            num_walks_stored=walks.count(),
        )


def _capacity_counts(g: Graph, policy: str, eps: float | None, mu: float | None) -> DataFrame:
    """(node, K) — walks to pre-generate per node under ``policy``.

    Degrees are *effective* (dead ends count their virtual edge), matching
    the bound ``W_v ≤ d_v`` used at query time.
    """
    deg_eff = g.degrees.select(
        "node", F.when(F.col("deg") == 0, F.lit(1)).otherwise(F.col("deg")).alias("deg")
    )
    if policy == "speedppr":
        return deg_eff.select("node", F.col("deg").cast("long").alias("K"))
    if policy == "fora":
        assert eps is not None
        mu = 1.0 / g.n if mu is None else mu
        W = num_walks(g.n, eps, mu)
        factor = math.sqrt(W / g.m)
        return deg_eff.select(
            "node", (F.floor(F.col("deg") * F.lit(factor)) + 1).cast("long").alias("K")
        )
    raise ValueError(f"unknown policy {policy!r}")


def build_walk_index(
    g: Graph,
    path: str,
    *,
    policy: str,
    eps: float | None = None,
    mu: float | None = None,
    alpha: float = ALPHA_DEFAULT,
    seed: int = 0,
) -> WalkIndex:
    """Pre-generate and persist the walk index for ``g`` at ``path``."""
    t0 = time.perf_counter()
    counts = _capacity_counts(g, policy, eps, mu)
    seeds = counts.select(
        F.col("node").alias("start"),
        F.explode(F.sequence(F.lit(1), F.col("K"))).alias("walk_idx"),
    )
    walks = simulate_walks_df(g, seeds, s=None, alpha=alpha, seed=seed)
    walks.write.mode("overwrite").parquet(path)
    stored = g.spark.read.parquet(path)
    return WalkIndex(
        path=path,
        walks=stored,
        size_bytes=_dir_bytes(path),
        build_seconds=time.perf_counter() - t0,
        policy=policy,
        num_walks_stored=stored.count(),
    )
