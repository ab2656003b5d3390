"""Distributed α-random walks and the MonteCarlo Approx-SSPPR baseline.

The simulator reads the graph's broadcast CSR (:meth:`Graph.csr_broadcast`,
an application-level broadcast — the session's *join* broadcasts stay
disabled) and steps every walk of a partition with the one walk kernel,
:func:`repro.linalg.walks.simulate_endpoints`, inside ``mapInPandas``. This
is the standard production pattern when the adjacency fits in executor memory;
the per-step join-with-adjacency dataflow would cost one shuffle per walk
step for no benefit at these graph sizes.

``W`` follows Eq. (12): ``W = 2·(2ε/3 + 2)·ln n / (ε²·μ)``.
"""
from __future__ import annotations

import math
import time
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import BooleanType, LongType, StructField, StructType

from repro import ALPHA_DEFAULT
from repro.core.common import PPRResult, check_query, empty_vec
from repro.graphs.graph import Graph
from repro.linalg.walks import MAX_STEPS_DEFAULT, simulate_endpoints


def num_walks(n: int, eps: float, mu: float) -> int:
    """Eq. (12): walks needed for relative error ε on nodes with π ≥ μ,
    with success probability ≥ 1 − 1/n."""
    return int(math.ceil(2.0 * (2.0 * eps / 3.0 + 2.0) * math.log(n) / (eps * eps * mu)))


def simulate_walks_df(
    g: Graph,
    seeds: DataFrame,
    *,
    s: int | None,
    alpha: float = ALPHA_DEFAULT,
    seed: int = 0,
    max_steps: int = MAX_STEPS_DEFAULT,
) -> DataFrame:
    """Append ``endpoint`` (and ``pending``) columns to a seeds DataFrame.

    ``seeds`` must have a ``start`` column; all other columns pass through.
    With ``s`` given, dead ends jump back to ``s`` and ``pending`` is always
    false; with ``s=None`` (index builds) walks stop at dead ends and are
    flagged pending (see :func:`simulate_endpoints`).
    """
    bc = g.csr_broadcast()
    s = None if s is None else int(s)
    # fresh StructType — StructType.add mutates in place, which would
    # corrupt the seeds DataFrame's cached schema
    out_schema = StructType(
        list(seeds.schema.fields)
        + [StructField("endpoint", LongType()), StructField("pending", BooleanType())]
    )
    pass_cols = seeds.columns

    def _run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        from pyspark import TaskContext

        from repro.linalg.csr import CSR  # re-imported on executors

        n, indptr, indices = bc.value
        local = CSR(n=n, indptr=indptr, indices=indices)
        pid = TaskContext.get().partitionId() if TaskContext.get() else 0
        for batch_no, pdf in enumerate(batches):
            if len(pdf) == 0:
                continue
            starts = pdf["start"].to_numpy(np.int64)
            # deterministic, collision-free per-batch stream: keyed by the
            # user seed, the partition, and the batch ordinal within it
            rng = np.random.default_rng([seed, pid, batch_no])
            ends, pend = simulate_endpoints(local, s, starts, alpha, rng, max_steps)
            out = pdf[pass_cols].copy()
            out["endpoint"] = ends
            out["pending"] = pend
            yield out

    return seeds.mapInPandas(_run, schema=out_schema)


def weighted_endpoint_mass(walks: DataFrame) -> DataFrame:
    """Aggregate simulated walks ``(…, weight, endpoint)`` into a sparse
    PPR-mass vector ``(node, pi)``."""
    return (
        walks.groupBy(F.col("endpoint").alias("node"))
        .agg(F.sum("weight").alias("pi"))
    )


def monte_carlo(
    g: Graph,
    s: int,
    *,
    eps: float,
    mu: float | None = None,
    alpha: float = ALPHA_DEFAULT,
    seed: int = 0,
) -> PPRResult:
    """The plain MonteCarlo method: W α-walks from s, π̂(v) = f(s,v)/W."""
    t0 = time.perf_counter()
    check_query(g, s, alpha=alpha, eps=eps)
    mu = 1.0 / g.n if mu is None else mu
    W = num_walks(g.n, eps, mu)
    seeds = (
        g.spark.range(W)
        .select(
            F.lit(int(s)).cast("long").alias("start"),
            (F.lit(1.0) / F.lit(float(W))).alias("weight"),
        )
    )
    walks = simulate_walks_df(g, seeds, s=s, alpha=alpha, seed=seed)
    pi = weighted_endpoint_mass(walks).cache()
    pi.count()
    return PPRResult(
        pi=pi,
        r=empty_vec(g.spark, "r"),
        stats={
            "algorithm": "MonteCarlo",
            "num_walks": W,
            "wall_time": time.perf_counter() - t0,
        },
    )
