"""The benchmark's workloads: what each one runs, and why it was chosen.

A workload has a set-up (stand-in graph, its CSR and the indexes its
operations read) and a *round*: every operation of the workload once, on
one query source. The benchmark runs rounds as a closed loop from a single
driver thread, each operation issued after the previous one returned.
Sources come from ``query_sources(g, k, seed)`` and walk seeds from the
workload seed, so the same seed gives the same inputs.

Each operation returns the values its check needs; the timed call includes
result collection (``PPRResult.pi_vector``), which a user of the query pays.
Operations call the functions imported here by name, which tracing leaves
unwrapped (the operation's own span is their span); set-ups look the index
builders up on their modules at call time, so a traced set-up records them.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import functions as F

import checks
from repro.bepi import build as bepi_build
from repro.bepi.query import bepi_query
from repro.core import walk_index
from repro.core.fora import fora
from repro.core.fwdpush import fifo_fwdpush
from repro.core.montecarlo import monte_carlo, num_walks
from repro.core.powerpush import powerpush
from repro.core.powitr import powitr
from repro.core.speedppr import speedppr
from repro.core.walk_index import build_walk_index
from repro.experiments.datasets import STAND_INS
from repro.graphs.generators import chung_lu
from repro.graphs.graph import Graph

ALPHA = 0.2

#: high-precision ℓ1 target of the ``highprec`` workload
HIGHPREC_LAM = 0.2
#: coarse targets of the untimed warm-up queries: one push superstep, then
#: the driver tail and (FORA) the residue walks
WARMUP_LAM = 0.8
WARMUP_EPS = 2.0
#: BePI queries per round: one is ~ms, so a round needs many before the
#: median stops repeating
BEPI_BATCH = 24
#: relative-error target of the ``approx`` workload's FORA and SpeedPPR-Index
#: queries: coarse, so their push phases stop after a few supersteps
APPROX_EPS = 1.0
#: MonteCarlo target of the ``approx`` workload (~1.9M walks per query)
MC_EPS = 0.1
#: ε the ``approx`` workload's FORA+ index builds are sized for
FORA_INDEX_EPS = 0.1


@dataclass
class Op:
    """One timed operation: ``run()`` is timed, ``check(out)`` is not and
    returns ``(ok, details, counters)``."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, dict, dict]]


@dataclass
class Context:
    """What a workload's set-up built, plus the run's inputs."""

    spark: object
    workdir: str
    seed: int
    g: Graph | None = None
    csr: object = None
    indexes: dict | None = None
    bepi_sources: list[int] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  # why the workload was chosen
    roadmap: str  # the ROADMAP items it serves
    ops: tuple[str, ...]
    setup: Callable[[Context], None]
    # untimed queries at a coarse target on a source of their own: the
    # first push query of a JVM otherwise pays seconds of JIT compilation
    warmup: Callable[[Context, int], None]
    round: Callable[[Context, int, np.ndarray], list[Op]]


def standin(spark, dataset: str, scale: float) -> Graph:
    """A fresh (not memoized) copy of ``make_dataset(spark, dataset, scale)``."""
    cfg = STAND_INS[dataset]
    return chung_lu(
        spark, n=max(16, int(cfg.n * scale)), avg_deg=cfg.avg_deg, seed=cfg.seed, directed=cfg.directed
    )


def stats_counters(stats: dict, m: int) -> dict:
    """The machine-independent counters of a query, normalised. A counter
    the algorithm does not report is ``None``, never 0."""
    steps = stats.get("supersteps", stats.get("iterations", stats.get("push_supersteps")))
    pushes = stats.get("edge_pushes", stats.get("push_edge_pushes"))
    walks = stats.get("walks_used", stats.get("num_walks") if stats.get("algorithm") == "MonteCarlo" else None)
    return {
        "supersteps": steps,
        "edge_pushes_per_m": None if pushes is None else pushes / m,
        "walks_used": walks,
        "r_sum": stats.get("r_sum"),
    }


# ---------------------------------------------------------------------------
# highprec
# ---------------------------------------------------------------------------
def _highprec_setup(ctx: Context) -> None:
    ctx.g = standin(ctx.spark, "DBLP", 0.25)
    ctx.csr = ctx.g.to_csr()
    # "local" final labels: the Spark CC cross-check triples the build time
    # and its result is the same partition
    ctx.indexes = {"bepi": bepi_build.build_bepi_index(ctx.g, alpha=ALPHA, final_cc="local")}


def _highprec_warmup(ctx: Context, s: int) -> None:
    # FIFO-FwdPush runs every Spark plan shape PowItr and PowerPush use
    fifo_fwdpush(ctx.g, s, alpha=ALPHA, lam=WARMUP_LAM).pi_vector(ctx.g.n)


def _highprec_round(ctx: Context, s: int, truth: np.ndarray) -> list[Op]:
    g, lam = ctx.g, HIGHPREC_LAM

    def push(fn):
        def run():
            res = fn(g, s, alpha=ALPHA, lam=lam)
            return res, res.pi_vector(g.n)

        def check(out):
            res, pi = out
            ok, det = checks.check_highprec(pi, res.stats.get("r_sum"), truth, lam)
            return ok, det, stats_counters(res.stats, g.m)

        return run, check

    idx = ctx.indexes["bepi"]

    def bepi(b, with_truth):
        # only the round's own source has its exact vector at hand; the
        # others can fail by exception alone, as BePI's Δ rule allows
        def check(out):
            ok, det = checks.check_bepi(out.pi, truth) if with_truth else (True, {})
            return ok, det, {"supersteps": out.iterations}

        return Op("bepi_query", lambda: bepi_query(idx, b, delta=lam), check)

    return [
        Op("powitr", *push(powitr)),
        Op("fifo_fwdpush", *push(fifo_fwdpush)),
        Op("powerpush", *push(powerpush)),
        *(bepi(b, i == 0) for i, b in enumerate([s, *ctx.bepi_sources])),
    ]


# ---------------------------------------------------------------------------
# approx
# ---------------------------------------------------------------------------
def _approx_setup(ctx: Context) -> None:
    ctx.g = standin(ctx.spark, "Web-St", 0.25)
    ctx.csr = ctx.g.to_csr()
    path = os.path.join(ctx.workdir, "speedppr-index")
    ctx.indexes = {
        "speedppr": walk_index.build_walk_index(ctx.g, path, policy="speedppr", alpha=ALPHA, seed=ctx.seed)
    }


def _approx_warmup(ctx: Context, s: int) -> None:
    fora(ctx.g, s, eps=WARMUP_EPS, alpha=ALPHA, seed=ctx.seed).pi_vector(ctx.g.n)


def _index_counts(index) -> pd.DataFrame:
    """Per-node summary of a stored walk index, as ``check_index`` takes it."""
    return (
        index.walks.groupBy("start")
        .agg(
            F.count("*").alias("walks"),
            F.countDistinct("walk_idx").alias("distinct"),
            F.min("walk_idx").alias("min_idx"),
            F.max("walk_idx").alias("max_idx"),
        )
        .toPandas()
    )


def _approx_round(ctx: Context, s: int, truth: np.ndarray) -> list[Op]:
    g, seed = ctx.g, ctx.seed

    def query(fn, eps, **kw):
        def run():
            res = fn(g, s, eps=eps, alpha=ALPHA, seed=seed, **kw)
            return res, res.pi_vector(g.n)

        def check(out):
            res, pi = out
            ok, det = checks.check_approx(pi, truth, eps)
            return ok, det, stats_counters(res.stats, g.m)

        return run, check

    def build(policy, capacity, **kw):
        def run():
            path = os.path.join(ctx.workdir, f"{policy}-index-build")
            return build_walk_index(g, path, policy=policy, alpha=ALPHA, seed=seed, **kw)

        def check(index):
            ok, det = checks.check_index(_index_counts(index), capacity)
            return ok, det, {"walks_used": index.num_walks_stored, "bytes": index.size_bytes}

        return run, check

    out_deg = ctx.csr.out_degrees()
    W = num_walks(g.n, FORA_INDEX_EPS, 1.0 / g.n)
    return [
        Op("fora", *query(fora, APPROX_EPS)),
        Op("speedppr_index", *query(speedppr, APPROX_EPS, index=ctx.indexes["speedppr"])),
        Op("montecarlo", *query(monte_carlo, MC_EPS)),
        Op("fora_index_build", *build("fora", checks.fora_capacity(out_deg, g.m, W), eps=FORA_INDEX_EPS)),
        Op("speedppr_index_build", *build("speedppr", checks.speedppr_capacity(out_deg))),
    ]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="highprec",
            why=(
                "Fig. 4 on the DBLP stand-in: PowItr vs FIFO-FwdPush vs PowerPush at l1 <= 0.2, plus "
                "BePI queries; the push engine does nearly all the work and walks none"
            ),
            roadmap="item 3 (one push engine, ~1 Spark job per superstep); item 4 (local/global switch)",
            ops=("powitr", "fifo_fwdpush", "powerpush", "bepi_query"),
            setup=_highprec_setup,
            warmup=_highprec_warmup,
            round=_highprec_round,
        ),
        Workload(
            name="approx",
            why=(
                "Web-St stand-in (dead ends): FORA and SpeedPPR-Index at eps=1 run short pushes, the "
                "driver tail, residue walks and index reads; MonteCarlo and index builds only walk"
            ),
            roadmap=(
                "item 5 (one walk kernel, Philox streams, broadcast leak); item 4 (driver tail); "
                "item 3 must not cost the tail here"
            ),
            ops=("fora", "speedppr_index", "montecarlo", "fora_index_build", "speedppr_index_build"),
            setup=_approx_setup,
            warmup=_approx_warmup,
            round=_approx_round,
        ),
    )
}
