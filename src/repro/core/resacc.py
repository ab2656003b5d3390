"""ResAcc-lite (Lin et al., ICDE'20) — FORA accelerated by source-residue
accumulation.

ResAcc's observation: residue that flows *back to the source* would spawn
walks distributed exactly like π_s itself, so it can be handled
deterministically instead of sampled. We run the FwdPush phase on the
push engine (:mod:`repro.core.common`) with the source **excluded from the
frontier after its initial push**, letting its returned residue ``R_s``
accumulate; by the push invariant
``π = π̂ + Σ_v r(v)·π^{(v)}`` and ``π^{(s)} = π`` this gives

    π = (π̂ + Σ_{v≠s} r(v)·π^{(v)}) / (1 − R_s),

so phase 2 only samples the non-source residues and the final estimate is
rescaled — fewer walks for the same guarantee, which is the paper's
reported speed-up over FORA.
"""
from __future__ import annotations

import math
import time

from pyspark.sql import functions as F

from repro import ALPHA_DEFAULT
from repro.core.approx_common import refine_with_walks, walk_budget
from repro.core.common import (
    MAX_SUPERSTEPS_DEFAULT,
    PPRResult,
    push_state,
    push_superstep,
    run_frontier,
)
from repro.graphs.graph import Graph


def resacc(
    g: Graph,
    s: int,
    *,
    eps: float,
    mu: float | None = None,
    alpha: float = ALPHA_DEFAULT,
    seed: int = 0,
    max_supersteps: int = MAX_SUPERSTEPS_DEFAULT,
) -> PPRResult:
    """Answer an Approx-SSPPR query with source-residue accumulation."""
    t0 = time.perf_counter()
    W, mc = walk_budget(g, s, eps=eps, mu=mu, alpha=alpha, seed=seed)
    if mc is not None:
        return mc
    r_max = 1.0 / math.sqrt(g.m * W)
    with push_state(g, s, alpha=alpha, max_supersteps=max_supersteps, r_max=r_max) as st:
        # the initial push: all residue sits on s, which is active since
        # m < W gives d_s·r_max ≤ m/√(mW) < 1
        push_superstep(st, r_max)
        # from here on the source's residue accumulates instead of being
        # re-pushed; a sparse tail is drained on the driver
        run_frontier(st, r_max, to_driver=lambda _, n_active: n_active <= st.trickle, exclude=s)
    pi, r = st.pi, st.r

    r_s_row = r.where(F.col("node") == s).collect()
    r_s = float(r_s_row[0]["r"]) if r_s_row else 0.0
    r_no_s = r.where(F.col("node") != s)
    pi_refined, walks_used = refine_with_walks(
        g, s, pi, r_no_s, W, alpha=alpha, seed=seed, index=None
    )
    scale = 1.0 / (1.0 - r_s)
    pi_final = pi_refined.select("node", (F.col("pi") * F.lit(scale)).alias("pi")).cache()
    pi_final.count()
    return PPRResult(
        pi=pi_final,
        r=r,
        stats={
            "algorithm": "ResAcc",
            "num_walks": W,
            "walks_used": walks_used,
            "source_residue": r_s,
            "push_supersteps": st.supersteps,
            "wall_time": time.perf_counter() - t0,
        },
    )
