"""Distributed Power Iteration (paper §3.1).

The push engine's threshold-0 case: every superstep pushes all of the
alive-mass vector ``γ`` (the residue ``r``), ``γ ← (1−α)·γ·P``, and
accumulates ``π += α·γ``. By Eq. (6) the ℓ1 error after ``j`` iterations
is exactly ``(1−α)^j``, so the loop bound is analytic and no superstep
takes a frontier action — a final aggregate reports the residual.
"""
from __future__ import annotations

import math
import time

from repro import ALPHA_DEFAULT
from repro.core.common import PPRResult, push_state, push_superstep
from repro.graphs.graph import Graph


def powitr(g: Graph, s: int, *, alpha: float = ALPHA_DEFAULT, lam: float = 1e-6) -> PPRResult:
    """Run distributed PowItr until ``‖π̂−π‖₁ ≤ lam``."""
    t0 = time.perf_counter()
    with push_state(g, s, alpha=alpha, lam=lam) as st:
        iters = int(math.ceil(math.log(lam) / math.log(1.0 - alpha)))
        for _ in range(iters):
            push_superstep(st, 0.0)
        r_sum = st.r.groupBy().sum("r").collect()[0][0] or 0.0
    return PPRResult(
        pi=st.pi,
        r=st.r,
        stats={
            "algorithm": "PowItr",
            "iterations": iters,
            "r_sum": float(r_sum),
            "edge_pushes": iters * g.m,
            "wall_time": time.perf_counter() - t0,
        },
    )
