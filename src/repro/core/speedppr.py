"""SpeedPPR (paper §6.2, Algorithm 4).

Phase 1 replaces FORA's FwdPush with **PowerPush** at ``λ = m/W``, refined
until no node is active w.r.t. ``r_max = 1/W`` — after which every node's
residue satisfies ``r(s,v) ≤ d_v/W``, so phase 2 needs ``W_v = ⌈r·W⌉ ≤
d_v`` walks per node: at most ``m`` in total, which is what makes the
ε-independent SpeedPPR index possible. Overall ``O(m·log(W/m))`` expected
time (Theorem 6.1) vs FORA's ``O(√(mW))``.
"""
from __future__ import annotations

import time

from repro import ALPHA_DEFAULT
from repro.core.approx_common import refine_with_walks, walk_budget
from repro.core.common import PPRResult
from repro.core.powerpush import powerpush
from repro.core.walk_index import WalkIndex
from repro.graphs.graph import Graph


def speedppr(
    g: Graph,
    s: int,
    *,
    eps: float,
    mu: float | None = None,
    alpha: float = ALPHA_DEFAULT,
    seed: int = 0,
    index: WalkIndex | None = None,
) -> PPRResult:
    """Answer an Approx-SSPPR query; pass ``index`` for SpeedPPR-Index."""
    t0 = time.perf_counter()
    W, mc = walk_budget(g, s, eps=eps, mu=mu, alpha=alpha, seed=seed)
    if mc is not None:
        return mc
    lam = g.m / W
    push = powerpush(g, s, alpha=alpha, lam=lam, refine_r_max=1.0 / W)
    pi, walks_used = refine_with_walks(
        g, s, push.pi, push.r, W, alpha=alpha, seed=seed, index=index
    )
    return PPRResult(
        pi=pi,
        r=push.r,
        stats={
            "algorithm": "SpeedPPR-Index" if index is not None else "SpeedPPR",
            "num_walks": W,
            "walks_used": walks_used,
            "lambda": lam,
            "push_supersteps": push.stats["supersteps"],
            "push_edge_pushes": push.stats["edge_pushes"],
            "wall_time": time.perf_counter() - t0,
        },
    )
