"""FORA and FORA+ (Wang et al., KDD'17) — the approximate-SSPPR baseline.

Phase 1: FwdPush with ``r_max = 1/√(m·W)`` (the balance point of the
``O(1/r_max + m·r_max·W)`` cost, §6.1). Phase 2: for each node with
positive residue, ``W_v = ⌈r·W⌉`` α-walks (Eq. 13/14). FORA+ reads the
walks from a pre-built ε-dependent index instead of simulating.
"""
from __future__ import annotations

import math
import time

from repro import ALPHA_DEFAULT
from repro.core.approx_common import refine_with_walks, walk_budget
from repro.core.common import PPRResult
from repro.core.fwdpush import fifo_fwdpush
from repro.core.walk_index import WalkIndex
from repro.graphs.graph import Graph


def fora(
    g: Graph,
    s: int,
    *,
    eps: float,
    mu: float | None = None,
    alpha: float = ALPHA_DEFAULT,
    seed: int = 0,
    index: WalkIndex | None = None,
) -> PPRResult:
    """Answer an Approx-SSPPR query; pass ``index`` for FORA+."""
    t0 = time.perf_counter()
    W, mc = walk_budget(g, s, eps=eps, mu=mu, alpha=alpha, seed=seed)
    if mc is not None:
        return mc
    r_max = 1.0 / math.sqrt(g.m * W)
    push = fifo_fwdpush(g, s, alpha=alpha, r_max=r_max)
    pi, walks_used = refine_with_walks(
        g, s, push.pi, push.r, W, alpha=alpha, seed=seed, index=index
    )
    return PPRResult(
        pi=pi,
        r=push.r,
        stats={
            "algorithm": "FORA+" if index is not None else "FORA",
            "num_walks": W,
            "walks_used": walks_used,
            "r_max": r_max,
            "push_supersteps": push.stats["supersteps"],
            "push_edge_pushes": push.stats["edge_pushes"],
            "wall_time": time.perf_counter() - t0,
        },
    )
