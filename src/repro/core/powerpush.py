"""Distributed PowerPush (paper Algorithm 3), as runs of the push engine
(:mod:`repro.core.common`): one run per phase and epoch, each with its own
threshold, stop rule and hand-to-driver rule.

Phases, mirroring the paper:

1. **Queue (local) phase** — frontier supersteps with the final threshold
   ``r_max = λ/m``, while the frontier stays small (≤ ``scanThreshold``,
   default ``n/4``) and the ℓ1 error is above λ. In the distributed
   setting this touches only the active nodes' adjacency (a sparse join).
2. **Scan (global) phase with dynamic ℓ1 thresholds** — ``epochNum``
   epochs; epoch ``i`` pushes with the *relaxed* threshold
   ``r'_max = λ^{i/epochNum}/m`` until ``r_sum ≤ m·r'_max``. Relaxing the
   threshold lets low-benefit nodes accumulate residue before being
   pushed, cutting the number of supersteps and pushes (the paper's
   "dynamic ℓ1-error threshold" optimisation). Once an epoch's frontier
   is a trickle of a few nodes, the epoch is finished on the driver.
3. **Optional refinement** (Remark / SpeedPPR line 3) — FIFO pushes on the
   driver until *no* node is active w.r.t. ``refine_r_max``; ``O(m)``
   extra by Lemma 4.5.

The single-machine distinction between random access and a cache-friendly
sequential scan has no dataflow analogue; what survives — and is measured —
is the frontier-size-dependent choice between sparse-join supersteps and
relaxed-threshold bulk supersteps.
"""
from __future__ import annotations

import time

from repro import ALPHA_DEFAULT
from repro.core.common import (
    MAX_SUPERSTEPS_DEFAULT,
    PPRResult,
    drain_on_driver,
    frontier_stats,
    push_state,
    run_frontier,
)
from repro.graphs.graph import Graph

EPOCH_NUM_DEFAULT = 8


def powerpush(
    g: Graph,
    s: int,
    *,
    alpha: float = ALPHA_DEFAULT,
    lam: float = 1e-6,
    epoch_num: int = EPOCH_NUM_DEFAULT,
    scan_threshold: int | None = None,
    refine_r_max: float | None = None,
    max_supersteps: int = MAX_SUPERSTEPS_DEFAULT,
) -> PPRResult:
    """Run distributed PowerPush to ℓ1 error ≤ ``lam``."""
    t0 = time.perf_counter()
    if scan_threshold is None:
        scan_threshold = max(1, g.n // 4)
    r_max = lam / g.m
    with push_state(
        g, s, alpha=alpha, max_supersteps=max_supersteps, lam=lam, r_max=refine_r_max
    ) as st:
        # ---- phase 1: queue mode ----
        run_frontier(st, r_max, stop=lambda r_sum, n_active: n_active > scan_threshold or r_sum <= lam)
        queue_steps = st.supersteps

        # ---- phase 2: scan mode with dynamic thresholds ----
        if st.r_sum > lam:
            for i in range(1, epoch_num + 1):
                r_max_i = lam ** (i / epoch_num) / g.m
                run_frontier(
                    st,
                    r_max_i,
                    stop=lambda r_sum, _: r_sum <= g.m * r_max_i,
                    to_driver=lambda _, n_active: n_active <= st.trickle,
                )

        # ---- phase 3: optional refinement to a no-active state ----
        # r_sum ≤ λ already; this is Lemma 4.5's O(m) sparse tail, which a
        # bulk-synchronous frontier would drain one trickle-superstep at a
        # time — the local/global switch says: run it as a driver-side queue
        if refine_r_max is not None:
            drain_on_driver(st, refine_r_max)
        r_sum, _, _ = frontier_stats(st.r, st.deg_q, r_max)
    return PPRResult(
        pi=st.pi,
        r=st.r,
        stats={
            "algorithm": "PowerPush",
            "supersteps": st.supersteps,
            "queue_supersteps": queue_steps,
            "edge_pushes": st.edge_pushes,
            "r_sum": r_sum,
            "r_max": r_max,
            "wall_time": time.perf_counter() - t0,
        },
    )
