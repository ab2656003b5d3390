"""Distributed Forward Push, as runs of the push engine
(:mod:`repro.core.common`).

Two variants:

* :func:`fifo_fwdpush` — the paper's Algorithm 2 in its *iteration*
  formulation (§4.2): the frontier ``S^(j)`` is the set of active nodes
  (``r > d·r_max``) at the start of superstep ``j+1``, all of which are
  pushed in that superstep. In a bulk-synchronous dataflow this is the
  faithful parallel form of the FIFO queue — the paper's Theorem 4.3
  analysis is stated over exactly these iterations. Once ``r_sum ≤
  m·r_max`` (the Eq. 7 ℓ1 target) the frontier is a sparse trickle —
  Lemma 4.5's O(m) tail — and is drained on the driver.
* :func:`sim_fwdpush` — SimFwdPush (§4.1): the engine at ``r_max = 0``,
  i.e. every node holding residue is pushed each superstep; provably
  identical to PowItr (Lemma 4.1), which the tests assert against
  :mod:`repro.core.powitr`.
"""
from __future__ import annotations

import time

from repro import ALPHA_DEFAULT
from repro.core.common import (
    MAX_SUPERSTEPS_DEFAULT,
    PPRResult,
    frontier_stats,
    push_state,
    run_frontier,
)
from repro.graphs.graph import Graph


def fifo_fwdpush(
    g: Graph,
    s: int,
    *,
    alpha: float = ALPHA_DEFAULT,
    r_max: float | None = None,
    lam: float = 1e-6,
    max_supersteps: int = MAX_SUPERSTEPS_DEFAULT,
) -> PPRResult:
    """Frontier-synchronous FwdPush; terminates when no node is active.

    Defaults to ``r_max = lam/m`` so Eq. (7) guarantees ℓ1 error ≤ ``lam``.
    """
    t0 = time.perf_counter()
    if r_max is None:
        r_max = lam / g.m
    with push_state(g, s, alpha=alpha, max_supersteps=max_supersteps, lam=lam, r_max=r_max) as st:
        run_frontier(st, r_max, to_driver=lambda r_sum, _: r_sum <= g.m * r_max)
        r_sum, _, _ = frontier_stats(st.r, st.deg_q, r_max)
    return PPRResult(
        pi=st.pi,
        r=st.r,
        stats={
            "algorithm": "FIFO-FwdPush",
            "supersteps": st.supersteps,
            "edge_pushes": st.edge_pushes,
            "r_sum": r_sum,
            "r_max": r_max,
            "wall_time": time.perf_counter() - t0,
        },
    )


def sim_fwdpush(
    g: Graph,
    s: int,
    *,
    alpha: float = ALPHA_DEFAULT,
    lam: float = 1e-6,
    max_supersteps: int = MAX_SUPERSTEPS_DEFAULT,
) -> PPRResult:
    """SimFwdPush: push *every* node with non-zero residue each superstep,
    stop when ``r_sum ≤ lam``. Numerically identical to PowItr."""
    t0 = time.perf_counter()
    with push_state(g, s, alpha=alpha, max_supersteps=max_supersteps, lam=lam) as st:
        run_frontier(st, 0.0, stop=lambda r_sum, _: r_sum <= lam)
    return PPRResult(
        pi=st.pi,
        r=st.r,
        stats={
            "algorithm": "SimFwdPush",
            "supersteps": st.supersteps,
            "edge_pushes": st.edge_pushes,
            "r_sum": st.r_sum,
            "wall_time": time.perf_counter() - t0,
        },
    )
