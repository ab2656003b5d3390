"""Vectorized α-random-walk simulation over a CSR adjacency.

One call simulates a *batch* of walks entirely in numpy: at every step each
alive walk stops with probability α, otherwise moves to a uniformly random
out-neighbour. A walk that moves off a dead end jumps back to the query
source ``s`` (paper §2).

Walk indexes are built before any source is known (``s=None``). Such a walk
stops at the dead end instead and is flagged ``pending``; at query time one
fresh α-walk from the actual source finishes it (the continuation's law is
exactly the walk-from-s law, so the estimate stays unbiased).

The same kernel backs the single-machine Monte-Carlo oracle, the finish of
pending index walks, and the distributed simulator in
:mod:`repro.core.montecarlo`, where it runs inside ``mapInPandas`` over the
graph's broadcast CSR.
"""
from __future__ import annotations

import numpy as np

from repro.linalg.csr import CSR

#: walks surviving this many steps carry (1-α)^130 ≈ 3e-13 of the mass — the
#: forced stop at the cap is far below every tolerance used in this repo.
MAX_STEPS_DEFAULT = 130


def simulate_endpoints(
    csr: CSR,
    s: int | None,
    starts: np.ndarray,
    alpha: float,
    rng: np.random.Generator,
    max_steps: int = MAX_STEPS_DEFAULT,
) -> tuple[np.ndarray, np.ndarray]:
    """``(endpoints, pending)`` of ``len(starts)`` α-random walks (one per
    entry). ``pending`` is all false unless ``s`` is None.

    Each step draws one number per alive walk (stop or move), then one per
    walk that moves; an index walk that stops at a dead end draws no second
    number. A fixed ``rng`` state therefore fixes every endpoint.
    """
    cur = np.asarray(starts, dtype=np.int64).copy()
    alive = np.ones(cur.size, dtype=bool)
    pending = np.zeros(cur.size, dtype=bool)
    indptr, indices = csr.indptr, csr.indices
    for _ in range(max_steps):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        stop = rng.random(idx.size) < alpha
        alive[idx[stop]] = False
        moving = idx[~stop]
        v = cur[moving]
        deg = indptr[v + 1] - indptr[v]
        dead = deg == 0
        if s is None:
            pending[moving[dead]] = True
            alive[moving[dead]] = False
            moving, v, deg = moving[~dead], v[~dead], deg[~dead]
        # one draw per walk still moving; a walk at a dead end ignores it and
        # jumps to s (the clamp keeps its unused position inside ``indices``)
        choice = (rng.random(moving.size) * deg).astype(np.int64)
        nxt = indices[np.minimum(indptr[v] + choice, indices.size - 1)]
        cur[moving] = nxt if s is None else np.where(dead, s, nxt)
    return cur, pending
