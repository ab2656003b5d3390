"""Correctness checks for every operation the benchmark times.

Each check compares one operation's output with ground truth that the
benchmark computes outside all timings (``repro.linalg.exact.exact_ppr`` for
queries, the capacity policy re-derived from the CSR degrees for index
builds) and returns ``(ok, details)``. ``details`` holds the measured error
so that a result file shows how close each operation came to its limit.
"""
from __future__ import annotations

import math

import numpy as np
import pandas as pd

from repro.linalg.exact import l1_error, max_relative_error

#: tolerance of the mass-conservation invariant ``‖π̂‖₁ + r_sum = 1``
MASS_TOL = 1e-9


def check_highprec(pi_hat: np.ndarray, r_sum: float | None, truth: np.ndarray, lam: float) -> tuple[bool, dict]:
    """High-precision query: ``ℓ1(π̂, π) ≤ λ`` and ``‖π̂‖₁ + r_sum = 1``.

    A missing ``r_sum`` fails the check: the invariant cannot be verified.
    """
    l1 = l1_error(pi_hat, truth)
    mass = float(np.sum(pi_hat)) + (r_sum if r_sum is not None else math.nan)
    mass_err = abs(mass - 1.0)
    ok = l1 <= lam and mass_err <= MASS_TOL
    return ok, {"l1": l1, "mass_err": mass_err}


def check_approx(pi_hat: np.ndarray, truth: np.ndarray, eps: float) -> tuple[bool, dict]:
    """Approximate query: relative error ≤ ε on every v with π(v) ≥ 1/n,
    and ``‖π̂‖₁ = 1``: the walk phase hands out exactly the residue mass the
    push phase left, so no walk may be lost. The mass check keeps the test
    meaningful at ε ≥ 1, where π̂ = 0 would meet the relative-error bound."""
    rel = max_relative_error(pi_hat, truth, 1.0 / truth.size)
    mass_err = abs(float(np.sum(pi_hat)) - 1.0)
    return rel <= eps and mass_err <= MASS_TOL, {"max_rel_err": rel, "mass_err": mass_err}


def check_bepi(pi_hat: np.ndarray, truth: np.ndarray) -> tuple[bool, dict]:
    """BePI's Δ stop rule does not certify ℓ1, so nothing is checked; the
    ℓ1 error is reported. An exception is the only way a BePI query fails."""
    return True, {"l1": l1_error(pi_hat, truth)}


def fora_capacity(out_deg: np.ndarray, m: int, W: int) -> np.ndarray:
    """FORA+ policy: ``K_v = ⌊d_v·√(W/m)⌋ + 1`` over effective degrees."""
    d = np.maximum(out_deg, 1).astype(np.float64)
    return (np.floor(d * math.sqrt(W / m)) + 1).astype(np.int64)


def speedppr_capacity(out_deg: np.ndarray) -> np.ndarray:
    """SpeedPPR-Index policy: ``K_v = d_v`` over effective degrees."""
    return np.maximum(out_deg, 1).astype(np.int64)


def check_index(stored: pd.DataFrame, capacity: np.ndarray) -> tuple[bool, dict]:
    """An index build must store exactly ``K_v`` walks for every node ``v``,
    numbered ``1..K_v``, and nothing else.

    ``stored`` has one row per node that has walks: ``start``, ``walks``
    (row count), ``distinct`` (distinct ``walk_idx``), ``min_idx`` and
    ``max_idx``: K distinct integers in ``[1, K]`` are exactly ``1..K``.
    """
    n = capacity.size
    starts = stored["start"].to_numpy(np.int64)
    inside = (starts >= 0) & (starts < n)
    outside = int(np.count_nonzero(~inside))
    want = {"walks": capacity, "distinct": capacity, "min_idx": np.ones(n, np.int64), "max_idx": capacity}
    bad = np.zeros(n, dtype=bool)
    for col, expect in want.items():
        got = np.zeros(n, dtype=np.int64)
        got[starts[inside]] = stored[col].to_numpy(np.int64)[inside]
        bad |= got != expect
    expected = int(capacity.sum())
    found = int(stored["walks"].sum())
    ok = outside == 0 and not bad.any() and found == expected
    return ok, {"walks_expected": expected, "walks_stored": found, "nodes_wrong": int(bad.sum()) + outside}
