"""Exact SSPPR ground truth by solving the linear system.

From Eq. (1) of the paper, ``π_s = α·e_s + (1−α)·π_s·P``; transposing,
``(I − (1−α)·Pᵀ)·π_sᵀ = α·e_sᵀ``. On the small graphs used in tests and for
the ℓ1-error-vs-ground-truth experiments a dense solve is exact to machine
precision and serves as the oracle every algorithm is checked against.
"""
from __future__ import annotations

import numpy as np

from repro import ALPHA_DEFAULT
from repro.linalg.csr import CSR


def exact_ppr(csr: CSR, s: int, alpha: float = ALPHA_DEFAULT) -> np.ndarray:
    """The exact PPR vector ``π_s`` (length ``n``, sums to 1)."""
    P = csr.dense_transition(s)
    A = np.eye(csr.n) - (1.0 - alpha) * P.T
    b = np.zeros(csr.n)
    b[s] = alpha
    x = np.linalg.solve(A, b)
    return x


def l1_error(est: np.ndarray, truth: np.ndarray) -> float:
    """``‖est − truth‖₁`` — the paper's high-precision error measure."""
    return float(np.abs(np.asarray(est, dtype=np.float64) - truth).sum())


def max_relative_error(
    est: np.ndarray, truth: np.ndarray, mu: float
) -> float:
    """Max relative error over nodes with ``π ≥ mu`` — the Approx-SSPPR
    guarantee (paper §2, μ conventionally 1/n)."""
    mask = truth >= mu
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(est[mask] - truth[mask]) / truth[mask]))
