"""Instrumented single-machine reference implementations.

These follow the paper's pseudo-code *letter by letter* (Algorithm 1's FIFO
variant = Algorithm 2, SimFwdPush of §4.1, PowItr of §3.1, PowerPush =
Algorithm 3), with counters for **edge pushes** ("residue updates": a push
on ``v`` counts ``d_v``), iteration counts, and an ``(edge_pushes, r_sum)``
trace. They are used

* as the workload for the machine-independent op-count experiments
  (the paper's Figures 5/6, reproduced as Table F6), and
* as oracles for the distributed implementations in :mod:`repro.core`.

Every function takes a :class:`repro.linalg.csr.CSR` plus the source ``s``
and returns ``(pi, r, stats)`` where ``pi`` is the reserve (estimate)
vector, ``r`` the residue vector, and ``stats`` a :class:`RunStats`.
Dead-end mass is routed to ``s`` (paper §2).

FIFO-FwdPush, :func:`fifo_finish` and PowerPush's queue, scan and refine
phases share one in-place push (:meth:`_Pusher.push`) and one FIFO drain
(:func:`_fifo_drain`). PowItr and SimFwdPush keep loops of their own: they
are the oracles the distributed implementations are tested against.
"""
from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import ALPHA_DEFAULT
from repro.linalg.csr import CSR


@dataclass
class RunStats:
    """Counters shared by all reference algorithms."""

    algorithm: str
    edge_pushes: int = 0
    iterations: int = 0
    wall_time: float = 0.0
    #: samples of (cumulative edge pushes, r_sum) — the Fig 5/6 curves
    trace: list[tuple[int, float]] = field(default_factory=list)


# ----------------------------------------------------------------------
# Power Iteration (§3.1)
# ----------------------------------------------------------------------
def powitr(
    csr: CSR, s: int, alpha: float = ALPHA_DEFAULT, lam: float = 1e-8
) -> tuple[np.ndarray, np.ndarray, RunStats]:
    """Vanilla PowItr: dense iterations ``γ ← (1−α)·γ·P``, ``π += α·γ``.

    As a *global* method each iteration touches all ``m`` edges, so each
    iteration adds ``m`` to the edge-push counter (this is what makes
    PowItr's Fig-6 curve lie right of FwdPush's).
    """
    t0 = time.perf_counter()
    stats = RunStats("PowItr")
    gamma = np.zeros(csr.n)
    gamma[s] = 1.0
    pi = np.zeros(csr.n)
    r_sum = 1.0
    while r_sum > lam:
        pi += alpha * gamma
        gamma = csr.push_step(gamma, alpha, s)
        r_sum = float(gamma.sum())
        stats.iterations += 1
        stats.edge_pushes += csr.m
        stats.trace.append((stats.edge_pushes, r_sum))
    stats.wall_time = time.perf_counter() - t0
    return pi, gamma, stats


# ----------------------------------------------------------------------
# Simultaneous Forward Push (§4.1) — provably ≡ PowItr (Lemma 4.1)
# ----------------------------------------------------------------------
def sim_fwdpush(
    csr: CSR, s: int, alpha: float = ALPHA_DEFAULT, lam: float = 1e-8
) -> tuple[np.ndarray, np.ndarray, RunStats]:
    """SimFwdPush: per iteration, push **every node with non-zero residue**
    simultaneously (``r_max = 0``). Identical vectors to PowItr, but the
    push counter only charges the degrees of nodes actually holding
    residue — the *local* accounting."""
    t0 = time.perf_counter()
    stats = RunStats("SimFwdPush")
    d_eff = csr.effective_degrees()
    r = np.zeros(csr.n)
    r[s] = 1.0
    pi = np.zeros(csr.n)
    r_sum = 1.0
    while r_sum > lam:
        nz = r > 0.0
        stats.edge_pushes += int(d_eff[nz].sum())
        pi += alpha * r
        r = csr.push_step(r, alpha, s)
        r_sum = float(r.sum())
        stats.iterations += 1
        stats.trace.append((stats.edge_pushes, r_sum))
    stats.wall_time = time.perf_counter() - t0
    return pi, r, stats


# ----------------------------------------------------------------------
# The shared push and FIFO drain
# ----------------------------------------------------------------------
class _Pusher:
    """An in-place push state ``(π̂, r)`` over ``csr``, with the running
    ``r_sum``, the edge-push counter and, when ``trace`` is a list, the
    ``(edge_pushes, r_sum)`` samples taken every ``m`` pushes."""

    def __init__(
        self, csr: CSR, s: int, alpha: float, pi: np.ndarray, r: np.ndarray, trace: list | None = None
    ) -> None:
        self.s, self.alpha = s, alpha
        self.indptr, self.indices = csr.indptr, csr.indices
        self.d_true = csr.out_degrees()
        self.d_eff = csr.effective_degrees()
        self.pi, self.r = pi, r
        self.r_sum = float(r.sum())
        self.edge_pushes = 0
        self.trace = trace
        # the paper samples every 4·m edge pushes; we sample every m for
        # denser curves on the small stand-ins (recorded next to the
        # paper's grid in EXPERIMENTS.md)
        self.sample_every = max(1, csr.m)
        self.next_sample = self.sample_every
        self._to_s = np.array([s])

    @classmethod
    def at_source(cls, csr: CSR, s: int, alpha: float, trace: list | None) -> "_Pusher":
        """The initial state ``π̂ = 0``, ``r = e_s``."""
        r = np.zeros(csr.n)
        r[s] = 1.0
        return cls(csr, s, alpha, np.zeros(csr.n), r, trace)

    def active(self, threshold: float) -> np.ndarray:
        """Nodes with ``r > d·threshold``, in id order."""
        return np.flatnonzero(self.r > self.d_eff * threshold)

    def push(self, v: int) -> np.ndarray:
        """Push ``v``: ``α·r(v)`` to ``π̂(v)``, the rest spread over its
        out-neighbours (a dead end's one virtual edge leads to ``s``).
        Returns the nodes whose residue rose."""
        rv = self.r[v]
        self.pi[v] += self.alpha * rv
        self.r_sum -= self.alpha * rv
        d = self.d_true[v]
        if d == 0:  # dead end: one virtual edge back to s
            self.r[v] = 0.0  # zero first: v may equal s (virtual self-loop)
            self.r[self.s] += (1.0 - self.alpha) * rv
            touched = self._to_s
            self.edge_pushes += 1
        else:
            touched = self.indices[self.indptr[v] : self.indptr[v + 1]]
            self.r[v] = 0.0
            self.r[touched] += (1.0 - self.alpha) * rv / d  # distinct: edges deduplicated
            self.edge_pushes += int(d)
        if self.trace is not None and self.edge_pushes >= self.next_sample:
            self.trace.append((self.edge_pushes, max(self.r_sum, 0.0)))
            self.next_sample += self.sample_every
        return touched


def _fifo_drain(
    st: _Pusher,
    threshold: float,
    queue: list[int] | None = None,
    *,
    exclude: int | None = None,
    stop: Callable[[int], bool] | None = None,
) -> None:
    """Algorithm 2's FIFO loop at ``threshold``: pop a node, push it, and
    enqueue every neighbour it turned active, until the queue is empty or
    ``stop(len(queue))`` holds. The queue starts as ``queue`` (default: all
    active nodes). ``exclude`` marks a node whose residue accumulates
    instead of being pushed (ResAcc's source)."""
    if queue is None:
        queue = [int(v) for v in st.active(threshold) if v != exclude]
    q: deque[int] = deque(queue)
    in_q = np.zeros(st.r.size, dtype=bool)
    in_q[queue] = True
    while q and not (stop is not None and stop(len(q))):
        v = q.popleft()
        in_q[v] = False
        touched = st.push(v)
        newly = touched[(st.r[touched] > st.d_eff[touched] * threshold) & ~in_q[touched]]
        for u in np.unique(newly):
            if u != exclude:
                q.append(int(u))
                in_q[u] = True


# ----------------------------------------------------------------------
# FIFO Forward Push (Algorithm 2)
# ----------------------------------------------------------------------
def fifo_fwdpush(
    csr: CSR,
    s: int,
    alpha: float = ALPHA_DEFAULT,
    r_max: float | None = None,
    lam: float = 1e-8,
) -> tuple[np.ndarray, np.ndarray, RunStats]:
    """Algorithm 2 verbatim: FIFO queue, asynchronous in-place pushes,
    terminate when no node has ``r > d·r_max``. Default ``r_max = λ/m``
    (so the ℓ1 bound Eq. 7 gives ``‖π̂−π‖₁ ≤ λ``)."""
    t0 = time.perf_counter()
    if r_max is None:
        r_max = lam / csr.m
    stats = RunStats("FIFO-FwdPush")
    st = _Pusher.at_source(csr, s, alpha, stats.trace)
    _fifo_drain(st, r_max, [s])
    stats.edge_pushes = st.edge_pushes
    stats.trace.append((stats.edge_pushes, max(st.r_sum, 0.0)))
    stats.iterations = 0  # iteration structure implicit in FIFO order
    stats.wall_time = time.perf_counter() - t0
    return st.pi, st.r, stats


def fifo_finish(
    csr: CSR,
    s: int,
    alpha: float,
    r_max: float,
    pi: np.ndarray,
    r: np.ndarray,
    exclude: int | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Finish an arbitrary push state with FIFO pushes until **no node is
    active** w.r.t. ``r_max`` — the Lemma 4.5 O(m) tail. Used by the
    distributed algorithms to process sparse frontiers locally (the
    paper's local/global unification, applied to the cluster/driver
    split). ``exclude`` marks a node whose residue accumulates instead of
    being pushed (ResAcc's source). Returns ``(pi, r, edge_pushes)``;
    inputs are not mutated."""
    st = _Pusher(csr, s, alpha, pi.copy(), r.copy())
    _fifo_drain(st, r_max, exclude=exclude)
    return st.pi, st.r, st.edge_pushes


# ----------------------------------------------------------------------
# PowerPush (Algorithm 3)
# ----------------------------------------------------------------------
def powerpush(
    csr: CSR,
    s: int,
    alpha: float = ALPHA_DEFAULT,
    lam: float = 1e-8,
    epoch_num: int = 8,
    scan_threshold: int | None = None,
    refine_r_max: float | None = None,
) -> tuple[np.ndarray, np.ndarray, RunStats]:
    """Algorithm 3 verbatim: FIFO queue phase until the queue outgrows
    ``scanThreshold = n/4``, then ``epochNum`` sequential-scan epochs with
    the dynamic threshold ``r'_max = λ^{i/epochNum}/m`` (asynchronous
    in-place pushes during the scan, as in the paper's implementation).

    ``refine_r_max`` (the paper's Remark / SpeedPPR line 3): afterwards keep
    pushing (FIFO) until **no node is active** w.r.t. that threshold —
    an extra ``O(m)`` by Lemma 4.5.
    """
    t0 = time.perf_counter()
    if scan_threshold is None:
        scan_threshold = max(1, csr.n // 4)
    stats = RunStats("PowerPush")
    st = _Pusher.at_source(csr, s, alpha, stats.trace)

    # ---- queue (local) phase: Algorithm 3 lines 7–13 ----
    _fifo_drain(st, lam / csr.m, [s], stop=lambda q_len: q_len > scan_threshold or st.r_sum <= lam)

    # ---- scan (global) phase: Algorithm 3 lines 14–24 ----
    if st.r_sum > lam:
        for i in range(1, epoch_num + 1):
            r_max_i = lam ** (i / epoch_num) / csr.m
            while st.r_sum > csr.m * r_max_i:
                active = st.active(r_max_i)
                if active.size == 0:
                    break
                for v in active:
                    # asynchronous: re-check activity (a push earlier in this
                    # scan may have raised or drained v's residue)
                    if st.r[v] > st.d_eff[v] * r_max_i:
                        st.push(int(v))

    # ---- optional refinement to a no-active state (Remark / SpeedPPR) ----
    if refine_r_max is not None:
        _fifo_drain(st, refine_r_max)

    stats.edge_pushes = st.edge_pushes
    stats.trace.append((stats.edge_pushes, max(st.r_sum, 0.0)))
    stats.wall_time = time.perf_counter() - t0
    return st.pi, st.r, stats
