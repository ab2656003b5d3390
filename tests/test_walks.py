"""Tests for the vectorized α-random-walk kernel (Monte-Carlo substrate)."""
import numpy as np
import pytest

from repro.graphs.generators import chung_lu, figure1_graph, with_dead_ends
from repro.linalg.exact import exact_ppr, l1_error
from repro.linalg.walks import simulate_endpoints

ALPHA = 0.2
#: the kernel's two modes: walks from the source 0, and source-independent
#: index walks (s=None). Cases that apply to both loop over them, which keeps
#: one test id per case.
MODES = (0, None)


def test_endpoints_shape_and_range(spark):
    csr = figure1_graph(spark).to_csr()
    for s in MODES:
        rng = np.random.default_rng(0)
        ends, pending = simulate_endpoints(csr, s, np.zeros(500, dtype=np.int64), ALPHA, rng)
        assert ends.shape == pending.shape == (500,)
        assert ends.min() >= 0 and ends.max() < csr.n


def test_monte_carlo_estimates_converge_to_exact(spark):
    csr = figure1_graph(spark).to_csr()
    truth = exact_ppr(csr, 0, ALPHA)
    rng = np.random.default_rng(7)
    W = 200_000
    ends, _ = simulate_endpoints(csr, 0, np.zeros(W, dtype=np.int64), ALPHA, rng)
    est = np.bincount(ends, minlength=csr.n) / W
    # ℓ1 error of W-sample empirical distribution ~ sqrt(n/W) ≈ 0.005
    assert l1_error(est, truth) < 0.02


def test_alpha_one_stops_immediately(spark):
    csr = figure1_graph(spark).to_csr()
    starts = np.array([2, 3, 4], dtype=np.int64)
    for s in MODES:
        rng = np.random.default_rng(1)
        ends, pending = simulate_endpoints(csr, s, starts, alpha=0.999999, rng=rng)
        assert np.array_equal(ends, starts)
        assert not pending.any()


def test_dead_ends_route_to_source(spark):
    # graph: 0 → 1, 1 dead, source s=0. Walks *started at 1* (as FORA's
    # phase 2 does) bounce 1 → 0 → 1 → …; solving the two-state chain:
    # P(stop at 1) = α/(1-(1-α)²) = 0.2/0.36, P(stop at 0) = 0.16/0.36.
    from repro.linalg.csr import CSR

    csr = CSR.from_edges(2, np.array([0]), np.array([1]))
    rng = np.random.default_rng(3)
    ends, _ = simulate_endpoints(csr, 0, np.ones(20_000, dtype=np.int64), ALPHA, rng)
    truth = np.array([0.16 / 0.36, 0.20 / 0.36])
    est = np.bincount(ends, minlength=2) / 20_000
    assert l1_error(est, truth) < 0.02


def test_walks_from_every_node(spark):
    csr = with_dead_ends(spark, n=40, m=120, n_dead=5, seed=9).to_csr()
    starts = np.repeat(np.arange(csr.n), 50)
    for s in MODES:
        rng = np.random.default_rng(11)
        ends, _ = simulate_endpoints(csr, s, starts, ALPHA, rng)
        assert ends.shape == starts.shape
        # every start contributes stops somewhere inside the graph
        assert ends.max() < csr.n


def test_deterministic_given_rng_state(spark):
    csr = chung_lu(spark, n=80, avg_deg=4.0, seed=5).to_csr()
    starts = np.zeros(100, dtype=np.int64)
    for s in MODES:
        a = simulate_endpoints(csr, s, starts, ALPHA, np.random.default_rng(42))
        b = simulate_endpoints(csr, s, starts, ALPHA, np.random.default_rng(42))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_modes_agree_without_dead_ends(spark):
    # the modes differ only at a dead end, so they draw the same numbers
    csr = chung_lu(spark, n=80, avg_deg=4.0, seed=5, directed=False).to_csr()
    assert (csr.out_degrees() > 0).all()
    starts = np.repeat(np.arange(csr.n), 20)
    ends_s, pending_s = simulate_endpoints(csr, 0, starts, ALPHA, np.random.default_rng(8))
    ends_i, pending_i = simulate_endpoints(csr, None, starts, ALPHA, np.random.default_rng(8))
    assert np.array_equal(ends_s, ends_i)
    assert not pending_s.any() and not pending_i.any()


def test_index_walks_stop_pending_at_dead_ends(spark):
    csr = with_dead_ends(spark, n=40, m=120, n_dead=5, seed=9).to_csr()
    starts = np.repeat(np.arange(csr.n), 50)
    ends, pending = simulate_endpoints(csr, None, starts, ALPHA, np.random.default_rng(12))
    assert pending.any()
    assert (csr.out_degrees()[ends[pending]] == 0).all()
    _, pending_s = simulate_endpoints(csr, 0, starts, ALPHA, np.random.default_rng(12))
    assert not pending_s.any()
