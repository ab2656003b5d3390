"""Tests for the benchmark's own checkers, tracer arithmetic, diff verdicts
and metric list. Numpy only; no Spark session.

    PYTHONPATH=src python3 -m pytest sspprbench -q
"""
import json
import os

import numpy as np
import pandas as pd
import pytest

import checks
import diff
import run
from repro.linalg.csr import CSR
from repro.linalg.exact import exact_ppr
from tracing import Span, op_breakdown

HERE = os.path.dirname(os.path.abspath(__file__))


@pytest.fixture(scope="module")
def truth():
    rng = np.random.default_rng(3)
    n = 40
    src = rng.integers(0, n, 160)
    dst = rng.integers(0, n, 160)
    keep = src != dst
    pairs = np.unique(np.stack([src[keep], dst[keep]], axis=1), axis=0)
    csr = CSR.from_edges(n, pairs[:, 0], pairs[:, 1])
    return exact_ppr(csr, 0, 0.2)


class TestHighprec:
    def test_exact_passes(self, truth):
        ok, det = checks.check_highprec(truth * 0.95, 0.05, truth, 0.1)
        assert ok and det["l1"] == pytest.approx(0.05)

    def test_perturbed_estimate_fails(self, truth):
        pi = truth.copy()
        pi[0] -= 0.2
        pi[1] += 0.2
        ok, det = checks.check_highprec(pi, 0.0, truth, 0.1)
        assert not ok and det["l1"] == pytest.approx(0.4)

    def test_mass_leak_fails(self, truth):
        # ℓ1 within λ, but ‖π̂‖₁ + r_sum misses 1 by 1e-6
        ok, det = checks.check_highprec(truth * 0.95, 0.05 + 1e-6, truth, 0.1)
        assert not ok and det["mass_err"] > checks.MASS_TOL

    def test_missing_r_sum_fails(self, truth):
        ok, _ = checks.check_highprec(truth, None, truth, 0.1)
        assert not ok


class TestApprox:
    def test_within_eps_passes(self, truth):
        pi = truth.copy()
        big, small = int(np.argmax(truth)), int(np.argmin(truth))
        pi[big] += 0.01 * truth[big]
        pi[small] -= 0.01 * truth[big]
        ok, _ = checks.check_approx(pi, truth, 0.1)
        assert ok

    def test_perturbed_estimate_fails(self, truth):
        pi = truth.copy()
        big, second = np.argsort(truth)[-2:][::-1]
        shift = 0.5 * truth[second]
        pi[big] += shift  # mass kept: moved from the second-largest entry
        pi[second] -= shift
        ok, det = checks.check_approx(pi, truth, 0.1)
        assert not ok and det["max_rel_err"] == pytest.approx(0.5)

    def test_only_nodes_above_one_over_n_count(self, truth):
        pi = truth.copy()
        small = truth < 1.0 / truth.size
        assert small.any()
        shift = truth[small].sum() / truth[~small].sum()
        pi[~small] *= 1.0 + shift  # the small nodes' mass, spread over the rest
        pi[small] = 0.0
        ok, det = checks.check_approx(pi, truth, 0.5)
        assert ok and det["max_rel_err"] == pytest.approx(shift)

    def test_lost_walk_mass_fails(self, truth):
        # within a coarse ε, but one residue walk's weight is missing
        pi = truth.copy()
        pi[int(np.argmax(truth))] -= 1e-3
        ok, det = checks.check_approx(pi, truth, 1.0)
        assert not ok and det["mass_err"] == pytest.approx(1e-3)


def _stored(capacity: np.ndarray) -> pd.DataFrame:
    """Per-node summary of a complete index: K_v walks numbered 1..K_v."""
    nodes = np.arange(capacity.size)
    return pd.DataFrame(
        {"start": nodes, "walks": capacity, "distinct": capacity, "min_idx": 1, "max_idx": capacity}
    )


class TestIndex:
    deg = np.array([3, 0, 1, 5, 2])

    def test_policies(self):
        assert checks.speedppr_capacity(self.deg).tolist() == [3, 1, 1, 5, 2]
        # m = 11, W = 44: √(W/m) = 2
        assert checks.fora_capacity(self.deg, 11, 44).tolist() == [7, 3, 3, 11, 5]

    def test_complete_index_passes(self):
        cap = checks.speedppr_capacity(self.deg)
        ok, det = checks.check_index(_stored(cap), cap)
        assert ok and det["walks_stored"] == det["walks_expected"] == 12

    def test_dropped_walk_fails(self):
        cap = checks.speedppr_capacity(self.deg)
        stored = _stored(cap)
        stored.loc[3, ["walks", "distinct"]] -= 1  # walk 4 of node 3 is gone
        ok, det = checks.check_index(stored, cap)
        assert not ok and det["nodes_wrong"] == 1

    def test_node_without_walks_fails(self):
        cap = checks.speedppr_capacity(self.deg)
        ok, _ = checks.check_index(_stored(cap).drop(index=1), cap)
        assert not ok

    def test_walks_numbered_from_zero_fail(self):
        cap = checks.speedppr_capacity(self.deg)
        stored = _stored(cap)
        stored["min_idx"] -= 1
        stored["max_idx"] -= 1
        ok, det = checks.check_index(stored, cap)
        assert not ok and det["nodes_wrong"] == cap.size

    def test_duplicated_walk_fails(self):
        cap = checks.speedppr_capacity(self.deg)
        stored = _stored(cap)
        stored.loc[0, "walks"] += 1  # same walk_idx stored twice
        ok, _ = checks.check_index(stored, cap)
        assert not ok


def test_self_time_is_root_minus_children():
    spans = [
        Span("powerpush", op=0, parent=None, start=0.0, end=10.0, jobs=9),
        Span("frontier_stats", op=0, parent=0, start=1.0, end=3.0, jobs=2),
        Span("finish_on_driver", op=0, parent=0, start=4.0, end=7.0, jobs=3, counters={"edge_pushes": 5}),
        Span("materialize", op=0, parent=2, start=5.0, end=6.0, jobs=1),
        Span("powitr", op=1, parent=None, start=11.0, end=12.0),
    ]
    b = op_breakdown(spans, 0)
    assert b["s"] == 10.0 and b["jobs"] == 9
    assert b["self_s"] == pytest.approx(10.0 - 2.0 - 3.0)
    assert b["layers"]["finish_on_driver"] == {"calls": 1, "s": 3.0, "jobs": 3, "edge_pushes": 5}
    assert b["layers"]["materialize"]["s"] == 1.0


class TestDiff:
    def test_worse_beyond_bound(self):
        assert diff.verdict([10, 10.1, 9.9], [11.5, 11.6, 11.4], 0.1) == "worse"

    def test_improved_needs_separation(self):
        assert diff.verdict([10, 10.1, 9.9], [8.0, 8.1, 7.9], 0.1) == "improved"
        assert diff.verdict([10, 12, 8], [9.5, 11, 8], 0.1) == "unresolved"

    def test_higher_is_better(self):
        assert diff.verdict([10, 10.1, 9.9], [8.0, 8.1, 7.9], 0.1, "higher") == "worse"
        assert diff.verdict([10, 10.1, 9.9], [12.0, 12.1, 11.9], 0.1, "higher") == "improved"


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    import workloads

    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
