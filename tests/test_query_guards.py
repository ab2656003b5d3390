"""Guards every query shares: a bad argument is rejected with ValueError
before any Spark job runs, a push that hits its superstep cap raises and
still releases its cached query view, a walk refinement that fails still
releases its caches, and all walks on a graph share one CSR broadcast.

Jobs are counted the way the benchmark counts them: under a job group of
their own, through ``statusTracker().getJobIdsForGroup``.
"""
import itertools

import numpy as np
import pytest
from pyspark import SparkContext, StorageLevel

from repro.core import approx_common, build_walk_index
from repro.core import fifo_fwdpush, fora, monte_carlo, powerpush, powitr, sim_fwdpush, speedppr
from repro.core.resacc import resacc
from repro.graphs.generators import chung_lu
from repro.graphs.graph import Graph

EPS = 0.5
PUSH = [powitr, fifo_fwdpush, sim_fwdpush, powerpush]
APPROX = [monte_carlo, fora, speedppr, resacc]
_groups = itertools.count()


@pytest.fixture(scope="module")
def cl(spark):
    return chung_lu(spark, n=120, avg_deg=5.0, seed=31)


def _call(fn, g, s=0, **kw):
    if fn in APPROX:
        kw.setdefault("eps", EPS)
    return fn(g, s, **kw)


def _rejected_without_jobs(spark, fn, g, **kw) -> None:
    sc = spark.sparkContext
    group = f"query-guard-{next(_groups)}"
    sc.setJobGroup(group, "argument check")
    try:
        with pytest.raises(ValueError):
            _call(fn, g, **kw)
        assert list(sc.statusTracker().getJobIdsForGroup(group)) == []
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)


@pytest.mark.parametrize("fn", PUSH + APPROX, ids=lambda f: f.__name__)
def test_source_outside_graph(spark, cl, fn):
    for s in (-1, cl.n):
        _rejected_without_jobs(spark, fn, cl, s=s)


@pytest.mark.parametrize("fn", PUSH + APPROX, ids=lambda f: f.__name__)
def test_alpha_outside_unit_interval(spark, cl, fn):
    for alpha in (0.0, 1.0):
        _rejected_without_jobs(spark, fn, cl, alpha=alpha)


@pytest.mark.parametrize("fn", PUSH, ids=lambda f: f.__name__)
def test_lambda_outside_unit_interval(spark, cl, fn):
    for lam in (0.0, 1.0):
        _rejected_without_jobs(spark, fn, cl, lam=lam)


@pytest.mark.parametrize("fn, key", [(fifo_fwdpush, "r_max"), (powerpush, "refine_r_max")])
def test_r_max_not_positive(spark, cl, fn, key):
    for r_max in (0.0, -1e-3):
        _rejected_without_jobs(spark, fn, cl, **{key: r_max})


@pytest.mark.parametrize("fn", APPROX, ids=lambda f: f.__name__)
def test_eps_not_positive(spark, cl, fn):
    for eps in (0.0, -0.1):
        _rejected_without_jobs(spark, fn, cl, eps=eps)


def _hub(g: Graph) -> int:
    return int(np.argmax(g.to_csr().out_degrees()))


@pytest.mark.parametrize(
    "run",
    [
        lambda g: powerpush(g, 0, lam=1e-6, max_supersteps=2),
        # from the hub the frontier stays above the driver-tail size for
        # more than two supersteps
        lambda g: resacc(g, _hub(g), eps=0.3, max_supersteps=2),
    ],
    ids=["powerpush", "resacc"],
)
def test_superstep_cap_raises_and_releases_view(cl, monkeypatch, run):
    views = []
    query_view = Graph.query_view

    def spy(self, s):
        out = query_view(self, s)
        views.extend(out)
        return out

    monkeypatch.setattr(Graph, "query_view", spy)
    with pytest.raises(RuntimeError, match="superstep limit"):
        run(cl)
    assert len(views) == 2  # adj and deg_q
    assert all(v.storageLevel == StorageLevel.NONE for v in views)


def test_failed_walks_release_refinement_caches(cl, monkeypatch):
    starts = []
    walk_starts = approx_common.walk_starts

    def spy(*args):
        out = walk_starts(*args)
        starts.append(out)
        return out

    def fail(*args, **kwargs):
        raise RuntimeError("walks failed")

    monkeypatch.setattr(approx_common, "walk_starts", spy)
    monkeypatch.setattr(approx_common, "simulate_walks_df", fail)
    with pytest.raises(RuntimeError, match="walks failed"):
        fora(cl, 0, eps=EPS)
    assert len(starts) == 1
    assert starts[0].storageLevel == StorageLevel.NONE


def test_walks_share_one_csr_broadcast(spark, monkeypatch, tmp_path):
    g = chung_lu(spark, n=120, avg_deg=5.0, seed=31)  # unpersisted below
    made = []
    broadcast = SparkContext.broadcast

    def spy(self, value):
        out = broadcast(self, value)
        made.append(out)
        return out

    monkeypatch.setattr(SparkContext, "broadcast", spy)
    monte_carlo(g, 0, eps=EPS)
    fora(g, 0, eps=EPS)
    build_walk_index(g, str(tmp_path / "index"), policy="speedppr")
    assert len(made) == 1
    g.unpersist()
    assert not made[0]._jbroadcast.isValid()
