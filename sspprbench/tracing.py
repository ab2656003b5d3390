"""Spans around the calls into each layer's public functions.

The program carries no tracing of its own. For a traced run the benchmark
replaces each layer function below with a wrapper that records a span:
name, start, end, parent span, the operation it belongs to, the Spark jobs
started inside it and any counters read from its return value. Spans stay in
memory until the run ends.

The algorithm modules import ``frontier_stats``, ``materialize`` and the
like by name, and ``repro.core`` re-exports functions under the names of
their own submodules (``repro.core.powerpush`` is the function), so a
wrapper replaces the original *by identity* in every loaded ``repro``
module, and methods are replaced on their class.

Spark jobs are attributed through job groups: the benchmark sets one group
per operation, and each span counts the group's job ids at its start and
its end (this works with the Spark UI disabled).
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

#: span name -> (module, attribute, counters read from the return value).
#: ``simulate_walks_df`` only builds a lazy plan, so its span times plan
#: building; its call count is the number of CSR broadcasts created. The
#: walks themselves run in the action that follows (``monte_carlo``'s own
#: count, ``refine_with_walks``, ``build_walk_index``'s parquet write).
#: ``monte_carlo`` and ``bepi_query`` are operations of their own, so their
#: spans are the operations' root spans.
LAYERS: dict[str, tuple[str, str, Callable | None]] = {
    "query_view": ("repro.graphs.graph", "Graph.query_view", None),
    "to_csr": ("repro.graphs.graph", "Graph.to_csr", None),
    "frontier_stats": ("repro.core.common", "frontier_stats", None),
    "materialize": ("repro.core.common", "materialize", None),
    "pi_vector": ("repro.core.common", "PPRResult.pi_vector", None),
    "finish_on_driver": (
        "repro.core.driver_tail", "finish_on_driver", lambda out: {"edge_pushes": out[2]}
    ),
    "fifo_fwdpush": ("repro.core.fwdpush", "fifo_fwdpush", None),
    "powerpush": ("repro.core.powerpush", "powerpush", None),
    "refine_with_walks": (
        "repro.core.approx_common", "refine_with_walks", lambda out: {"walks": out[1]}
    ),
    "simulate_walks_df": ("repro.core.montecarlo", "simulate_walks_df", None),
    "build_walk_index": (
        "repro.core.walk_index",
        "build_walk_index",
        lambda out: {"walks_stored": out.num_walks_stored, "bytes": out.size_bytes},
    ),
    "build_bepi_index": ("repro.bepi.build", "build_bepi_index", lambda out: {"bytes": out.size_bytes}),
}


@dataclass
class Span:
    name: str
    op: int  # index of the operation the span belongs to
    parent: int | None  # index of the enclosing span
    start: float
    end: float = float("nan")
    jobs: int = 0
    counters: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for one benchmark run."""

    def __init__(self, sc) -> None:
        self.sc = sc
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._group: str | None = None
        self._op: int | None = None

    def _jobs(self) -> int:
        if self._group is None:
            return 0
        return len(self.sc.statusTracker().getJobIdsForGroup(self._group))

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        sp = Span(name=name, op=self._op, parent=parent, start=0.0)
        jobs0 = self._jobs()
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            sp.jobs = self._jobs() - jobs0

    @contextmanager
    def operation(self, op: int, name: str, group: str) -> Iterator[Span]:
        """The root span of operation ``op``, whose jobs run in ``group``."""
        self._op, self._group = op, group
        try:
            with self.span(name) as sp:
                yield sp
        finally:
            self._op, self._group = None, None

    def _wrap(self, name: str, fn: Callable, counters: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:  # outside any traced operation
                return fn(*args, **kwargs)
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
                if counters is not None:
                    sp.counters = counters(out)
                return out

        return traced

    def install(self) -> None:
        """Replace every layer function with its traced wrapper, for the
        rest of the process."""
        for name, (mod_name, attr, counters) in LAYERS.items():
            mod = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(name, cls.__dict__[meth], counters))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig, counters)
            for m in [m for k, m in sys.modules.items() if k == "repro" or k.startswith("repro.")]:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)


def op_breakdown(spans: list[Span], op: int) -> dict:
    """Per-layer totals for one operation: its name, wall time, self time
    (root minus direct children), and for every layer name below the root
    the call count, seconds, Spark jobs and summed counters."""
    mine = [(i, sp) for i, sp in enumerate(spans) if sp.op == op]
    root_idx, root = next((i, sp) for i, sp in mine if sp.parent is None)
    children = sum(sp.seconds for _, sp in mine if sp.parent == root_idx)
    layers: dict[str, dict] = {}
    for i, sp in mine:
        if i == root_idx:
            continue
        agg = layers.setdefault(sp.name, {"calls": 0, "s": 0.0, "jobs": 0})
        agg["calls"] += 1
        agg["s"] += sp.seconds
        agg["jobs"] += sp.jobs
        for key, val in sp.counters.items():
            agg[key] = agg.get(key, 0) + val
    return {
        "name": root.name,
        "s": root.seconds,
        "self_s": root.seconds - children,
        "jobs": root.jobs,
        "layers": layers,
    }
