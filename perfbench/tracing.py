"""Traced-run harness: timing shims around each layer's public calls.

Installed only for a ``--trace 1`` run.  Every shim records a span (name,
start, end, parent span) in memory; spans are written out when the run ends.
A layer's self time is its spans' durations minus the durations of their
direct children, so a ``store.commit`` span that covers ``accelerator.upsert``
is not charged for the upsert.  Nothing under ``src/`` is edited: the shims
are attribute patches on the layer modules and classes, undone on exit.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

#: The query operations the read client issues (``QueryEngine`` methods).
QUERY_METHODS = ("contact_rate", "flow_matrix", "top_cells", "epsilon_spent", "trajectory")


class Tracer:
    """Spans and counters of one traced run, kept in memory (one thread)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counters: Counter = Counter()
        self.gauges: dict = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def calls(self) -> Counter:
        return Counter(self.names)

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name: duration minus direct children's."""
        children = [0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent] += self.ends[index] - self.starts[index]
        totals: dict[str, float] = defaultdict(float)
        for index, name in enumerate(self.names):
            totals[name] += (self.ends[index] - self.starts[index] - children[index]) / 1e9
        return totals

    def wall_seconds(self, name: str) -> float:
        return sum(
            (end - start) / 1e9
            for span, start, end in zip(self.names, self.starts, self.ends)
            if span == name
        )

    def write(self, path: Path) -> None:
        """Spans as ``[name id, start ns, end ns, parent index]`` rows."""
        table = sorted(set(self.names))
        ids = {name: index for index, name in enumerate(table)}
        origin = min(self.starts, default=0)
        path.write_text(
            json.dumps(
                {
                    "names": table,
                    "spans": [
                        [ids[name], start - origin, end - origin, parent]
                        for name, start, end, parent in zip(
                            self.names, self.starts, self.ends, self.parents
                        )
                    ],
                    "counters": dict(self.counters),
                },
                separators=(",", ":"),
            )
        )


def _count_cells(tracer, args, kwargs, result):
    cells = kwargs["cells"] if "cells" in kwargs else args[1]
    tracer.counters["engine.rows"] += len(cells)


def _count_commit_rows(tracer, args, kwargs, result):
    users = kwargs["users"] if "users" in kwargs else args[2]
    tracer.counters["store.rows"] += len(users)


def _count_delta_rows(tracer, args, kwargs, result):
    tracer.counters["accelerator.delta_rows"] += len(result)


def _count_charged(tracer, args, kwargs, result):
    tracer.counters["accounting.rows"] += int(result)


def _note_frozen(tracer, args, kwargs, result):
    registry = args[0]
    tracer.gauges[("live.frozen_rounds", id(registry))] = len(registry.frozen_rounds)


def shim_table():
    """``(owner, attribute, span name, counter hook)`` for every traced call."""
    from repro.core.accounting import BudgetLedger
    from repro.engine import sharding
    from repro.engine.engine import PrivacyEngine
    from repro.engine.sharding import ShardPlan
    from repro.mobility.trajectory import TraceDB
    from repro.query.api import QueryEngine
    from repro.server import live_metrics
    from repro.server.pipeline import Server
    from repro.store import accelerator
    from repro.store.store import TraceStore

    table = [
        (TraceDB, "user_history", "mobility.user_history", None),
        (TraceDB, "record_many", "mobility.record_many", None),
        (PrivacyEngine, "release_batch", "engine.release", _count_cells),
        (PrivacyEngine, "release_round_fused", "engine.release", _count_cells),
        (ShardPlan, "build", "sharding.plan", None),
        (sharding, "stream_shard_releases", "sharding.stream", None),
        (Server, "ingest_shard", "pipeline.ingest", None),
        (TraceStore, "commit_shard", "store.commit", _count_commit_rows),
        (TraceStore, "committed", "store.committed", None),
        (accelerator, "apply_deltas", "accelerator.upsert", None),
        (BudgetLedger, "charge_many", "accounting.charge", _count_charged),
        (live_metrics, "expected_coverage", "live.coverage", None),
        (live_metrics.LiveMetricRegistry, "ingest", "live.fold", _note_frozen),
        (QueryEngine, "missing_shards", "query.coverage", None),
    ]
    for name in ("cell_count_rows", "flow_rows", "user_summary_rows", "boundary_flow_rows"):
        table.append((accelerator, name, "accelerator.delta", _count_delta_rows))
    for view in live_metrics.LiveMetricView.__subclasses__():
        if "shard_deltas" in vars(view):
            table.append((view, "shard_deltas", "live.delta", None))
    for name in QUERY_METHODS:
        table.append((QueryEngine, name, f"query.{name}", None))
    return table


def _shim(tracer: Tracer, function, name: str, hook):
    if inspect.isgeneratorfunction(function):
        # One span per step of the iteration: the consumer's work between
        # steps (the commit of a yielded shard) is not charged to the stream.
        @functools.wraps(function)
        def stepped(*args, **kwargs):
            iterator = function(*args, **kwargs)
            while True:
                index = tracer.open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.close(index)
                yield item

        return stepped

    @functools.wraps(function)
    def timed(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.close(index)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return timed


@contextmanager
def installed(tracer: Tracer):
    """Patch every call in :func:`shim_table` for the duration of the block."""
    originals = []
    try:
        for owner, attribute, name, hook in shim_table():
            raw = inspect.getattr_static(owner, attribute)
            if isinstance(raw, classmethod):
                patched = classmethod(_shim(tracer, raw.__func__, name, hook))
            else:
                patched = _shim(tracer, raw, name, hook)
            originals.append((owner, attribute, raw))
            setattr(owner, attribute, patched)
        yield tracer
    finally:
        for owner, attribute, raw in reversed(originals):
            setattr(owner, attribute, raw)


#: Per-layer metric -> unit, in the order they are reported.
LAYER_UNITS = {
    "mobility.user_history_s": "s",
    "mobility.user_history_calls": "count",
    "mobility.record_many_s": "s",
    "engine.release_s": "s",
    "engine.release_calls": "count",
    "engine.rows_per_call": "rows/call",
    "sharding.plan_s": "s",
    "sharding.stream_s": "s",
    "pipeline.ingest_s": "s",
    "pipeline.ingest_calls": "count",
    "store.commit_s": "s",
    "store.commits": "count",
    "store.rows": "count",
    "store.committed_s": "s",
    "accelerator.delta_s": "s",
    "accelerator.upsert_s": "s",
    "accelerator.rows_per_release": "rows/row",
    "accounting.charge_s": "s",
    "accounting.rows": "count",
    "live.coverage_s": "s",
    "live.delta_s": "s",
    "live.fold_s": "s",
    "live.frozen_rounds": "count",
    **{f"query.{name}_s": "s" for name in QUERY_METHODS},
    "query.coverage_s": "s",
    "query.coverage_calls_per_op": "calls/op",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "frac",
}


def layer_metrics(tracer: Tracer, root: str, untraced_seconds: float) -> dict[str, float]:
    """Every per-layer metric of one traced run (see :data:`LAYER_UNITS`)."""
    own = tracer.self_seconds()
    calls = tracer.calls()
    counters = tracer.counters
    query_ops = sum(calls[f"query.{name}"] for name in QUERY_METHODS)
    release_calls = calls["engine.release"]
    values = {
        "mobility.user_history_s": own["mobility.user_history"],
        "mobility.user_history_calls": calls["mobility.user_history"],
        "mobility.record_many_s": own["mobility.record_many"],
        "engine.release_s": own["engine.release"],
        "engine.release_calls": release_calls,
        "engine.rows_per_call": counters["engine.rows"] / max(release_calls, 1),
        "sharding.plan_s": own["sharding.plan"],
        "sharding.stream_s": own["sharding.stream"],
        "pipeline.ingest_s": own["pipeline.ingest"],
        "pipeline.ingest_calls": calls["pipeline.ingest"],
        "store.commit_s": own["store.commit"],
        "store.commits": calls["store.commit"],
        "store.rows": counters["store.rows"],
        "store.committed_s": own["store.committed"],
        "accelerator.delta_s": own["accelerator.delta"],
        "accelerator.upsert_s": own["accelerator.upsert"],
        "accelerator.rows_per_release": (
            counters["accelerator.delta_rows"] / max(counters["store.rows"], 1)
        ),
        "accounting.charge_s": own["accounting.charge"],
        "accounting.rows": counters["accounting.rows"],
        "live.coverage_s": own["live.coverage"],
        "live.delta_s": own["live.delta"],
        "live.fold_s": own["live.fold"],
        "live.frozen_rounds": sum(
            value for (name, _), value in tracer.gauges.items() if name == "live.frozen_rounds"
        ),
        **{f"query.{name}_s": own[f"query.{name}"] for name in QUERY_METHODS},
        "query.coverage_s": own["query.coverage"],
        "query.coverage_calls_per_op": calls["query.coverage"] / max(query_ops, 1),
        "trace.unattributed_s": own[root],
        "trace.overhead_frac": tracer.wall_seconds(root) / untraced_seconds - 1.0,
    }
    return values
