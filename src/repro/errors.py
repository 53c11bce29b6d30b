"""Exception hierarchy for the PANDA/PGLP reproduction.

All library-raised exceptions derive from :class:`ReproError` so that callers
can catch everything from this package with a single ``except`` clause while
still being able to discriminate by subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by :mod:`repro`."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (bad epsilon, malformed graph, ...)."""


class PolicyError(ReproError):
    """A location policy graph is malformed or used inconsistently."""


class MechanismError(ReproError):
    """A privacy mechanism cannot be constructed or applied."""


class GeometryError(ReproError):
    """A computational-geometry routine received degenerate input."""


class DataError(ReproError):
    """A trajectory / trace database operation failed."""


class BudgetError(ReproError):
    """A privacy-budget ledger constraint was violated."""


class TracingError(ReproError):
    """The contact-tracing protocol was driven into an invalid state."""


class WorkerLostError(ReproError):
    """Pool workers kept dying and the unfinished tasks were given up.

    The ``pool`` backend treats a dead worker (a broken executor) as "rerun
    the unfinished shards on a fresh executor" — every shard is a pure
    function of its seeds, so a rerun is bit-identical.  Only when
    ``MAX_REBUILDS`` rebuilt executors in a row break without finishing a
    task does the call give up and raise this, chained from the
    ``BrokenProcessPool`` and naming the unfinished task indices, so a
    shard that kills every worker it lands on surfaces as an error instead
    of an endless rebuild loop.
    """


class SnapshotUnavailableError(ReproError):
    """A live-metric snapshot was requested for a round not yet frozen.

    Raised by :meth:`~repro.server.pipeline.Server.metrics_at` when some
    shard owning rows at (or before) the requested round has not committed
    yet: the registry refuses to serve partial aggregates, because a value
    folded over half a round would differ from the batch recomputation the
    live-metric contract promises bit-identity with.  The message names the
    shards still missing so the caller knows what it is waiting on.
    """


class StoreError(ReproError):
    """A durable trace-store operation failed (I/O, schema, misuse)."""


class ResumeMismatchError(StoreError):
    """A resume was attempted against a store recorded for a different run.

    Raised when the engine spec hash or the shard plan's seed material does
    not match what the store recorded at ingest time — resuming would
    silently produce a *different* trace than the interrupted run, so the
    mismatch aborts with the differing fields named instead.
    """
