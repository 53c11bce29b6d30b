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
    """A remote execution worker died and the task exhausted its retries.

    The ``rpc`` backend treats worker death (process exit, heartbeat
    timeout, torn frame) as "re-run the shard elsewhere" — every shard is a
    pure function of its seeds, so a retry is bit-identical.  Only when the
    *same* task has lost its worker more than ``max_retries`` times does the
    coordinator give up and raise this, naming the task and the failure
    reason, so a systematically crashing shard surfaces as an error instead
    of an infinite respawn loop.
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
