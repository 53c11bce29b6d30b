"""Durable, resumable trace persistence (the ``repro/store/`` subsystem).

An embedded-SQLite layer under :class:`~repro.server.pipeline.Server` and
``TraceDB``:

* :mod:`repro.store.schema` — the table layout and WAL pragma recipe;
* :class:`PreparedShard` (:mod:`repro.store.prepared`) — one shard's rows
  checked and ordered once, with the derivations every commit consumer
  reads;
* :class:`TraceStore` — transactional whole-shard commits, per-``(shard,
  round)`` recovery state, streaming reads;
* :class:`RunManifest` (:mod:`repro.store.resume`) — the spec-hash /
  seed-material identity that validates a resume;
* :class:`Coverage` (:mod:`repro.store.resume`) — the run's recorded
  coverage schedule and the frontier rule every reader of the run follows;
* :class:`StoredTraceDB` — the out-of-core ``TraceDB`` read view.

See ``docs/persistence.md`` for the full recovery model ("recovery is
re-derivation") and usage walkthrough.
"""

from repro.store.outofcore import StoredTraceDB
from repro.store.prepared import PreparedShard
from repro.store.resume import Coverage, RunManifest, engine_spec_hash
from repro.store.schema import BUSY_TIMEOUT_MS, SCHEMA_VERSION, apply_pragmas, create_schema
from repro.store.store import TraceStore, open_store

__all__ = [
    "BUSY_TIMEOUT_MS",
    "Coverage",
    "PreparedShard",
    "RunManifest",
    "SCHEMA_VERSION",
    "StoredTraceDB",
    "TraceStore",
    "apply_pragmas",
    "create_schema",
    "engine_spec_hash",
    "open_store",
]
