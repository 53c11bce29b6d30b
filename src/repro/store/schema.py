"""SQLite schema and pragma recipe for the durable trace store.

One embedded database file per run.  The layout is deliberately small and
append-oriented (the LSST ingest shape: partitioned bulk appends plus a tiny
per-partition recovery-state table):

``meta``
    Key/value manifest: schema version plus the
    :class:`~repro.store.resume.RunManifest` fields (engine spec hash, shard
    plan fingerprint, world geometry).  Written once per run; validated on
    every reopen so a resume against the wrong spec or seeds aborts instead
    of silently producing a different trace.
``run_coverage``
    The run's coverage schedule (schema v4): one ``(shard, round)`` row per
    round each shard will commit, written in the manifest's transaction.
    Every reader of the run — resume, :class:`~repro.query.QueryEngine`
    — holds a round back until every shard scheduled at or before it has
    its ``shard_commits`` mark (:class:`~repro.store.resume.Coverage`).  A
    store no run has begun on has no schedule and owes nothing.
``releases``
    The released trace, keyed ``(user, time)``: the snapped server-side cell,
    the raw released planar point, the exact-disclosure flag, and the budget
    charged.  ``WITHOUT ROWID`` clusters rows by the key, so per-user
    trajectory scans are contiguous range reads.  It has no second index
    (schema v5): a release costs one B-tree insert, and a round snapshot
    (:meth:`~repro.store.store.TraceStore.at_time`) probes the key once per
    user that ``user_summary`` says spans the round.
``shard_commits``
    Per-``(shard, round)`` recovery state, modelled on Paper-Scanner's
    ``journal_state`` incremental-update tables: a pair is present iff that
    shard's releases for that round are durably committed.  Rows are written
    in the *same transaction* as their releases, so after any crash the pair
    set exactly describes the recoverable prefix — there is no separate
    log-replay step.
``round_blocks`` / ``user_summary``
    The query accelerator (schema v3): one row per ``(kind, round)`` whose
    two int32 column blocks hold that round's occupancy and cell-transition
    counts, plus per-user bounds, so windowed analytics never pay a
    full-table pass — see :mod:`repro.store.accelerator` for the block
    layout and the merge-by-integer-addition argument.  ``user_summary``
    rows are written in every shard commit's transaction.  A round's block
    is written once (schema v6), in the transaction of the commit that
    moves the coverage frontier past the round; before that the commits'
    increments are parked in the writer's memory, so a store stopped
    mid-run holds marks without blocks, and only for rounds no reader may
    see yet.

Clients' rolling windows hold true locations, so they stay in client
memory and never reach the store.

Pragma rationale (the Paper-Scanner recipe, see ``docs/persistence.md``):

* ``journal_mode=WAL`` — writers append to a write-ahead log instead of
  rewriting pages in place, so a kill -9 mid-transaction never tears
  committed data, and concurrent readers (the resume poller, out-of-core
  scans) proceed without blocking the committer.
* ``synchronous=NORMAL`` — in WAL mode this fsyncs only at checkpoints;
  a power loss may drop the *last* transactions but never corrupts the
  database.  Since every shard is re-derivable from its seeds, losing a
  tail transaction just means re-deriving that shard on resume — the exact
  trade the recovery model is built around.
* ``busy_timeout`` — a blocked connection retries for a bounded window
  instead of failing immediately, which is what lets a read-only monitor
  poll the store while the committer holds the write lock.
* ``foreign_keys=ON`` — belt-and-braces referential integrity for future
  schema growth (the current tables are self-contained).
"""

from __future__ import annotations

import sqlite3

from repro.store.accelerator import ACCELERATOR_TABLES

__all__ = ["SCHEMA_VERSION", "BUSY_TIMEOUT_MS", "apply_pragmas", "create_schema"]

#: Bumped whenever the table layout changes; stores recorded under a
#: different version refuse to open rather than guess at a migration.
#: v2 added the query-accelerator tables; v3 replaced its per-key count rows
#: (round_cell_counts, round_flows) with one round_blocks row of int32
#: column blocks per (kind, round); v4 records the run's coverage schedule
#: in run_coverage; v5 drops the (time, user) index on releases, so each
#: release is one B-tree insert; v6 writes each round block once, when the
#: coverage frontier passes its round (a v5 store stopped mid-run holds
#: partial blocks that a v6 resume would count twice).  Stores are rebuilt
#: from their seeds.
SCHEMA_VERSION = 6

#: Default lock-retry window (milliseconds) for every connection.
BUSY_TIMEOUT_MS = 30_000

_TABLES = (
    """
    CREATE TABLE IF NOT EXISTS meta (
        key   TEXT PRIMARY KEY,
        value TEXT NOT NULL
    ) WITHOUT ROWID
    """,
    """
    CREATE TABLE IF NOT EXISTS releases (
        user    INTEGER NOT NULL,
        time    INTEGER NOT NULL,
        cell    INTEGER NOT NULL,
        x       REAL    NOT NULL,
        y       REAL    NOT NULL,
        exact   INTEGER NOT NULL,
        epsilon REAL    NOT NULL,
        PRIMARY KEY (user, time)
    ) WITHOUT ROWID
    """,
    """
    CREATE TABLE IF NOT EXISTS shard_commits (
        shard  INTEGER NOT NULL,
        round  INTEGER NOT NULL,
        n_rows INTEGER NOT NULL,
        PRIMARY KEY (shard, round)
    ) WITHOUT ROWID
    """,
    """
    CREATE TABLE IF NOT EXISTS run_coverage (
        shard INTEGER NOT NULL,
        round INTEGER NOT NULL,
        PRIMARY KEY (shard, round)
    ) WITHOUT ROWID
    """,
) + ACCELERATOR_TABLES


def apply_pragmas(connection: sqlite3.Connection, busy_timeout_ms: int = BUSY_TIMEOUT_MS) -> None:
    """Apply the WAL/NORMAL/busy-timeout recipe to ``connection``.

    Safe to call on every open (pragmas are per-connection except
    ``journal_mode``, which persists in the database header).
    """
    connection.execute("PRAGMA journal_mode=WAL")
    connection.execute("PRAGMA synchronous=NORMAL")
    connection.execute(f"PRAGMA busy_timeout={int(busy_timeout_ms)}")
    connection.execute("PRAGMA foreign_keys=ON")


def create_schema(connection: sqlite3.Connection) -> None:
    """Create every table if absent (idempotent)."""
    with connection:
        for statement in _TABLES:
            connection.execute(statement)
