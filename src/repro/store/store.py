"""The durable trace store: transactional shard commits over embedded SQLite.

:class:`TraceStore` is the persistence layer under
:class:`~repro.server.pipeline.Server`: every whole-shard atomic commit the
in-memory path already performs (:meth:`Server.ingest_shard
<repro.server.pipeline.Server.ingest_shard>`) maps onto exactly one SQLite
transaction that writes the shard's release rows *and* its per-``(shard,
round)`` commit marks together.  Because the marks travel in the same
transaction, the store can never hold a torn shard: after any crash —
including kill -9 mid-transaction, which WAL recovery rolls back on the next
open — the ``shard_commits`` table is a precise inventory of what survived,
and a resumed run re-derives only the missing shards from their seeds
(see :mod:`repro.store.resume`).

The same file doubles as the out-of-core backing for populations larger than
RAM: :class:`~repro.store.outofcore.StoredTraceDB` serves the ``TraceDB``
read API by streaming from the ``releases`` table.  The store holds what
the collector receives and nothing else: no table here keeps per-row ground
truth, and clients' rolling windows
(:class:`~repro.server.localdb.LocalLocationDB`) stay in memory on the
client.

Threading: the single connection is opened with ``check_same_thread=False``
so a thread other than the one that opened the store can commit while
another reads; CPython's ``sqlite3`` is built in serialized threading mode,
and all writes are additionally serialized by
:class:`~repro.server.pipeline.Server`'s ingest lock, one shard commit at a
time — which also guards the round-block increments a store holds parked
between commits (:meth:`TraceStore.commit_shard`).
"""

from __future__ import annotations

import functools
import os
import sqlite3
from pathlib import Path
from typing import TYPE_CHECKING, AbstractSet, Iterator, Mapping

import numpy as np

from repro.errors import StoreError
from repro.store import accelerator
from repro.store.resume import Coverage, RunManifest
from repro.store.schema import BUSY_TIMEOUT_MS, SCHEMA_VERSION, apply_pragmas, create_schema
from repro.utils.validation import check_integer

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.mobility.trajectory import CheckIn, TraceDB
    from repro.store.prepared import PreparedShard, ShardColumns

__all__ = ["TraceStore"]

#: Rows fetched per cursor round-trip by the streaming readers.
_FETCH_BATCH = 10_000

#: Release rows bound to one multi-row ``INSERT``: 64 rows of 7 columns
#: are 448 parameters, under SQLite's historical 999-parameter limit.
#: Inserting 144k rows in 18k-row shards took 0.14-0.16 s at 32 to 128
#: rows per statement against 0.22 s at one (2-vCPU Xeon, SQLite 3.40.1).
_ROWS_PER_INSERT = 64


@functools.lru_cache(maxsize=_ROWS_PER_INSERT)
def _insert_releases_sql(rows: int) -> str:
    """The ``INSERT`` of ``rows`` release rows (one statement per row count)."""
    return (
        "INSERT INTO releases (user, time, cell, x, y, exact, epsilon) VALUES "
        + ", ".join(["(?, ?, ?, ?, ?, ?, ?)"] * rows)
    )


def _insert_releases(connection: sqlite3.Connection, rows: "ShardColumns") -> None:
    """Insert one commit's release rows, :data:`_ROWS_PER_INSERT` per statement.

    The seven columns are interleaved once into one row-major parameter
    list, and each statement binds a slice of it: no per-statement
    regrouping of the columns.  The list is freed on return, before any
    accelerator merge that follows in the same transaction.
    """
    columns = (
        rows.users.tolist(),
        rows.times.tolist(),
        rows.cells.tolist(),
        rows.points[:, 0].tolist(),
        rows.points[:, 1].tolist(),
        rows.exact.astype(np.int64).tolist(),
        rows.epsilons.tolist(),
    )
    width = len(columns)
    values: list = [None] * (width * len(rows.users))
    for offset, column in enumerate(columns):
        values[offset::width] = column
    step = width * _ROWS_PER_INSERT
    for start in range(0, len(values), step):
        chunk = values[start:start + step]
        connection.execute(_insert_releases_sql(len(chunk) // width), chunk)


def _increments(prepared: "PreparedShard", with_true: bool) -> tuple[list, list]:
    """A commit's ``cells`` and ``flows`` round-block increments, observed then true.

    The true kind is left out unless ``with_true``.  Raises
    :class:`OverflowError` for a value outside a block's int32 range.
    """
    kinds = (accelerator.KIND_OBSERVED,)
    if with_true:
        kinds += (accelerator.KIND_TRUE,)
    return (
        [delta for kind in kinds for delta in prepared.cell_rows(kind)],
        [delta for kind in kinds for delta in prepared.flow_rows(kind)],
    )


def _preview(values: "list[int]", limit: int = 8) -> str:
    """``values`` for an error message, the first ``limit`` of them."""
    if len(values) <= limit:
        return str(values)
    return f"{values[:limit]} and {len(values) - limit} more"


class TraceStore:
    """One run's durable release store (a single SQLite file, WAL mode).

    Parameters
    ----------
    path:
        Database file path (created if absent), or ``":memory:"`` for an
        ephemeral store (useful in tests — it still exercises the exact
        transaction shapes, minus crash durability).
    busy_timeout_ms:
        Lock-retry window applied to the connection (see
        :mod:`repro.store.schema` for the full pragma rationale).

    Use as a context manager, or call :meth:`close` explicitly; all write
    methods are transactional (committed whole or rolled back).
    """

    def __init__(self, path: "str | os.PathLike[str]", busy_timeout_ms: int = BUSY_TIMEOUT_MS) -> None:
        self.path = str(path)
        try:
            self._connection = sqlite3.connect(self.path, check_same_thread=False)
        except sqlite3.Error as exc:
            raise StoreError(f"cannot open trace store {self.path!r}: {exc}") from exc
        apply_pragmas(self.connection, busy_timeout_ms)
        create_schema(self.connection)
        self._check_schema_version()
        # The writer's view of the run (see _sync): round-block increments
        # parked until the coverage frontier passes their round, the
        # frontier, the marks this store committed or re-parked, and the
        # stored marks at unwritten rounds whose increments it lacks.
        self._parked = accelerator.ParkedDeltas()
        self._frontier: "Coverage | None" = None
        self._known: set[tuple[int, int]] = set()
        self._unparked: set[tuple[int, int]] = set()
        self._data_version: "int | None" = None  # None: _sync has not run

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _check_schema_version(self) -> None:
        recorded = self._meta().get("schema_version")
        if recorded is None:
            with self.connection:
                self.connection.execute(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(SCHEMA_VERSION)),
                )
        elif int(recorded) != SCHEMA_VERSION:
            raise StoreError(
                f"trace store {self.path!r} uses schema v{recorded}, this "
                f"build expects v{SCHEMA_VERSION}; migrate or use a new path"
            )

    @property
    def connection(self) -> sqlite3.Connection:
        """The underlying connection (read-only queries, maintenance)."""
        if self._connection is None:
            raise StoreError(f"trace store {self.path!r} is closed")
        return self._connection

    def close(self) -> None:
        """Close the connection (idempotent); pending work is rolled back."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None  # type: ignore[assignment]

    def __enter__(self) -> "TraceStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def file_size_bytes(self) -> int:
        """On-disk size of the database, sidecars included (0 for ``:memory:``).

        WAL mode keeps recent transactions in ``-wal`` (plus the ``-shm``
        index) until a checkpoint folds them into the main file, so the
        main file alone understates real disk usage on a live store — the
        sum over all three is what the E18 footprint numbers report.
        """
        if self.path == ":memory:":
            return 0
        total = 0
        for suffix in ("", "-wal", "-shm"):
            sidecar = Path(self.path + suffix)
            if sidecar.exists():
                total += sidecar.stat().st_size
        return total

    # ------------------------------------------------------------------
    # Run manifest / resume contract
    # ------------------------------------------------------------------
    def _meta(self) -> dict[str, str]:
        rows = self.connection.execute("SELECT key, value FROM meta").fetchall()
        return dict(rows)

    def begin_run(
        self,
        manifest: RunManifest,
        coverage: "Mapping[int, AbstractSet[int]]",
        resume: bool = False,
    ) -> frozenset[tuple[int, int]]:
        """Record or validate the run identity and schedule; return the committed pairs.

        First use of a store records ``manifest`` and the run's coverage
        schedule — ``coverage``, ``shard -> rounds`` the run will commit,
        as :func:`~repro.server.live_metrics.expected_coverage` computes it
        — in one transaction, and returns an empty set.  From then on every
        reader holds back rounds some scheduled shard has not committed
        (:class:`~repro.store.resume.Coverage`).  On reopen both must match
        what was recorded: :class:`~repro.errors.ResumeMismatchError` names
        every differing manifest field, or the first shard whose scheduled
        rounds differ.  When commits already exist, ``resume=True`` must be
        passed explicitly so a forgotten old store is never silently
        extended (:class:`~repro.errors.StoreError`).

        Returns
        -------
        frozenset of ``(shard, round)``
            The durably committed pairs a resumed run may skip.
        """
        schedule = Coverage(coverage)
        recorded = RunManifest.from_meta(self._meta())
        if recorded is None:
            with self.connection:
                self.connection.executemany(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                    list(manifest.as_meta().items()),
                )
                self.connection.executemany(
                    "INSERT INTO run_coverage (shard, round) VALUES (?, ?)",
                    [
                        (shard, time)
                        for shard, rounds in schedule.schedule.items()
                        for time in rounds
                    ],
                )
            # Commits made before a run began wrote their blocks at once,
            # so every mark held now is already in the blocks.
            self._data_version = None
            self._known = set(self.committed())
            return frozenset()
        manifest.check_against(recorded, self.path)
        schedule.check_against(Coverage(self.coverage()), self.path)
        committed = self.committed()
        if committed and not resume:
            raise StoreError(
                f"trace store {self.path!r} already holds {len(committed)} "
                "committed (shard, round) pairs from a matching run; pass "
                "resume=True to continue it, or choose a fresh store path"
            )
        return committed

    def coverage(self) -> "dict[int, frozenset[int]] | None":
        """The coverage schedule :meth:`begin_run` recorded.

        ``shard -> rounds``, or ``None`` when no run has begun on the store:
        such a store (direct :meth:`commit_shard` use) owes nothing, so its
        readers answer over whatever is committed.
        """
        begun = self.connection.execute(
            "SELECT 1 FROM meta WHERE key = 'spec_hash'"
        ).fetchone()
        if begun is None:
            return None
        schedule: dict[int, set[int]] = {}
        for shard, time in self.connection.execute("SELECT shard, round FROM run_coverage"):
            schedule.setdefault(int(shard), set()).add(int(time))
        return {shard: frozenset(rounds) for shard, rounds in schedule.items()}

    def owed(self) -> "dict[int, frozenset[int]] | None":
        """``shard -> rounds`` the recorded schedule holds and no commit has marked.

        One statement: the schedule minus the marks.  ``None`` when no run
        has begun on the store, which owes nothing until one does.
        :class:`Coverage` over the owed pairs alone names the same missing
        shards, at every round, as one over the whole schedule fed every
        mark (:class:`~repro.query.QueryEngine` reads it this way).
        """
        rows = self.connection.execute(
            # Compound selects run left to right: the (NULL, NULL) row
            # only marks that a run has begun.
            "SELECT shard, round FROM run_coverage "
            "EXCEPT SELECT shard, round FROM shard_commits "
            "UNION ALL SELECT NULL, NULL FROM meta WHERE key = 'spec_hash'"
        ).fetchall()
        if (None, None) not in rows:
            return None
        owed: dict[int, set[int]] = {}
        for shard, time in rows:
            if shard is not None:
                owed.setdefault(int(shard), set()).add(int(time))
        return {shard: frozenset(rounds) for shard, rounds in owed.items()}

    def manifest(self) -> RunManifest | None:
        """The recorded run manifest, if any."""
        return RunManifest.from_meta(self._meta())

    # ------------------------------------------------------------------
    # Transactional commits
    # ------------------------------------------------------------------
    def commit_shard(self, shard: int, prepared: "PreparedShard") -> bool:
        """Durably commit one prepared shard's releases in a single transaction.

        Parameters
        ----------
        shard:
            The shard index in the run's :class:`~repro.engine.sharding.ShardPlan`,
            a Python or numpy int >= 0 (anything else raises
            :class:`~repro.errors.ValidationError` before anything is written).
        prepared:
            The shard's rows as a :class:`~repro.store.prepared.PreparedShard`,
            which has already refused non-integer, misaligned or negative
            cell columns and repeated keys.  Its ``cells`` are what the
            store keeps: the *snapped* server-side cells on the pipeline path,
            exactly what the in-memory ``released_db`` records.  It must carry
            ``exact`` and ``epsilons`` (:class:`StoreError` otherwise).  When
            it carries ``true_cells``, the commit additionally maintains the
            accelerator's true-side summary rows (aggregate occupancy and
            flows only — per-row ground truth is still never persisted).  A
            store must be written consistently: mixing commits with and
            without ``true_cells`` raises :class:`StoreError`.

        The release rows, in ``(user, time)`` key order, one ``(shard,
        round)`` mark per distinct timestep, and the per-user summaries are
        written in one transaction — either the whole shard becomes durable
        or none of it does.  The rows go in as multi-row ``INSERT``
        statements of 64 rows each (the last one holds the remainder), so
        the cost is one B-tree insert per row and one statement per 64 rows.
        The marks, increments and summaries are the prepared shard's own, so
        whatever else reads them in the same commit (the live views) reuses
        them rather than deriving them again.

        Round blocks (:mod:`repro.store.accelerator`) are written once per
        round: a round's ``cells`` and ``flows`` blocks, both kinds, are
        written by the commit after which the run's coverage frontier has
        passed the round (:meth:`Coverage.complete_through
        <repro.store.resume.Coverage.complete_through>`), in that commit's
        transaction — the moment the live views freeze the round and
        :class:`~repro.query.QueryEngine` first serves it.  Until then the
        commit's per-round increments are *parked* in memory as int32
        records in the blocks' own encoding.  The writing commit merges any
        stored block of the round, its parked increments and its own; on a
        store no run has begun on (:meth:`coverage` is ``None``) every
        round is writable at once, through the same merge.  Parked state
        and the frontier change only once the transaction is durable, so a
        failed commit leaves both as they were.  A round column holds at
        most :data:`~repro.store.accelerator.MAX_PARKED_PIECES` pieces;
        parking one more folds them into one sorted, summed piece, so parked
        memory does not grow with the number of commits.

        Re-committing a shard whose ``(shard, round)`` marks are all
        already durable writes nothing.  If this store holds the shard's
        increments parked, or its rounds' blocks are written, it is a no-op;
        otherwise — a store reopened mid-run — the increments of its
        unwritten rounds are re-parked from the given rows, which must
        match the marks' row counts; the true side is re-parked when the
        store maintains it.  A resumed run re-parks every shard it replays
        this way (:meth:`Server.replay_shard
        <repro.server.pipeline.Server.replay_shard>`).  Any other commit is
        refused with a :class:`StoreError` naming the shards and rounds
        while the store's unwritten rounds hold marks this store has not
        parked: it would write those rounds' blocks without them.

        A commit overlapping only *some* of a shard's marks is a
        :class:`StoreError`.  So is a commit that would store a ``(user,
        time)`` key an earlier commit already stored, refused before
        anything is written, and one whose accelerator values leave the
        int32 range of a round block, naming the kind and round; the commit
        that writes the block rolls back whole.

        Returns ``True`` when the shard was written, ``False`` for a
        re-commit, so a caller that must not apply a shard's effects twice
        (:meth:`Server.ingest_shard
        <repro.server.pipeline.Server.ingest_shard>`) can refuse it.
        """
        shard = check_integer("shard", shard, minimum=0)
        rows = prepared.keyed
        if rows.exact is None or rows.epsilons is None:
            raise StoreError(
                f"commit of shard {shard} carries no exact or epsilons column; "
                "the store keeps both for every release"
            )
        marked = dict(
            self.connection.execute(
                "SELECT round, n_rows FROM shard_commits WHERE shard = ?", (shard,)
            ).fetchall()
        )
        incoming_rounds = {time for time, _ in prepared.marks}
        if incoming_rounds & marked.keys():
            if incoming_rounds <= marked.keys():  # the whole shard is already durable
                return self._repark(shard, prepared, marked)
            raise StoreError(
                f"shard {shard} commit overlaps rounds "
                f"{sorted(incoming_rounds & marked.keys())} already marked "
                "durable; a shard's rounds must commit together exactly once"
            )
        with_true = rows.true_cells is not None
        maintains_true = self._refuse_mixed_true_side(with_true)
        self._sync()
        self._refuse_unparked(shard)
        prior_users = self._prior_users(prepared)
        if prior_users and with_true:
            raise StoreError(
                f"commit of shard {shard} extends users {sorted(prior_users)[:5]}"
                "... whose rows are already stored: true-side summaries "
                "cannot be stitched across commits (ground-truth cells are "
                "never persisted per row) — commit whole traces per shard"
            )
        self._refuse_stored_keys(shard, rows, prior_users)
        pairs = [(shard, time) for time, _ in prepared.marks]
        frontier = self._frontier
        owed = None if frontier is None else frontier.first_owed_after(pairs)
        try:
            cell_counts, flows = _increments(prepared, with_true)
            flows += accelerator.boundary_flow_rows(
                self.connection, rows.users, rows.times, rows.cells, prior_users
            )
            cell_counts, flows, parked = self._parked.plan(
                cell_counts, flows, lambda time: owed is None or time < owed
            )
            with self.connection:
                _insert_releases(self.connection, rows)
                self.connection.executemany(
                    "INSERT OR REPLACE INTO shard_commits (shard, round, n_rows) "
                    "VALUES (?, ?, ?)",
                    [(shard, time, n) for time, n in prepared.marks],
                )
                accelerator.apply_deltas(
                    self.connection, cell_counts, flows, prepared.user_summaries
                )
                if maintains_true is None:
                    self.connection.execute(
                        "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                        ("accelerator_true", "1" if with_true else "0"),
                    )
        except (sqlite3.Error, OverflowError) as exc:
            raise StoreError(
                f"commit of shard {shard} ({len(prepared)} rows) failed: {exc}"
            ) from exc
        self._parked = parked
        self._known.update(pairs)
        if frontier is not None:
            frontier.commit(pairs)
        return True

    def _prior_users(self, prepared: "PreparedShard") -> set[int]:
        """The shard's users who already have stored rows (a piecewise commit)."""
        users = prepared.keyed.users
        if not len(users):
            return set()
        stored = {
            int(user)
            for (user,) in self.connection.execute(
                "SELECT user FROM user_summary WHERE user BETWEEN ? AND ?",
                (int(users[0]), int(users[-1])),
            ).fetchall()
        }
        if not stored:
            return stored
        return stored & {user for user, *_ in prepared.user_summaries}

    def _sync(self) -> None:
        """Load the run's frontier, unless only this store committed since.

        SQLite's ``data_version`` changes only for commits made through
        other connections, so between this store's own commits the
        frontier it advances in memory stays exact.  A mark stored at a
        round whose blocks are not written yet, which this store neither
        committed nor re-parked, is *unparked*: its increments are missing
        here, so the blocks cannot be written until it is re-parked.
        """
        (version,) = self.connection.execute("PRAGMA data_version").fetchone()
        if version == self._data_version:
            return
        schedule = self.coverage()
        frontier = None if schedule is None else Coverage(schedule)
        unparked: set[tuple[int, int]] = set()
        if frontier is not None:
            marks = self.committed()
            frontier.commit(marks)
            written = frontier.complete_through
            # Rounds another writer has written already hold their increments.
            _, _, self._parked = self._parked.plan((), (), written)
            unparked = {(shard, time) for shard, time in marks if not written(time)}
            unparked -= self._known
        self._frontier, self._unparked, self._data_version = frontier, unparked, version

    def _repark(self, shard: int, prepared: "PreparedShard", marked: "dict[int, int]") -> bool:
        """Park a durable shard's increments this store lacks; return ``False``."""
        self._sync()
        pairs = {(shard, time) for time, _ in prepared.marks}
        if not pairs & self._unparked:
            return False
        differing = [time for time, n in prepared.marks if marked[time] != n]
        if differing:
            raise StoreError(
                f"re-commit of shard {shard} holds other row counts than its "
                f"durable marks at rounds {_preview(differing)}; only the "
                "stored rows can be re-parked"
            )
        with_true = bool(self.maintains_true_summaries())
        if with_true:
            self._refuse_mixed_true_side(prepared.keyed.true_cells is not None)
        try:
            # Increments of written rounds are in their blocks already.
            _, _, parked = self._parked.plan(
                *_increments(prepared, with_true), self._frontier.complete_through
            )
        except OverflowError as exc:
            raise StoreError(f"re-commit of shard {shard} failed: {exc}") from exc
        self._parked = parked
        self._known |= pairs
        self._unparked -= pairs
        return False

    def _refuse_mixed_true_side(self, with_true: bool) -> "bool | None":
        """Raise unless ``with_true`` matches the store's commits; return the flag."""
        maintains_true = self.maintains_true_summaries()
        if maintains_true is not None and maintains_true != with_true:
            held = "maintains" if maintains_true else "does not maintain"
            raise StoreError(
                f"trace store {self.path!r} {held} true-side accelerator "
                "summaries; every commit must pass true_cells consistently"
            )
        return maintains_true

    def _refuse_unparked(self, shard: int) -> None:
        """Raise :class:`StoreError` while unwritten rounds hold unparked marks."""
        if not self._unparked:
            return
        shards = sorted({owner for owner, _ in self._unparked})
        rounds = sorted({time for _, time in self._unparked})
        raise StoreError(
            f"trace store {self.path!r} holds commits of shard(s) {shards} at "
            f"rounds {_preview(rounds)} whose round blocks are not written yet, "
            "and this store has not parked their increments; re-commit those "
            "shards first (a resumed run replays them) — committing shard "
            f"{shard} now could write those blocks without them"
        )

    def _refuse_stored_keys(
        self, shard: int, rows: "ShardColumns", prior_users: "set[int]"
    ) -> None:
        """Raise :class:`StoreError` naming a ``(user, time)`` an earlier commit stored.

        Only ``prior_users``, who already have stored rows, can hold one;
        overwriting it would leave a row the summaries count twice.
        """
        users, times = rows.users, rows.times
        for user in sorted(prior_users):
            incoming = times[
                np.searchsorted(users, user, side="left"):np.searchsorted(users, user, side="right")
            ]
            stored = self.connection.execute(
                "SELECT time FROM releases WHERE user = ? AND time BETWEEN ? AND ?",
                (user, int(incoming[0]), int(incoming[-1])),
            ).fetchall()
            clash = np.intersect1d(incoming, [time for (time,) in stored])
            if clash.size:
                raise StoreError(
                    f"commit of shard {shard} repeats (user, time) "
                    f"({user}, {int(clash[0])}), which an earlier commit "
                    "already stored; every key is stored once"
                )

    def maintains_true_summaries(self) -> "bool | None":
        """Whether commits maintain true-side summaries (None before any)."""
        recorded = self._meta().get("accelerator_true")
        return None if recorded is None else recorded == "1"

    def parked_pieces(self) -> dict[tuple[str, int, int], int]:
        """Round-block increments this store holds back, per block column.

        ``(column, kind, round) -> pieces``, ``column`` being ``"cells"``
        or ``"flows"``: the increments :meth:`commit_shard` parked for
        rounds the coverage frontier has not passed.  Empty once the run
        is complete, and always on a store no run has begun on.
        """
        return self._parked.counts()

    def committed(self) -> frozenset[tuple[int, int]]:
        """Every durably committed ``(shard, round)`` pair."""
        rows = self.connection.execute("SELECT shard, round FROM shard_commits").fetchall()
        return frozenset((int(shard), int(time)) for shard, time in rows)

    # ------------------------------------------------------------------
    # Reads (streaming where it matters)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        (count,) = self.connection.execute("SELECT COUNT(*) FROM releases").fetchone()
        return int(count)

    def users(self) -> frozenset[int]:
        """Every user with stored rows, served from ``user_summary``.

        One row per user is maintained at commit time, so this is O(users)
        against a table of per-user bounds instead of the O(rows)
        ``SELECT DISTINCT`` scan over ``releases`` it used to be.
        """
        rows = self.connection.execute("SELECT user FROM user_summary").fetchall()
        return frozenset(int(user) for (user,) in rows)

    def times(self) -> list[int]:
        """Every stored timestep, served from the commit marks.

        ``shard_commits`` holds one mark per ``(shard, round)``, written in
        the same transaction as the rows, so the distinct rounds there are
        exactly the distinct times in ``releases`` — at O(marks) cost
        instead of a full-table ``SELECT DISTINCT`` scan.
        """
        rows = self.connection.execute(
            "SELECT DISTINCT round FROM shard_commits ORDER BY round"
        ).fetchall()
        return [int(time) for (time,) in rows]

    def location(self, user: int, time: int) -> int | None:
        """The stored cell of ``user`` at ``time`` (one key lookup), or ``None``.

        ``user`` and ``time`` must be Python or numpy ints; anything else
        raises :class:`~repro.errors.ValidationError` naming the argument.
        """
        row = self.connection.execute(
            "SELECT cell FROM releases WHERE user = ? AND time = ?",
            (check_integer("user", user), check_integer("time", time)),
        ).fetchone()
        return None if row is None else int(row[0])

    def at_time(self, time: int) -> dict[int, int]:
        """``{user: cell}`` snapshot of round ``time``, users ascending.

        ``releases`` has no ``(time, user)`` index (schema v5), so the
        snapshot scans ``user_summary`` in user order and probes the
        ``(user, time)`` key once for each user whose ``[min_time,
        max_time]`` span covers ``time``.  That is O(users) per call, not
        O(rows at ``time``): on a 2-vCPU Xeon, 3–4 ms on a 2,000-user
        store holding every user at every round, and 8–11 ms, about a
        full scan of ``releases``, on a 20,000-user store whose users
        each hold 8 of 168 rounds (docs/persistence.md has the table).
        A non-int ``time`` raises :class:`~repro.errors.ValidationError`.
        """
        # CROSS JOIN fixes user_summary as the outer loop; left to itself,
        # the planner scans releases instead.
        rows = self.connection.execute(
            "SELECT r.user, r.cell FROM user_summary AS s "
            "CROSS JOIN releases AS r ON r.user = s.user AND r.time = ?1 "
            "WHERE s.min_time <= ?1 AND s.max_time >= ?1 ORDER BY s.user",
            (check_integer("time", time),),
        ).fetchall()
        return {int(user): int(cell) for user, cell in rows}

    def user_history(self, user: int) -> "list[CheckIn]":
        """Time-ordered check-ins of one user (a single clustered range read).

        A non-int ``user`` raises :class:`~repro.errors.ValidationError`.
        """
        from repro.mobility.trajectory import CheckIn

        user = check_integer("user", user)
        rows = self.connection.execute(
            "SELECT time, cell FROM releases WHERE user = ? ORDER BY time", (user,)
        ).fetchall()
        return [CheckIn(time=int(t), user=user, cell=int(c)) for t, c in rows]

    def checkins(self) -> "Iterator[CheckIn]":
        """Stream every check-in in ``(user, time)`` order, out of core.

        Matches :meth:`TraceDB.checkins
        <repro.mobility.trajectory.TraceDB.checkins>` exactly (same order,
        same records), but holds only one fetch batch in memory at a time.
        """
        from repro.mobility.trajectory import CheckIn

        cursor = self.connection.execute(
            "SELECT user, time, cell FROM releases ORDER BY user, time"
        )
        while True:
            rows = cursor.fetchmany(_FETCH_BATCH)
            if not rows:
                return
            for user, time, cell in rows:
                yield CheckIn(time=int(time), user=int(user), cell=int(cell))

    def shard_release_rows(
        self, low_user: int, high_user: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Replay arrays for one shard's contiguous user range.

        Shard members are a contiguous block of the plan's sorted user list,
        so ``user BETWEEN low AND high`` retrieves exactly that shard's rows.
        Returned as ``(users, times, cells, points, exact, epsilons)``
        ordered by ``(time, user)`` — the commit order of
        :meth:`Server.ingest_shard
        <repro.server.pipeline.Server.ingest_shard>`, which is what makes a
        replayed shard's server state identical to a freshly committed one.
        The points are what a live-metric replay re-folds bit-identically
        (SQLite REALs round-trip float64 exactly; only the ground-truth
        cells are absent, because the store deliberately never persists
        them).  The bounds must be Python or numpy ints
        (:class:`~repro.errors.ValidationError` otherwise).
        """
        rows = self.connection.execute(
            "SELECT user, time, cell, x, y, exact, epsilon FROM releases "
            "WHERE user BETWEEN ? AND ? ORDER BY time, user",
            (check_integer("low_user", low_user), check_integer("high_user", high_user)),
        ).fetchall()
        if not rows:
            empty = np.empty(0, dtype=np.int64)
            return (
                empty,
                empty.copy(),
                empty.copy(),
                np.empty((0, 2), dtype=float),
                np.empty(0, dtype=bool),
                np.empty(0, dtype=float),
            )
        users, times, cells, xs, ys, exact, epsilons = zip(*rows)
        return (
            np.asarray(users, dtype=np.int64),
            np.asarray(times, dtype=np.int64),
            np.asarray(cells, dtype=np.int64),
            np.column_stack((np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))),
            np.asarray(exact, dtype=bool),
            np.asarray(epsilons, dtype=float),
        )

    def load_tracedb(self) -> "TraceDB":
        """Materialise the whole store as an in-memory ``TraceDB``.

        Convenience for post-hoc analysis of small runs; population-scale
        stores should use :class:`~repro.store.outofcore.StoredTraceDB`
        instead of pulling everything into RAM.
        """
        from repro.mobility.trajectory import TraceDB

        db = TraceDB()
        cursor = self.connection.execute("SELECT user, time, cell FROM releases")
        while True:
            rows = cursor.fetchmany(_FETCH_BATCH)
            if not rows:
                return db
            users, times, cells = zip(*rows)
            db.record_many(users, times, cells)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"TraceStore(path={self.path!r}, releases={len(self)}, commits={len(self.committed())})"


def open_store(store: "TraceStore | str | os.PathLike[str] | None") -> tuple["TraceStore | None", bool]:
    """Coerce a store argument: live instances pass through, paths open.

    Returns ``(store, owned)`` where ``owned`` is True when this call opened
    the connection (and the caller is therefore responsible for closing it).
    """
    if store is None:
        return None, False
    if isinstance(store, TraceStore):
        return store, False
    return TraceStore(store), True
