"""Client / untrusted-server release pipeline (Fig. 1).

``Client`` owns a true-location stream, a local rolling database, a consented
policy and a mechanism; ``Server`` accumulates snapped releases and pushes
policy updates.  :func:`run_release_rounds` drives a whole population through
a time window — the loop every experiment's "server view" comes from.

For throughput work there is a second, population-level path:
:func:`run_release_rounds_batched` splits the population by a deterministic
:class:`~repro.engine.sharding.ShardPlan` (one shard unless ``shards=``,
``backend=`` or the engine spec's
:class:`~repro.engine.specs.ExecutionSpec` say otherwise) and releases each
shard's users in one :meth:`~repro.engine.PrivacyEngine.release_batch` call.
It models the server-side aggregate view (no per-user ``Client`` objects),
which is what the monitoring / analysis apps consume at scale.  Per-user
RNG streams make the output invariant under shard count and execution
backend — a k-shard ``pool`` run reproduces the 1-shard run, which itself
reproduces the per-client reference :func:`run_release_rounds`.  Runs
ingest *streamingly*: each shard's releases are committed via
:meth:`Server.ingest_shard` as the shard completes, rather than waiting on
a full population merge.  The ``pool`` backend submits every shard up
front, so its workers keep releasing while a finished shard commits;
``serial`` runs the next shard once the last one has committed.
"""

from __future__ import annotations

import threading
from functools import partial
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.accounting import BudgetLedger
from repro.core.mechanisms.base import Mechanism, Release, ReleaseBatch
from repro.core.policy_graph import PolicyGraph
from repro.errors import DataError, PolicyError, ValidationError
from repro.geo.grid import GridWorld
from repro.mobility.trajectory import TraceDB
from repro.server.localdb import LocalLocationDB
from repro.store.prepared import PreparedShard
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.validation import check_int_array, check_integer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports core)
    from repro.engine import PrivacyEngine

__all__ = [
    "Client",
    "Server",
    "run_release_rounds",
    "run_release_rounds_batched",
]

MechanismFactory = Callable[[GridWorld, PolicyGraph, float], Mechanism]


class Client:
    """A user's device: local DB, consented policy, PGLP mechanism.

    Parameters
    ----------
    user:
        User id.
    world:
        Shared location universe.
    mechanism_factory:
        Builds the PGLP mechanism for whatever policy is currently consented.
    epsilon:
        Per-release budget.
    policy:
        Initially consented policy graph.
    window:
        Local retention window (the paper's two weeks).
    """

    def __init__(
        self,
        user: int,
        world: GridWorld,
        mechanism_factory: MechanismFactory,
        epsilon: float,
        policy: PolicyGraph,
        window: int = 14 * 24,
        rng=None,
    ) -> None:
        self.user = int(user)
        self.world = world
        self.mechanism_factory = mechanism_factory
        self.epsilon = float(epsilon)
        self.local_db = LocalLocationDB(window=window)
        self.rng = ensure_rng(rng)
        self._policy: PolicyGraph | None = None
        self._mechanism: Mechanism | None = None
        self.accept_policy(policy)

    # ------------------------------------------------------------------
    @property
    def policy(self) -> PolicyGraph:
        if self._policy is None:
            raise PolicyError(f"client {self.user} has no consented policy")
        return self._policy

    @property
    def mechanism(self) -> Mechanism:
        if self._mechanism is None:
            raise PolicyError(f"client {self.user} has no consented policy")
        return self._mechanism

    def accept_policy(self, policy: PolicyGraph) -> None:
        """Consent to ``policy`` and rebuild the mechanism."""
        self._policy = policy
        self._mechanism = self.mechanism_factory(self.world, policy, self.epsilon)

    def reject_policy(self) -> None:
        """Withdraw consent: no further locations are released."""
        self._policy = None
        self._mechanism = None

    # ------------------------------------------------------------------
    def observe(self, time: int, cell: int) -> None:
        """Record the true location locally (never leaves the device raw)."""
        self.local_db.record(time, self.world.check_cell(cell))

    def release(self, time: int) -> Release:
        """Perturb and share the location observed at ``time``."""
        cell = self.local_db.location_at(time)
        if cell is None:
            raise DataError(f"client {self.user} has no observation at time {time}")
        return self.mechanism.release(cell, rng=self.rng)

    def resend_history(self, policy: PolicyGraph, start: int, end: int) -> list[tuple[int, Release]]:
        """Re-release the stored window under an updated (tracing) policy."""
        self.accept_policy(policy)
        return [
            (time, self.mechanism.release(cell, rng=self.rng))
            for time, cell in self.local_db.history(start=start, end=end)
        ]


class Server:
    """The semi-honest collector: snapped releases plus a budget ledger.

    Parameters
    ----------
    world:
        The snapping grid shared with the clients.
    ledger:
        Budget ledger (a fresh uncapped one by default).
    store:
        Optional :class:`~repro.store.TraceStore`.  When set, every
        :meth:`ingest_shard` call durably commits the shard — release rows
        plus its ``(shard, round)`` recovery marks — in one SQLite
        transaction *before* touching in-memory state, so a crash at any
        point leaves only whole shards behind (the resume contract of
        ``docs/persistence.md``).
    out_of_core:
        Requires ``store``.  The released trace then lives *only* on disk:
        ``released_db`` becomes a read-only
        :class:`~repro.store.StoredTraceDB` view and shard ingestion skips
        the in-memory mirror, bounding server RSS by the largest single
        shard instead of the population.
    """

    def __init__(
        self,
        world: GridWorld,
        ledger: BudgetLedger | None = None,
        store=None,
        out_of_core: bool = False,
    ) -> None:
        self.world = world
        self.store = store
        self.out_of_core = bool(out_of_core)
        if self.out_of_core:
            if store is None:
                raise ValidationError("out_of_core=True requires a TraceStore")
            from repro.store.outofcore import StoredTraceDB

            self.released_db = StoredTraceDB(store)
        else:
            self.released_db = TraceDB()
        self.ledger = ledger if ledger is not None else BudgetLedger()
        # Serializes the commit/mutate section of ingest_shard, which
        # callers on different threads may enter concurrently: the store's
        # single SQLite connection must not interleave transactions, and
        # TraceDB/BudgetLedger bookkeeping is not atomic under free
        # threading.  Snapping and the shard's prepare stay outside the lock.
        self._ingest_lock = threading.Lock()
        self._metrics = None

    # ------------------------------------------------------------------
    # Live metric views (HTAP incremental analytics)
    # ------------------------------------------------------------------
    @property
    def metrics(self):
        """The attached :class:`~repro.server.live_metrics.LiveMetricRegistry`, if any."""
        return self._metrics

    def attach_metrics(self, views, expected):
        """Maintain ``views`` live from this server's shard commit path.

        Every subsequent :meth:`ingest_shard` folds its shard into a
        :class:`~repro.server.live_metrics.LiveMetricRegistry` built over
        ``expected`` (``shard -> rounds``, see
        :func:`~repro.server.live_metrics.expected_coverage`).  Read the
        live values with :meth:`metrics_at`.

        Attaching makes the ``shard=`` argument to :meth:`ingest_shard`
        mandatory: it keys the registry's deltas, exactly like the store's
        commit marks.

        Returns the registry.  Attaching twice is a
        :class:`~repro.errors.ValidationError`: the first registry's folded
        state would be silently lost.
        """
        from repro.server.live_metrics import LiveMetricRegistry

        if self._metrics is not None:
            raise ValidationError("live metric views are already attached to this server")
        self._metrics = LiveMetricRegistry(views, expected)
        return self._metrics

    def metrics_at(self, round: int):
        """Snapshot-consistent live metric values covering rows ≤ ``round``.

        Delegates to :meth:`LiveMetricRegistry.at
        <repro.server.live_metrics.LiveMetricRegistry.at>`: a lock-free
        O(1) lookup of the frozen per-round value map, safe to call while
        commits are in flight.  Raises
        :class:`~repro.errors.SnapshotUnavailableError` for a round whose
        coverage has not fully committed yet.
        """
        if self._metrics is None:
            raise ValidationError(
                "no live metric views attached; call attach_metrics() first"
            )
        return self._metrics.at(round)

    def ingest(self, user: int, time: int, release: Release, purpose: str = "stream") -> int:
        """Store one release; returns the snapped cell recorded server-side."""
        cell = self.world.snap(release.point)
        self.released_db.record(user, time, cell)
        self.ledger.charge(user, time, release.epsilon, purpose=purpose)
        return cell

    def ingest_shard(
        self,
        users,
        times,
        batch: ReleaseBatch,
        purpose: str = "stream",
        shard: int | None = None,
    ):
        """Stream one population shard's releases into the server.

        Takes one *shard* (many users, their whole traces) the moment the
        shard's worker finishes — which is how the pipeline ingests results
        as they complete instead of holding every shard for a full
        merge-and-lexsort barrier.

        Parameters
        ----------
        users / times:
            One user id and timestep per batch row (row ``i`` of ``batch``
            is user ``users[i]``'s release at ``times[i]``), in whatever
            order the shard produced them, as integer arrays or sequences:
            a float or bool column raises
            :class:`~repro.errors.ValidationError` naming it before
            anything is written, instead of being truncated.
        batch:
            The shard's releases (``len(batch)`` must match, else
            :class:`~repro.errors.DataError`); ``batch.cells`` holds the
            ground-truth cells, integers like ``users``.
        purpose:
            Ledger purpose tag (defaults to the streaming feed).
        shard:
            The shard's index in the run's plan, a Python or numpy int
            >= 0 (anything else raises
            :class:`~repro.errors.ValidationError`).  Required when the
            server is store-backed (it keys the durable ``(shard, round)``
            commit marks) or has live metric views attached (it keys their
            deltas).

        Returns
        -------
        numpy.ndarray
            The snapped cell per input row (input order, not commit order).

        Durability
        ----------
        On a store-backed server the whole shard — snapped release rows
        plus one commit mark per round it contains — is written in a single
        SQLite transaction *before* any in-memory mutation.  A crash
        therefore never leaves the store ahead of or torn relative to what
        a resume can rebuild: either the shard is fully durable (and will
        be replayed / skipped) or absent (and will be re-derived).  A shard
        the attached live views would refuse (see
        :meth:`LiveMetricRegistry.check
        <repro.server.live_metrics.LiveMetricRegistry.check>`), or one
        already durable in the store, raises
        :class:`~repro.errors.DataError` before anything is written, and a
        ground-truth cell outside the world or a NaN or infinite release
        point raises :class:`~repro.errors.ValidationError` just as early.

        Commit order and determinism
        ----------------------------
        The rows are checked and ordered once, before the ingest lock, as a
        :class:`~repro.store.prepared.PreparedShard`: a float or bool
        column is a :class:`~repro.errors.ValidationError`, and a
        ``(user, time)`` key held twice a :class:`~repro.errors.DataError`.
        The same object then feeds the store (which inserts the rows in
        ``(user, time)`` key order), the trace and the ledger (which take
        them in ``(time, user)`` order within the shard) and the live
        views, so nothing is derived twice.  Across shards the arrival
        order follows backend scheduling, but every user lives in exactly
        one shard, so all per-user state — the released trace rows, and
        each user's ledger total (charges arrive in that user's time
        order) — is identical to what the per-client reference
        :func:`run_release_rounds` produces.  Only the
        interleaving of *different* users' ledger entries can vary with
        scheduling.
        """
        if shard is not None:
            shard = check_integer("shard", shard, minimum=0)
        # batch.cells carry the ground-truth cells (the shard streaming
        # contract); `cells` below is the server-side snapped view.
        true_cells = None
        if batch.cells is not None:
            true_cells = check_int_array("batch.cells", batch.cells)
            self.world.cells_array(true_cells, context="batch.cells")
        if len(users) != len(batch) or len(times) != len(batch):
            raise DataError(
                f"shard of {len(batch)} releases does not match "
                f"{len(users)} users / {len(times)} times"
            )
        cells = self.world.snap_batch(batch.points)
        if self.store is not None and shard is None:
            raise DataError(
                "store-backed ingest_shard requires the shard index "
                "(pass shard=) to key its durable commit marks"
            )
        if self._metrics is not None:
            if shard is None:
                raise DataError(
                    "live metric views require the shard index (pass shard=) "
                    "to key their delta partials"
                )
            if batch.cells is None:
                raise DataError(
                    "live metric views require batch.cells to carry the "
                    "ground-truth cells (the shard streaming contract)"
                )
        prepared = PreparedShard.build(
            users,
            times,
            cells,
            batch.points,
            batch.exact,
            batch.epsilons,
            true_cells=true_cells,
        )
        with self._ingest_lock:
            if self._metrics is not None:
                # Refuse a shard the live views would refuse before any of
                # it becomes durable or touches the trace and ledger.
                self._metrics.check(shard, prepared)
            if self.store is not None:
                # The store keeps only the ground truth's aggregate
                # accelerator summaries, never the per-row values.
                if not self.store.commit_shard(shard, prepared):
                    raise DataError(
                        f"shard {shard} is already durable in the store; "
                        "ingesting it again would double its trace rows and "
                        "ledger charges (replay it with replay_shard instead)"
                    )
            self._apply(prepared, purpose)
            if self._metrics is not None:
                # Fold inside the commit section: the registry sees exactly
                # the committed rows, once, whichever thread committed them.
                self._metrics.ingest(shard, prepared)
        return cells

    def _apply(self, prepared: PreparedShard, purpose: str) -> None:
        """Record a committed shard in the trace and charge it, in ``(time, user)`` order."""
        rows = prepared.canonical
        if not self.out_of_core:
            self.released_db.record_many(rows.users, rows.times, rows.cells)
        self.ledger.charge_many(rows.users, rows.times, rows.epsilons, purpose=purpose)

    def replay_shard(
        self,
        low_user: int,
        high_user: int,
        purpose: str = "stream",
        shard: int | None = None,
        true_cells: "Callable | None" = None,
    ):
        """Rebuild in-memory state for one durably committed shard.

        The resume counterpart of :meth:`ingest_shard`: reads the shard's
        rows back from the store (shards own contiguous user ranges, so
        ``[low_user, high_user]`` identifies one) in the same ``(time,
        user)`` order the original commit used, and re-applies the
        in-memory effects — trace rows (unless ``out_of_core``, where the
        view already serves them) and ledger charges.  Per-user server
        state after a replay is element-wise identical to a fresh commit.

        When live metric views are attached, the replay also rebuilds the
        registry's folded state from the released points the store returns
        with the rows (SQLite REALs round-trip float64 exactly), and ``shard`` /
        ``true_cells`` become mandatory — ``true_cells(users, times)`` must
        resolve the ground-truth cells, which the store deliberately never
        persists.  Because delta folds canonicalise row order, a replayed
        fold is bit-identical to the original commit's, which is how a
        killed-and-resumed run converges to the uninterrupted run's live
        values.

        With ``shard=``, the replay also hands the rows back to the store
        (:meth:`TraceStore.commit_shard
        <repro.store.store.TraceStore.commit_shard>` writes nothing for a
        durable shard), which re-parks the shard's round-block increments
        at rounds whose blocks are not written yet: a store reopened
        mid-run refuses new commits until every such shard is re-parked.
        A store that keeps true-side summaries then needs ``true_cells``
        too.

        Returns the number of rows replayed.
        """
        if self.store is None:
            raise DataError("replay_shard requires a store-backed server")
        if shard is not None:
            shard = check_integer("shard", shard, minimum=0)
        if self._metrics is not None:
            if shard is None or true_cells is None:
                raise DataError(
                    "replaying into live metric views requires shard= and "
                    "true_cells= (a resolver mapping row (users, times) to "
                    "ground-truth cells)"
                )
        users, times, cells, points, exact, epsilons = self.store.shard_release_rows(
            low_user, high_user
        )
        truth = None
        if true_cells is not None:
            truth = self.world.cells_array(true_cells(users, times), context="true_cells")
        # The stored rows come back time-major: the build sorts them into
        # key order, which the canonical order is then derived from.
        prepared = PreparedShard.build(
            users, times, cells, points, exact, epsilons, true_cells=truth
        )
        if self._metrics is not None:
            self._metrics.check(shard, prepared)
        if shard is not None and len(prepared):
            self.store.commit_shard(shard, prepared)
        self._apply(prepared, purpose)
        if self._metrics is not None:
            self._metrics.ingest(shard, prepared)
        return len(prepared)

    def push_policy(self, client: Client, policy: PolicyGraph) -> None:
        """Offer a policy update; the demo's clients always consent."""
        client.accept_policy(policy)


def run_release_rounds(
    world: GridWorld,
    true_db: TraceDB,
    policy: PolicyGraph,
    mechanism_factory: MechanismFactory,
    epsilon: float,
    rng=None,
    window: int = 14 * 24,
) -> tuple[Server, dict[int, Client]]:
    """Simulate the full population releasing its trace to a fresh server.

    Every user in ``true_db`` becomes a :class:`Client` under ``policy``;
    each of their check-ins is observed locally, released, and ingested.

    Parameters
    ----------
    world / true_db / policy:
        The universe, the ground-truth traces, and the consented policy.
    mechanism_factory:
        ``factory(world, policy, epsilon) -> Mechanism`` used per client.
    epsilon:
        Per-release budget.
    rng:
        Seed source; each client gets an independent child stream via
        :func:`~repro.utils.rng.spawn_rngs` over the *sorted* user list, so
        results do not depend on iteration order — and the sharded batched
        path (:func:`run_release_rounds_batched` with ``shards=``) spawns
        the very same streams, making this loop its element-wise reference.
    window:
        Clients' local retention window (the paper's two weeks).

    Returns
    -------
    (Server, dict[int, Client])
        The server (with its released TraceDB and ledger) and the clients,
        keyed by user id.
    """
    users = sorted(true_db.users())
    if not users:
        raise DataError("true trace database has no users")
    rngs = spawn_rngs(rng, len(users))
    clients = {
        user: Client(
            user,
            world,
            mechanism_factory,
            epsilon,
            policy,
            window=window,
            rng=user_rng,
        )
        for user, user_rng in zip(users, rngs)
    }
    server = Server(world)
    for checkin in true_db.checkins():
        client = clients[checkin.user]
        client.observe(checkin.time, checkin.cell)
        release = client.release(checkin.time)
        server.ingest(checkin.user, checkin.time, release)
    return server, clients


def _true_cells(true_db: TraceDB, users, times) -> np.ndarray:
    """The ground-truth cell of each ``(users[i], times[i])`` row, from ``true_db``.

    A resume's replay resolves a stored shard's rows through this: the
    store never persists ground-truth cells.  The keys are looked up in
    ``true_db.to_arrays()``, whose rows are sorted by ``(user, time)``,
    with one ``searchsorted`` over ``(user, time)`` records (numpy orders
    them field by field).  A row with no check-in in ``true_db`` raises
    :class:`~repro.errors.DataError` naming the first such row.
    """
    stored_users, stored_times, stored_cells = true_db.to_arrays()
    users = np.asarray(users, dtype=np.int64)
    times = np.asarray(times, dtype=np.int64)
    key = np.dtype([("user", np.int64), ("time", np.int64)])
    stored = np.empty(len(stored_users), dtype=key)
    stored["user"], stored["time"] = stored_users, stored_times
    wanted = np.empty(len(users), dtype=key)
    wanted["user"], wanted["time"] = users, times
    at = np.searchsorted(stored, wanted)
    found = at < len(stored)
    found[found] = stored[at[found]] == wanted[found]
    if not found.all():
        row = int(np.argmin(found))
        raise DataError(
            f"stored release row ({int(users[row])}, {int(times[row])}) has no "
            "ground-truth check-in; the store does not belong to this trace database"
        )
    return stored_cells[at]


def run_release_rounds_batched(
    world: GridWorld,
    true_db: TraceDB,
    engine: "PrivacyEngine",
    rng=None,
    shards: int | None = None,
    backend=None,
    store=None,
    resume: bool | None = None,
    out_of_core: bool = False,
    live_metrics=None,
) -> Server:
    """Release the whole population through the engine, one shard at a time.

    The population-scale counterpart of :func:`run_release_rounds`: instead
    of simulating a ``Client`` per user, a
    :class:`~repro.engine.sharding.ShardPlan` splits the sorted users into
    shards, each shard's users go through one
    :meth:`~repro.engine.PrivacyEngine.release_batch` call, and the server
    commits each shard via :meth:`Server.ingest_shard` as it completes.
    This is the hot path a collector serving millions of users runs; the
    per-client loop remains the reference for protocol-level behaviour
    (local DBs, consent, re-sends).

    Parameters
    ----------
    world:
        Shared location universe (also the server's snapping grid).
    true_db:
        Ground-truth traces to release (must have at least one user).
    engine:
        The :class:`~repro.engine.PrivacyEngine` every release goes through.
    rng:
        Parent seed source (``None`` / int / generator, per
        :func:`~repro.utils.rng.ensure_rng`).  Every user releases from their
        own stream, spawned :func:`~repro.utils.rng.spawn_rngs`-style from
        ``rng`` over the sorted user list.
    shards:
        Number of population shards, a Python or numpy int >= 1 (a bool or
        a float raises :class:`~repro.errors.ValidationError`).  The result
        is identical for every shard count and backend.
    backend:
        Execution backend for the shards — a registry name (``"serial"``,
        ``"pool"``) or a live
        :class:`~repro.engine.backends.ExecutionBackend` instance.
    store:
        Optional durable store — a live :class:`~repro.store.TraceStore`,
        a path, or ``None``.  When set, the run's manifest and coverage
        schedule (:func:`~repro.server.live_metrics.expected_coverage`) are
        recorded first (:meth:`TraceStore.begin_run
        <repro.store.store.TraceStore.begin_run>`), every shard commits
        transactionally with its ``(shard, round)`` recovery marks, and the
        run can be resumed after a crash (see ``resume``).
    resume:
        Continue an interrupted run recorded in ``store``.  The store's
        manifest (engine spec hash, shard-plan fingerprint, world shape)
        and coverage schedule must match this run —
        :class:`~repro.errors.ResumeMismatchError` otherwise — after which
        every shard that owes the schedule nothing is *replayed* from disk
        (not re-derived) and only the missing shards execute.  Because
        every shard is a pure function of its users' seed streams, the
        resumed result is bit-identical to the uninterrupted run.  Requires
        ``store`` (:class:`~repro.errors.ValidationError` otherwise).
    out_of_core:
        With ``store``: keep the released trace on disk only.  The returned
        server's ``released_db`` is a read-only
        :class:`~repro.store.StoredTraceDB` view and ingestion skips the
        in-memory mirror, bounding memory by the largest single shard.
    live_metrics:
        Maintain analytical aggregates *while commits continue* (the HTAP
        incremental path, see :mod:`repro.server.live_metrics`).  ``True``
        attaches the default E1 + E2 + E11 view set
        (:func:`~repro.server.live_metrics.default_views`); a sequence of
        :class:`~repro.server.live_metrics.LiveMetricView` instances
        attaches those.  Read with ``server.metrics_at(round=r)`` — every
        frozen value is bit-identical to the batch recomputation.  On a
        resumed run the replayed shards are folded back in, so the rebuilt
        live state equals a never-killed run's.

    ``shards``, ``backend``, ``store``, ``resume`` and ``live_metrics`` are
    resolved once: a value given here wins (``None`` means "not given", so
    an explicit ``False`` wins too), else the engine spec's
    :class:`~repro.engine.specs.ExecutionSpec` block, else the defaults —
    one serial shard, in memory, no resume, no live views.

    Returns
    -------
    Server
        Fresh server holding the released (snapped) TraceDB and the budget
        ledger for the whole run.

    Determinism notes
    -----------------
    A run without ``shards`` is a one-shard run: its output equals the
    ``shards=1`` run's, every k-shard run's on any backend, and the seeded
    :func:`run_release_rounds` client reference's, row for row.
    """
    from contextlib import ExitStack

    from repro.engine.sharding import ShardPlan, stream_shard_releases
    from repro.engine.specs import ExecutionSpec

    if not true_db.users():
        raise DataError("true trace database has no users")
    execution = engine.spec.execution if engine.spec is not None else None
    if execution is None:
        execution = ExecutionSpec()
    if shards is None:
        shards = execution.shards
    if store is None:
        store = execution.store
    if resume is None:
        resume = execution.resume
    if live_metrics is None:
        live_metrics = execution.live_metrics
    if store is None and (resume or out_of_core):
        flag = "resume" if resume else "out_of_core"
        raise ValidationError(f"{flag}=True requires a store")

    plan = ShardPlan.build(sorted(true_db.users()), shards, rng=rng)
    live_store = None
    owned_store = False
    if store is not None:
        from repro.store.store import open_store

        live_store, owned_store = open_store(store)
    try:
        only_shards = None
        committed: "frozenset[tuple[int, int]]" = frozenset()
        schedule: "dict[int, frozenset[int]]" = {}
        if live_store is not None or live_metrics:
            from repro.server.live_metrics import expected_coverage

            schedule = expected_coverage(plan, true_db)
        if live_store is not None:
            from repro.store.resume import RunManifest

            committed = live_store.begin_run(
                RunManifest.for_run(engine, plan, world), schedule, resume=resume
            )
            server = Server(world, store=live_store, out_of_core=out_of_core)
        else:
            server = Server(world)
        if live_metrics:
            # Attached before any replay so a resumed run folds its
            # replayed shards back into the registry — the rebuilt live
            # state then equals the uninterrupted run's at every round.
            from repro.server.live_metrics import default_views

            views = default_views(world) if live_metrics is True else list(live_metrics)
            server.attach_metrics(views, schedule)
        true_cells_of = None
        if live_metrics or (live_store is not None and live_store.maintains_true_summaries()):
            # The store never persists ground-truth cells; a replay
            # resolves them from the true trace's columns, for the live
            # views and for the true-side round blocks the store re-parks.
            true_cells_of = partial(_true_cells, true_db)

        if committed:
            # A shard that owes the coverage nothing has every (shard,
            # round) pair durably marked, and is replayed from disk instead
            # of re-derived; partially committed shards cannot exist (marks
            # travel in the shard's own transaction).
            from repro.store.resume import Coverage

            coverage = Coverage(schedule)
            coverage.commit(committed)
            owed = frozenset(coverage.missing())
            for shard_id, shard_users, _ in plan.iter_shards():
                if shard_id not in owed:
                    server.replay_shard(
                        shard_users[0],
                        shard_users[-1],
                        shard=shard_id,
                        true_cells=true_cells_of,
                    )
            only_shards = owed
        # Streaming ingestion: each shard is committed the moment its worker
        # finishes (ordered by (time, user) within the shard) instead of
        # holding all shards for a merge barrier.  Per-user server state is
        # scheduling-independent — see Server.ingest_shard.  An empty
        # only_shards set means every shard was already durable (pure
        # replay), so there is nothing left to stream.
        if only_shards is None or only_shards:
            with ExitStack() as stack:
                if backend is None:
                    # A backend built here from the execution settings is
                    # owned here: close it when the run ends (or raises),
                    # exactly like a named backend.
                    backend = stack.enter_context(execution.build())
                for shard_users, shard_times, batch in stream_shard_releases(
                    engine, true_db, plan, backend=backend, only_shards=only_shards
                ):
                    # Shards own contiguous blocks of the sorted user list,
                    # so any member identifies the shard (it keys the
                    # durable commit and the live metric deltas).
                    server.ingest_shard(
                        shard_users,
                        shard_times,
                        batch,
                        shard=plan.shard_of(int(shard_users[0])),
                    )
    except BaseException:
        if owned_store:
            live_store.close()
        raise
    if owned_store and not out_of_core:
        # A path-opened store is owned by this call: the run is fully
        # durable, so hand back the in-memory server detached and close the
        # file.  (Out-of-core servers keep the store open — their
        # released_db *is* the store — and the caller closes server.store.)
        server.store = None
        live_store.close()
    return server
