"""Population sharding for release rounds: plans, shard tasks, merge.

PR 1–2 made a release *round* fast (one vectorized ``release_batch`` per
timestep); this module scales *across users*.  A :class:`ShardPlan` splits
the population into deterministic shards, each shard releases its users'
whole trace through the engine, an
:class:`~repro.engine.backends.ExecutionBackend` decides how the shards run
(serial / thread pool / process pool / rpc), and :func:`sharded_release_rounds`
merges the per-shard output back into time-ordered rounds for the server.

Determinism contract
--------------------
Randomness is attached to *users*, not shards: the plan draws one seed per
user from the parent ``rng`` (:func:`~repro.utils.rng.spawn_seeds`), indexed
by the user's position in the globally sorted user list.  A user's releases
therefore depend only on ``(parent seed, user list, their trace)`` — never on
the shard count or the backend — so a k-shard run reproduces the 1-shard run
element-wise, and both reproduce the per-client protocol reference
(:func:`repro.server.pipeline.run_release_rounds`), which spawns the same
per-user streams.  Seeds (plain ints) rather than live generators are what a
:class:`~repro.engine.backends.PoolBackend` pickles across the process
boundary.
"""

from __future__ import annotations

import hashlib
import threading
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro.core.mechanisms.base import ReleaseBatch
from repro.core.workspace import RoundWorkspace
from repro.engine.backends import ExecutionBackend, owned_backend
from repro.engine.engine import EngineRef, resolve_release_source
from repro.errors import DataError, ValidationError
from repro.utils.rng import spawn_seeds

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.engine.engine import PrivacyEngine
    from repro.mobility.trajectory import TraceDB

__all__ = [
    "ShardPlan",
    "ShardTask",
    "sharded_release_rounds",
    "stream_shard_releases",
]


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic partition of a user population with per-user streams.

    Attributes
    ----------
    users:
        The population in globally sorted order.  Shard ``i`` owns the
        ``i``-th contiguous block of this list (balanced like
        ``np.array_split``), so every shard's user subset is itself sorted
        and concatenating shards in index order re-yields ``users``.
    seeds:
        One RNG-stream seed per user, aligned with ``users``.  Drawn by
        :func:`~repro.utils.rng.spawn_seeds` from the parent ``rng``, so the
        mapping ``user -> seed`` depends only on the parent seed and the user
        list — not on ``n_shards`` — which is what makes release output
        invariant under re-sharding.
    n_shards:
        Number of shards (>= 1).  May exceed ``len(users)``; the surplus
        shards are simply empty.
    """

    users: tuple[int, ...]
    seeds: tuple[int, ...]
    n_shards: int

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValidationError(f"n_shards must be >= 1, got {self.n_shards}")
        if len(self.users) != len(self.seeds):
            raise ValidationError(
                f"{len(self.users)} users but {len(self.seeds)} seeds"
            )
        if list(self.users) != sorted(set(self.users)):
            raise ValidationError("users must be sorted and unique")

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        users: Sequence[int],
        n_shards: int,
        rng: "int | np.random.Generator | None" = None,
    ) -> "ShardPlan":
        """Plan ``n_shards`` shards over ``users`` with streams from ``rng``.

        Parameters
        ----------
        users:
            The population (any order; sorted and deduplicated here so the
            plan is a function of the *set* of users).
        n_shards:
            Desired shard count, >= 1.
        rng:
            Parent seed source for the per-user streams.  The same
            ``(rng seed, users)`` pair always yields the same plan.
        """
        ordered = sorted({int(user) for user in users})
        seeds = spawn_seeds(rng, len(ordered))
        return cls(users=tuple(ordered), seeds=tuple(seeds), n_shards=int(n_shards))

    # ------------------------------------------------------------------
    @cached_property
    def _boundaries(self) -> list[int]:
        """Cumulative end index of each shard's user block (computed once)."""
        n, k = len(self.users), self.n_shards
        size, extra = divmod(n, k)
        ends, stop = [], 0
        for shard in range(k):
            stop += size + (1 if shard < extra else 0)
            ends.append(stop)
        return ends

    @cached_property
    def fingerprint(self) -> str:
        """SHA-256 identity of the plan's seed material.

        Covers the sorted user list, every per-user stream seed, and the
        shard count — everything a resumed run must share with the original
        for re-derivation to be bit-identical.  Two plans built from the
        same ``(rng seed, users)`` always agree; a different parent seed,
        population, or shard count yields a different fingerprint.  Recorded
        by :class:`~repro.store.resume.RunManifest` and validated on resume.
        """
        digest = hashlib.sha256()
        digest.update(np.asarray(self.users, dtype=np.int64).tobytes())
        digest.update(np.asarray(self.seeds, dtype=np.uint64).tobytes())
        digest.update(int(self.n_shards).to_bytes(8, "little"))
        return digest.hexdigest()

    def _index_of(self, user: int) -> int:
        """Position of ``user`` in the sorted user list (its stream index)."""
        index = bisect_right(self.users, int(user)) - 1
        if index < 0 or self.users[index] != int(user):
            raise DataError(f"user {user} is not in this shard plan")
        return index

    def shard_of(self, user: int) -> int:
        """Shard index owning ``user`` (raises if the user is unknown)."""
        return bisect_right(self._boundaries, self._index_of(user))

    def shard_members(self, shard: int) -> tuple[int, ...]:
        """Users owned by ``shard``, in sorted order."""
        if not 0 <= shard < self.n_shards:
            raise ValidationError(f"shard must be in [0, {self.n_shards}), got {shard}")
        ends = self._boundaries
        start = ends[shard - 1] if shard else 0
        return self.users[start : ends[shard]]

    def seed_of(self, user: int) -> int:
        """The RNG-stream seed assigned to ``user``."""
        return self.seeds[self._index_of(user)]

    def rng_for(self, user: int) -> np.random.Generator:
        """A fresh generator positioned at the start of ``user``'s stream."""
        return np.random.default_rng(self.seed_of(user))

    def assignment(self) -> dict[int, int]:
        """``{user: shard}`` for the whole population."""
        ends = self._boundaries
        out: dict[int, int] = {}
        shard = 0
        for index, user in enumerate(self.users):
            while index >= ends[shard]:
                shard += 1
            out[user] = shard
        return out

    def iter_shards(self) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...]]]:
        """Yield ``(shard, users, seeds)`` for every non-empty shard."""
        ends = self._boundaries
        start = 0
        for shard, stop in enumerate(ends):
            if stop > start:
                yield shard, self.users[start:stop], self.seeds[start:stop]
            start = stop

    def __len__(self) -> int:
        return len(self.users)

    def __repr__(self) -> str:
        return f"ShardPlan(users={len(self.users)}, n_shards={self.n_shards})"


@dataclass(frozen=True)
class ShardTask:
    """One shard's work order: its users, their seeds, and their traces.

    Plain data plus the engine, so a :class:`~repro.engine.backends.PoolBackend`
    can pickle it to a worker.  ``engine`` is an
    :class:`~repro.engine.engine.EngineRef` whenever the engine was built
    from a spec — the ref pickles as a spec hash and the worker rebuilds
    (and caches) the engine, instead of re-shipping construction state with
    every task — and the live engine otherwise.  ``times[i]`` / ``cells[i]``
    are user ``users[i]``'s check-in times and true cells in time order.
    """

    engine: "PrivacyEngine | EngineRef"
    users: tuple[int, ...]
    seeds: tuple[int, ...]
    times: tuple[tuple[int, ...], ...]
    cells: tuple[tuple[int, ...], ...]


#: Per-worker-thread state: each thread that executes shards keeps its own
#: :class:`RoundWorkspace`, so the thread backend's concurrently running
#: shards never alias a buffer (one workspace serves one release stream).
#: Process workers get one per process the same way (a process has its own
#: module state and, for the serial/pool cases, a single executing thread).
_WORKER_STATE = threading.local()


def _shard_workspace(capacity: int) -> RoundWorkspace:
    """This worker thread's private workspace, grown to ``capacity``."""
    workspace = getattr(_WORKER_STATE, "workspace", None)
    if workspace is None:
        workspace = RoundWorkspace(capacity)
        _WORKER_STATE.workspace = workspace
    return workspace


def _execute_shard(task: ShardTask) -> tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """Release one shard's users: ``(points, exact, epsilons, mechanism)``.

    Each user's whole trace goes through one vectorized
    ``engine.release_batch`` call drawn from that user's own stream —
    element-wise identical to the scalar per-round ``release`` loop a
    :class:`~repro.server.pipeline.Client` runs.  Rows are ordered user-major
    (the task's user order, then time), matching the task's flattened
    ``times``/``cells``.  Module-level so process pools can pickle it.

    Kernel temporaries live in the worker thread's reused
    :class:`RoundWorkspace` (the batch views are copied straight into the
    shard's output arrays), so a long-lived worker allocates only the
    per-shard outputs — zero arrays per release round.
    """
    engine = resolve_release_source(task.engine)
    n = sum(len(cells) for cells in task.cells)
    longest = max((len(cells) for cells in task.cells), default=0)
    workspace = _shard_workspace(longest)
    points = np.empty((n, 2), dtype=float)
    exact = np.empty(n, dtype=bool)
    epsilons = np.empty(n, dtype=float)
    mechanism = ""
    offset = 0
    for seed, cells in zip(task.seeds, task.cells):
        batch = engine.release_batch(
            list(cells), rng=np.random.default_rng(seed), workspace=workspace
        )
        stop = offset + len(batch)
        points[offset:stop] = batch.points
        exact[offset:stop] = batch.exact
        epsilons[offset:stop] = batch.epsilons
        mechanism = batch.mechanism
        offset = stop
    return points, exact, epsilons, mechanism


def _shard_tasks(
    engine: "PrivacyEngine",
    true_db: "TraceDB",
    plan: ShardPlan,
    only_shards: "frozenset[int] | set[int] | None" = None,
) -> list[ShardTask]:
    """Materialise one picklable :class:`ShardTask` per selected non-empty shard."""
    tasks = []
    transferable = EngineRef.wrap(engine)
    for shard, users, seeds in plan.iter_shards():
        if only_shards is not None and shard not in only_shards:
            continue
        histories = [true_db.user_history(user) for user in users]
        tasks.append(
            ShardTask(
                engine=transferable,
                users=users,
                seeds=seeds,
                times=tuple(tuple(c.time for c in history) for history in histories),
                cells=tuple(tuple(c.cell for c in history) for history in histories),
            )
        )
    return tasks


def _flatten_task_rows(task: ShardTask) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """User-major ``(users, times, cells)`` row arrays for one shard task."""
    n = sum(len(times) for times in task.times)
    users_rows = np.empty(n, dtype=int)
    times_rows = np.empty(n, dtype=int)
    cells_rows = np.empty(n, dtype=int)
    offset = 0
    for user, user_times, user_cells in zip(task.users, task.times, task.cells):
        stop = offset + len(user_times)
        users_rows[offset:stop] = user
        times_rows[offset:stop] = user_times
        cells_rows[offset:stop] = user_cells
        offset = stop
    return users_rows, times_rows, cells_rows


def stream_shard_releases(
    engine: "PrivacyEngine",
    true_db: "TraceDB",
    plan: ShardPlan,
    backend: "str | ExecutionBackend | None" = "serial",
    only_shards: "frozenset[int] | set[int] | None" = None,
) -> Iterator[tuple[np.ndarray, np.ndarray, ReleaseBatch]]:
    """Yield each shard's releases **as the shard completes** (any order).

    The streaming counterpart of :func:`sharded_release_rounds`: instead of
    a full merge barrier (flatten every shard, lexsort the whole population,
    regroup into rounds), each completed shard is handed to the consumer
    immediately as ``(users, times, batch)`` row arrays in the shard's
    user-major order.  :meth:`~repro.server.pipeline.Server.ingest_shard`
    consumes exactly this shape and commits each shard's rows ordered by
    ``(time, user)``.

    Yield *order* follows shard completion and is therefore
    backend-dependent, but the yielded *values* are not: every user lives in
    exactly one shard and draws from their own seed stream, so the union of
    yielded rows — and any per-user downstream state — is a pure function of
    ``(engine, true_db, plan)``.

    Parameters
    ----------
    engine / true_db / plan:
        As in :func:`sharded_release_rounds` (the plan must cover exactly
        the database's users).
    backend:
        A registry name, live backend, or ``None`` (serial).  Backends named
        here are owned by this generator and closed when the iteration
        finishes or the consumer abandons it; live instances are left open
        for reuse.
    only_shards:
        Optional subset of shard indices to execute (others are skipped
        entirely — no task is even built).  This is the resume hook: a
        store-backed restart passes the shards whose ``(shard, round)``
        commits are incomplete.  Because each shard draws only from its own
        users' seed streams, running a subset yields exactly the rows the
        full run would have produced for those shards.
    """
    if plan.users != tuple(sorted(true_db.users())):
        raise DataError("shard plan does not cover the trace database's users")
    tasks = _shard_tasks(engine, true_db, plan, only_shards=only_shards)
    with owned_backend(backend) as live:
        for index, (points, exact, epsilons, mechanism) in live.run_unordered(
            _execute_shard, tasks
        ):
            task = tasks[index]
            users_rows, times_rows, cells_rows = _flatten_task_rows(task)
            yield users_rows, times_rows, ReleaseBatch(
                points=points,
                exact=exact,
                epsilons=epsilons,
                cells=cells_rows,
                mechanism=mechanism,
            )


def sharded_release_rounds(
    engine: "PrivacyEngine",
    true_db: "TraceDB",
    plan: ShardPlan,
    backend: "str | ExecutionBackend | None" = "serial",
) -> list[tuple[int, np.ndarray, ReleaseBatch]]:
    """Release the whole population shard-parallel, merged back into rounds.

    Parameters
    ----------
    engine:
        The engine every shard releases through (picklable, so the pool
        and rpc backends can ship it whole).
    true_db:
        Ground-truth traces; the plan must cover exactly its users.
    plan:
        Shard partition and per-user streams (see :class:`ShardPlan`).
    backend:
        Execution strategy — a registry name (``"serial"``, ``"thread"``,
        ``"pool"``), a live backend, or ``None`` for serial.

    Returns
    -------
    list of ``(time, users, batch)``
        One entry per timestep, in increasing time order.  ``users`` is the
        sorted array of users observed at that time and ``batch`` the merged
        :class:`~repro.core.mechanisms.ReleaseBatch` with row ``i`` belonging
        to ``users[i]`` — exactly what :meth:`Server.ingest_batch` consumes.

    Determinism: output is a pure function of ``(engine, true_db, plan)``;
    the backend and shard count never change a single release (asserted per
    backend in ``tests/test_sharding.py``).  Backends named here (rather
    than passed live) are closed before returning, even on error.
    """
    if plan.users != tuple(sorted(true_db.users())):
        raise DataError("shard plan does not cover the trace database's users")
    tasks = _shard_tasks(engine, true_db, plan)
    with owned_backend(backend) as live:
        results = live.run(_execute_shard, tasks)

    # Flatten in shard order: shards hold contiguous blocks of the sorted
    # user list, so rows arrive sorted by (user, time) globally.
    n = sum(len(times) for task in tasks for times in task.times)
    users_rows = np.empty(n, dtype=int)
    times_rows = np.empty(n, dtype=int)
    cells_rows = np.empty(n, dtype=int)
    points = np.empty((n, 2), dtype=float)
    exact = np.empty(n, dtype=bool)
    epsilons = np.empty(n, dtype=float)
    mechanism = ""
    offset = 0
    for task, (shard_points, shard_exact, shard_epsilons, shard_mechanism) in zip(tasks, results):
        shard_start = offset
        task_users, task_times, task_cells = _flatten_task_rows(task)
        offset = shard_start + len(task_users)
        users_rows[shard_start:offset] = task_users
        times_rows[shard_start:offset] = task_times
        cells_rows[shard_start:offset] = task_cells
        points[shard_start:offset] = shard_points
        exact[shard_start:offset] = shard_exact
        epsilons[shard_start:offset] = shard_epsilons
        if shard_mechanism:
            mechanism = shard_mechanism

    # Regroup user-major rows into time-major rounds; lexsort keys are
    # last-key-primary, so this orders by time then user — a deterministic
    # round layout shared by every shard count and backend.
    order = np.lexsort((users_rows, times_rows))
    rounds: list[tuple[int, np.ndarray, ReleaseBatch]] = []
    sorted_times = times_rows[order]
    round_times, starts = np.unique(sorted_times, return_index=True)
    bounds = list(starts) + [len(order)]
    for i, time in enumerate(round_times):
        index = order[bounds[i] : bounds[i + 1]]
        rounds.append(
            (
                int(time),
                users_rows[index],
                ReleaseBatch(
                    points=points[index],
                    exact=exact[index],
                    epsilons=epsilons[index],
                    cells=cells_rows[index],
                    mechanism=mechanism,
                ),
            )
        )
    return rounds
