"""Population sharding for release rounds: plans, shard tasks, streaming.

A :class:`ShardPlan` splits the population into deterministic shards, each
shard releases its users' whole trace through the engine in one
``release_batch`` call, an :class:`~repro.engine.backends.ExecutionBackend`
decides how the shards run (serial or process pool), and
:func:`stream_shard_releases` hands each finished shard to the server as it
completes.  An unsharded run is a one-shard plan.

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
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro.core.mechanisms.base import ReleaseBatch
from repro.engine.backends import ExecutionBackend, owned_backend
from repro.engine.engine import EngineRef, resolve_release_source
from repro.errors import DataError, ValidationError
from repro.utils.validation import check_integer
from repro.utils.rng import seed_array, spawn_seeds

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.engine.engine import PrivacyEngine
    from repro.mobility.trajectory import TraceDB

__all__ = [
    "ShardPlan",
    "ShardRows",
    "ShardTask",
    "shard_rows",
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
        invariant under re-sharding.  Each seed must be a Python or numpy
        integer in ``[0, 2**64)`` (:func:`~repro.utils.rng.seed_array`);
        anything else raises :class:`~repro.errors.ValidationError` at
        construction.
    n_shards:
        Number of shards (>= 1).  May exceed ``len(users)``; the surplus
        shards are simply empty.
    """

    users: tuple[int, ...]
    seeds: tuple[int, ...]
    n_shards: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "n_shards", check_integer("n_shards", self.n_shards, minimum=1)
        )
        if len(self.users) != len(self.seeds):
            raise ValidationError(
                f"{len(self.users)} users but {len(self.seeds)} seeds"
            )
        if list(self.users) != sorted(set(self.users)):
            raise ValidationError("users must be sorted and unique")
        seed_array(self.seeds)

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
            Desired shard count: a Python or numpy int >= 1 (a bool or a
            float raises :class:`~repro.errors.ValidationError`).
        rng:
            Parent seed source for the per-user streams.  The same
            ``(rng seed, users)`` pair always yields the same plan.
        """
        ordered = sorted({int(user) for user in users})
        seeds = spawn_seeds(rng, len(ordered))
        return cls(users=tuple(ordered), seeds=tuple(seeds), n_shards=n_shards)

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
class ShardRows:
    """One shard's check-in rows: its users, their streams and their rows.

    The rows are int64 arrays in user-major order: user ``users[i]`` owns
    the next ``counts[i]`` rows of ``times`` and ``cells`` (possibly none,
    for a windowed trace).  ``(seeds, counts)`` is therefore exactly the
    ``streams=`` argument of the shard's one ``release_batch`` call.
    ``shard`` is the shard's index in its plan.
    """

    shard: int
    users: tuple[int, ...]
    seeds: tuple[int, ...]
    counts: np.ndarray
    times: np.ndarray
    cells: np.ndarray

    @property
    def bounds(self) -> np.ndarray:
        """Row offsets: user ``users[i]`` owns rows ``bounds[i]:bounds[i + 1]``."""
        return np.concatenate(([0], np.cumsum(self.counts)))

    @property
    def row_users(self) -> np.ndarray:
        """The user of every row, aligned with ``times`` and ``cells``."""
        return np.repeat(np.asarray(self.users, dtype=np.int64), self.counts)

    def release_points(self, source, batched: bool = True) -> np.ndarray:
        """``(n, 2)`` released points for every row, each user on their own stream.

        Batched: one ``source.release_batch(cells, streams=(seeds, counts))``
        call.  Otherwise the scalar reference: one ``source.release`` per
        row, user ``i``'s rows drawing from ``np.random.default_rng(seeds[i])``
        — the same streams, so the same points to float round-off.
        """
        if batched:
            return source.release_batch(self.cells, streams=(self.seeds, self.counts)).points
        points = np.empty((len(self.cells), 2), dtype=float)
        bounds = self.bounds.tolist()
        for seed, low, high in zip(self.seeds, bounds, bounds[1:]):
            generator = np.random.default_rng(seed)
            for row in range(low, high):
                points[row] = source.release(int(self.cells[row]), rng=generator).point
        return points


def shard_rows(plan: ShardPlan, users, times, cells) -> list[ShardRows]:
    """One :class:`ShardRows` per non-empty shard of ``plan``, in shard order.

    ``users`` / ``times`` / ``cells`` are row arrays sorted by user (the
    :meth:`~repro.mobility.trajectory.TraceDB.to_arrays` layout, possibly
    filtered to a time window), and every row's user must be in the plan:
    a row of any other user raises :class:`~repro.errors.DataError` naming
    the user.  A shard owns a contiguous block of the sorted users, hence a
    contiguous block of rows.  This is the one slicer of that layout:
    release tasks, the coverage schedule and the evaluators all read it.
    """
    users, times, cells = (np.asarray(column, dtype=np.int64) for column in (users, times, cells))
    # Row offsets: planned user i owns rows bounds[i]:bounds[i + 1].
    planned = np.asarray(plan.users, dtype=np.int64)
    bounds = np.append(np.searchsorted(users, planned), len(users))
    # The rows are sorted, so a block holds only its planned user iff its
    # last row does; rows before the first block belong to no one.
    held = bounds[1:] > bounds[:-1]
    last = users[bounds[1:][held] - 1]
    stray = users[: bounds[0]].tolist() + last[last != planned[held]].tolist()
    if stray:
        raise DataError(f"row user {stray[0]} is not in the shard plan")
    shards = []
    start = 0
    for shard, keys, seeds in plan.iter_shards():
        stop = start + len(keys)
        low, high = int(bounds[start]), int(bounds[stop])
        shards.append(
            ShardRows(
                shard,
                keys,
                seeds,
                np.diff(bounds[start : stop + 1]),
                times[low:high],
                cells[low:high],
            )
        )
        start = stop
    return shards


@dataclass(frozen=True)
class ShardTask:
    """One shard's work order: the engine and the shard's rows.

    Plain data plus the engine, so a :class:`~repro.engine.backends.PoolBackend`
    can pickle it to a worker.  ``engine`` is an
    :class:`~repro.engine.engine.EngineRef` whenever the engine was built
    from a spec — the ref pickles as a spec hash and the worker rebuilds
    (and caches) the engine, instead of re-shipping construction state with
    every task — and the live engine otherwise.
    """

    engine: "PrivacyEngine | EngineRef"
    rows: ShardRows


def _execute_shard(task: ShardTask) -> tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """Release one shard's users: ``(points, exact, epsilons, mechanism)``.

    One ``release_batch(cells, streams=(seeds, counts))`` call over the whole
    shard: each user's rows draw from that user's own stream, element-wise
    identical to the scalar per-round ``release`` loop a
    :class:`~repro.server.pipeline.Client` runs.  The call goes through
    :meth:`~repro.engine.engine.PrivacyEngine.release_batch` whenever the
    task carries an engine.  Rows are ordered like the task's ``times`` /
    ``cells``.  Module-level so process pools can pickle it.
    """
    engine = resolve_release_source(task.engine)
    rows = task.rows
    batch = engine.release_batch(rows.cells, streams=(rows.seeds, rows.counts))
    return batch.points, batch.exact, batch.epsilons, batch.mechanism


def _shard_tasks(
    engine: "PrivacyEngine",
    true_db: "TraceDB",
    plan: ShardPlan,
    only_shards: "frozenset[int] | set[int] | None" = None,
) -> list[ShardTask]:
    """One picklable :class:`ShardTask` per selected non-empty shard, in shard order."""
    transferable = EngineRef.wrap(engine)
    return [
        ShardTask(transferable, rows)
        for rows in shard_rows(plan, *true_db.to_arrays())
        if only_shards is None or rows.shard in only_shards
    ]


def stream_shard_releases(
    engine: "PrivacyEngine",
    true_db: "TraceDB",
    plan: ShardPlan,
    backend: "str | ExecutionBackend | None" = "serial",
    only_shards: "frozenset[int] | set[int] | None" = None,
) -> Iterator[tuple[np.ndarray, np.ndarray, ReleaseBatch]]:
    """Yield each shard's releases **as the shard completes** (any order).

    Instead of a full merge barrier (flatten every shard, lexsort the whole
    population, regroup into rounds), each completed shard is handed to the
    consumer immediately as ``(users, times, batch)`` row arrays in the
    shard's user-major order.  :meth:`~repro.server.pipeline.Server.ingest_shard`
    consumes exactly this shape and commits each shard's rows ordered by
    ``(time, user)``.

    Yield *order* follows shard completion and is therefore
    backend-dependent, but the yielded *values* are not: every user lives in
    exactly one shard and draws from their own seed stream, so the union of
    yielded rows — and any per-user downstream state — is a pure function of
    ``(engine, true_db, plan)``.

    Parameters
    ----------
    engine:
        The engine every shard releases through (picklable, so the pool
        backend can ship it whole).
    true_db:
        Ground-truth traces; the plan must cover exactly its users.
    plan:
        Shard partition and per-user streams (see :class:`ShardPlan`).
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
            rows = tasks[index].rows
            yield rows.row_users, rows.times, ReleaseBatch(
                points=points,
                exact=exact,
                epsilons=epsilons,
                cells=rows.cells,
                mechanism=mechanism,
            )
