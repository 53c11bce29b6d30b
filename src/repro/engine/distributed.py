"""Distributed evaluation: shard-parallel metrics over plans and backends.

PR 3 scaled the *release* (transactional) path across users; this module
gives the *evaluation* (analytical) path the same treatment without coupling
the two — the classic HTAP split of shared-but-decoupled infrastructure.
Both paths ride the same primitives: a deterministic
:class:`~repro.engine.sharding.ShardPlan` partitions the metric's work keys
(users for the contact-tracing protocol, trial slots for cell metrics like
E4's ``adversary_error``) into contiguous shards with one RNG-stream seed
per key, and an
:class:`~repro.engine.backends.ExecutionBackend` decides how shards run.

Each shard scores only its own keys on those keys' own streams and returns a
:class:`MetricShardResult`; :func:`sharded_metric` executes the shards and
folds the results with :meth:`MetricShardResult.merge`.

Merge semantics (why results are invariant under sharding)
----------------------------------------------------------
The merge is deliberately **exact**, not approximate:

* Error-style components (*weighted means*) are carried as **per-key
  partial sums** plus per-key counts.  Merging concatenates the per-key
  arrays in shard order — concatenation is associative, and shards hold
  contiguous blocks of the key order, so any shard count reassembles the
  *identical* global array.  The final weighted mean
  (``sums.sum() / counts.sum()``) is then one reduction over that array:
  bit-identical for 1, 2, or 50 shards, on any backend.
* Membership-style components (*event sets*) are carried as frozensets and
  merged by union — the contact-tracing protocol's per-user contact-event
  sets (candidates / flagged / true contacts).  Every user lives in exactly
  one shard, so per-shard sets are disjoint and union is exact,
  associative, and commutative.

Randomness is attached to keys, never shards: seeds come from one
:func:`~repro.utils.rng.spawn_seeds` draw over the global key order, so the
key -> stream mapping cannot move when re-sharding.  Together the two
properties give the distributed-metric contract asserted in
``tests/test_distributed_eval.py``: *k*-shard output on any backend equals
the 1-shard serial output exactly, and both match the scalar per-release
reference to float round-off.

Every evaluator has this one layout.  Called without ``shards=`` /
``backend=`` it is the one-shard serial run, so a seeded evaluator scores
exactly the per-user streams that
:func:`~repro.server.pipeline.run_release_rounds_batched` stores for the
same seed.  The E4 trial metrics and the tracing protocol score their
shards through :func:`sharded_metric`; the trial scorer releases a whole
shard in one ``release_batch(cells, streams=(seeds, counts))`` call.  E1,
E2 and E11 fold the release stream through the live views of
:mod:`repro.server.live_metrics` instead; their scalar reference slices
each shard's rows from one ``TraceDB.to_arrays()`` (:func:`shard_rows`) and
releases them with :meth:`ShardRows.release_points`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import AbstractSet, Callable, Mapping, Sequence, TypeVar

import numpy as np

from repro.engine.backends import ExecutionBackend, owned_backend
from repro.engine.sharding import ShardPlan
from repro.errors import ValidationError

__all__ = [
    "MetricShardResult",
    "ShardRows",
    "merge_metric_results",
    "shard_rows",
    "sharded_metric",
    "slot_plan",
]

T = TypeVar("T")


def _component_arrays_equal(left, right) -> bool:
    """Exact array equality; NaNs compare equal so bit-identity is reflexive."""
    left = np.asarray(left)
    right = np.asarray(right)
    if np.issubdtype(left.dtype, np.inexact) or np.issubdtype(right.dtype, np.inexact):
        return bool(np.array_equal(left, right, equal_nan=True))
    return bool(np.array_equal(left, right))


@dataclass(frozen=True, eq=False)
class MetricShardResult:
    """One shard's contribution to a distributed metric, mergeable exactly.

    Attributes
    ----------
    sums:
        ``component name -> per-key partial sums`` (one float per work key
        owned by the shard, in the shard's key order).  Components that end
        up as weighted means (mean Euclidean error, area hits, inference
        error) live here.
    counts:
        Per-key release/trial counts aligned with every array in ``sums`` —
        the weights of the weighted means.
    sets:
        ``component name -> frozenset`` for membership-valued components
        merged by union (the tracing protocol's per-user contact-event
        sets).  Per-shard sets are disjoint — every work key lives in
        exactly one shard — so union is exact.  Empty for metrics without
        a set part.
    """

    sums: Mapping[str, np.ndarray]
    counts: np.ndarray
    sets: Mapping[str, AbstractSet] = field(default_factory=dict)

    def merge(self, other: "MetricShardResult") -> "MetricShardResult":
        """Fold two shard results into one; associative and exact.

        Per-key arrays concatenate (``self`` first — callers merge in shard
        order, which reassembles the global key order) and event sets
        union.  Because neither operation rounds, ``merge`` is associative:
        any grouping of shards produces the same result, which is what the
        shard-count-invariance tests pin down.
        """
        if set(self.sums) != set(other.sums) or set(self.sets) != set(other.sets):
            raise ValidationError("cannot merge shard results with different components")
        return MetricShardResult(
            sums={
                name: np.concatenate([values, other.sums[name]])
                for name, values in self.sums.items()
            },
            counts=np.concatenate([self.counts, other.counts]),
            sets={
                name: frozenset(members) | frozenset(other.sets[name])
                for name, members in self.sets.items()
            },
        )

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        """Structural equality: same components, bit-identical values.

        The frozen dataclass would otherwise inherit an ``__eq__`` that
        chokes on array-valued fields ("truth value of an array is
        ambiguous"), forcing every test to compare field by field.  Equality
        here means what the determinism suites assert: identical component
        names, per-key arrays equal element-wise (NaN == NaN), sets equal as
        values.  Frozen/unfrozen status is irrelevant.
        """
        if not isinstance(other, MetricShardResult):
            return NotImplemented
        return (
            set(self.sums) == set(other.sums)
            and set(self.sets) == set(other.sets)
            and all(
                _component_arrays_equal(values, other.sums[name])
                for name, values in self.sums.items()
            )
            and _component_arrays_equal(self.counts, other.counts)
            and all(
                frozenset(members) == frozenset(other.sets[name])
                for name, members in self.sets.items()
            )
        )

    __hash__ = None  # structurally equal results are mutable-array-backed

    def __repr__(self) -> str:
        parts = [f"keys={self.n_keys}", f"releases={self.n_releases}"]
        if self.sums:
            parts.append(f"sums={sorted(self.sums)}")
        if self.sets:
            parts.append(f"sets={sorted(self.sets)}")
        return f"MetricShardResult({', '.join(parts)})"

    # ------------------------------------------------------------------
    @property
    def n_keys(self) -> int:
        """Number of work keys (users / trial slots) covered so far."""
        return len(self.counts)

    @property
    def n_releases(self) -> int:
        """Total releases scored across all merged shards."""
        return int(self.counts.sum())

    def weighted_mean(self, name: str) -> float:
        """``sums[name].sum() / counts.sum()`` — the final metric value.

        One reduction over the reassembled global per-key array, so the
        value is bit-identical for every shard count and backend.
        """
        total = self.n_releases
        if total == 0:
            raise ValidationError("no releases scored; cannot take a mean")
        return float(self.sums[name].sum()) / total


def merge_metric_results(results: Sequence[MetricShardResult]) -> MetricShardResult:
    """Fold shard results in shard order into one :class:`MetricShardResult`."""
    if not results:
        raise ValidationError("need at least one shard result to merge")
    return reduce(MetricShardResult.merge, results)


def sharded_metric(
    scorer: Callable[[T], MetricShardResult],
    tasks: Sequence[T],
    backend: "str | ExecutionBackend | None" = None,
) -> MetricShardResult:
    """Score shard tasks on a backend and merge them into one result.

    Parameters
    ----------
    scorer:
        Module-level function mapping one shard task to a
        :class:`MetricShardResult` (module-level so the pool and rpc
        backends can pickle it).  Tasks carry everything the scorer needs —
        for those backends, spec-built engines travel as
        :class:`~repro.engine.engine.EngineRef` spec hashes that workers
        resolve against their local cache.
    tasks:
        One task per non-empty shard, in shard order.  Results are merged in
        this order regardless of completion order, so the backend can never
        influence the merged value.
    backend:
        Registry name, live backend, or ``None`` (serial).  Backends named
        here are owned by this call and closed before returning — even when
        a shard raises — so a failing sweep cannot leak a process pool.

    Returns
    -------
    MetricShardResult
        The exact fold of every shard's result; finalise with
        :meth:`MetricShardResult.weighted_mean` and the event sets.
    """
    with owned_backend(backend) as live:
        results = live.run(scorer, tasks)
    return merge_metric_results(results)


def slot_plan(
    n_slots: int, shards: int, rng=None
) -> ShardPlan:
    """A :class:`ShardPlan` over trial slots ``0..n_slots-1``.

    Cell-level metrics (E4's ``utility_error`` / ``adversary_error`` /
    ``expected_inference_error``) have no users; their work keys are the
    positions of the evaluated true cells, which may repeat.  Slot indices
    are already sorted and unique, so they drop straight into
    :class:`ShardPlan` — reusing the exact per-key seeding (one
    ``spawn_seeds`` draw over the global slot order) and contiguous balanced
    partitioning that make the release path invariant under re-sharding.
    """
    if n_slots < 1:
        raise ValidationError("need at least one slot to shard")
    return ShardPlan.build(range(n_slots), shards, rng=rng)


@dataclass(frozen=True)
class ShardRows:
    """One shard's check-in rows: its users, their streams and their rows.

    The evaluation-side twin of :class:`~repro.engine.sharding.ShardTask`.
    The rows are int64 arrays in user-major order: user ``users[i]`` owns
    the next ``counts[i]`` rows of ``times`` and ``cells`` (possibly none,
    for a windowed trace).  ``(seeds, counts)`` is therefore exactly the
    ``streams=`` argument of the shard's one ``release_batch`` call.
    """

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
    filtered to a time window), and every row's user must be in the plan.
    A shard owns a contiguous block of the sorted users, hence a contiguous
    block of rows, found by ``searchsorted`` — the slicing
    :func:`~repro.engine.sharding.stream_shard_releases` uses for its
    release tasks.
    """
    users, times, cells = (np.asarray(column, dtype=np.int64) for column in (users, times, cells))
    shards = []
    for _, keys, seeds in plan.iter_shards():
        # First row of each user, then one past the last user's rows.
        bounds = np.searchsorted(users, keys + (keys[-1] + 1,))
        rows = slice(bounds[0], bounds[-1])
        shards.append(ShardRows(keys, seeds, np.diff(bounds), times[rows], cells[rows]))
    return shards
