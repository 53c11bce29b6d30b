"""Epidemic analysis: contact rates and R0 estimation (Fig. 3, App 2).

The demo measures "the accuracy of transmission model estimation using the
difference between R0 estimated over accurate locations and the perturbed
locations" (Sec. 3.2).  Two estimators are provided:

* **contact-based**: ``R0 = p_transmit * c * D`` where ``c`` is the mean
  number of co-locations per user per timestep measured from the traces and
  ``D = 1/gamma`` the mean infectious period — the classic
  contacts x transmissibility x duration decomposition;
* **SEIR-fit**: recover beta by least squares on the aggregate incidence
  curve (see :mod:`repro.epidemic.seir`) and report ``beta / gamma``.

Both can be evaluated on the true trace database or on a perturbed copy
produced by :func:`perturb_tracedb`, giving the paper's utility metric
``|R0_true - R0_perturbed|``.

Both the contact-rate estimator and :func:`r0_estimation_error` also scale
*across users*: passing ``shards=`` / ``backend=`` partitions the population
with the same deterministic :class:`~repro.engine.sharding.ShardPlan` the
release pipeline uses and folds per-shard **epoch-keyed occupancy counters**
(``(time, cell) -> head count``) with the exact Counter merge of
:mod:`repro.engine.distributed`.  The decomposition rests on a counting
identity: the number of co-located unordered pairs at one ``(time, cell)``
epoch is ``n * (n - 1) / 2`` where ``n`` is the occupancy, so per-user
occupancy counters — which partition exactly, every user living in one
shard — reassemble the global pair count without ever enumerating a
cross-shard pair.  ``contact_rate`` involves no randomness, so its sharded
value equals the scalar loop *exactly*; ``r0_estimation_error`` with
``shards=`` switches to per-**user** RNG streams (the release pipeline's
layout), making the result bit-identical for every shard count and backend,
though deliberately not equal to the unsharded single-stream draw.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.core.mechanisms.base import Mechanism
from repro.epidemic.seir import fit_beta
from repro.errors import DataError, ValidationError
from repro.geo.grid import GridWorld
from repro.mobility.trajectory import TraceDB
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive, check_probability

__all__ = [
    "contact_rate",
    "estimate_r0_contacts",
    "estimate_r0_seir",
    "pair_events",
    "perturb_tracedb",
    "r0_estimation_error",
]


def pair_events(occupancy: Counter) -> int:
    """Co-located unordered pair events implied by an occupancy counter.

    ``occupancy`` maps ``(time, cell)`` epochs to head counts; each epoch
    with ``n`` occupants contributes ``n * (n - 1) / 2`` pairs.  Integer
    arithmetic, so the value is independent of how the underlying per-user
    observations were sharded before the counters merged.
    """
    return sum(count * (count - 1) // 2 for count in occupancy.values())


def _occupancy_rate(occupancy: Counter, observations: int) -> float:
    """``2 * pair_events / observations`` — the contact-rate estimator."""
    if observations == 0:
        raise DataError("window contains no observations")
    return 2.0 * pair_events(occupancy) / observations


# ----------------------------------------------------------------------
# Shard-parallel path (E2 over ShardPlan + ExecutionBackend)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _OccupancyShardTask:
    """One shard's occupancy workload: its users' (windowed) traces.

    Plain data plus an optional release source, so the pool backend can
    pickle it; ``source`` is ``None`` for the deterministic true-trace
    counters (:func:`contact_rate`), an :class:`~repro.engine.EngineRef`
    for spec-built engines (workers rebuild and cache by spec hash), or the
    live mechanism.  ``times[i]`` / ``cells[i]`` are user ``users[i]``'s
    check-ins in time order.
    """

    source: object | None
    users: tuple[int, ...]
    seeds: tuple[int, ...]
    times: tuple[tuple[int, ...], ...]
    cells: tuple[tuple[int, ...], ...]
    batched: bool


def _score_occupancy_shard(task: _OccupancyShardTask):
    """Epoch-keyed occupancy counters for one shard (module-level for pickling).

    The true counter tallies ``(time, cell)`` occupancy over the shard's own
    users.  With a release source, each user's whole trace is additionally
    released from that user's own seed stream (one vectorized
    ``release_batch`` call, or the scalar per-release loop when
    ``task.batched`` is false — same stream, so the same points to float
    identity), snapped, and tallied into the perturbed counter.  Counts are
    per-user observation counts, so ``n_releases`` is the window's
    observation total after the merge.
    """
    from repro.engine import resolve_release_source
    from repro.engine.distributed import MetricShardResult

    counts = np.array([len(user_cells) for user_cells in task.cells], dtype=int)
    true_occupancy: Counter = Counter()
    for user_times, user_cells in zip(task.times, task.cells):
        true_occupancy.update(zip(user_times, user_cells))
    flows = {"true_occupancy": true_occupancy}

    if task.source is not None:
        source = resolve_release_source(task.source)
        world = source.world
        perturbed_occupancy: Counter = Counter()
        for seed, user_times, user_cells in zip(task.seeds, task.times, task.cells):
            if not user_cells:
                continue
            generator = np.random.default_rng(seed)
            if task.batched:
                batch = source.release_batch(list(user_cells), rng=generator)
                snapped = world.snap_batch(batch.points).tolist()
            else:  # scalar reference: same stream, one release() per check-in
                snapped = [
                    world.snap(source.release(cell, rng=generator).point)
                    for cell in user_cells
                ]
            perturbed_occupancy.update(zip(user_times, snapped))
        flows["perturbed_occupancy"] = perturbed_occupancy

    return MetricShardResult(sums={}, counts=counts, flows=flows)


def _occupancy_tasks(
    db: TraceDB,
    plan,
    source,
    batched: bool,
    start: int | None = None,
    end: int | None = None,
) -> list[_OccupancyShardTask]:
    """One picklable :class:`_OccupancyShardTask` per non-empty shard."""
    tasks = []
    for _, users, seeds in plan.iter_shards():
        histories = [db.user_history(user, start=start, end=end) for user in users]
        tasks.append(
            _OccupancyShardTask(
                source=source,
                users=users,
                seeds=seeds,
                times=tuple(tuple(c.time for c in history) for history in histories),
                cells=tuple(tuple(c.cell for c in history) for history in histories),
                batched=batched,
            )
        )
    return tasks


def _contact_rate_sharded(
    db: TraceDB, start, end, shards: int | None, backend
) -> float:
    """:func:`contact_rate` over ``ShardPlan`` + ``ExecutionBackend``."""
    from repro.engine import ShardPlan
    from repro.engine.distributed import sharded_metric

    users = sorted(db.users())
    if not users:
        raise DataError("window contains no observations")
    # The estimator draws no randomness; the plan's per-user seeds are unused,
    # so a fixed parent seed keeps the plan itself deterministic.
    plan = ShardPlan.build(users, 1 if shards is None else int(shards), rng=0)
    tasks = _occupancy_tasks(db, plan, None, batched=True, start=start, end=end)
    merged = sharded_metric(_score_occupancy_shard, tasks, backend=backend)
    return _occupancy_rate(merged.flows["true_occupancy"], merged.n_releases)


def contact_rate(
    db: TraceDB,
    start: int | None = None,
    end: int | None = None,
    shards: int | None = None,
    backend=None,
) -> float:
    """Mean co-locations per user per timestep.

    The numerator counts each co-located unordered pair once per timestep and
    attributes it to both members (factor 2); the denominator is the number
    of (user, time) observations in the window.

    ``shards`` / ``backend`` (default ``None`` / ``None``: the single-process
    loop below) route the count over a per-user
    :class:`~repro.engine.sharding.ShardPlan` and the named
    :class:`~repro.engine.backends.ExecutionBackend`, folding epoch-keyed
    occupancy counters exactly — the estimator is deterministic, so the
    sharded value **equals the scalar loop exactly** at any shard count.
    """
    if shards is not None or backend is not None:
        return _contact_rate_sharded(db, start, end, shards, backend)
    times = db.times()
    if start is not None:
        times = [t for t in times if t >= start]
    if end is not None:
        times = [t for t in times if t <= end]
    if not times:
        raise DataError("window contains no observations")
    pair_count = 0
    observations = 0
    for time in times:
        snapshot = db.at_time(time)
        observations += len(snapshot)
        pair_count += len(db.colocations_at(time))
    if observations == 0:
        raise DataError("window contains no observations")
    return 2.0 * pair_count / observations


def estimate_r0_contacts(
    db: TraceDB,
    p_transmit: float,
    gamma: float,
    start: int | None = None,
    end: int | None = None,
) -> float:
    """Contact-based basic reproduction number ``p * c * (1/gamma)``."""
    check_probability("p_transmit", p_transmit)
    check_positive("gamma", gamma)
    return p_transmit * contact_rate(db, start=start, end=end) / gamma


def estimate_r0_seir(
    incidence: np.ndarray,
    population: float,
    sigma: float,
    gamma: float,
    initial_infectious: float = 1.0,
) -> float:
    """SEIR-fit reproduction number: least-squares beta over gamma."""
    beta = fit_beta(
        incidence,
        population=population,
        sigma=sigma,
        gamma=gamma,
        initial_infectious=initial_infectious,
    )
    return beta / gamma


def perturb_tracedb(
    world: GridWorld,
    mechanism: Mechanism,
    db: TraceDB,
    rng=None,
) -> TraceDB:
    """Release every check-in through ``mechanism`` and snap back to cells.

    This is what the semi-honest server actually stores (Fig. 1): the
    perturbed, re-discretised location stream that every downstream app —
    monitoring, analysis, tracing baselines — consumes.
    """
    generator = ensure_rng(rng)
    released = TraceDB()
    if len(db) == 0:
        return released
    # One vectorized engine-style call over the whole stream; the checkin
    # order matches a scalar release loop, so a seeded batched run equals a
    # seeded scalar run of the same mechanism.
    users, times, cells = db.to_arrays()
    batch = mechanism.release_batch(cells, rng=generator)
    released.record_many(users, times, world.snap_batch(batch.points))
    return released


def _r0_estimation_error_sharded(
    world: GridWorld,
    mechanism,
    true_db: TraceDB,
    p_transmit: float,
    gamma: float,
    rng,
    batched: bool,
    shards: int | None,
    backend,
) -> tuple[float, float, float]:
    """E2 over ``ShardPlan`` + ``ExecutionBackend`` (see ``r0_estimation_error``)."""
    from repro.engine import EngineRef, ShardPlan
    from repro.engine.distributed import sharded_metric

    # Workers score against the release source's own world; refuse a
    # mismatched explicit world instead of silently diverging from the
    # unsharded path (which uses the passed world throughout).
    if mechanism.world != world:
        raise ValidationError("mechanism was built for a different world")
    users = sorted(true_db.users())
    if not users:
        raise DataError("window contains no observations")
    plan = ShardPlan.build(users, 1 if shards is None else int(shards), rng=rng)
    tasks = _occupancy_tasks(true_db, plan, EngineRef.wrap(mechanism), batched=batched)
    merged = sharded_metric(_score_occupancy_shard, tasks, backend=backend)
    # The perturbed copy keeps every (user, time) key, so one observation
    # total serves both estimators — exactly as in the scalar path.
    observations = merged.n_releases
    r0_true = p_transmit * _occupancy_rate(merged.flows["true_occupancy"], observations) / gamma
    r0_perturbed = (
        p_transmit * _occupancy_rate(merged.flows["perturbed_occupancy"], observations) / gamma
    )
    return r0_true, r0_perturbed, abs(r0_true - r0_perturbed)


def r0_estimation_error(
    world: GridWorld,
    mechanism: Mechanism,
    true_db: TraceDB,
    p_transmit: float,
    gamma: float,
    rng=None,
    batched: bool = True,
    shards: int | None = None,
    backend=None,
) -> tuple[float, float, float]:
    """``(R0_true, R0_perturbed, |difference|)`` with the contact estimator.

    Experiment E2's inner loop: the same estimator is applied to the true
    traces and to a perturbed copy, so the reported error isolates the effect
    of the privacy mechanism (not estimator bias).

    ``shards`` / ``backend`` (default ``None`` / ``None``: the single-stream
    path below) partition the population over a per-user
    :class:`~repro.engine.sharding.ShardPlan` + backend and fold epoch-keyed
    occupancy counters exactly, so the sharded triple is **bit-identical for
    every shard count and backend** — ``R0_true`` additionally equals the
    unsharded value exactly (no randomness), while ``R0_perturbed`` follows
    the per-user-stream layout (each individually reproducible, the two
    layouts deliberately unequal, as everywhere in the sharded pipeline).
    ``batched=False`` runs the per-shard scalar per-release reference loop
    on the same per-user streams; the unsharded path is always batched.
    """
    if shards is not None or backend is not None:
        check_probability("p_transmit", p_transmit)
        check_positive("gamma", gamma)
        return _r0_estimation_error_sharded(
            world, mechanism, true_db, p_transmit, gamma, rng, batched, shards, backend
        )
    perturbed = perturb_tracedb(world, mechanism, true_db, rng=rng)
    r0_true = estimate_r0_contacts(true_db, p_transmit=p_transmit, gamma=gamma)
    r0_perturbed = estimate_r0_contacts(perturbed, p_transmit=p_transmit, gamma=gamma)
    return r0_true, r0_perturbed, abs(r0_true - r0_perturbed)
