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

The randomised evaluator :func:`r0_estimation_error` scores the stream the
server stores: it and :func:`perturb_tracedb` release each user's check-ins
on that user's own RNG stream, spawned over the sorted user list exactly as
:func:`~repro.server.pipeline.run_release_rounds_batched` spawns them.  The
users are partitioned by a :class:`~repro.engine.sharding.ShardPlan` (one
shard unless ``shards=`` says otherwise) and each shard folds
**epoch-keyed occupancy counters** (``(time, cell) -> head count``) with the
exact Counter merge of :mod:`repro.engine.distributed`.  The decomposition
rests on a counting identity: the number of co-located unordered pairs at
one ``(time, cell)`` epoch is ``n * (n - 1) / 2`` where ``n`` is the
occupancy, so per-user occupancy counters — which partition exactly, every
user living in one shard — reassemble the global pair count without ever
enumerating a cross-shard pair.  The result is bit-identical for every
shard count and backend.  :func:`contact_rate` draws no randomness; its
co-location loop is the oracle the occupancy path is tested against, and
``shards=`` / ``backend=`` route it over the occupancy path instead.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.core.mechanisms.base import Mechanism
from repro.engine import EngineRef, ShardPlan, resolve_release_source
from repro.engine.distributed import MetricShardResult, ShardRows, shard_rows, sharded_metric
from repro.epidemic.seir import fit_beta
from repro.errors import DataError, ValidationError
from repro.geo.grid import GridWorld
from repro.mobility.trajectory import TraceDB
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


def _occupancy(times: np.ndarray, cells: np.ndarray) -> Counter:
    """``(time, cell) -> head count`` over aligned row arrays.

    One ``np.unique`` over scalar ``time * span + cell`` codes, decoded back
    into Python-int epoch keys so that counters from different shards add.
    """
    if len(cells) == 0:
        return Counter()
    span = int(cells.max()) + 1
    codes, counts = np.unique(times * span + cells, return_counts=True)
    epochs = zip((codes // span).tolist(), (codes % span).tolist())
    return Counter(dict(zip(epochs, counts.tolist())))


# ----------------------------------------------------------------------
# Shard scoring (E2 over ShardPlan + ExecutionBackend)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _OccupancyShardTask:
    """One shard's occupancy workload: its users' (windowed) rows.

    Plain data plus an optional release source, so the pool backend can
    pickle it; ``source`` is ``None`` for the deterministic true-trace
    counters (:func:`contact_rate`), an :class:`~repro.engine.EngineRef`
    for spec-built engines (workers rebuild and cache by spec hash), or the
    live mechanism.
    """

    source: object | None
    rows: ShardRows
    batched: bool


def _score_occupancy_shard(task: _OccupancyShardTask):
    """Epoch-keyed occupancy counters for one shard (module-level for pickling).

    The true counter tallies ``(time, cell)`` occupancy over the shard's own
    users.  With a release source, the shard's rows are additionally
    released on their users' own streams (one ``release_batch(streams=)``
    call, or the scalar per-release loop when ``task.batched`` is false),
    snapped, and tallied into the perturbed counter.  Counts are per-user
    observation counts, so ``n_releases`` is the window's observation total
    after the merge.
    """
    rows = task.rows
    flows = {"true_occupancy": _occupancy(rows.times, rows.cells)}
    if task.source is not None:
        source = resolve_release_source(task.source)
        snapped = source.world.snap_batch(rows.release_points(source, task.batched))
        flows["perturbed_occupancy"] = _occupancy(rows.times, snapped)
    return MetricShardResult(sums={}, counts=rows.counts, flows=flows)


def _occupancy_metric(
    db: TraceDB,
    shards,
    backend,
    rng=None,
    source=None,
    batched: bool = True,
    start: int | None = None,
    end: int | None = None,
) -> MetricShardResult:
    """Plan ``db``'s users, fold every shard's occupancy counters, and merge."""
    users = sorted(db.users())
    if not users:
        raise DataError("window contains no observations")
    plan = ShardPlan.build(users, 1 if shards is None else shards, rng=rng)
    row_users, times, cells = db.to_arrays()
    window = np.ones(len(times), dtype=bool)
    if start is not None:
        window &= times >= start
    if end is not None:
        window &= times <= end
    tasks = [
        _OccupancyShardTask(source, rows, batched)
        for rows in shard_rows(plan, row_users[window], times[window], cells[window])
    ]
    return sharded_metric(_score_occupancy_shard, tasks, backend=backend)


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

    With ``shards=None`` and ``backend=None`` (the default) this is the
    deterministic co-location loop below, the oracle the occupancy path is
    tested against.  Either argument routes the count over a per-user
    :class:`~repro.engine.sharding.ShardPlan` (``shards`` default 1) on the
    named :class:`~repro.engine.backends.ExecutionBackend`, folding
    epoch-keyed occupancy counters exactly — the estimator draws no
    randomness, so that value **equals the loop exactly** at any shard
    count.
    """
    if shards is None and backend is None:
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
    # The estimator draws no randomness; the plan's per-user seeds are
    # unused, so a fixed parent seed keeps the plan itself deterministic.
    merged = _occupancy_metric(db, shards, backend, rng=0, start=start, end=end)
    return _occupancy_rate(merged.flows["true_occupancy"], merged.n_releases)


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
    monitoring, analysis, tracing baselines — consumes.  Each user's
    check-ins are released on their own stream from a one-shard
    :class:`~repro.engine.sharding.ShardPlan` over the sorted users, in one
    ``release_batch(streams=)`` call, so the result equals the
    ``released_db`` that
    :func:`~repro.server.pipeline.run_release_rounds_batched` stores for
    the same seed, at every check-in.
    """
    if mechanism.world != world:
        raise ValidationError("mechanism was built for a different world")
    released = TraceDB()
    if len(db) == 0:
        return released
    plan = ShardPlan.build(sorted(db.users()), 1, rng=rng)
    (rows,) = shard_rows(plan, *db.to_arrays())
    released.record_many(
        rows.row_users, rows.times, world.snap_batch(rows.release_points(mechanism))
    )
    return released


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

    The perturbed copy is the stream the server stores for this seed (see
    :func:`perturb_tracedb`), so ``R0_perturbed`` equals
    ``estimate_r0_contacts`` over that stream.  The population is scored
    over a per-user :class:`~repro.engine.sharding.ShardPlan` (``shards``
    default 1) on an :class:`~repro.engine.backends.ExecutionBackend`
    (``backend`` default serial), folding epoch-keyed occupancy counters
    exactly, so the triple is **bit-identical for every shard count and
    backend**.  ``batched=False`` runs the scalar per-release reference
    loop on the same per-user streams.
    """
    check_probability("p_transmit", p_transmit)
    check_positive("gamma", gamma)
    # Workers score against the release source's own world; refuse a
    # mechanism built for another world instead of scoring the wrong grid.
    if mechanism.world != world:
        raise ValidationError("mechanism was built for a different world")
    merged = _occupancy_metric(
        true_db, shards, backend, rng=rng, source=EngineRef.wrap(mechanism), batched=batched
    )
    # The perturbed copy keeps every (user, time) key, so one observation
    # total serves both estimators.
    observations = merged.n_releases
    r0_true = p_transmit * _occupancy_rate(merged.flows["true_occupancy"], observations) / gamma
    r0_perturbed = (
        p_transmit * _occupancy_rate(merged.flows["perturbed_occupancy"], observations) / gamma
    )
    return r0_true, r0_perturbed, abs(r0_true - r0_perturbed)
