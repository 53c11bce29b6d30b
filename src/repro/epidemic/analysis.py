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
:func:`~repro.server.pipeline.run_release_rounds_batched` spawns them.
:func:`r0_estimation_error` folds those releases through the live view the
server keeps for such a run (:class:`~repro.server.live_metrics.ContactRateView`)
and returns its value at the last round.  The view counts **epoch-keyed
occupancy** (``(time, cell) -> head count``) and rests on a counting
identity: the number of co-located unordered pairs at one ``(time, cell)``
epoch is ``n * (n - 1) / 2`` where ``n`` is the occupancy, so per-shard head
counts, which add exactly, reassemble the global pair count without ever
enumerating a cross-shard pair.  The result is bit-identical for every
shard count and backend.  :func:`contact_rate` draws no randomness; its
co-location loop is the oracle the occupancy arithmetic is tested against.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.core.mechanisms.base import Mechanism
from repro.engine.sharding import ShardPlan, shard_rows
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


def contact_rate(
    db: TraceDB,
    start: int | None = None,
    end: int | None = None,
) -> float:
    """Mean co-locations per user per timestep.

    The numerator counts each co-located unordered pair once per timestep and
    attributes it to both members (factor 2); the denominator is the number
    of (user, time) observations in the window.

    This deterministic co-location loop is the oracle the occupancy
    arithmetic of :class:`~repro.server.live_metrics.ContactRateView` (and
    so :func:`r0_estimation_error`) is tested against.
    """
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
    ``estimate_r0_contacts`` over that stream.  The releases are folded
    through :class:`~repro.server.live_metrics.ContactRateView` over a
    per-user :class:`~repro.engine.sharding.ShardPlan` (``shards`` default
    1) on an :class:`~repro.engine.backends.ExecutionBackend` (``backend``
    default serial): the first two entries are the view's ``r0_true`` and
    ``r0_observed`` at the last round, the values ``metrics_at`` of the
    live run with the same seed reports.  Pair counts are integers, so the
    triple is **bit-identical for every shard count and backend**.
    ``batched=False`` runs the scalar per-release reference loop on the
    same per-user streams.
    """
    from repro.server.live_metrics import ContactRateView, _final_value

    view = ContactRateView(p_transmit=p_transmit, gamma=gamma)
    contacts = _final_value(view, world, mechanism, true_db, rng, batched, shards, backend)
    return contacts.r0_true, contacts.r0_observed, abs(contacts.r0_true - contacts.r0_observed)
