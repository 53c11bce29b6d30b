"""Location monitoring: coarse-grained movement understanding (Fig. 3, App 1).

The monitoring app aggregates released locations into coarse areas ("cities
or provinces"), tracks inter-area flows, and reports the utility metrics of
the demo's first evaluation: per-release Euclidean error, area classification
accuracy, and L1 flow error against the true traces.

The scorer is batch-first: :func:`monitoring_utility` perturbs the whole
trace database through one :meth:`~repro.core.mechanisms.Mechanism.release_batch`
call and aggregates every metric with NumPy (inter-area flows via
``np.unique`` over area-pair codes).  The batched path consumes the same
seeded RNG stream as the scalar loop, so both paths score identically;
``batched=False`` keeps the per-check-in reference loop.

The scorer also scales *across users*: ``monitoring_utility(...,
shards=k, backend="pool")`` partitions the population with the same
deterministic :class:`~repro.engine.sharding.ShardPlan` the release
pipeline uses (per-**user** RNG streams over the sorted user list), scores
each shard independently, and merges per-shard
:class:`~repro.engine.distributed.MetricShardResult` pieces exactly —
so the report is bit-identical for every shard count and execution backend.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.core.mechanisms.base import Mechanism
from repro.errors import DataError
from repro.geo.distance import euclidean
from repro.geo.grid import GridWorld
from repro.mobility.trajectory import TraceDB
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_integer

__all__ = ["LocationMonitor", "MonitoringReport", "monitoring_utility", "perturbed_flows"]


@dataclass(frozen=True)
class MonitoringReport:
    """Utility of a monitored (perturbed) trace against the truth.

    Attributes
    ----------
    mean_euclidean_error:
        Average distance between released points and true cell centres —
        the paper's headline utility metric.
    area_accuracy:
        Fraction of releases whose snapped cell falls in the true coarse
        area (what the inter-city monitor actually consumes).
    flow_l1_error:
        L1 distance between true and observed inter-area flow counts,
        normalised by the total true flow.
    n_releases:
        Number of (user, time) releases scored.
    """

    mean_euclidean_error: float
    area_accuracy: float
    flow_l1_error: float
    n_releases: int


class LocationMonitor:
    """Aggregates releases into coarse-area counts and flows."""

    def __init__(self, world: GridWorld, block_rows: int, block_cols: int) -> None:
        self.world = world
        self.block_rows = check_integer("block_rows", block_rows, minimum=1)
        self.block_cols = check_integer("block_cols", block_cols, minimum=1)

    @property
    def n_areas(self) -> int:
        """Number of coarse areas in this monitor's tiling."""
        return self.world.n_areas(self.block_rows, self.block_cols)

    def area_of_cell(self, cell: int) -> int:
        return self.world.area_of(cell, self.block_rows, self.block_cols)

    def area_of_batch(self, cells) -> np.ndarray:
        """Vectorized :meth:`area_of_cell` over a flat array of cell ids."""
        return self.world.area_of_batch(cells, self.block_rows, self.block_cols)

    def area_counts(self, db: TraceDB, time: int) -> Counter:
        """Occupancy per coarse area at ``time`` (the monitoring dashboard)."""
        snapshot = db.at_time(time)
        if not snapshot:
            return Counter()
        areas = self.area_of_batch(list(snapshot.values()))
        uniques, counts = np.unique(areas, return_counts=True)
        return Counter(dict(zip(uniques.tolist(), counts.tolist())))

    def flows(self, db: TraceDB) -> Counter:
        """Inter-area movement counts over consecutive timesteps.

        A flow is a user present at times ``t`` and ``t+1`` whose areas
        differ; same-area steps are recorded under ``(area, area)`` so that
        stay-put mass is also comparable.
        """
        users, times, cells = db.to_arrays()
        return self.flows_from_arrays(users, times, cells)

    def flows_from_arrays(self, users: np.ndarray, times: np.ndarray, cells: np.ndarray) -> Counter:
        """:meth:`flows` over a structure-of-arrays trace view.

        The arrays must be grouped by user with times ascending within each
        user (the :meth:`~repro.mobility.trajectory.TraceDB.to_arrays`
        layout), so user transitions are adjacent rows.  Counting is one
        ``np.unique`` over ``src_area * n_areas + dst_area`` codes — no
        Python loop over check-ins.
        """
        if len(users) < 2:
            return Counter()
        step = (users[1:] == users[:-1]) & (times[1:] == times[:-1] + 1)
        if not step.any():
            return Counter()
        src = self.area_of_batch(cells[:-1][step])
        dst = self.area_of_batch(cells[1:][step])
        return self.flows_from_codes(src * self.n_areas + dst)

    def flows_between(self, src_cells, dst_cells) -> Counter:
        """Inter-area flow counts for aligned consecutive-step cell pairs.

        ``src_cells[i]`` / ``dst_cells[i]`` are one user's cells at times
        ``t`` and ``t + 1`` — the caller has already matched the rows (the
        live-metric fold pairs each round's rows with the previous round's
        per user).  Counting matches :meth:`flows_from_arrays` restricted to
        those steps exactly: same area coding, same Counter values.
        """
        src_cells = np.asarray(src_cells, dtype=int)
        dst_cells = np.asarray(dst_cells, dtype=int)
        if src_cells.shape != dst_cells.shape:
            raise DataError(
                f"flow endpoints of shapes {src_cells.shape} / "
                f"{dst_cells.shape} are not aligned"
            )
        if src_cells.size == 0:
            return Counter()
        src = self.area_of_batch(src_cells)
        dst = self.area_of_batch(dst_cells)
        return self.flows_from_codes(src * self.n_areas + dst)

    def flows_from_codes(self, codes, mask=None) -> Counter:
        """:meth:`flows` from precomputed area-pair codes.

        ``codes[i] = src_area * n_areas + dst_area`` — exactly what the
        fused release pipeline emits
        (:meth:`~repro.engine.PrivacyEngine.release_round_fused` fills
        ``FusedRound.flow_codes`` / ``flow_mask``), so a fused round feeds
        the monitor without re-deriving areas.  ``mask`` selects the codes
        to count (the consecutive-same-user steps); ``None`` counts them
        all.  Counting is identical to :meth:`flows_from_arrays` on the
        equivalent trace.
        """
        codes = np.asarray(codes)
        if mask is not None:
            codes = codes[np.asarray(mask, dtype=bool)]
        flows: Counter = Counter()
        if codes.size == 0:
            return flows
        n_areas = self.n_areas
        uniques, counts = np.unique(codes, return_counts=True)
        for code, count in zip(uniques.tolist(), counts.tolist()):
            flows[(code // n_areas, code % n_areas)] = count
        return flows


def _flow_l1_error(true_flows: Counter, observed_flows: Counter) -> float:
    keys = set(true_flows) | set(observed_flows)
    l1 = sum(abs(true_flows.get(key, 0) - observed_flows.get(key, 0)) for key in keys)
    total_true_flow = sum(true_flows.values())
    return l1 / total_true_flow if total_true_flow else 0.0


def monitoring_utility(
    world: GridWorld,
    mechanism: Mechanism,
    true_db: TraceDB,
    block_rows: int = 4,
    block_cols: int = 4,
    rng=None,
    batched: bool = True,
    shards: int | None = None,
    backend=None,
) -> MonitoringReport:
    """Release every check-in of ``true_db`` and score monitoring utility.

    This is experiment E1's inner loop: perturb each true location with
    ``mechanism``, then compare Euclidean error, coarse-area agreement, and
    inter-area flows.

    Parameters
    ----------
    world:
        Location universe (also the snapping grid for area agreement).
    mechanism:
        The release mechanism to score.  A spec-built
        :class:`~repro.engine.PrivacyEngine` is also accepted — recommended
        with ``backend="pool"``, where shard tasks then ship a spec hash
        (:class:`~repro.engine.EngineRef`) instead of pickled construction
        state.
    true_db:
        Ground-truth traces (must be non-empty).
    block_rows / block_cols:
        Coarse-area tiling of the monitor.
    rng:
        Seed source.  Unsharded runs consume it as one stream over the
        check-ins in :meth:`~repro.mobility.trajectory.TraceDB.to_arrays`
        order; sharded runs spawn one child stream per *user* from it
        (the release pipeline's layout).
    batched:
        ``True`` (default) scores via vectorized ``release_batch`` draws;
        ``False`` runs the scalar per-release reference loop.  Both consume
        the same seeded stream(s), so the two modes agree to float
        round-off in either layout.
    shards / backend:
        ``None`` / ``None`` (default) keeps the single-process paths above.
        Providing either routes scoring over a deterministic
        :class:`~repro.engine.sharding.ShardPlan` with per-user streams and
        the named :class:`~repro.engine.backends.ExecutionBackend` —
        output is then **bit-identical for every shard count and backend**
        (exact merge, see :mod:`repro.engine.distributed`), though not
        equal to the unsharded single-stream run (the two layouts consume
        ``rng`` differently, exactly as in the release pipeline).

    Returns
    -------
    MonitoringReport
        Mean Euclidean error, area accuracy, flow L1 error, release count.
    """
    if len(true_db) == 0:
        raise DataError("true trace database is empty")
    if shards is not None or backend is not None:
        return _monitoring_utility_sharded(
            world,
            mechanism,
            true_db,
            block_rows,
            block_cols,
            rng=rng,
            batched=batched,
            shards=1 if shards is None else int(shards),
            backend=backend,
        )
    generator = ensure_rng(rng)
    monitor = LocationMonitor(world, block_rows, block_cols)

    if not batched:
        return _monitoring_utility_scalar(world, mechanism, true_db, monitor, generator)

    users, times, cells = true_db.to_arrays()
    batch = mechanism.release_batch(cells, rng=generator)
    released_cells = world.snap_batch(batch.points)
    centres = world.coords_array(cells)
    errors = np.hypot(
        batch.points[:, 0] - centres[:, 0], batch.points[:, 1] - centres[:, 1]
    )
    area_hits = int(
        np.count_nonzero(monitor.area_of_batch(released_cells) == monitor.area_of_batch(cells))
    )
    count = len(cells)

    true_flows = monitor.flows_from_arrays(users, times, cells)
    observed_flows = monitor.flows_from_arrays(users, times, released_cells)
    return MonitoringReport(
        mean_euclidean_error=float(errors.sum()) / count,
        area_accuracy=area_hits / count,
        flow_l1_error=_flow_l1_error(true_flows, observed_flows),
        n_releases=count,
    )


def _monitoring_utility_scalar(
    world: GridWorld,
    mechanism: Mechanism,
    true_db: TraceDB,
    monitor: LocationMonitor,
    generator,
) -> MonitoringReport:
    """Per-check-in reference loop (the protocol as one client experiences it)."""
    released_db = TraceDB()
    total_error = 0.0
    area_hits = 0
    count = 0
    for checkin in true_db.checkins():
        release = mechanism.release(checkin.cell, rng=generator)
        released_cell = world.snap(release.point)
        released_db.record(checkin.user, checkin.time, released_cell)
        total_error += euclidean(release.point, world.coords(checkin.cell))
        if monitor.area_of_cell(released_cell) == monitor.area_of_cell(checkin.cell):
            area_hits += 1
        count += 1

    return MonitoringReport(
        mean_euclidean_error=total_error / count,
        area_accuracy=area_hits / count,
        flow_l1_error=_flow_l1_error(monitor.flows(true_db), monitor.flows(released_db)),
        n_releases=count,
    )


# ----------------------------------------------------------------------
# Shard-parallel path (E1 over ShardPlan + ExecutionBackend)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _MonitorShardTask:
    """One shard's monitoring workload: its users, streams, and traces.

    Plain data plus the release source, so the pool backend can pickle it;
    ``source`` is an :class:`~repro.engine.EngineRef` for spec-built engines
    (workers rebuild and cache by spec hash) or the live mechanism.
    ``times[i]`` / ``cells[i]`` are user ``users[i]``'s check-ins in time
    order — the user-major layout whose per-user blocks concatenate back
    into :meth:`TraceDB.to_arrays` order.
    """

    source: object
    block_rows: int
    block_cols: int
    users: tuple[int, ...]
    seeds: tuple[int, ...]
    times: tuple[tuple[int, ...], ...]
    cells: tuple[tuple[int, ...], ...]
    batched: bool


def _score_monitor_shard(task: _MonitorShardTask):
    """Score one shard's users on their own streams; module-level for pickling.

    Per user: their whole trace is released from their own seed stream
    (one vectorized ``release_batch`` call, or the scalar per-release loop
    when ``task.batched`` is false — same stream, so same points to float
    identity).  Returns a :class:`~repro.engine.distributed.MetricShardResult`
    with per-user error / area-hit sums (weighted-mean components) and the
    shard's true/observed flow counters (flows are within-user transitions,
    so per-user sharding partitions them exactly).
    """
    from repro.engine import resolve_release_source
    from repro.engine.distributed import MetricShardResult

    source = resolve_release_source(task.source)
    world = source.world
    monitor = LocationMonitor(world, task.block_rows, task.block_cols)
    n_users = len(task.users)
    n_rows = sum(len(cells) for cells in task.cells)

    users_rows = np.empty(n_rows, dtype=int)
    times_rows = np.empty(n_rows, dtype=int)
    cells_rows = np.empty(n_rows, dtype=int)
    points = np.empty((n_rows, 2), dtype=float)
    error_sums = np.empty(n_users, dtype=float)
    hit_sums = np.empty(n_users, dtype=float)
    counts = np.empty(n_users, dtype=int)

    offset = 0
    for index, (user, seed, user_times, user_cells) in enumerate(
        zip(task.users, task.seeds, task.times, task.cells)
    ):
        generator = np.random.default_rng(seed)
        stop = offset + len(user_cells)
        if task.batched:
            batch = source.release_batch(list(user_cells), rng=generator)
            points[offset:stop] = batch.points
        else:  # scalar reference: same stream, one release() per check-in
            for row, cell in enumerate(user_cells, start=offset):
                points[row] = source.release(cell, rng=generator).point
        users_rows[offset:stop] = user
        times_rows[offset:stop] = user_times
        cells_rows[offset:stop] = user_cells

        centres = world.coords_array(np.asarray(user_cells, dtype=int))
        errors = np.hypot(
            points[offset:stop, 0] - centres[:, 0],
            points[offset:stop, 1] - centres[:, 1],
        )
        error_sums[index] = errors.sum()
        counts[index] = stop - offset
        offset = stop

    released_cells = world.snap_batch(points)
    hits = monitor.area_of_batch(released_cells) == monitor.area_of_batch(cells_rows)
    # Per-user hit counts: rows are user-major, so reduce per contiguous block.
    bounds = np.concatenate(([0], np.cumsum(counts)))
    for index in range(n_users):
        hit_sums[index] = np.count_nonzero(hits[bounds[index] : bounds[index + 1]])

    return MetricShardResult(
        sums={"error": error_sums, "area_hits": hit_sums},
        counts=counts,
        flows={
            "true": monitor.flows_from_arrays(users_rows, times_rows, cells_rows),
            "observed": monitor.flows_from_arrays(users_rows, times_rows, released_cells),
        },
    )


def _monitor_shard_tasks(
    world: GridWorld,
    mechanism,
    true_db: TraceDB,
    block_rows: int,
    block_cols: int,
    plan,
    batched: bool,
) -> list[_MonitorShardTask]:
    """One picklable :class:`_MonitorShardTask` per non-empty plan shard.

    Shared by the E1 report and the E11 flow pipeline so both score through
    the exact same shard layout (and the same worker-side engine cache).
    Workers score against the release source's own world; a mismatched
    explicit world is refused instead of silently diverging from the
    unsharded path (which uses the passed world throughout).
    """
    from repro.engine import EngineRef
    from repro.errors import ValidationError

    if mechanism.world != world:
        raise ValidationError("mechanism was built for a different world")
    source = EngineRef.wrap(mechanism)
    tasks = []
    for _, users, seeds in plan.iter_shards():
        histories = [true_db.user_history(user) for user in users]
        tasks.append(
            _MonitorShardTask(
                source=source,
                block_rows=block_rows,
                block_cols=block_cols,
                users=users,
                seeds=seeds,
                times=tuple(tuple(c.time for c in history) for history in histories),
                cells=tuple(tuple(c.cell for c in history) for history in histories),
                batched=batched,
            )
        )
    return tasks


def _monitoring_utility_sharded(
    world: GridWorld,
    mechanism,
    true_db: TraceDB,
    block_rows: int,
    block_cols: int,
    rng,
    batched: bool,
    shards: int,
    backend,
) -> MonitoringReport:
    """E1 over ``ShardPlan`` + ``ExecutionBackend`` (see ``monitoring_utility``)."""
    from repro.engine import ShardPlan
    from repro.engine.distributed import sharded_metric

    plan = ShardPlan.build(sorted(true_db.users()), shards, rng=rng)
    tasks = _monitor_shard_tasks(world, mechanism, true_db, block_rows, block_cols, plan, batched)
    merged = sharded_metric(_score_monitor_shard, tasks, backend=backend)
    return MonitoringReport(
        mean_euclidean_error=merged.weighted_mean("error"),
        area_accuracy=merged.weighted_mean("area_hits"),
        flow_l1_error=_flow_l1_error(merged.flows["true"], merged.flows["observed"]),
        n_releases=merged.n_releases,
    )


def perturbed_flows(
    world: GridWorld,
    mechanism,
    true_db: TraceDB,
    block_rows: int = 4,
    block_cols: int = 4,
    rng=None,
    batched: bool = True,
    shards: int | None = None,
    backend=None,
) -> tuple[Counter, Counter]:
    """``(true_flows, observed_flows)`` inter-area counters for E11.

    The metapopulation forecast pipeline's input: release every check-in of
    ``true_db`` through ``mechanism`` and count inter-area transitions on
    both the true and the released (snapped) stream.  ``true_flows`` is
    deterministic; ``observed_flows`` depends on the draws.

    With ``shards=`` / ``backend=`` the population fans out over the same
    per-user :class:`~repro.engine.sharding.ShardPlan` layout as the E1
    report (flows are within-user transitions, so per-shard counters
    partition the global counters and merge by exact Counter addition) —
    both counters are then **bit-identical for every shard count and
    backend**, though on the per-user-stream layout rather than the
    unsharded single stream.  ``batched=False`` runs the scalar per-release
    reference loop on whichever layout is selected.
    """
    if len(true_db) == 0:
        raise DataError("true trace database is empty")
    if shards is not None or backend is not None:
        from repro.engine import ShardPlan
        from repro.engine.distributed import sharded_metric

        plan = ShardPlan.build(
            sorted(true_db.users()), 1 if shards is None else int(shards), rng=rng
        )
        tasks = _monitor_shard_tasks(
            world, mechanism, true_db, block_rows, block_cols, plan, batched
        )
        merged = sharded_metric(_score_monitor_shard, tasks, backend=backend)
        return Counter(merged.flows["true"]), Counter(merged.flows["observed"])

    generator = ensure_rng(rng)
    monitor = LocationMonitor(world, block_rows, block_cols)
    users, times, cells = true_db.to_arrays()
    if batched:
        batch = mechanism.release_batch(cells, rng=generator)
        released_cells = world.snap_batch(batch.points)
    else:  # scalar reference: same stream, one release() per check-in
        released_cells = np.array(
            [world.snap(mechanism.release(int(cell), rng=generator).point) for cell in cells],
            dtype=int,
        )
    return (
        monitor.flows_from_arrays(users, times, cells),
        monitor.flows_from_arrays(users, times, released_cells),
    )
