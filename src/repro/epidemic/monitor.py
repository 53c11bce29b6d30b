"""Location monitoring: coarse-grained movement understanding (Fig. 3, App 1).

The monitoring app aggregates released locations into coarse areas ("cities
or provinces"), tracks inter-area flows, and reports the utility metrics of
the demo's first evaluation: per-release Euclidean error, area classification
accuracy, and L1 flow error against the true traces.

:func:`monitoring_utility` and :func:`perturbed_flows` score the stream the
server stores: each user's check-ins are released on that user's own RNG
stream, spawned over the sorted user list exactly as
:func:`~repro.server.pipeline.run_release_rounds_batched` spawns them, and
folded through the live view the server keeps for such a run
(:class:`~repro.server.live_metrics.MonitoringUtilityView`,
:class:`~repro.server.live_metrics.FlowMatrixView`).  Each evaluator returns
the view's value at the last round, which is what ``metrics_at`` of the
live run with the same seed reports, so the value is bit-identical for
every shard count and execution backend.  ``batched=False`` releases with
the per-check-in scalar reference loop on the same streams.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.core.mechanisms.base import Mechanism
from repro.errors import DataError
from repro.geo.grid import GridWorld
from repro.mobility.trajectory import TraceDB
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
        Location universe (also the snapping grid for area agreement); the
        mechanism must have been built for it.
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
        Seed source: one child stream per *user* is spawned from it, over
        the sorted user list (the release pipeline's layout).
    batched:
        ``True`` (default) releases each shard in one
        ``release_batch(streams=)`` call; ``False`` runs the scalar
        per-release reference loop on the same per-user streams, so the two
        modes agree to float round-off.
    shards / backend:
        Shard count (default 1) and
        :class:`~repro.engine.backends.ExecutionBackend` (default serial)
        of the :class:`~repro.engine.sharding.ShardPlan` the users are
        released over.  The report is
        :class:`~repro.server.live_metrics.MonitoringUtilityView`'s value
        at the last round, so it is **bit-identical for every shard count
        and backend** (the view's fold order does not depend on either).

    Returns
    -------
    MonitoringReport
        Mean Euclidean error, area accuracy, flow L1 error, release count.
    """
    from repro.server.live_metrics import MonitoringUtilityView, _final_value

    view = MonitoringUtilityView(world, block_rows, block_cols)
    return _final_value(view, world, mechanism, true_db, rng, batched, shards, backend)


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

    Scoring follows :func:`monitoring_utility`: per-user streams over a
    :class:`~repro.engine.sharding.ShardPlan` (``shards`` default 1,
    ``backend`` default serial), folded through
    :class:`~repro.server.live_metrics.FlowMatrixView`, so
    ``observed_flows`` equals ``LocationMonitor.flows`` of the stream
    :func:`~repro.server.pipeline.run_release_rounds_batched` stores for the
    same seed.  The counters are integer sums, so both are
    **bit-identical for every shard count and backend**.
    ``batched=False`` runs the scalar per-release reference loop.
    """
    from repro.server.live_metrics import FlowMatrixView, _final_value

    view = FlowMatrixView(world, block_rows, block_cols)
    flows = _final_value(view, world, mechanism, true_db, rng, batched, shards, backend)
    return flows.true_flows, flows.observed_flows
