"""Live incremental metric maintenance on the ingest path (HTAP views).

The repo splits a transactional release path (shard commits through
:meth:`~repro.server.pipeline.Server.ingest_shard`) from an analytical eval
path (the E1–E12 runners) — but until now analytics recomputed from scratch
after ingestion finished.  Polynesia's HTAP argument (PAPERS.md) is that
updates should propagate into analytical state in memory, with consistency
snapshots, instead of re-scanning the population per query.  This module is
that propagation layer: every committed shard is folded into running E1
(monitoring utility), E2 (contact rate / R0) and E11 (flow matrix) state
while commits continue.  The E1, E2 and E11 evaluators
(:func:`~repro.epidemic.monitor.monitoring_utility`,
:func:`~repro.epidemic.analysis.r0_estimation_error`,
:func:`~repro.epidemic.monitor.perturbed_flows`) are these views too: each
folds its own release stream into a one-view registry and returns the
last round's value.

Snapshot semantics
------------------
``metrics_at(round=r)`` is **cumulative**: it covers every committed release
row with ``time <= r``, exactly what a batch evaluator scoring the prefix
trace would see.  Each view keeps one running state per registry
(:class:`LiveFold`).  A commit parks the shard's per-round deltas — the
round blocks' ``cells`` records and the flows' area-pair codes, read from
the commit's :class:`~repro.store.prepared.PreparedShard`, which derives
each of them once for the store and every view, plus per-row float terms —
and a round freezes as soon as every shard expected at (or before) it has
committed.  Freezing folds only that round's deltas into the running state,
so upkeep is O(round delta), never O(prefix).  A query is one dictionary
lookup, O(1) in the population, safe to call concurrently with in-flight
commits.  Querying a round whose coverage is still incomplete raises
:class:`~repro.errors.SnapshotUnavailableError` — a half-folded value would
break the bit-identity contract below — naming the shards still missing.

Bit-identity contract
---------------------
Every frozen live value equals :func:`batch_recompute` — each view's
:meth:`~LiveMetricView.reference`, computed from scratch over the whole
run's rows in ``(time, user)`` order — **bitwise**, at every round, for
every shard count, execution backend, commit arrival order, and across a
kill-and-resume.  Three properties make this hold:

* deltas are pure functions of a shard's rows: the fold reads them from a
  :class:`~repro.store.prepared.PreparedShard`, which orders the rows by
  ``(user, time)`` and by ``(time, user)`` whatever layout they arrived in
  (user-major from a live worker, time-major from a store replay), so
  arrival layout cannot leak into the value;
* per-row float terms are appended to one buffer per component in the
  canonical order — rounds ascending, shards ascending within a round,
  users ascending within a shard — regardless of the order commits
  *arrive* in, and each value is one ``np.sum`` over the buffer's prefix:
  the identical array the reference sums (a prefix of the run's
  ``(time, user)``-ordered terms, because shards hold ascending user
  ranges), so the identical bits (``np.sum`` is pairwise; order is part
  of the bit pattern);
* count-valued components (flow matrices, pair-event and observation
  totals) are integers merged by addition, which no ordering can perturb.
  Occupancy keys are ``(time, cell)``, so a round's pair events are final
  once its shards' head counts are merged.

``tests/test_live_metrics.py`` pins the matrix; ``docs/live_metrics.md``
documents the contract.
"""

from __future__ import annotations

import threading
from collections import Counter
from contextlib import closing
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, AbstractSet, Iterator, Mapping, Sequence

import numpy as np

from repro.engine.sharding import ShardPlan, shard_rows, stream_shard_releases
from repro.epidemic.analysis import pair_events
from repro.epidemic.monitor import LocationMonitor, MonitoringReport
from repro.errors import DataError, SnapshotUnavailableError, ValidationError
from repro.geo.grid import GridWorld
from repro.store.accelerator import KIND_OBSERVED, KIND_TRUE
from repro.store.prepared import PreparedShard
from repro.store.resume import Coverage
from repro.utils.validation import check_bool, check_integer, check_positive, check_probability

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.mobility.trajectory import TraceDB

__all__ = [
    "ContactRateView",
    "ContactSnapshot",
    "FlowMatrixView",
    "FlowSnapshot",
    "LiveFold",
    "LiveMetricRegistry",
    "LiveMetricView",
    "MonitoringUtilityView",
    "batch_recompute",
    "default_views",
    "expected_coverage",
]


def _runs(values: np.ndarray) -> Iterator[tuple[int, int, int]]:
    """``(value, start, stop)`` of each run of equal values in a sorted array."""
    if len(values) == 0:
        return
    bounds = [0, *(np.flatnonzero(values[1:] != values[:-1]) + 1).tolist(), len(values)]
    for start, stop in zip(bounds, bounds[1:]):
        yield int(values[start]), start, stop


class LiveFold:
    """One view's running state inside one registry (the live protocol).

    The registry calls :meth:`add` once per committed shard, in arrival
    order, and :meth:`freeze` once per round, ascending, after every shard
    with rows at or before that round has been added.  ``freeze`` returns
    the view's cumulative value through the round and must cost only that
    round's delta.  Both run under the registry lock.
    """

    def add(self, shard: int, prepared: PreparedShard) -> None:
        """Park one shard's per-round deltas (a pure function of its rows).

        Keep only the arrays the fold needs, never ``prepared`` itself.
        """
        raise NotImplementedError

    def freeze(self, time: int):
        """Fold round ``time``'s parked deltas; return the cumulative value."""
        raise NotImplementedError


class LiveMetricView:
    """One incrementally maintained metric, with its from-scratch reference.

    Two halves share one definition of the value:

    * the **live** half, :meth:`live_fold`, returns a fresh
      :class:`LiveFold` — the running state the registry feeds at every
      commit and freezes round by round;
    * the **reference** half, :meth:`reference`, computes the value at
      every round from the whole run's rows at once; :func:`batch_recompute`
      calls it.

    The registry owns ordering, freezing, and snapshot bookkeeping, so a
    view never sees commit concurrency.
    """

    name: str

    def live_fold(self) -> LiveFold:
        """Fresh running state for one registry."""
        raise NotImplementedError

    def reference(self, rows: PreparedShard) -> dict[int, object]:
        """``round -> value`` at every round of ``rows``, from scratch.

        ``rows`` are the whole run's rows; the references read them in
        canonical ``(time, user)`` order (``rows.canonical``).  The value at
        round ``r`` covers every row with ``time <= r``.
        """
        raise NotImplementedError


class _PrefixSums:
    """Append-only float64 buffer whose total is one ``np.sum`` over its prefix."""

    def __init__(self) -> None:
        self._values = np.empty(0, dtype=float)
        self._size = 0

    def extend(self, values: np.ndarray) -> None:
        end = self._size + len(values)
        if end > len(self._values):
            grown = np.empty(max(end, 2 * len(self._values)), dtype=float)
            grown[: self._size] = self._values[: self._size]
            self._values = grown
        self._values[self._size : end] = values
        self._size = end

    def total(self) -> float:
        return float(self._values[: self._size].sum())


class _FlowFold(LiveFold):
    """Cumulative true / observed inter-area flow matrices at one tiling.

    :meth:`add` parks a shard's area-pair codes under their destination
    round (:meth:`PreparedShard.area_flows
    <repro.store.prepared.PreparedShard.area_flows>`, regrouped once per
    tiling for every view that folds it); :meth:`advance` adds one round's
    codes into two dense ``n_areas ** 2`` int64 matrices.  E11 freezes them
    as Counters; E1 reads their L1 distance.
    """

    def __init__(self, monitor: LocationMonitor) -> None:
        self._monitor = monitor
        self.n_areas = monitor.n_areas
        self.true = np.zeros(self.n_areas * self.n_areas, dtype=np.int64)
        self.observed = np.zeros_like(self.true)
        self._pending: dict[int, list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}

    def add(self, shard: int, prepared: PreparedShard) -> None:
        monitor = self._monitor
        for matrix, kind in ((self.true, KIND_TRUE), (self.observed, KIND_OBSERVED)):
            for time, codes, counts in prepared.area_flows(
                kind, monitor.world, monitor.block_rows, monitor.block_cols
            ):
                self._pending.setdefault(time, []).append((matrix, codes, counts))

    def advance(self, time: int) -> None:
        for matrix, codes, counts in self._pending.pop(time, ()):
            np.add.at(matrix, codes, counts)

    def _counter(self, matrix: np.ndarray) -> Counter:
        codes = np.flatnonzero(matrix)
        n = self.n_areas
        pairs = zip(codes.tolist(), matrix[codes].tolist())
        return Counter({(code // n, code % n): count for code, count in pairs})

    def freeze(self, time: int) -> "FlowSnapshot":
        self.advance(time)
        return FlowSnapshot(
            true_flows=self._counter(self.true),
            observed_flows=self._counter(self.observed),
        )


def _cumulative_flows(
    monitor: LocationMonitor, rows: PreparedShard
) -> Iterator[tuple[int, int, Counter, Counter]]:
    """``(round, stop, true flows, observed flows)`` through each round of ``rows``.

    The references' flow pairing, shared by E1 and E11: each user present
    at rounds ``t - 1`` and ``t`` adds one inter-area transition at round
    ``t``, so the counters yielded at round ``r`` hold exactly the
    transitions a prefix trace holds; ``stop`` ends the round's rows.  The
    two counters are running totals, updated in place by the next step.
    """
    true, observed = Counter(), Counter()
    canonical = rows.canonical
    previous: tuple[int, int, int] | None = None  # (round, start, stop)
    for time, start, stop in rows.round_slices:
        if previous is not None and previous[0] == time - 1:
            p_start, p_stop = previous[1], previous[2]
            _, prev_index, cur_index = np.intersect1d(
                canonical.users[p_start:p_stop],
                canonical.users[start:stop],
                assume_unique=True,
                return_indices=True,
            )
            for flows, cells in ((true, canonical.true_cells), (observed, canonical.cells)):
                flows.update(
                    monitor.flows_between(
                        cells[p_start:p_stop][prev_index], cells[start:stop][cur_index]
                    )
                )
        yield time, stop, true, observed
        previous = (time, start, stop)


class _MonitoringFold(LiveFold):
    def __init__(self, view: "MonitoringUtilityView") -> None:
        self._view = view
        self._errors = _PrefixSums()
        self._hits = _PrefixSums()
        self._n_releases = 0
        self._flows = _FlowFold(view.monitor)
        #: round -> shard -> (errors, hits) slices, appended shard-ascending
        self._pending: dict[int, dict[int, tuple[np.ndarray, np.ndarray]]] = {}

    def add(self, shard: int, prepared: PreparedShard) -> None:
        errors, hits = self._view.row_terms(prepared)
        for time, start, stop in prepared.round_slices:
            self._pending.setdefault(time, {})[shard] = (errors[start:stop], hits[start:stop])
        self._flows.add(shard, prepared)

    def freeze(self, time: int) -> MonitoringReport:
        parts = self._pending.pop(time)
        for shard in sorted(parts):
            errors, hits = parts[shard]
            self._errors.extend(errors)
            self._hits.extend(hits)
            self._n_releases += len(errors)
        flows = self._flows
        flows.advance(time)
        total_true = int(flows.true.sum())
        l1 = int(np.abs(flows.true - flows.observed).sum())
        return MonitoringReport(
            mean_euclidean_error=self._errors.total() / self._n_releases,
            area_accuracy=self._hits.total() / self._n_releases,
            flow_l1_error=l1 / total_true if total_true else 0.0,
            n_releases=self._n_releases,
        )


class MonitoringUtilityView(LiveMetricView):
    """E1 live: mean Euclidean error, area accuracy, flow L1 error.

    Each release contributes one error and one area-hit term
    (:meth:`row_terms`), so the only float reduction is one ``np.sum`` over
    the terms in canonical order; each ``(t-1, t)`` inter-area transition
    counts at its destination round, so the value at round ``r`` counts
    exactly the transitions a prefix trace holds.  Live, the terms append
    to one prefix-sum buffer per component and the flows fold into dense
    area matrices; the reference sums a prefix of the run's terms and
    pairs rounds into flow counters.
    """

    def __init__(
        self,
        world: GridWorld,
        block_rows: int = 4,
        block_cols: int = 4,
        name: str = "monitoring",
    ) -> None:
        self.world = world
        self.monitor = LocationMonitor(world, block_rows, block_cols)
        self.name = str(name)

    def live_fold(self) -> LiveFold:
        return _MonitoringFold(self)

    def row_terms(self, rows: PreparedShard) -> tuple[np.ndarray, np.ndarray]:
        """Per-row ``(Euclidean error, area hit)`` of one shard's canonical rows."""
        monitor = self.monitor
        canonical = rows.canonical
        centres = self.world.coords_array(canonical.true_cells)
        errors = np.hypot(
            canonical.points[:, 0] - centres[:, 0], canonical.points[:, 1] - centres[:, 1]
        )
        hits = (
            monitor.area_of_batch(canonical.cells)
            == monitor.area_of_batch(canonical.true_cells)
        ).astype(float)
        return errors, hits

    def reference(self, rows: PreparedShard) -> dict[int, MonitoringReport]:
        errors, hits = self.row_terms(rows)
        values = {}
        for time, stop, true_flows, observed_flows in _cumulative_flows(self.monitor, rows):
            l1 = sum(
                abs(true_flows[key] - observed_flows[key])
                for key in true_flows.keys() | observed_flows.keys()
            )
            total_true = sum(true_flows.values())
            values[time] = MonitoringReport(
                mean_euclidean_error=float(errors[:stop].sum()) / stop,
                area_accuracy=float(hits[:stop].sum()) / stop,
                flow_l1_error=l1 / total_true if total_true else 0.0,
                n_releases=stop,
            )
        return values


@dataclass(frozen=True)
class ContactSnapshot:
    """E2 live value: contact rates and R0 on the true vs released trace."""

    true_contact_rate: float
    observed_contact_rate: float
    r0_true: float
    r0_observed: float
    n_observations: int


class _ContactFold(LiveFold):
    def __init__(self, view: "ContactRateView") -> None:
        self._view = view
        self._observations = 0
        self._pairs = {KIND_TRUE: 0, KIND_OBSERVED: 0}
        #: round -> kind -> the shards' (cell, n) records
        self._pending: dict[int, dict[int, list[np.ndarray]]] = {}

    def add(self, shard: int, prepared: PreparedShard) -> None:
        for kind in (KIND_TRUE, KIND_OBSERVED):
            for _, time, records in prepared.cell_rows(kind):
                self._pending.setdefault(time, {}).setdefault(kind, []).append(records)

    def freeze(self, time: int) -> ContactSnapshot:
        for kind, parts in self._pending.pop(time).items():
            cells, counts = np.concatenate(parts).astype(np.int64).T
            occupancy = np.zeros(int(cells.max()) + 1, dtype=np.int64)
            np.add.at(occupancy, cells, counts)
            self._pairs[kind] += int((occupancy * (occupancy - 1) // 2).sum())
            if kind == KIND_TRUE:
                self._observations += int(occupancy.sum())
        return self._view.snapshot(
            self._pairs[KIND_TRUE], self._pairs[KIND_OBSERVED], self._observations
        )


class ContactRateView(LiveMetricView):
    """E2 live: epoch-keyed occupancy counts -> contact rate and R0.

    Each round contributes its ``cell -> head count`` occupancies (true
    cells and snapped cells) as integer pair events, so no ordering can
    perturb the totals.  The value runs the same
    estimator as :func:`repro.epidemic.analysis.contact_rate`:
    ``2 * pair_events / observations``, then ``R0 = p * c / gamma`` — the
    arithmetic is integers plus one identical float expression
    (:meth:`snapshot`), which is why the live value equals the batch
    estimator on the prefix trace bitwise, not just approximately.
    """

    def __init__(
        self,
        p_transmit: float = 0.3,
        gamma: float = 0.1,
        name: str = "contacts",
    ) -> None:
        self.p_transmit = check_probability("p_transmit", p_transmit)
        self.gamma = check_positive("gamma", gamma)
        self.name = str(name)

    def live_fold(self) -> LiveFold:
        return _ContactFold(self)

    def reference(self, rows: PreparedShard) -> dict[int, ContactSnapshot]:
        values = {}
        pairs = [0, 0]  # true, observed
        for time, start, stop in rows.round_slices:
            for kind, cells in enumerate((rows.canonical.true_cells, rows.canonical.cells)):
                uniques, counts = np.unique(cells[start:stop], return_counts=True)
                heads = Counter(dict(zip(uniques.tolist(), counts.tolist())))
                pairs[kind] += pair_events(heads)
            values[time] = self.snapshot(pairs[0], pairs[1], stop)
        return values

    def snapshot(self, true_pairs: int, observed_pairs: int, observations: int) -> ContactSnapshot:
        """The E2 value of integer pair-event and observation totals."""
        if observations == 0:
            raise DataError("window contains no observations")
        true_rate = 2.0 * true_pairs / observations
        observed_rate = 2.0 * observed_pairs / observations
        return ContactSnapshot(
            true_contact_rate=true_rate,
            observed_contact_rate=observed_rate,
            r0_true=self.p_transmit * true_rate / self.gamma,
            r0_observed=self.p_transmit * observed_rate / self.gamma,
            n_observations=observations,
        )


@dataclass(frozen=True)
class FlowSnapshot:
    """E11 live value: true vs observed inter-area flow matrices.

    Exactly the ``(true_flows, observed_flows)`` pair
    :func:`repro.epidemic.monitor.perturbed_flows` produces for the
    metapopulation forecast — feed either counter to
    :func:`repro.epidemic.metapop.forecast_from_flows` unchanged.
    """

    true_flows: Counter
    observed_flows: Counter


class FlowMatrixView(LiveMetricView):
    """E11 live: the metapop pipeline's flow matrices at their own tiling."""

    def __init__(
        self,
        world: GridWorld,
        block_rows: int = 4,
        block_cols: int = 4,
        name: str = "flows",
    ) -> None:
        self.monitor = LocationMonitor(world, block_rows, block_cols)
        self.name = str(name)

    def live_fold(self) -> LiveFold:
        return _FlowFold(self.monitor)

    def reference(self, rows: PreparedShard) -> dict[int, FlowSnapshot]:
        return {
            time: FlowSnapshot(true_flows=Counter(true), observed_flows=Counter(observed))
            for time, _, true, observed in _cumulative_flows(self.monitor, rows)
        }


def default_views(
    world: GridWorld,
    block_rows: int = 4,
    block_cols: int = 4,
    p_transmit: float = 0.3,
    gamma: float = 0.1,
) -> list[LiveMetricView]:
    """The standard E1 + E2 + E11 view set over one coarse-area tiling."""
    return [
        MonitoringUtilityView(world, block_rows, block_cols),
        ContactRateView(p_transmit=p_transmit, gamma=gamma),
        FlowMatrixView(world, block_rows, block_cols),
    ]


def _unique_names(views: Sequence[LiveMetricView]) -> tuple[LiveMetricView, ...]:
    """``views`` as a tuple; refuses none, or two sharing a name (values are keyed by name)."""
    views = tuple(views)
    if not views:
        raise ValidationError("need at least one live metric view")
    names = [view.name for view in views]
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate live metric view names: {sorted(names)}")
    return views


def expected_coverage(plan: ShardPlan, true_db: "TraceDB") -> dict[int, frozenset[int]]:
    """``shard -> rounds`` a run over ``(plan, true_db)`` will commit.

    The registry's freeze schedule: a round's snapshot freezes once every
    shard listed for it (or for any earlier round) has committed.  Shards
    with no check-ins are omitted — they never stream a commit.  Read from
    the shards' rows as :func:`~repro.engine.sharding.shard_rows` slices
    them for the release tasks.
    """
    # Sorting and reading the runs is several times faster than np.unique,
    # which hashes plain integer arrays.
    return {
        rows.shard: frozenset(time for time, _, _ in _runs(np.sort(rows.times)))
        for rows in shard_rows(plan, *true_db.to_arrays())
        if len(rows.times)
    }


class LiveMetricRegistry:
    """Per-round frozen metric values, fed at commit time.

    Parameters
    ----------
    views:
        The :class:`LiveMetricView` instances to maintain (unique names).
    expected:
        ``shard -> rounds`` coverage (see :func:`expected_coverage`).  This
        is the freeze schedule *and* a validation oracle: every
        :meth:`ingest` must present exactly its shard's expected rounds.

    The freeze rule is :class:`~repro.store.resume.Coverage`, the one the
    store's readers follow too: a round freezes once every shard expected
    at or before it has committed, and a refusal names the shards
    :meth:`Coverage.missing <repro.store.resume.Coverage.missing>` names —
    so ``metrics_at(r)`` and :meth:`QueryEngine.missing_shards
    <repro.query.QueryEngine.missing_shards>` over the same run refuse the
    same rounds for the same shards.

    Concurrency
    -----------
    :meth:`ingest` runs under the registry lock (commit paths are already
    serialized by the server's ingest lock).  :meth:`at` on a frozen round is a lock-free dictionary
    lookup against immutable published values — O(1) in the population and
    safe during in-flight commits, which is the Polynesia-style snapshot
    read the module docstring describes.
    """

    def __init__(
        self,
        views: Sequence[LiveMetricView],
        expected: Mapping[int, AbstractSet[int]],
    ) -> None:
        self._views = _unique_names(views)
        self._coverage = Coverage(expected)
        if not self._coverage.rounds:
            raise ValidationError("expected coverage is empty; nothing to maintain")
        self._folds = tuple(view.live_fold() for view in self._views)
        self._committed: set[int] = set()
        self._values: dict[int, Mapping[str, object]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def views(self) -> tuple[LiveMetricView, ...]:
        return self._views

    @property
    def rounds(self) -> tuple[int, ...]:
        """Every round the run will produce, ascending."""
        return self._coverage.rounds

    @property
    def frozen_rounds(self) -> tuple[int, ...]:
        """Rounds whose snapshots are already published, ascending."""
        return self._coverage.frozen_rounds

    @property
    def expected(self) -> Mapping[int, frozenset[int]]:
        return self._coverage.schedule

    # ------------------------------------------------------------------
    def check(self, shard: int, prepared: PreparedShard) -> None:
        """Refuse a shard :meth:`ingest` would refuse, before its durable commit.

        The shard must be expected and not yet folded, hold rows with their
        ground-truth cells, and present exactly its expected rounds —
        anything else is a :class:`~repro.errors.DataError` (a silent
        mismatch would surface later as an inexplicable non-frozen round).
        The rows themselves were checked when ``prepared`` was built.  The
        server runs this before its durable commit, so a refused shard
        leaves no trace.  A ``shard`` that is not a Python or numpy int >= 0
        is a :class:`~repro.errors.ValidationError`.
        """
        self._admit(shard, prepared)

    def _admit(self, shard: int, prepared: PreparedShard) -> int:
        """``shard`` as an int, if ``prepared`` may fold as that shard now."""
        if len(prepared) == 0:
            raise DataError("shard has no rows to fold")
        if prepared.canonical.true_cells is None:
            raise DataError("live metric views need the shard's ground-truth cells")
        shard = check_integer("shard", shard, minimum=0)
        owned = self._coverage.schedule.get(shard)
        if owned is None:
            raise DataError(f"shard {shard} is not in the expected coverage")
        if shard in self._committed:
            raise DataError(f"shard {shard} was already folded into the live state")
        observed = frozenset(time for time, _ in prepared.marks)
        if observed != owned:
            raise DataError(
                f"shard {shard} committed rounds {sorted(observed)} but the "
                f"coverage expects {sorted(owned)}"
            )
        return shard

    def ingest(self, shard: int, prepared: PreparedShard) -> None:
        """Fold one committed shard's prepared rows.

        O(shard rows) to park the shard's deltas, plus O(round delta) per
        round the commit completes, which freezes immediately — so neither
        commit nor query cost grows with the population or the horizon.
        The deltas are the ones ``prepared`` derived, shared with the store
        and between views.  Rounds freeze strictly ascending, as the
        coverage frontier passes them: each fold's running state at round
        ``r`` extends its state at ``r-1``, which is what makes the
        canonical fold order (rounds, then shards, then users) independent
        of commit arrival order.  Under the lock it refuses, as
        :meth:`check` does, a shard that is not expected, is already
        folded, or presents other rounds than its scheduled ones.
        """
        with self._lock:
            shard = self._admit(shard, prepared)
            for fold in self._folds:
                fold.add(shard, prepared)
            self._committed.add(shard)
            for time in self._coverage.commit(
                (shard, time) for time in self._coverage.schedule[shard]
            ):
                self._values[time] = MappingProxyType(
                    {view.name: fold.freeze(time) for view, fold in zip(self._views, self._folds)}
                )

    # ------------------------------------------------------------------
    def _unavailable(self, time: int) -> SnapshotUnavailableError:
        coverage = self._coverage
        if time not in coverage:
            return ValidationError(  # type: ignore[return-value]
                f"round {time} is not part of this run's coverage "
                f"(rounds {list(coverage.rounds)})"
            )
        with self._lock:
            missing, frontier = coverage.missing(time), coverage.frontier
        return SnapshotUnavailableError(
            f"round {time} snapshot is not frozen yet: waiting on shard "
            f"commit(s) {missing} (frozen through "
            f"{'nothing' if frontier is None else frontier})"
        )

    def at(self, round: int) -> Mapping[str, object]:
        """Snapshot-consistent metric values covering all rows ≤ ``round``.

        Lock-free O(1) lookup of the frozen value map (``view name ->
        value``).  Raises :class:`~repro.errors.SnapshotUnavailableError`
        while any shard owning rows at or before ``round`` is uncommitted,
        and :class:`~repro.errors.ValidationError` for a round the run will
        never produce, or for a ``round`` that is not a Python or numpy int.
        """
        time = check_integer("round", round)
        values = self._values.get(time)
        if values is not None:
            return values
        raise self._unavailable(time)

    def __repr__(self) -> str:
        return (
            f"LiveMetricRegistry(views={[view.name for view in self._views]}, "
            f"rounds={len(self.rounds)}, frozen={len(self.frozen_rounds)}, "
            f"shards={len(self._committed)}/{len(self.expected)})"
        )


def batch_recompute(
    views: Sequence[LiveMetricView],
    plan: ShardPlan,
    users,
    times,
    points,
    true_cells,
    snapped_cells,
    upto: int | None = None,
) -> dict[int, dict[str, object]]:
    """The from-scratch reference the live values are bit-identical to.

    One pass over the full raw rows: prepare them once
    (:meth:`PreparedShard.build <repro.store.prepared.PreparedShard.build>`,
    which orders them canonically) and take every view's
    :meth:`~LiveMetricView.reference`.  Returns ``round -> {view name ->
    value}`` for every round ≤ ``upto`` (all rounds when ``None``); ``{}``
    when no row is at or before it.  Every row's user must be one of
    ``plan``'s users — a row of any other user is a
    :class:`~repro.errors.DataError` naming the first such row's user —
    and the view names must be distinct, as the registry requires.

    No incremental state is consulted — this is what E21 times against the
    registry's O(1) lookups, and what the determinism matrix compares
    snapshots to.
    """
    views = _unique_names(views)
    users = np.asarray(users, dtype=int)
    outside = ~np.isin(users, plan.users)
    if outside.any():
        raise DataError(f"user {int(users[outside][0])} is not in the shard plan")
    if len(users) == 0:
        return {}
    rows = PreparedShard.build(users, times, snapped_cells, points, true_cells=true_cells)
    values = {view.name: view.reference(rows) for view in views}
    return {
        time: {name: per_round[time] for name, per_round in values.items()}
        for time, _, _ in rows.round_slices
        if upto is None or time <= int(upto)
    }


def _final_value(
    view: LiveMetricView,
    world: GridWorld,
    source,
    true_db: "TraceDB",
    rng,
    batched: bool,
    shards,
    backend,
):
    """``view``'s value over the whole stream the server stores for ``rng``.

    The one implementation behind the E1, E2 and E11 evaluators: plan the
    users as :func:`~repro.server.pipeline.run_release_rounds_batched`
    does, fold every shard's releases into a one-view registry, and return
    its last round's frozen value — ``server.metrics_at(last round)[name]``
    of the live run with the same seed.  Batched, the shards come from
    :func:`~repro.engine.sharding.stream_shard_releases` on ``backend``;
    ``batched=False`` releases each shard with the per-user scalar loop
    (:meth:`repro.engine.sharding.ShardRows.release_points`) in
    process, so ``backend`` is not used.
    """
    batched = check_bool("batched", batched)
    if len(true_db) == 0:
        raise DataError("true trace database is empty")
    if source.world != world:
        raise ValidationError("mechanism was built for a different world")
    plan = ShardPlan.build(sorted(true_db.users()), 1 if shards is None else shards, rng=rng)
    registry = LiveMetricRegistry([view], expected_coverage(plan, true_db))

    def fold(users, times, points, true_cells) -> None:
        # Shards own contiguous user blocks, so any member names the shard.
        registry.ingest(
            plan.shard_of(int(users[0])),
            PreparedShard.build(
                users, times, world.snap_batch(points), points, true_cells=true_cells
            ),
        )

    if batched:
        # Closed on every exit, so a backend the stream owns shuts down
        # even when a fold raises.
        with closing(stream_shard_releases(source, true_db, plan, backend=backend)) as stream:
            for users, times, batch in stream:
                fold(users, times, batch.points, batch.cells)
    else:
        for rows in shard_rows(plan, *true_db.to_arrays()):
            fold(rows.row_users, rows.times, rows.release_points(source, batched=False), rows.cells)
    return registry.at(registry.rounds[-1])[view.name]
