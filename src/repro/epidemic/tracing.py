"""Contact tracing with dynamic policy graphs (Fig. 3, App 3; Sec. 3.2).

The demo's tracing procedure, reproduced end to end:

1. Every user shares perturbed locations under a base policy; the server
   stores the snapped stream.
2. A patient is diagnosed at time ``T``.  Under the patient policy ("allowing
   to disclose a user's true locations of the past two weeks if she is a
   diagnosed coronavirus patient") the server learns the patient's true
   trace for the window ``[T - window + 1, T]``.
3. The Policy Graph Configuration module derives the infected (cell, time)
   set and **updates the location privacy policy** of users at risk: the
   tracing policy Gc isolates infected cells, making them disclosable.
4. Users screened as candidates (perturbed location within ``screen_radius``
   of an infected cell at the matching time) re-send their window under Gc;
   wherever they truly visited an infected cell the release is exact.
5. The server applies the suspected-infection rule — "two persons have been
   the same location at the same time at least twice" — on the disclosed
   co-locations and flags contacts.

Ground truth is the same rule evaluated on the true traces, so the outcome
reports precision/recall/F1 of the privacy-preserving procedure plus its
communication and privacy cost.

The protocol also scales *across users*: ``protocol.run(..., shards=k,
backend="pool")`` partitions the non-patient population with the same
deterministic :class:`~repro.engine.sharding.ShardPlan` the release pipeline
uses.  Every step of the procedure is per-user once the patient's infected
``(cell, time)`` set is known — a user's original stream, candidate screen,
re-send, flag decision, and ground-truth contact status depend only on their
own trace, their own RNG stream, and the (shared, deterministic) infected
set — so each shard returns **per-user contact-event sets** (candidates /
flagged / true contacts) that merge by disjoint union, plus per-user re-send
budget sums.  Sharded outcomes are bit-identical for every shard count and
execution backend; like every sharded evaluator they follow the per-user
stream layout rather than the unsharded protocol's single shared stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.accounting import BudgetLedger
from repro.core.mechanisms.base import Mechanism
from repro.core.policies import contact_tracing_policy
from repro.core.policy_graph import PolicyGraph
from repro.errors import TracingError, ValidationError
from repro.geo.distance import euclidean
from repro.geo.grid import GridWorld
from repro.mobility.trajectory import TraceDB
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_integer, check_positive

__all__ = ["TracingOutcome", "ContactTracingProtocol", "static_tracing"]

MechanismFactory = Callable[[GridWorld, PolicyGraph, float], Mechanism]


# ----------------------------------------------------------------------
# Shard-parallel path (E3 over ShardPlan + ExecutionBackend)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _TracingShardTask:
    """One shard's tracing workload: its users' windowed traces and streams.

    Plain data plus the two release sources (base policy and Gc), so the
    pool backend can pickle it; sources are
    :class:`~repro.engine.EngineRef`-wrapped (spec-built engines travel as
    spec hashes, live mechanisms as themselves).  ``infected`` is the
    patient's disclosed ``(cell, time)`` set — shared, deterministic input
    to every shard.  ``times[i]`` / ``cells[i]`` are user ``users[i]``'s
    in-window check-ins in time order.
    """

    base_source: object
    tracing_source: object
    users: tuple[int, ...]
    seeds: tuple[int, ...]
    times: tuple[tuple[int, ...], ...]
    cells: tuple[tuple[int, ...], ...]
    infected: tuple[tuple[int, int], ...]
    radius: float
    min_count: int
    batched: bool


def _score_tracing_shard(task: _TracingShardTask):
    """Run the tracing procedure for one shard's users (module-level for pickling).

    Each user's whole window rides their own seed stream: first the original
    release under the base policy (screened against the infected set), then —
    candidates only — the Gc re-send, continuing the *same* generator.  Every
    decision (candidacy, flag, ground-truth contact) is a pure function of
    the user's own trace, their stream, and the shared infected set, so the
    per-user event sets merge by disjoint union.  ``task.batched`` selects
    vectorized ``release_batch`` draws or the scalar per-release reference
    loop — same streams, so the same points to float identity.
    """
    from repro.engine import resolve_release_source
    from repro.engine.distributed import MetricShardResult

    base = resolve_release_source(task.base_source)
    tracing = resolve_release_source(task.tracing_source)
    world = base.world
    infected_pairs = set(task.infected)
    patient_at = {time: cell for cell, time in task.infected}
    centers_by_time: dict[int, list] = {}
    for cell, time in task.infected:
        centers_by_time.setdefault(time, []).append(world.coords(cell))

    n_users = len(task.users)
    epsilon_sums = np.zeros(n_users, dtype=float)
    resend_counts = np.zeros(n_users, dtype=int)
    candidates: set[int] = set()
    flagged: set[int] = set()
    true_contacts: set[int] = set()

    for index, (user, seed, user_times, user_cells) in enumerate(
        zip(task.users, task.seeds, task.times, task.cells)
    ):
        if not user_cells:
            continue
        # Ground truth: the co-location rule against the patient's true trace.
        colocations = sum(
            1
            for time, cell in zip(user_times, user_cells)
            if patient_at.get(time) == cell
        )
        if colocations >= task.min_count:
            true_contacts.add(user)

        # Step 1: the original stream under the base policy, own stream.
        generator = np.random.default_rng(seed)
        if task.batched:
            batch = base.release_batch(list(user_cells), rng=generator)
            released_cells = world.snap_batch(batch.points).tolist()
        else:  # scalar reference: same stream, one release() per check-in
            released_cells = [
                world.snap(base.release(cell, rng=generator).point)
                for cell in user_cells
            ]

        # Step 4a: candidate screen on the released (snapped) stream.
        if not any(
            any(
                euclidean(world.coords(cell), center) <= task.radius
                for center in centers_by_time.get(time, ())
            )
            for time, cell in zip(user_times, released_cells)
        ):
            continue
        candidates.add(user)

        # Step 4b/5: re-send the window under Gc (same generator, continued)
        # and apply the suspected-infection rule.  Budget is charged up
        # front, as in the scalar ledger path: exactness is a policy
        # property, known before any noise is drawn.
        epsilon_sums[index] = sum(
            0.0 if tracing.is_exact(cell) else tracing.epsilon for cell in user_cells
        )
        resend_counts[index] = len(user_cells)
        if task.batched:
            resend = tracing.release_batch(list(user_cells), rng=generator)
            snapped = world.snap_batch(resend.points).tolist()
            exact = resend.exact.tolist()
        else:
            releases = [tracing.release(cell, rng=generator) for cell in user_cells]
            snapped = [world.snap(release.point) for release in releases]
            exact = [release.exact for release in releases]
        hits = sum(
            1
            for is_exact, cell, time in zip(exact, snapped, user_times)
            if is_exact and (cell, time) in infected_pairs
        )
        if hits >= task.min_count:
            flagged.add(user)

    return MetricShardResult(
        sums={"epsilon_spent": epsilon_sums},
        counts=resend_counts,
        flows={},
        sets={
            "candidates": frozenset(candidates),
            "flagged": frozenset(flagged),
            "true_contacts": frozenset(true_contacts),
        },
    )


@dataclass(frozen=True)
class TracingOutcome:
    """Result of one tracing run against ground truth.

    ``flagged`` are users the protocol identified as at-risk contacts;
    ``true_contacts`` is the ground-truth set under the same co-location
    rule; ``candidates`` is everyone asked to re-send (communication cost);
    ``epsilon_spent`` is the total extra budget charged for re-sends.
    """

    flagged: frozenset[int]
    true_contacts: frozenset[int]
    candidates: frozenset[int]
    epsilon_spent: float = 0.0
    policy_name: str = ""

    @property
    def true_positives(self) -> int:
        return len(self.flagged & self.true_contacts)

    @property
    def precision(self) -> float:
        return self.true_positives / len(self.flagged) if self.flagged else 1.0

    @property
    def recall(self) -> float:
        return self.true_positives / len(self.true_contacts) if self.true_contacts else 1.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) > 0 else 0.0


class ContactTracingProtocol:
    """The dynamic-policy tracing procedure of Sec. 3.2.

    Parameters
    ----------
    world:
        Location universe.
    base_policy:
        Policy graph under which users originally released locations, and
        from which the tracing policy Gc is derived.
    mechanism_factory:
        ``(world, policy, epsilon) -> Mechanism`` used both for the original
        stream and for re-sends under Gc.
    epsilon:
        Per-release budget.
    min_count:
        Co-location threshold of the suspected-infection rule (paper: 2).
    window:
        Lookback window in timesteps (paper: two weeks).
    screen_radius:
        Candidate screen: users whose *perturbed* location came within this
        distance of an infected cell at the right time are asked to re-send.
        ``None`` derives it from the mechanism's expected error (x2), the
        demo's pragmatic recall-oriented choice.
    """

    def __init__(
        self,
        world: GridWorld,
        base_policy: PolicyGraph,
        mechanism_factory: MechanismFactory,
        epsilon: float,
        min_count: int = 2,
        window: int = 14 * 24,
        screen_radius: float | None = None,
    ) -> None:
        self.world = world
        self.base_policy = base_policy
        self.mechanism_factory = mechanism_factory
        self.epsilon = check_positive("epsilon", epsilon)
        self.min_count = check_integer("min_count", min_count, minimum=1)
        self.window = check_integer("window", window, minimum=1)
        self.screen_radius = (
            None if screen_radius is None else check_positive("screen_radius", screen_radius)
        )

    # ------------------------------------------------------------------
    def run(
        self,
        true_db: TraceDB,
        patient: int,
        diagnosis_time: int,
        rng=None,
        released_db: TraceDB | None = None,
        ledger: BudgetLedger | None = None,
        shards: int | None = None,
        backend=None,
        batched: bool = True,
    ) -> TracingOutcome:
        """Execute the full procedure for one diagnosed ``patient``.

        ``released_db`` is the server's view of the original perturbed
        stream; when omitted it is generated here with the base mechanism.

        ``shards`` / ``backend`` (default ``None`` / ``None``: the
        single-stream procedure below) partition the non-patient population
        over a per-user :class:`~repro.engine.sharding.ShardPlan` executed on
        the named :class:`~repro.engine.backends.ExecutionBackend`; per-shard
        contact-event sets and budget sums merge exactly, so the sharded
        outcome is **bit-identical for every shard count and backend**.  The
        sharded layout attaches randomness to users (original release, then
        re-send, on each user's own stream), so it deliberately differs from
        the unsharded shared-stream run; ``batched=False`` runs the per-shard
        scalar per-release reference loop on the same streams.  Sharded runs
        generate the released stream themselves — ``released_db`` / ``ledger``
        are not supported there.
        """
        if patient not in true_db.users():
            raise TracingError(f"patient {patient} not in the trace database")
        if shards is not None or backend is not None:
            if released_db is not None or ledger is not None:
                raise ValidationError(
                    "sharded tracing generates its own per-user released stream; "
                    "released_db / ledger are only supported unsharded"
                )
            return self._run_sharded(
                true_db, patient, diagnosis_time, rng, shards, backend, batched
            )
        generator = ensure_rng(rng)
        ledger = ledger if ledger is not None else BudgetLedger()
        start = diagnosis_time - self.window + 1

        base_mechanism = self.mechanism_factory(self.world, self.base_policy, self.epsilon)
        if released_db is None:
            released_db = self._release_stream(true_db, base_mechanism, start, diagnosis_time, generator, ledger)

        # Step 2: patient disclosure (policy update to full disclosure).
        patient_history = true_db.user_history(patient, start=start, end=diagnosis_time)
        if not patient_history:
            raise TracingError(f"patient {patient} has no history in the window")
        infected_pairs = {(checkin.cell, checkin.time) for checkin in patient_history}
        infected_cells = {cell for cell, _ in infected_pairs}

        # Step 3: dynamic policy update — Gc isolates infected cells.
        tracing_policy = contact_tracing_policy(self.base_policy, infected_cells, name="Gc")
        tracing_mechanism = self.mechanism_factory(self.world, tracing_policy, self.epsilon)

        # Step 4: screen candidates on the released stream, then re-send.
        radius = self._effective_radius(base_mechanism)
        candidates = self._screen(released_db, infected_pairs, radius, exclude=patient)

        flagged = self._resend_and_flag(
            true_db,
            tracing_mechanism,
            candidates,
            infected_pairs,
            start,
            diagnosis_time,
            generator,
            ledger,
        )

        true_contacts = frozenset(
            true_db.contacts_of(patient, min_count=self.min_count, start=start, end=diagnosis_time)
        )
        return TracingOutcome(
            flagged=frozenset(flagged),
            true_contacts=true_contacts,
            candidates=frozenset(candidates),
            epsilon_spent=ledger.by_purpose().get("tracing-resend", 0.0),
            policy_name=tracing_policy.name,
        )

    # ------------------------------------------------------------------
    def _run_sharded(
        self,
        true_db: TraceDB,
        patient: int,
        diagnosis_time: int,
        rng,
        shards: int | None,
        backend,
        batched: bool,
    ) -> TracingOutcome:
        """The procedure over ``ShardPlan`` + ``ExecutionBackend`` (see ``run``)."""
        from repro.engine import EngineRef, ShardPlan
        from repro.engine.distributed import sharded_metric

        start = diagnosis_time - self.window + 1
        patient_history = true_db.user_history(patient, start=start, end=diagnosis_time)
        if not patient_history:
            raise TracingError(f"patient {patient} has no history in the window")
        infected_pairs = {(checkin.cell, checkin.time) for checkin in patient_history}
        infected_cells = {cell for cell, _ in infected_pairs}

        base_mechanism = self.mechanism_factory(self.world, self.base_policy, self.epsilon)
        tracing_policy = contact_tracing_policy(self.base_policy, infected_cells, name="Gc")
        tracing_mechanism = self.mechanism_factory(self.world, tracing_policy, self.epsilon)
        radius = self._effective_radius(base_mechanism)

        # The plan covers the non-patient population: every tracing decision
        # concerns those users, and the patient's disclosure is the shared
        # deterministic input every shard screens against.
        others = sorted(true_db.users() - {patient})
        if not others:
            return TracingOutcome(
                flagged=frozenset(),
                true_contacts=frozenset(),
                candidates=frozenset(),
                epsilon_spent=0.0,
                policy_name=tracing_policy.name,
            )
        plan = ShardPlan.build(others, 1 if shards is None else int(shards), rng=rng)
        base_source = EngineRef.wrap(base_mechanism)
        tracing_source = EngineRef.wrap(tracing_mechanism)
        infected = tuple(sorted(infected_pairs))
        tasks = []
        for _, users, seeds in plan.iter_shards():
            histories = [
                true_db.user_history(user, start=start, end=diagnosis_time)
                for user in users
            ]
            tasks.append(
                _TracingShardTask(
                    base_source=base_source,
                    tracing_source=tracing_source,
                    users=users,
                    seeds=seeds,
                    times=tuple(tuple(c.time for c in history) for history in histories),
                    cells=tuple(tuple(c.cell for c in history) for history in histories),
                    infected=infected,
                    radius=radius,
                    min_count=self.min_count,
                    batched=batched,
                )
            )
        merged = sharded_metric(_score_tracing_shard, tasks, backend=backend)
        return TracingOutcome(
            flagged=frozenset(merged.sets["flagged"]),
            true_contacts=frozenset(merged.sets["true_contacts"]),
            candidates=frozenset(merged.sets["candidates"]),
            epsilon_spent=float(merged.sums["epsilon_spent"].sum()),
            policy_name=tracing_policy.name,
        )

    # ------------------------------------------------------------------
    def _release_stream(
        self,
        true_db: TraceDB,
        mechanism: Mechanism,
        start: int,
        end: int,
        rng,
        ledger: BudgetLedger,
    ) -> TraceDB:
        """One batched release over every in-window check-in.

        Check-in order matches the scalar per-client loop, so the seeded RNG
        stream (and therefore the released database) is identical.
        """
        released = TraceDB()
        users, times, cells = true_db.to_arrays()
        window = (times >= start) & (times <= end)
        users, times, cells = users[window], times[window], cells[window]
        if len(cells) == 0:
            return released
        # Exactness is a policy property, so per-release budgets are known
        # before drawing; charging first keeps a capped ledger gating the
        # stream (it faults at the same check-in as the scalar loop, before
        # any noise is drawn).
        self._charge_all(ledger, users, times, mechanism, cells, purpose="stream")
        batch = mechanism.release_batch(cells, rng=rng)
        released.record_many(users, times, self.world.snap_batch(batch.points))
        return released

    @staticmethod
    def _charge_all(ledger, users, times, mechanism, cells, purpose: str) -> None:
        for user, time, cell in zip(users, times, cells):
            epsilon = 0.0 if mechanism.is_exact(int(cell)) else mechanism.epsilon
            ledger.charge(int(user), int(time), epsilon, purpose=purpose)

    def _resend_and_flag(
        self,
        true_db: TraceDB,
        tracing_mechanism: Mechanism,
        candidates: set[int],
        infected_pairs: set[tuple[int, int]],
        start: int,
        end: int,
        rng,
        ledger: BudgetLedger,
    ) -> frozenset[int]:
        """Step 4/5 batched: every candidate's window re-sent in one batch.

        Candidate histories are concatenated user-major (the scalar resend
        order), released through one ``release_batch``, and the suspected-
        infection rule is applied with array ops: a hit is an *exact* release
        whose (snapped cell, time) is an infected pair.
        """
        users: list[int] = []
        times: list[int] = []
        cells: list[int] = []
        for user in sorted(candidates):
            for checkin in true_db.user_history(user, start=start, end=end):
                users.append(user)
                times.append(checkin.time)
                cells.append(checkin.cell)
        if not users:
            return frozenset()
        self._charge_all(ledger, users, times, tracing_mechanism, cells, purpose="tracing-resend")
        batch = tracing_mechanism.release_batch(cells, rng=rng)
        snapped = self.world.snap_batch(batch.points)
        time_arr = np.asarray(times, dtype=int)
        # Encode (cell, time) pairs as scalars so membership is one np.isin.
        t0 = int(time_arr.min())
        time_span = int(time_arr.max()) - t0 + 1
        codes = snapped.astype(np.int64) * time_span + (time_arr - t0)
        infected_codes = np.asarray(
            [
                cell * time_span + (time - t0)
                for cell, time in infected_pairs
                if 0 <= time - t0 < time_span
            ],
            dtype=np.int64,
        )
        hits = batch.exact & np.isin(codes, infected_codes)
        user_arr = np.asarray(users, dtype=int)
        flagged_users, hit_counts = np.unique(user_arr[hits], return_counts=True)
        return frozenset(
            int(user)
            for user, count in zip(flagged_users, hit_counts)
            if count >= self.min_count
        )

    def _effective_radius(self, mechanism: Mechanism) -> float:
        if self.screen_radius is not None:
            return self.screen_radius
        expected_error = getattr(mechanism, "expected_error", None)
        if expected_error is None:
            return 2.0 * self.world.cell_size
        # Largest expected error over non-disclosable cells, doubled for recall.
        errors = [
            expected_error(cell)
            for cell in self.base_policy.nodes
            if not self.base_policy.is_disclosable(cell)
        ]
        if not errors:
            return 2.0 * self.world.cell_size
        return 2.0 * max(errors)

    def _screen(
        self,
        released_db: TraceDB,
        infected_pairs: set[tuple[int, int]],
        radius: float,
        exclude: int,
    ) -> set[int]:
        """Users whose released point was near an infected cell at that time."""
        candidates: set[int] = set()
        by_time: dict[int, list[int]] = {}
        for cell, time in infected_pairs:
            by_time.setdefault(time, []).append(cell)
        for time, cells in by_time.items():
            snapshot = released_db.at_time(time)
            centers = [self.world.coords(cell) for cell in cells]
            for user, released_cell in snapshot.items():
                if user == exclude or user in candidates:
                    continue
                point = self.world.coords(released_cell)
                if any(euclidean(point, center) <= radius for center in centers):
                    candidates.add(user)
        return candidates


def static_tracing(
    world: GridWorld,
    released_db: TraceDB,
    true_db: TraceDB,
    patient: int,
    diagnosis_time: int,
    window: int = 14 * 24,
    min_count: int = 2,
) -> TracingOutcome:
    """Baseline: apply the co-location rule directly to the perturbed stream.

    No policy update, no re-send — the server simply counts co-locations in
    the snapped released data.  This is what a naive deployment without
    dynamic policies would do, and what the demo contrasts Gc against.
    """
    if patient not in true_db.users():
        raise TracingError(f"patient {patient} not in the trace database")
    start = diagnosis_time - window + 1
    if patient in released_db.users():
        flagged = frozenset(
            released_db.contacts_of(patient, min_count=min_count, start=start, end=diagnosis_time)
        )
    else:
        flagged = frozenset()
    true_contacts = frozenset(
        true_db.contacts_of(patient, min_count=min_count, start=start, end=diagnosis_time)
    )
    return TracingOutcome(
        flagged=flagged,
        true_contacts=true_contacts,
        candidates=frozenset(released_db.users() - {patient}),
        epsilon_spent=0.0,
        policy_name="static",
    )
