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

Every step of the procedure is per-user once the patient's infected
``(cell, time)`` set is known — a user's original stream, candidate screen,
re-send, flag decision, and ground-truth contact status depend only on
their own trace, their own RNG stream, and the (shared, deterministic)
infected set.  :meth:`ContactTracingProtocol.run` therefore partitions the
non-patient population with the same deterministic
:class:`~repro.engine.sharding.ShardPlan` the release pipeline uses (one
shard unless ``shards=`` says otherwise), so each user's original release
is the stream the server stores for that seed.  Each shard returns its
users' re-send budget sums and its **contact-event sets** (candidates /
flagged / true contacts).  The run lays the sums end to end in shard order
and sums them once, and unions the sets, which are disjoint; so outcomes
are bit-identical for every shard count and execution backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.accounting import BudgetLedger
from repro.core.mechanisms.base import Mechanism
from repro.core.policies import contact_tracing_policy
from repro.core.policy_graph import PolicyGraph
from repro.engine import EngineRef, ShardPlan, owned_backend, resolve_release_source
from repro.engine.sharding import ShardRows, shard_rows
from repro.errors import TracingError
from repro.geo.distance import euclidean
from repro.geo.grid import GridWorld
from repro.mobility.trajectory import TraceDB
from repro.utils.validation import check_bool, check_integer, check_positive

__all__ = ["TracingOutcome", "ContactTracingProtocol", "static_tracing"]

MechanismFactory = Callable[[GridWorld, PolicyGraph, float], Mechanism]


# ----------------------------------------------------------------------
# Shard scoring (E3 over ShardPlan + ExecutionBackend)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _TracingShardTask:
    """One shard's tracing workload: its users' windowed rows and streams.

    Plain data plus the two release sources (base policy and Gc), so the
    pool backend can pickle it; sources are
    :class:`~repro.engine.EngineRef`-wrapped (spec-built engines travel as
    spec hashes, live mechanisms as themselves).  ``infected`` is the
    patient's disclosed ``(cell, time)`` set — shared, deterministic input
    to every shard.  ``rows`` are the users' in-window true check-ins;
    ``released``, when given, are the same users' in-window rows of an
    already-released stream, screened instead of drawing an original
    release.
    """

    base_source: object
    tracing_source: object
    rows: ShardRows
    released: ShardRows | None
    infected: tuple[tuple[int, int], ...]
    radius: float
    min_count: int
    batched: bool


def _score_tracing_shard(
    task: _TracingShardTask,
) -> tuple[np.ndarray, frozenset[int], frozenset[int], frozenset[int]]:
    """Run the tracing procedure for one shard's users (module-level for pickling).

    Each user's window rides their own seed stream: first the original
    release under the base policy (unless ``task.released`` supplies it),
    screened against the infected set, then — candidates only — the Gc
    re-send, continuing the *same* generator.  Every decision (candidacy,
    flag, ground-truth contact) is a pure function of the user's own trace,
    their stream, and the shared infected set.  ``task.batched`` selects
    vectorized ``release_batch`` draws or the scalar per-release reference
    loop — same streams, so the same points to float identity.  Returns
    ``(epsilon_sums, candidates, flagged, true_contacts)``: the per-user
    re-send budgets in the shard's user order, then the event sets.
    """
    base = resolve_release_source(task.base_source)
    tracing = resolve_release_source(task.tracing_source)
    world = base.world
    infected_pairs = set(task.infected)
    patient_at = {time: cell for cell, time in task.infected}
    centers_by_time: dict[int, list] = {}
    for cell, time in task.infected:
        centers_by_time.setdefault(time, []).append(world.coords(cell))

    def release_cells(source, cells, generator):
        """Snapped releases and exact flags of ``cells`` on ``generator``."""
        if task.batched:
            batch = source.release_batch(cells, rng=generator)
            return world.snap_batch(batch.points).tolist(), batch.exact.tolist()
        releases = [source.release(cell, rng=generator) for cell in cells]
        return [world.snap(r.point) for r in releases], [r.exact for r in releases]

    rows, released = task.rows, task.released
    bounds = rows.bounds.tolist()
    screen_bounds = None if released is None else released.bounds.tolist()
    n_users = len(rows.users)
    epsilon_sums = np.zeros(n_users, dtype=float)
    candidates: set[int] = set()
    flagged: set[int] = set()
    true_contacts: set[int] = set()

    for index, (user, seed) in enumerate(zip(rows.users, rows.seeds)):
        user_times = rows.times[bounds[index] : bounds[index + 1]].tolist()
        user_cells = rows.cells[bounds[index] : bounds[index + 1]].tolist()
        if released is None and not user_cells:
            continue
        # Ground truth: the co-location rule against the patient's true trace.
        colocations = sum(
            1 for time, cell in zip(user_times, user_cells) if patient_at.get(time) == cell
        )
        if colocations >= task.min_count:
            true_contacts.add(user)

        # Step 1: the original stream under the base policy, own stream.
        generator = np.random.default_rng(seed)
        if released is None:
            screen_times = user_times
            screen_cells, _ = release_cells(base, user_cells, generator)
        else:
            block = slice(screen_bounds[index], screen_bounds[index + 1])
            screen_times = released.times[block].tolist()
            screen_cells = released.cells[block].tolist()

        # Step 4a: candidate screen on the released (snapped) stream.
        if not any(
            any(
                euclidean(world.coords(cell), center) <= task.radius
                for center in centers_by_time.get(time, ())
            )
            for time, cell in zip(screen_times, screen_cells)
        ):
            continue
        candidates.add(user)

        # Step 4b/5: re-send the window under Gc (same generator, continued)
        # and apply the suspected-infection rule.  Exactness is a policy
        # property, so the re-send's budget is known before any noise is
        # drawn.
        epsilon_sums[index] = sum(
            0.0 if tracing.is_exact(cell) else tracing.epsilon for cell in user_cells
        )
        snapped, exact = release_cells(tracing, user_cells, generator)
        hits = sum(
            1
            for is_exact, cell, time in zip(exact, snapped, user_times)
            if is_exact and (cell, time) in infected_pairs
        )
        if hits >= task.min_count:
            flagged.add(user)

    return epsilon_sums, frozenset(candidates), frozenset(flagged), frozenset(true_contacts)


def _budgets(mechanism, cells: np.ndarray) -> np.ndarray:
    """Per-release budgets: 0 where the policy discloses the cell, else epsilon."""
    return np.array(
        [0.0 if mechanism.is_exact(int(cell)) else mechanism.epsilon for cell in cells],
        dtype=float,
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

        The non-patient population is scored over a per-user
        :class:`~repro.engine.sharding.ShardPlan` seeded from ``rng``
        (``shards`` default 1) on an
        :class:`~repro.engine.backends.ExecutionBackend` (``backend``
        default serial); per-shard contact-event sets and budget sums fold
        in shard order, so the outcome is **bit-identical for every shard
        count and backend**.  Each user's original release and re-send
        ride that user's own stream; ``batched=False`` runs the scalar
        per-release reference loop on the same streams.

        ``released_db`` is the server's view of the original perturbed
        stream; when given, users are screened on its in-window rows and
        their streams draw only the re-send.  When omitted, the original
        stream is generated here.  ``ledger``, when given, is charged here:
        before any noise is drawn, every in-window check-in under
        ``"stream"`` (only when the stream is generated here, so a capped
        ledger refuses first), and after the shards are folded each
        candidate's in-window check-ins under ``"tracing-resend"``.  The
        outcome's ``epsilon_spent`` is this run's re-send spend.
        """
        batched = check_bool("batched", batched)
        if patient not in true_db.users():
            raise TracingError(f"patient {patient} not in the trace database")
        start = diagnosis_time - self.window + 1
        # Step 2: patient disclosure (policy update to full disclosure).
        patient_history = true_db.user_history(patient, start=start, end=diagnosis_time)
        if not patient_history:
            raise TracingError(f"patient {patient} has no history in the window")
        infected_pairs = {(checkin.cell, checkin.time) for checkin in patient_history}
        infected_cells = {cell for cell, _ in infected_pairs}

        # Step 3: dynamic policy update — Gc isolates infected cells.
        base_mechanism = self.mechanism_factory(self.world, self.base_policy, self.epsilon)
        tracing_policy = contact_tracing_policy(self.base_policy, infected_cells, name="Gc")
        tracing_mechanism = self.mechanism_factory(self.world, tracing_policy, self.epsilon)
        radius = self._effective_radius(base_mechanism)

        users, times, cells = _window(true_db, start, diagnosis_time)
        if ledger is not None and released_db is None:
            ledger.charge_many(users, times, _budgets(base_mechanism, cells), purpose="stream")

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
        plan = ShardPlan.build(others, 1 if shards is None else shards, rng=rng)
        own = users != patient
        shards_rows = shard_rows(plan, users[own], times[own], cells[own])
        if released_db is None:
            screened = [None] * len(shards_rows)
        else:
            released = _window(released_db, start, diagnosis_time)
            members = np.isin(released[0], others)
            screened = shard_rows(plan, *(column[members] for column in released))
        base_source = EngineRef.wrap(base_mechanism)
        tracing_source = EngineRef.wrap(tracing_mechanism)
        infected = tuple(sorted(infected_pairs))
        tasks = [
            _TracingShardTask(
                base_source=base_source,
                tracing_source=tracing_source,
                rows=rows,
                released=screen,
                infected=infected,
                radius=radius,
                min_count=self.min_count,
                batched=batched,
            )
            for rows, screen in zip(shards_rows, screened)
        ]
        with owned_backend(backend) as live:
            results = live.run(_score_tracing_shard, tasks)
        # Shards hold consecutive users, so their per-user sums laid end to
        # end (run returns them in task order) are the global per-user
        # array, summed once at every shard count; every user is in one
        # shard, so the sets are disjoint and their union is exact.
        epsilon_sums, candidates, flagged, true_contacts = zip(*results)
        candidates = frozenset().union(*candidates)
        if ledger is not None:
            resend = np.isin(users, sorted(candidates))
            ledger.charge_many(
                users[resend],
                times[resend],
                _budgets(tracing_mechanism, cells[resend]),
                purpose="tracing-resend",
            )
        return TracingOutcome(
            flagged=frozenset().union(*flagged),
            true_contacts=frozenset().union(*true_contacts),
            candidates=candidates,
            epsilon_spent=float(np.concatenate(epsilon_sums).sum()),
            policy_name=tracing_policy.name,
        )

    # ------------------------------------------------------------------
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


def _window(db: TraceDB, start: int, end: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``db.to_arrays()`` restricted to check-ins with ``start <= time <= end``."""
    users, times, cells = db.to_arrays()
    inside = (times >= start) & (times <= end)
    return users[inside], times[inside], cells[inside]


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
