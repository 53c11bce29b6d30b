"""Unit tests for the contact-tracing protocol (the demo's App 3)."""

import pytest

from repro.core.accounting import BudgetLedger
from repro.core.mechanisms import PolicyLaplaceMechanism
from repro.core.policies import area_policy
from repro.epidemic.tracing import ContactTracingProtocol, TracingOutcome, static_tracing
from repro.errors import TracingError
from repro.geo.grid import GridWorld
from repro.mobility.synthetic import geolife_like
from repro.mobility.trajectory import TraceDB, Trajectory


@pytest.fixture
def world():
    return GridWorld(8, 8)


@pytest.fixture
def db(world):
    return geolife_like(world, n_users=20, horizon=48, rng=0, n_work_hubs=2)


@pytest.fixture
def protocol(world):
    return ContactTracingProtocol(
        world,
        area_policy(world, 2, 2, name="Gb"),
        PolicyLaplaceMechanism,
        epsilon=1.0,
        min_count=2,
        window=48,
    )


def pick_patient(db, window=48):
    end = db.times()[-1]
    start = end - window + 1
    users = sorted(db.users())
    return max(users, key=lambda u: len(db.contacts_of(u, min_count=2, start=start, end=end)))


class TestOutcomeMetrics:
    def test_perfect(self):
        outcome = TracingOutcome(
            flagged=frozenset({1, 2}), true_contacts=frozenset({1, 2}), candidates=frozenset({1, 2, 3})
        )
        assert outcome.precision == 1.0
        assert outcome.recall == 1.0
        assert outcome.f1 == 1.0

    def test_partial(self):
        outcome = TracingOutcome(
            flagged=frozenset({1, 4}), true_contacts=frozenset({1, 2}), candidates=frozenset()
        )
        assert outcome.precision == 0.5
        assert outcome.recall == 0.5
        assert outcome.f1 == 0.5

    def test_empty_edge_cases(self):
        nothing = TracingOutcome(frozenset(), frozenset(), frozenset())
        assert nothing.precision == 1.0 and nothing.recall == 1.0
        misses = TracingOutcome(frozenset(), frozenset({1}), frozenset())
        assert misses.recall == 0.0 and misses.f1 == 0.0


class TestProtocol:
    def test_dynamic_policy_traces_perfectly(self, world, db, protocol):
        # The paper's claim: with Gc re-sends, tracing has full utility.
        patient = pick_patient(db)
        outcome = protocol.run(db, patient, db.times()[-1], rng=1)
        assert outcome.true_contacts  # the workload has real contacts
        assert outcome.recall == 1.0
        assert outcome.precision == 1.0
        assert outcome.policy_name == "Gc"

    def test_unknown_patient_rejected(self, db, protocol):
        with pytest.raises(TracingError):
            protocol.run(db, 10_000, db.times()[-1], rng=0)

    def test_budget_charged_for_resends(self, world, db, protocol):
        ledger = BudgetLedger()
        patient = pick_patient(db)
        outcome = protocol.run(db, patient, db.times()[-1], rng=2, ledger=ledger)
        assert outcome.epsilon_spent > 0
        assert ledger.by_purpose()["tracing-resend"] == pytest.approx(outcome.epsilon_spent)
        # Stream releases also accounted.
        assert "stream" in ledger.by_purpose()

    def test_epsilon_spent_is_this_runs_spend(self, world):
        # A ledger reused for a second identical run: each outcome reports
        # its own re-send spend, and the ledger holds their sum.
        db = geolife_like(world, n_users=12, horizon=24, rng=0, n_work_hubs=2)
        protocol = ContactTracingProtocol(
            world, area_policy(world, 2, 2, name="Gb"), PolicyLaplaceMechanism,
            epsilon=1.0, min_count=2, window=24,
        )
        patient = pick_patient(db, window=24)
        ledger = BudgetLedger()
        first = protocol.run(db, patient, db.times()[-1], rng=2, ledger=ledger)
        second = protocol.run(db, patient, db.times()[-1], rng=2, ledger=ledger)
        assert first.epsilon_spent > 0
        assert second.epsilon_spent == first.epsilon_spent
        assert ledger.by_purpose()["tracing-resend"] == pytest.approx(
            first.epsilon_spent + second.epsilon_spent
        )

    def test_candidates_bounded_by_population(self, db, protocol):
        patient = pick_patient(db)
        outcome = protocol.run(db, patient, db.times()[-1], rng=3)
        assert len(outcome.candidates) <= len(db.users()) - 1
        assert patient not in outcome.candidates

    def test_explicit_screen_radius(self, world, db):
        protocol = ContactTracingProtocol(
            world,
            area_policy(world, 2, 2),
            PolicyLaplaceMechanism,
            epsilon=1.0,
            window=48,
            screen_radius=1000.0,  # screen everyone
        )
        patient = pick_patient(db)
        outcome = protocol.run(db, patient, db.times()[-1], rng=4)
        assert outcome.recall == 1.0
        assert len(outcome.candidates) == len(db.users()) - 1

    def test_reuses_provided_release_stream(self, world, db, protocol):
        patient = pick_patient(db)
        mech = PolicyLaplaceMechanism(world, area_policy(world, 2, 2), 1.0)
        from repro.epidemic.analysis import perturb_tracedb

        released = perturb_tracedb(world, mech, db, rng=5)
        outcome = protocol.run(db, patient, db.times()[-1], rng=6, released_db=released)
        assert outcome.recall == 1.0

    def test_flag_requires_min_count(self, world):
        # One single co-location must NOT flag under the rule of two.
        traj = [
            Trajectory(0, [0, 1, 2, 3]),   # patient
            Trajectory(1, [0, 9, 9, 9]),   # co-located once at t=0
            Trajectory(2, [0, 1, 9, 9]),   # co-located twice
        ]
        db = TraceDB.from_trajectories(traj)
        protocol = ContactTracingProtocol(
            world,
            area_policy(world, 2, 2),
            PolicyLaplaceMechanism,
            epsilon=1.0,
            window=4,
            screen_radius=1000.0,
        )
        outcome = protocol.run(db, 0, 3, rng=7)
        assert outcome.flagged == frozenset({2})
        assert outcome.true_contacts == frozenset({2})


class TestStaticBaseline:
    def test_static_degrades_vs_dynamic(self, world, db, protocol):
        patient = pick_patient(db)
        end = db.times()[-1]
        dynamic = protocol.run(db, patient, end, rng=8)

        mech = PolicyLaplaceMechanism(world, area_policy(world, 2, 2), 1.0)
        from repro.epidemic.analysis import perturb_tracedb

        released = perturb_tracedb(world, mech, db, rng=9)
        static = static_tracing(world, released, db, patient, end, window=48)
        assert dynamic.f1 >= static.f1

    def test_static_unknown_patient(self, world, db):
        with pytest.raises(TracingError):
            static_tracing(world, TraceDB(), db, 10_000, db.times()[-1])

    def test_static_with_exact_data_is_perfect(self, world, db):
        patient = pick_patient(db)
        end = db.times()[-1]
        outcome = static_tracing(world, db, db, patient, end, window=48)
        assert outcome.precision == 1.0 and outcome.recall == 1.0
