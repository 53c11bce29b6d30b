"""Unit tests for the epidemic-analysis app (contact rates, R0)."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mechanisms import PolicyLaplaceMechanism
from repro.core.policies import full_disclosure_policy, grid_policy
from repro.epidemic.analysis import (
    contact_rate,
    estimate_r0_contacts,
    estimate_r0_seir,
    pair_events,
    perturb_tracedb,
    r0_estimation_error,
)
from repro.epidemic.seir import SEIRModel
from repro.errors import DataError
from repro.geo.grid import GridWorld
from repro.mobility.synthetic import geolife_like
from repro.mobility.trajectory import TraceDB, Trajectory


@pytest.fixture
def world():
    return GridWorld(8, 8)


class TestContactRate:
    def test_pair_forever_together(self):
        db = TraceDB.from_trajectories([Trajectory(0, [0] * 10), Trajectory(1, [0] * 10)])
        # Each of 2 users has 1 co-location per step: rate = 1.
        assert contact_rate(db) == pytest.approx(1.0)

    def test_triple(self):
        db = TraceDB.from_trajectories([Trajectory(u, [0] * 4) for u in range(3)])
        # 3 pairs per step, 3 observations per step -> 2 contacts per user-step.
        assert contact_rate(db) == pytest.approx(2.0)

    def test_isolated_users(self):
        db = TraceDB.from_trajectories([Trajectory(0, [0] * 5), Trajectory(1, [9] * 5)])
        assert contact_rate(db) == 0.0

    def test_window(self):
        db = TraceDB()
        db.record(0, 0, 1)
        db.record(1, 0, 1)
        db.record(0, 1, 1)
        db.record(1, 1, 2)
        assert contact_rate(db, start=1, end=1) == 0.0
        assert contact_rate(db, start=0, end=0) == pytest.approx(1.0)

    def test_empty_window_rejected(self):
        db = TraceDB.from_trajectories([Trajectory(0, [0])])
        with pytest.raises(DataError):
            contact_rate(db, start=5, end=9)


class TestPairEvents:
    @settings(deadline=None, max_examples=60)
    @given(
        observations=st.dictionaries(
            st.tuples(st.integers(0, 99), st.integers(0, 6)),  # (user, time): unique
            st.integers(0, 4),  # cell
            max_size=30,
        ),
        data=st.data(),
    )
    def test_occupancy_counters_recover_global_pair_events(self, observations, data):
        # Partition users into shards arbitrarily; per-shard epoch-keyed
        # occupancy counters must add up to the global counter, and
        # pair_events on the sum must equal brute-force pair counting.
        users = sorted({user for user, _ in observations})
        shard_of = {
            user: data.draw(st.integers(0, 3), label=f"shard({user})") for user in users
        }
        shards = [
            Counter(
                (time, cell)
                for (user, time), cell in observations.items()
                if shard_of[user] == shard
            )
            for shard in range(4)
        ]
        merged = sum(shards, Counter())
        global_occupancy = Counter(
            (time, cell) for (_, time), cell in observations.items()
        )
        assert merged == global_occupancy
        brute_pairs = sum(
            1
            for (ua, ta), ca in observations.items()
            for (ub, tb), cb in observations.items()
            if ua < ub and ta == tb and ca == cb
        )
        assert pair_events(merged) == brute_pairs


class TestR0Estimators:
    def test_contact_estimator_formula(self):
        db = TraceDB.from_trajectories([Trajectory(0, [0] * 10), Trajectory(1, [0] * 10)])
        # c = 1, p = 0.3, D = 1/0.1 = 10 -> R0 = 3.
        assert estimate_r0_contacts(db, p_transmit=0.3, gamma=0.1) == pytest.approx(3.0)

    def test_seir_estimator_recovers_r0(self):
        truth = SEIRModel(beta=0.4, sigma=0.25, gamma=0.1)
        run = truth.simulate(s0=999, e0=0, i0=1, steps=120)
        estimate = estimate_r0_seir(run.incidence, population=1000, sigma=0.25, gamma=0.1)
        assert estimate == pytest.approx(truth.r0, rel=0.05)


class TestPerturbation:
    def test_perturb_preserves_shape(self, world):
        db = geolife_like(world, n_users=6, horizon=24, rng=0)
        mech = PolicyLaplaceMechanism(world, grid_policy(world), epsilon=1.0)
        perturbed = perturb_tracedb(world, mech, db, rng=1)
        assert perturbed.users() == db.users()
        assert len(perturbed) == len(db)
        assert perturbed.times() == db.times()

    def test_full_disclosure_identity(self, world):
        db = geolife_like(world, n_users=4, horizon=12, rng=2)
        mech = PolicyLaplaceMechanism(world, full_disclosure_policy(world), epsilon=1.0)
        perturbed = perturb_tracedb(world, mech, db, rng=3)
        assert list(perturbed.checkins()) == list(db.checkins())

    def test_cells_stay_in_world(self, world):
        db = geolife_like(world, n_users=4, horizon=12, rng=4)
        mech = PolicyLaplaceMechanism(world, grid_policy(world), epsilon=0.2)
        perturbed = perturb_tracedb(world, mech, db, rng=5)
        for checkin in perturbed.checkins():
            assert checkin.cell in world


class TestR0Error:
    def test_zero_error_for_full_disclosure(self, world):
        db = geolife_like(world, n_users=10, horizon=36, rng=6, n_work_hubs=2)
        mech = PolicyLaplaceMechanism(world, full_disclosure_policy(world), epsilon=1.0)
        r0_true, r0_perturbed, error = r0_estimation_error(
            world, mech, db, p_transmit=0.3, gamma=0.1, rng=7
        )
        assert error == 0.0
        assert r0_true == r0_perturbed

    def test_noise_introduces_error(self, world):
        db = geolife_like(world, n_users=10, horizon=36, rng=6, n_work_hubs=2)
        mech = PolicyLaplaceMechanism(world, grid_policy(world), epsilon=0.5)
        r0_true, r0_perturbed, error = r0_estimation_error(
            world, mech, db, p_transmit=0.3, gamma=0.1, rng=7
        )
        assert r0_true > 0
        assert error > 0
        assert error == pytest.approx(abs(r0_true - r0_perturbed))
