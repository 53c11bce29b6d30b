"""Batched-vs-scalar equivalence of the vectorized evaluation layer.

Every batched metric must consume the same seeded RNG stream as its scalar
reference loop, so a seeded batched run reproduces the seeded scalar run —
element-wise for per-release quantities, and up to float-summation order
(rel. 1e-12) for the aggregated means.
"""

import math
from collections import Counter

import numpy as np
import pytest

from repro.adversary.inference import BayesianAttacker
from repro.adversary.metrics import adversary_error, expected_inference_error, utility_error
from repro.core.mechanisms import PolicyLaplaceMechanism, PolicyPlanarIsotropicMechanism
from repro.core.policies import contact_tracing_policy, location_set_policy
from repro.epidemic.monitor import LocationMonitor, monitoring_utility
from repro.epidemic.tracing import ContactTracingProtocol
from repro.errors import ValidationError
from repro.experiments.configs import ExperimentConfig, build_mechanism, build_policy
from repro.experiments.harness import run_theorem_bounds
from repro.geo.distance import euclidean
from repro.geo.grid import GridWorld
from repro.mobility.synthetic import geolife_like
from repro.mobility.trajectory import TraceDB
from repro.utils.rng import spawn_seeds


@pytest.fixture
def world():
    return GridWorld(8, 8)


@pytest.fixture
def db(world):
    return geolife_like(world, n_users=6, horizon=20, rng=0)


class TestAreaOfBatch:
    # (20, 20) is a tiling larger than every world here: one area.
    @pytest.mark.parametrize("block", [(4, 4), (2, 2), (3, 5), (1, 1), (20, 20)])
    @pytest.mark.parametrize(
        "shape", [(8, 8), (7, 5), (1, 9), (16, 16)], ids=lambda s: f"{s[0]}x{s[1]}"
    )
    def test_matches_scalar(self, shape, block):
        world = GridWorld(*shape)
        cells = np.arange(world.n_cells)
        batched = world.area_of_batch(cells, *block)
        assert batched.tolist() == [world.area_of(int(c), *block) for c in cells]

    def test_returned_areas_do_not_alias_the_table(self, world):
        # The batch mapping gathers from a cached table; mutating one answer
        # must not leak into the next call's.
        cells = np.arange(world.n_cells)
        first = world.area_of_batch(cells, 3, 5)
        want = first.copy()
        first[:] = -1
        assert world.area_of_batch(cells, 3, 5).tolist() == want.tolist()

    def test_n_areas_matches_partition(self, world):
        for block in ((4, 4), (3, 5), (2, 2)):
            assert world.n_areas(*block) == len(world.areas(*block))

    def test_out_of_range_rejected(self, world):
        with pytest.raises(ValidationError):
            world.area_of_batch([0, world.n_cells], 4, 4)

    def test_monitor_delegates(self, world):
        monitor = LocationMonitor(world, 4, 4)
        cells = [0, 9, 63]
        assert monitor.area_of_batch(cells).tolist() == [
            monitor.area_of_cell(c) for c in cells
        ]


class TestTraceDBArrays:
    def test_to_arrays_matches_checkins(self, db):
        users, times, cells = db.to_arrays()
        checkins = list(db.checkins())
        assert users.tolist() == [c.user for c in checkins]
        assert times.tolist() == [c.time for c in checkins]
        assert cells.tolist() == [c.cell for c in checkins]

    def test_record_many_matches_record_loop(self, db):
        users, times, cells = db.to_arrays()
        bulk = TraceDB()
        bulk.record_many(users, times, cells)
        loop = TraceDB()
        for user, time, cell in zip(users, times, cells):
            loop.record(user, time, cell)
        assert len(bulk) == len(loop) == len(db)
        assert list(bulk.checkins()) == list(loop.checkins())

    def test_record_many_overwrites_like_record(self):
        bulk = TraceDB()
        bulk.record_many([1, 1], [0, 0], [3, 5])
        assert len(bulk) == 1
        assert bulk.location(1, 0) == 5


class TestFlowsVectorized:
    def _reference_flows(self, monitor, db):
        """The seed's Counter-loop flows, kept as the semantic reference."""
        flows = Counter()
        times = db.times()
        for earlier, later in zip(times, times[1:]):
            if later != earlier + 1:
                continue
            before = db.at_time(earlier)
            after = db.at_time(later)
            for user, cell in before.items():
                next_cell = after.get(user)
                if next_cell is None:
                    continue
                flows[(monitor.area_of_cell(cell), monitor.area_of_cell(next_cell))] += 1
        return flows

    def test_matches_reference_on_dense_db(self, world, db):
        monitor = LocationMonitor(world, 4, 4)
        assert monitor.flows(db) == self._reference_flows(monitor, db)

    def test_matches_reference_with_gaps(self, world):
        monitor = LocationMonitor(world, 4, 4)
        db = TraceDB()
        rng = np.random.default_rng(3)
        for user in range(5):
            for time in sorted(rng.choice(30, size=12, replace=False).tolist()):
                db.record(user, time, int(rng.integers(world.n_cells)))
        assert monitor.flows(db) == self._reference_flows(monitor, db)

    def test_empty_and_gap_only_dbs(self, world):
        monitor = LocationMonitor(world, 4, 4)
        assert monitor.flows(TraceDB()) == Counter()
        sparse = TraceDB()
        sparse.record(1, 0, 0)
        sparse.record(1, 5, 9)
        assert sum(monitor.flows(sparse).values()) == 0


class TestMonitoringUtilityBatched:
    @pytest.mark.parametrize(
        "mechanism_name,policy_name",
        [("P-LM", "G1"), ("P-PIM", "Gb"), ("GraphExp", "Ga"), ("P-LM", "Gc")],
    )
    def test_matches_scalar_reference(self, world, db, mechanism_name, policy_name):
        policy = build_policy(policy_name, world)
        mechanism = build_mechanism(mechanism_name, world, policy, 1.0)
        batched = monitoring_utility(world, mechanism, db, rng=7)
        scalar = monitoring_utility(world, mechanism, db, rng=7, batched=False)
        assert batched.n_releases == scalar.n_releases
        assert batched.area_accuracy == scalar.area_accuracy
        assert batched.flow_l1_error == scalar.flow_l1_error
        assert batched.mean_euclidean_error == pytest.approx(
            scalar.mean_euclidean_error, rel=1e-12
        )


class TestMetricsBatched:
    CELLS = [0, 5, 9, 17, 30]
    TRIALS = 3

    @pytest.fixture
    def mechanisms(self, world):
        g1 = build_policy("G1", world)
        gc = contact_tracing_policy(g1, [5, 17], name="Gc")
        return [
            PolicyLaplaceMechanism(world, g1, 1.0),
            PolicyPlanarIsotropicMechanism(world, g1, 0.7),
            PolicyLaplaceMechanism(world, gc, 1.0),  # exact cells interleaved
        ]

    def test_utility_error_matches_scalar(self, world, mechanisms):
        for mechanism in mechanisms:
            batched = utility_error(
                world, mechanism, self.CELLS, rng=3, trials_per_cell=self.TRIALS
            )
            scalar = utility_error(
                world, mechanism, self.CELLS, rng=3, trials_per_cell=self.TRIALS, batched=False
            )
            assert batched == pytest.approx(scalar, rel=1e-12)

    def test_adversary_error_matches_scalar(self, world, mechanisms):
        for mechanism in mechanisms:
            batched = adversary_error(
                world, mechanism, self.CELLS, rng=3, trials_per_cell=self.TRIALS
            )
            scalar = adversary_error(
                world, mechanism, self.CELLS, rng=3, trials_per_cell=self.TRIALS, batched=False
            )
            assert batched == pytest.approx(scalar, rel=1e-12)

    def test_expected_inference_error_matches_scalar(self, world, mechanisms):
        for mechanism in mechanisms:
            batched = expected_inference_error(
                world, mechanism, self.CELLS, rng=3, trials_per_cell=self.TRIALS
            )
            scalar = expected_inference_error(
                world, mechanism, self.CELLS, rng=3, trials_per_cell=self.TRIALS, batched=False
            )
            assert batched == pytest.approx(scalar, rel=1e-12)

    def test_adversary_error_matches_elementwise(self, world, mechanisms):
        mechanism = mechanisms[0]
        attacker = BayesianAttacker(world, mechanism)
        trial_cells = np.repeat(self.CELLS, self.TRIALS)
        batch = mechanism.release_batch(trial_cells, rng=np.random.default_rng(3))
        errors = attacker.inference_error_batch(batch, trial_cells)
        rng = np.random.default_rng(3)
        expected = []
        for cell in self.CELLS:
            for _ in range(self.TRIALS):
                release = mechanism.release(cell, rng=rng)
                expected.append(attacker.inference_error(release, cell))
        assert errors.tolist() == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_expected_error_matches_elementwise(self, world, mechanisms):
        mechanism = mechanisms[1]
        attacker = BayesianAttacker(world, mechanism)
        trial_cells = np.repeat(self.CELLS, self.TRIALS)
        batch = mechanism.release_batch(trial_cells, rng=np.random.default_rng(4))
        errors = attacker.expected_error_batch(batch)
        expected = [attacker.expected_error(release) for release in batch.to_releases()]
        assert errors.tolist() == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_respects_prior_like_scalar(self, world):
        mechanism = PolicyLaplaceMechanism(world, build_policy("G1", world), 1.0)
        prior = np.ones(world.n_cells)
        prior[: world.n_cells // 2] = 5.0
        batched = adversary_error(
            world, mechanism, self.CELLS, prior=prior, rng=6, trials_per_cell=2
        )
        scalar = adversary_error(
            world, mechanism, self.CELLS, prior=prior, rng=6, trials_per_cell=2, batched=False
        )
        assert batched == pytest.approx(scalar, rel=1e-12)

    def test_inference_error_batch_validates_cells(self, world):
        mechanism = PolicyLaplaceMechanism(world, build_policy("G1", world), 1.0)
        attacker = BayesianAttacker(world, mechanism)
        batch = mechanism.release_batch([0, 1], rng=0)
        with pytest.raises(ValidationError):
            attacker.inference_error_batch(batch, [0])
        with pytest.raises(ValidationError):
            attacker.inference_error_batch(batch, [0, world.n_cells])


class TestTheoremSweepVectorized:
    def test_maxima_match_scalar_double_loop(self):
        config = ExperimentConfig(world_size=6, epsilons=(0.5, 2.0), seed=5)
        n_outputs, n_pairs = 8, 10
        table = run_theorem_bounds(config, n_outputs=n_outputs, n_pairs=n_pairs)

        world = config.make_world()
        rng = config.rng()
        outputs = np.column_stack(
            (
                rng.uniform(-world.width, 2 * world.width, n_outputs) * world.cell_size,
                rng.uniform(-world.height, 2 * world.height, n_outputs) * world.cell_size,
            )
        )
        expected = []
        for epsilon in config.epsilons:
            mechanism = PolicyLaplaceMechanism(world, build_policy("G1", world), epsilon)
            worst = 0.0
            for _ in range(n_pairs):
                cell_a, cell_b = rng.choice(world.n_cells, size=2, replace=False)
                distance = world.distance(int(cell_a), int(cell_b))
                for z in outputs:
                    ratio = math.log(mechanism.pdf(z, int(cell_a))) - math.log(
                        mechanism.pdf(z, int(cell_b))
                    )
                    worst = max(worst, ratio / distance)
            expected.append(worst)
            subset = sorted(rng.choice(world.n_cells, size=12, replace=False).tolist())
            pim = PolicyPlanarIsotropicMechanism(
                world, location_set_policy(world, subset, name="G2"), epsilon
            )
            worst = 0.0
            for cell_a in subset:
                for cell_b in subset:
                    if cell_a == cell_b:
                        continue
                    for z in outputs:
                        worst = max(worst, math.log(pim.pdf(z, cell_a)) - math.log(pim.pdf(z, cell_b)))
            expected.append(worst)
        assert table.column("max_log_ratio") == pytest.approx(expected, rel=1e-9, abs=1e-9)


class TestTracingBatched:
    def test_protocol_matches_scalar_reference(self, world):
        db = geolife_like(world, n_users=10, horizon=24, rng=2)
        base_policy = build_policy("Gb", world)
        protocol = ContactTracingProtocol(
            world, base_policy, PolicyLaplaceMechanism, epsilon=1.0, min_count=2, window=24
        )
        diagnosis_time = db.times()[-1]
        start = diagnosis_time - 24 + 1
        patient = max(
            sorted(db.users()),
            key=lambda u: len(db.contacts_of(u, min_count=2, start=start, end=diagnosis_time)),
        )
        outcome = protocol.run(db, patient, diagnosis_time, rng=5)

        # Scalar replica of the protocol: every non-patient user releases
        # their window and, if screened in, re-sends it, continuing their
        # own stream (one seed per user over the sorted non-patients).
        base_mechanism = PolicyLaplaceMechanism(world, base_policy, 1.0)
        infected_pairs = {
            (checkin.cell, checkin.time)
            for checkin in db.user_history(patient, start=start, end=diagnosis_time)
        }
        tracing_policy = contact_tracing_policy(
            base_policy, {cell for cell, _ in infected_pairs}, name="Gc"
        )
        tracing_mechanism = PolicyLaplaceMechanism(world, tracing_policy, 1.0)
        radius = protocol._effective_radius(base_mechanism)
        others = sorted(db.users() - {patient})
        candidates, flagged = set(), set()
        for user, seed in zip(others, spawn_seeds(5, len(others))):
            rng = np.random.default_rng(seed)
            history = db.user_history(user, start=start, end=diagnosis_time)
            released = [
                world.snap(base_mechanism.release(checkin.cell, rng=rng).point)
                for checkin in history
            ]
            if not any(
                euclidean(world.coords(cell), world.coords(infected_cell)) <= radius
                for checkin, cell in zip(history, released)
                for infected_cell, time in infected_pairs
                if time == checkin.time
            ):
                continue
            candidates.add(user)
            hits = 0
            for checkin in history:
                release = tracing_mechanism.release(checkin.cell, rng=rng)
                if release.exact and (world.snap(release.point), checkin.time) in infected_pairs:
                    hits += 1
            if hits >= protocol.min_count:
                flagged.add(user)

        assert outcome.candidates == frozenset(candidates)
        assert outcome.flagged == frozenset(flagged)


class TestPolicyConstructionCache:
    def test_build_policy_memoized_per_world_value(self):
        world_a = GridWorld(7, 7)
        world_b = GridWorld(7, 7)  # equal by value -> same cached graph
        world_c = GridWorld(9, 9)
        assert build_policy("G1", world_a) is build_policy("G1", world_b)
        assert build_policy("G1", world_a) is not build_policy("G1", world_c)
        assert build_policy("Ga", world_a) is build_policy("ga", world_a)

    def test_reregistration_invalidates_cache(self):
        from repro.core.policies import grid_policy
        from repro.engine.registry import register_policy, resolve_policy

        world = GridWorld(5, 5)
        original = resolve_policy("G1")[1]
        before = build_policy("G1", world)
        try:
            register_policy(
                "G1", lambda w, **params: grid_policy(w, connectivity=4, **params), aliases=()
            )
            after = build_policy("G1", world)
            assert after is not before
            assert after.n_edges < before.n_edges
        finally:
            register_policy("G1", original, aliases=())

    def test_epsilon_sweep_shares_policy_precomputation(self):
        world = GridWorld(7, 7)
        policy = build_policy("G1", world)
        low = PolicyPlanarIsotropicMechanism(world, policy, 0.5)
        high = PolicyPlanarIsotropicMechanism(world, policy, 2.0)
        # Hulls are epsilon-independent geometry: shared, not rebuilt.
        assert low._hull_by_component is high._hull_by_component
        lap_low = PolicyLaplaceMechanism(world, policy, 0.5)
        lap_high = PolicyLaplaceMechanism(world, policy, 2.0)
        cell = next(iter(lap_low._rate))
        assert lap_high.noise_rate(cell) == pytest.approx(4 * lap_low.noise_rate(cell))
