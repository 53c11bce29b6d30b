"""Unit tests for the Bayesian attacker and empirical privacy metrics."""

import numpy as np
import pytest

from repro.adversary.inference import BayesianAttacker
from repro.adversary.metrics import adversary_error, expected_inference_error, utility_error
from repro.core.mechanisms import PolicyLaplaceMechanism
from repro.core.policies import area_policy, complete_policy, contact_tracing_policy, grid_policy
from repro.errors import ValidationError
from repro.geo.grid import GridWorld


@pytest.fixture
def world():
    return GridWorld(5, 5)


@pytest.fixture
def mechanism(world):
    return PolicyLaplaceMechanism(world, grid_policy(world), epsilon=2.0)


class TestPosterior:
    def test_posterior_is_distribution(self, world, mechanism):
        attacker = BayesianAttacker(world, mechanism)
        release = mechanism.release(12, rng=0)
        posterior = attacker.posterior(release)
        assert posterior.shape == (25,)
        assert posterior.sum() == pytest.approx(1.0)
        assert np.all(posterior >= 0)

    def test_posterior_respects_prior_support(self, world, mechanism):
        prior = np.zeros(25)
        prior[[3, 4]] = 0.5
        attacker = BayesianAttacker(world, mechanism, prior=prior)
        posterior = attacker.posterior(mechanism.release(3, rng=1))
        assert set(np.nonzero(posterior)[0].tolist()) <= {3, 4}

    def test_exact_release_identifies_cell(self, world):
        policy = contact_tracing_policy(grid_policy(world), [7])
        mech = PolicyLaplaceMechanism(world, policy, epsilon=1.0)
        attacker = BayesianAttacker(world, mech)
        posterior = attacker.posterior(mech.release(7, rng=0))
        assert posterior[7] == 1.0

    def test_bad_prior_rejected(self, world, mechanism):
        with pytest.raises(ValidationError):
            BayesianAttacker(world, mechanism, prior=np.ones(3))
        with pytest.raises(ValidationError):
            BayesianAttacker(world, mechanism, prior=-np.ones(25))


class TestEstimate:
    def test_estimate_close_to_truth_with_high_budget(self, world):
        mech = PolicyLaplaceMechanism(world, grid_policy(world), epsilon=20.0)
        attacker = BayesianAttacker(world, mech)
        rng = np.random.default_rng(2)
        errors = [
            world.distance(attacker.estimate(mech.release(12, rng=rng)), 12)
            for _ in range(30)
        ]
        assert np.mean(errors) < 1.0

    def test_expected_error_nonnegative(self, world, mechanism):
        attacker = BayesianAttacker(world, mechanism)
        release = mechanism.release(0, rng=3)
        assert attacker.expected_error(release) >= 0

    def test_inference_error_matches_estimate(self, world, mechanism):
        attacker = BayesianAttacker(world, mechanism)
        release = mechanism.release(6, rng=4)
        estimate = attacker.estimate(release)
        assert attacker.inference_error(release, 6) == world.distance(estimate, 6)


class TestMetrics:
    def test_utility_error_positive_for_noisy(self, world, mechanism):
        assert utility_error(world, mechanism, [0, 12, 24], rng=0, trials_per_cell=3) > 0

    def test_utility_error_zero_for_disclosed(self, world):
        policy = contact_tracing_policy(grid_policy(world), [5])
        mech = PolicyLaplaceMechanism(world, policy, epsilon=1.0)
        assert utility_error(world, mech, [5], rng=0, trials_per_cell=5) == 0.0

    def test_empty_cells_rejected(self, world, mechanism):
        with pytest.raises(ValidationError):
            utility_error(world, mechanism, [], rng=0)

    def test_utility_decreases_with_epsilon(self, world):
        cells = list(range(25))
        loose = PolicyLaplaceMechanism(world, grid_policy(world), epsilon=0.2)
        tight = PolicyLaplaceMechanism(world, grid_policy(world), epsilon=5.0)
        assert utility_error(world, tight, cells, rng=1, trials_per_cell=4) < utility_error(
            world, loose, cells, rng=1, trials_per_cell=4
        )

    def test_adversary_error_increases_with_policy_strength(self, world):
        # Complete policy (everything indistinguishable) must be at least as
        # private as the fine 2x2-block policy.
        cells = list(range(25))
        weak = PolicyLaplaceMechanism(world, area_policy(world, 2, 2), epsilon=1.0)
        strong = PolicyLaplaceMechanism(world, complete_policy(cells), epsilon=1.0)
        weak_privacy = adversary_error(world, weak, cells, rng=2, trials_per_cell=3)
        strong_privacy = adversary_error(world, strong, cells, rng=2, trials_per_cell=3)
        assert strong_privacy > weak_privacy

    def test_expected_inference_error_positive(self, world, mechanism):
        value = expected_inference_error(world, mechanism, [0, 12], rng=3, trials_per_cell=2)
        assert value > 0
