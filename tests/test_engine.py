"""Tests for the PrivacyEngine facade, specs, registry and batched API."""

import numpy as np
import pytest

from repro.adversary.inference import BayesianAttacker
from repro.core.mechanisms import ReleaseBatch
from repro.core.policies import contact_tracing_policy, grid_policy
from repro.engine import (
    EngineSpec,
    MechanismSpec,
    PolicySpec,
    PrivacyEngine,
    mechanism_names,
    policy_names,
    resolve_mechanism,
    resolve_policy,
)
from repro.errors import MechanismError, ValidationError
from repro.geo.grid import GridWorld
from repro.server.pipeline import run_release_rounds_batched
from repro.mobility.synthetic import geolife_like
from repro.utils.rng import SHORT_STREAM

#: Mechanisms exercised in the batch-vs-scalar identity sweeps.  optimal_lp
#: is covered separately on a small world (its LP is gated by component size).
FAST_MECHANISMS = [
    "planar_laplace",
    "planar_isotropic",
    "graph_exponential",
    "geo_indistinguishability",
]


@pytest.fixture
def world():
    return GridWorld(6, 6)


class TestRegistry:
    def test_mechanism_names_cover_paper_menagerie(self):
        assert {
            "planar_laplace",
            "planar_isotropic",
            "graph_exponential",
            "geo_indistinguishability",
            "optimal_lp",
        } <= set(mechanism_names())

    def test_policy_names(self):
        assert set(policy_names()) == {"G1", "G2", "Ga", "Gb", "Gc"}

    def test_paper_aliases_resolve(self):
        assert resolve_mechanism("P-LM")[0] == "planar_laplace"
        assert resolve_mechanism("P-PIM")[0] == "planar_isotropic"
        assert resolve_mechanism("GraphExp")[0] == "graph_exponential"
        assert resolve_mechanism("Geo-I")[0] == "geo_indistinguishability"

    def test_resolution_is_case_insensitive(self):
        assert resolve_mechanism("Planar_Laplace")[0] == "planar_laplace"
        assert resolve_policy("gb")[0] == "Gb"

    def test_unknown_names_raise(self):
        with pytest.raises(ValidationError):
            resolve_mechanism("gaussian")
        with pytest.raises(ValidationError):
            resolve_policy("G99")

    @pytest.mark.parametrize("mechanism", FAST_MECHANISMS)
    @pytest.mark.parametrize("policy", sorted({"G1", "G2", "Ga", "Gb", "Gc"}))
    def test_every_name_pair_constructs_and_releases(self, world, mechanism, policy):
        engine = PrivacyEngine.from_spec(
            world, mechanism=mechanism, policy=policy, epsilon=1.0
        )
        batch = engine.release_batch([0, 1, 2], rng=0)
        assert batch.points.shape == (3, 2)

    def test_optimal_lp_constructs_on_small_world(self):
        small = GridWorld(4, 4)
        engine = PrivacyEngine.from_spec(
            small, mechanism="optimal_lp", policy="G1", epsilon=1.0
        )
        release = engine.release(5, rng=0)
        assert len(release.point) == 2


class TestSpecs:
    def test_spec_round_trip_through_dict(self):
        spec = EngineSpec.named("P-LM", "Gb", epsilon=0.5)
        payload = spec.to_dict()
        assert payload["mechanism"]["name"] == "planar_laplace"
        rebuilt = EngineSpec.from_dict(payload)
        assert rebuilt.mechanism.epsilon == 0.5
        assert rebuilt.policy.canonical_name == "Gb"

    def test_spec_rejects_bad_epsilon(self):
        with pytest.raises(ValidationError):
            MechanismSpec(name="planar_laplace", epsilon=0.0)

    def test_engine_from_prebuilt_spec(self, world):
        spec = EngineSpec(
            mechanism=MechanismSpec("graph_exponential", epsilon=2.0),
            policy=PolicySpec("Ga"),
        )
        engine = PrivacyEngine.from_spec(world, spec)
        assert engine.epsilon == 2.0
        assert engine.policy.name == "Ga"
        assert engine.describe()["spec"]["mechanism"]["name"] == "graph_exponential"


class TestSpecUnknownKeys:
    """``from_dict`` refuses keys it does not know, naming block and key."""

    @staticmethod
    def _payload():
        return {
            "mechanism": {"name": "planar_laplace", "epsilon": 1.0, "params": {}},
            "policy": {"name": "G1", "params": {}},
            "execution": {"backend": "pool", "shards": 4},
        }

    @pytest.mark.parametrize(
        "block, key",
        [
            (None, "extra"),
            ("mechanism", "parms"),
            ("policy", "param"),
            ("execution", "shard"),
        ],
    )
    def test_unknown_key_refused_by_name(self, block, key):
        payload = self._payload()
        (payload if block is None else payload[block])[key] = "numpy"
        with pytest.raises(ValidationError) as info:
            EngineSpec.from_dict(payload)
        message = str(info.value)
        assert repr(key) in message
        assert (block or "engine spec") in message

    @pytest.mark.parametrize(
        "payload, match",
        [
            ({"mechanism": "planar_laplace", "policy": {"name": "G1"}}, "mechanism block must be a mapping"),
            ({"mechanism": {"epsilon": 1.0}, "policy": {"name": "G1"}}, r"mechanism block is missing keys \['name'\]"),
            ({"mechanism": {"name": "planar_laplace"}}, r"missing keys \['policy'\]"),
            ({"mechanism": {"name": "planar_laplace"}, "policy": {"name": "G1"}, "execution": 4}, "execution block must be a mapping"),
            ({"mechanism": {"name": "planar_laplace"}, "policy": {"name": "G1"}, "execution": {"store": "run.sqlite", "resume": "false"}}, "resume must be a bool"),
            ({"mechanism": {"name": "planar_laplace"}, "policy": {"name": "G1"}, "execution": {"store": "run.sqlite", "resume": 1}}, "resume must be a bool"),
            ({"mechanism": {"name": "planar_laplace"}, "policy": {"name": "G1"}, "execution": {"live_metrics": "false"}}, "live_metrics must be a bool"),
            ({"mechanism": {"name": "planar_laplace"}, "policy": {"name": "G1"}, "execution": {"store": 5}}, "store must be a path string"),
        ],
        ids=[
            "mechanism-not-mapping", "mechanism-no-name", "no-policy", "execution-not-mapping",
            "resume-string", "resume-int", "live-metrics-string", "store-int",
        ],
    )
    def test_malformed_blocks_refused(self, payload, match):
        with pytest.raises(ValidationError, match=match):
            EngineSpec.from_dict(payload)

    def test_written_forms_still_load(self):
        import dataclasses

        full = EngineSpec.named(
            "planar_isotropic", "Gb", epsilon=0.5, backend="pool", shards=3,
            backend_params={"max_workers": 2}, store="run.sqlite", resume=True,
            live_metrics=True,
        )
        bare = EngineSpec.named("planar_laplace", "G1")
        for spec in (full, bare):
            assert EngineSpec.from_dict(spec.to_dict()) == spec
            assert EngineSpec.from_dict(dataclasses.asdict(spec)) == spec

    def test_params_stay_free_form(self):
        payload = self._payload()
        payload["mechanism"]["params"] = {"anything": 1}
        payload["execution"]["params"] = {"max_workers": 2}
        spec = EngineSpec.from_dict(payload)
        assert spec.mechanism.params == {"anything": 1}
        assert spec.execution.params == {"max_workers": 2}


class TestBatchScalarIdentity:
    @pytest.mark.parametrize("mechanism", FAST_MECHANISMS)
    def test_release_batch_matches_sequential_scalar(self, world, mechanism):
        """Same seeded stream: batched == sequential, element-wise."""
        engine = PrivacyEngine.from_spec(
            world, mechanism=mechanism, policy="G1", epsilon=1.0
        )
        cells = list(range(world.n_cells)) * 2
        batch = engine.release_batch(cells, rng=np.random.default_rng(11))
        rng = np.random.default_rng(11)
        sequential = [engine.release(cell, rng=rng) for cell in cells]
        assert np.array_equal(batch.points, np.array([r.point for r in sequential]))
        assert np.array_equal(batch.exact, np.array([r.exact for r in sequential]))
        assert np.array_equal(batch.epsilons, np.array([r.epsilon for r in sequential]))

    def test_identity_holds_with_exact_cells_interleaved(self, world):
        policy_builder = lambda w: contact_tracing_policy(grid_policy(w), [7, 20])
        from repro.core.mechanisms import PolicyLaplaceMechanism

        policy = policy_builder(world)
        mechanism = PolicyLaplaceMechanism(world, policy, 1.0)
        engine = PrivacyEngine(world, policy, mechanism)
        cells = [5, 7, 6, 20, 8, 7]
        batch = engine.release_batch(cells, rng=np.random.default_rng(3))
        rng = np.random.default_rng(3)
        sequential = [engine.release(cell, rng=rng) for cell in cells]
        assert np.array_equal(batch.points, np.array([r.point for r in sequential]))
        assert batch.exact.tolist() == [False, True, False, True, False, True]
        assert batch.epsilons[batch.exact].sum() == 0.0

    def test_optimal_lp_batch_matches_scalar(self):
        small = GridWorld(4, 4)
        engine = PrivacyEngine.from_spec(
            small, mechanism="optimal_lp", policy="G1", epsilon=1.0
        )
        cells = list(range(small.n_cells))
        batch = engine.release_batch(cells, rng=np.random.default_rng(2))
        rng = np.random.default_rng(2)
        sequential = [engine.release(cell, rng=rng) for cell in cells]
        assert np.array_equal(batch.points, np.array([r.point for r in sequential]))


class TestReleaseStreams:
    @pytest.mark.parametrize("mechanism", FAST_MECHANISMS)
    def test_blocks_match_one_call_per_stream(self, world, mechanism):
        # Gc discloses cells 7 and 20: one block is empty, one all exact,
        # one all noisy and two mixed.  The last, mixed block draws more
        # than SHORT_STREAM uniforms at every declared width, so both of
        # stream_uniforms' draw paths run.
        engine = PrivacyEngine.from_spec(
            world, mechanism=mechanism, policy="Gc", epsilon=1.0,
            policy_params={"infected": [7, 20]},
        )
        long_block = np.arange(150) % world.n_cells
        cells = np.concatenate([[5, 7, 6, 20, 7, 8, 9, 7, 20, 3], long_block])
        seeds, counts = [11, 12, 13, 14, 15, 2**64 - 1], [3, 0, 2, 2, 3, 150]
        noisy_long = np.isin(long_block, [7, 20], invert=True).sum()
        assert noisy_long * engine.mechanism.uniform_width > SHORT_STREAM
        batch = engine.release_batch(cells, streams=(seeds, counts))
        bounds = np.cumsum([0] + counts)
        parts = [
            engine.release_batch(cells[low:high], rng=seed)
            for seed, low, high in zip(seeds, bounds[:-1], bounds[1:])
        ]
        for column in ("points", "exact", "epsilons", "cells"):
            expected = np.concatenate([getattr(part, column) for part in parts])
            assert np.array_equal(getattr(batch, column), expected)

    def test_bad_streams_rejected(self, world):
        engine = PrivacyEngine.from_spec(world, mechanism="P-LM", policy="G1", epsilon=1.0)
        with pytest.raises(MechanismError, match="not both"):
            engine.release_batch([1, 2], rng=0, streams=([1], [2]))
        for streams in (([1, 2], [2]), ([1], [3]), ([1, 2], [3, -1])):
            with pytest.raises(MechanismError, match="streams"):
                engine.release_batch([1, 2], streams=streams)

    @pytest.mark.parametrize(
        "target, value, match",
        [
            pytest.param("release", ([5, 6], [2.5, 2.5]), "count 0 is 2.5", id="float-counts"),
            pytest.param("release", ([5, 6, 7], [True, True, 2]), "count 0 is True", id="bool-counts"),
            pytest.param("release", ([5, 6], [float("nan"), 4]), "count 0 is nan", id="nan-count"),
            pytest.param("release", ([None, 6], [2, 2]), "seed 0 is None", id="none-seed"),
            pytest.param("release", ([5, True], [2, 2]), "seed 1 is True", id="bool-seed"),
            pytest.param("release", ([2**70, 6], [2, 2]), "seed 0 is 1180591620717411303424", id="huge-seed"),
            pytest.param("release", ([2**64, 6], [2, 2]), "seed 0 is 18446744073709551616", id="seed-2**64"),
            pytest.param("release", ([[1, 2], 6], [2, 2]), r"seed 0 is \[1, 2\]", id="list-seed"),
            pytest.param(
                "release", ([np.random.default_rng(3), 6], [2, 2]), "seed 0 is Generator",
                id="generator-seed",
            ),
            pytest.param("release", ([-1, 6], [2, 2]), "seed 0 is -1", id="negative-seed"),
            pytest.param("release", ([1.0, 6], [2, 2]), r"seed 0 is 1\.0", id="float-seed"),
            pytest.param("release", (["7", 6], [2, 2]), "seed 0 is '7'", id="str-seed"),
            pytest.param("plan", (None, 3), "seed 0 is None", id="plan-none-seed"),
            pytest.param("plan", (2**64, 3), "seed 0 is 18446744073709551616", id="plan-seed-2**64"),
        ],
    )
    def test_malformed_seeds_and_counts_raise(self, world, target, value, match):
        # Each of these used to run silently or fail late: counts were
        # truncated, a None seed drew OS entropy, a bool was seed 1, a huge
        # or list seed was SeedSequence entropy, a generator was consumed,
        # a negative / float / str seed raised numpy's bare ValueError or
        # TypeError, and a plan only failed when its fingerprint was taken.
        from repro.engine.sharding import ShardPlan

        if target == "plan":
            with pytest.raises(ValidationError, match=match):
                ShardPlan(users=(1, 2), seeds=value, n_shards=1)
            return
        engine = PrivacyEngine.from_spec(world, mechanism="P-LM", policy="G1", epsilon=1.0)
        with pytest.raises(MechanismError, match=match):
            engine.release_batch([1, 2, 3, 4], streams=value)

    @pytest.mark.parametrize("width", [2, 4])
    def test_misdeclared_uniform_width_caught(self, world, width):
        from repro.core.mechanisms import PolicyLaplaceMechanism

        class Misdeclared(PolicyLaplaceMechanism):
            uniform_width = width  # the kernel reads 3 per row

        mechanism = Misdeclared(world, grid_policy(world), 1.0)
        with pytest.raises(MechanismError, match="uniform_width"):
            mechanism.release_batch([1, 2, 3], streams=([1, 2], [2, 1]))

    def test_two_argument_perturb_batch_override_runs(self, world):
        # A kernel overridden as plain ``_perturb_batch(cells, rng)`` (no
        # keywords) runs on both the rng= and the streams= path.
        from repro.core.mechanisms import PolicyLaplaceMechanism

        class PlainKernel(PolicyLaplaceMechanism):
            def _perturb_batch(self, cells, rng):
                return super()._perturb_batch(cells, rng)

        plain = PlainKernel(world, grid_policy(world), 1.0)
        stock = PolicyLaplaceMechanism(world, grid_policy(world), 1.0)
        cells = np.array([1, 2, 3, 4])
        for kwargs in ({"rng": 5}, {"streams": ([5, 6], [3, 1])}):
            assert np.array_equal(
                plain.release_batch(cells, **kwargs).points,
                stock.release_batch(cells, **kwargs).points,
            )


class TestPdfMatrix:
    @pytest.mark.parametrize("mechanism", FAST_MECHANISMS)
    def test_matches_stacked_pdf_vector(self, world, mechanism):
        engine = PrivacyEngine.from_spec(
            world, mechanism=mechanism, policy="Gb", epsilon=1.0
        )
        points = np.random.default_rng(4).uniform(0.0, 6.0, size=(9, 2))
        matrix = engine.pdf_matrix(points)
        cells = list(range(world.n_cells))
        stacked = np.vstack(
            [engine.mechanism.pdf_vector(point, cells) for point in points]
        )
        assert matrix.shape == (9, world.n_cells)
        assert np.allclose(matrix, stacked)

    def test_subset_of_cells_and_scalar_pdf_agreement(self, world):
        engine = PrivacyEngine.from_spec(world, mechanism="planar_laplace")
        point = np.array([2.3, 4.1])
        subset = [0, 5, 17]
        row = engine.pdf_matrix(point, subset)[0]
        for value, cell in zip(row, subset):
            assert value == pytest.approx(engine.pdf(point, cell))

    def test_exact_and_uncovered_cells_zero(self, world):
        policy = contact_tracing_policy(grid_policy(world), [12])
        from repro.core.mechanisms import PolicyLaplaceMechanism

        mechanism = PolicyLaplaceMechanism(world, policy, 1.0)
        engine = PrivacyEngine(world, policy, mechanism)
        matrix = engine.pdf_matrix(np.array([[2.0, 2.0]]))
        assert matrix[0, 12] == 0.0
        assert matrix[0, 0] > 0


class TestReleaseBatchRecord:
    def test_structure_and_scalar_views(self, world):
        engine = PrivacyEngine.from_spec(world, mechanism="P-LM", epsilon=0.7)
        batch = engine.release_batch([1, 2, 3, 4], rng=0)
        assert len(batch) == 4
        assert batch.mechanism == "PolicyLaplaceMechanism"
        releases = batch.to_releases()
        assert [r.point for r in releases] == [batch[i].point for i in range(4)]
        assert all(r.epsilon == 0.7 for r in releases)
        assert isinstance(batch, ReleaseBatch)

    def test_uncovered_cell_rejected(self, world):
        from repro.core.mechanisms import PolicyLaplaceMechanism
        from repro.core.policy_graph import PolicyGraph

        policy = PolicyGraph([0, 1], [(0, 1)])
        mechanism = PolicyLaplaceMechanism(world, policy, 1.0)
        with pytest.raises(MechanismError):
            mechanism.release_batch([0, 9])


class TestEngineIntegration:
    def test_batched_release_rounds_population_view(self, world):
        db = geolife_like(world, n_users=5, horizon=8, rng=1)
        engine = PrivacyEngine.from_spec(world, mechanism="P-LM", epsilon=1.0)
        server = run_release_rounds_batched(world, db, engine, rng=2)
        assert server.released_db.users() == db.users()
        assert len(server.released_db) == len(db)
        for user in db.users():
            assert server.ledger.spent(user) == pytest.approx(8 * 1.0)

    def test_batched_rounds_deterministic(self, world):
        db = geolife_like(world, n_users=4, horizon=6, rng=3)
        engine = PrivacyEngine.from_spec(world, mechanism="P-PIM", epsilon=1.0)
        first = run_release_rounds_batched(world, db, engine, rng=5)
        second = run_release_rounds_batched(world, db, engine, rng=5)
        assert list(first.released_db.checkins()) == list(second.released_db.checkins())

    def test_attacker_posterior_batch_matches_scalar(self, world):
        engine = PrivacyEngine.from_spec(world, mechanism="planar_laplace")
        attacker = BayesianAttacker(world, engine.mechanism)
        batch = engine.release_batch([3, 14, 30], rng=8)
        batched = attacker.posterior_batch(batch)
        for i, release in enumerate(batch.to_releases()):
            assert np.allclose(batched[i], attacker.posterior(release))
        estimates = attacker.estimate_batch(batch)
        assert estimates.tolist() == [
            attacker.estimate(release) for release in batch.to_releases()
        ]

    def test_posterior_batch_exact_rows_one_hot(self, world):
        policy = contact_tracing_policy(grid_policy(world), [9])
        from repro.core.mechanisms import PolicyLaplaceMechanism

        mechanism = PolicyLaplaceMechanism(world, policy, 1.0)
        engine = PrivacyEngine(world, policy, mechanism)
        attacker = BayesianAttacker(world, mechanism)
        batch = engine.release_batch([9, 10], rng=1)
        posteriors = attacker.posterior_batch(batch)
        assert posteriors[0, 9] == 1.0
        assert posteriors[0].sum() == pytest.approx(1.0)
        assert posteriors[1].sum() == pytest.approx(1.0)

    def test_engine_rejects_mismatched_parts(self, world):
        from repro.core.mechanisms import PolicyLaplaceMechanism
        from repro.core.policies import area_policy

        policy = grid_policy(world)
        mechanism = PolicyLaplaceMechanism(world, policy, 1.0)
        # An equal (re-built) policy is fine; a different one is rejected.
        PrivacyEngine(world, grid_policy(world), mechanism)
        with pytest.raises(ValidationError):
            PrivacyEngine(world, area_policy(world, 2, 2), mechanism)
        with pytest.raises(ValidationError):
            PrivacyEngine(GridWorld(3, 3), policy, mechanism)
