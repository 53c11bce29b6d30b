"""Kernel layer: fused rounds, float32 mode.

The contract under test (see ``docs/scaling.md``, "Kernel layer"):

* a ``release_round_fused`` call must be element-wise identical to the
  staged ``release_batch`` -> ``snap_batch`` -> ``area_of_batch`` pipeline
  on the same RNG stream;
* sharded output stays bit-identical for every shard count and backend;
* the float32 adversary mode promises only *distributional* equivalence,
  with documented tolerances.
"""

import numpy as np
import pytest

import repro.cli as cli
from repro.adversary.inference import BayesianAttacker
from repro.adversary.metrics import adversary_error, expected_inference_error
from repro.core.mechanisms import (
    GeoIndistinguishabilityMechanism,
    PolicyLaplaceMechanism,
    PolicyPlanarIsotropicMechanism,
)
from repro.engine import FusedRound, PrivacyEngine, backend_names
from repro.epidemic.monitor import LocationMonitor
from repro.experiments.configs import build_policy
from repro.geo.grid import GridWorld
from repro.mobility.synthetic import geolife_like
from repro.server.pipeline import run_release_rounds_batched


@pytest.fixture
def world():
    return GridWorld(6, 6)


@pytest.fixture
def db(world):
    return geolife_like(world, n_users=9, horizon=8, rng=1)


@pytest.fixture
def engine(world):
    return PrivacyEngine.from_spec(world, mechanism="P-LM", policy="G1", epsilon=1.0)


class TestFusedEqualsStaged:
    def test_release_round_fused_matches_staged_triple(self, world, engine):
        cells = np.arange(world.n_cells)
        staged_batch = engine.release_batch(cells, rng=np.random.default_rng(41))
        staged_cells = world.snap_batch(staged_batch.points)
        staged_areas = world.area_of_batch(staged_cells, 3, 3)
        fused = engine.release_round_fused(
            cells, rng=np.random.default_rng(41), block_rows=3, block_cols=3
        )
        assert isinstance(fused, FusedRound)
        assert len(fused) == len(cells)
        assert np.array_equal(staged_batch.points, fused.points)
        assert np.array_equal(cells, fused.cells)  # true cells, passed through
        assert np.array_equal(staged_cells, fused.snapped)
        assert np.array_equal(staged_areas, fused.areas)

    def test_fused_flow_codes_feed_the_monitor(self, world, engine):
        monitor = LocationMonitor(world, 3, 3)
        rng = np.random.default_rng(8)
        users = np.repeat(np.arange(5), 6)
        times = np.tile(np.arange(6), 5)
        cells = rng.integers(0, world.n_cells, size=len(users))
        fused = engine.release_round_fused(
            cells,
            rng=np.random.default_rng(2),
            block_rows=3,
            block_cols=3,
            users=users,
            times=times,
        )
        via_codes = monitor.flows_from_codes(fused.flow_codes, fused.flow_mask)
        via_arrays = monitor.flows_from_arrays(users, times, fused.snapped)
        assert via_codes == via_arrays

    def test_flows_from_codes_unmasked_counts_everything(self, world):
        monitor = LocationMonitor(world, 2, 2)
        codes = np.array([0, 0, 5, 5, 5])
        flows = monitor.flows_from_codes(codes)
        n = monitor.n_areas
        assert flows[(0, 0)] == 2 and flows[(5 // n, 5 % n)] == 3
        assert monitor.flows_from_codes(np.array([], dtype=int)) == {}


class TestPipelineShardMatrix:
    """Acceptance matrix: shards {1,2,5,7} x backends."""

    @pytest.mark.parametrize("backend", backend_names())
    @pytest.mark.parametrize("shards", [1, 2, 5, 7])
    def test_sharded_matrix_reproduces_reference(self, world, db, engine, shards, backend):
        reference = run_release_rounds_batched(world, db, engine, rng=42, shards=1)
        run = run_release_rounds_batched(
            world, db, engine, rng=42, shards=shards, backend=backend
        )
        assert list(run.released_db.checkins()) == list(reference.released_db.checkins())


class TestCoverageMaskCache:
    def test_mechanisms_share_graph_level_masks(self, world):
        graph = build_policy("G1", world)
        loose = PolicyLaplaceMechanism(world, graph, 0.5)
        tight = PolicyPlanarIsotropicMechanism(world, graph, 2.0)
        loose.release_batch([0, 1], rng=np.random.default_rng(0))
        tight.release_batch([0, 1], rng=np.random.default_rng(0))
        cache = graph.__dict__["_coverage_mask_cache"]
        assert world in cache
        covered, disclosed = cache[world]
        assert not covered.flags.writeable and not disclosed.flags.writeable

    def test_is_exact_override_gets_instance_masks(self, world):
        # Geo-I overrides is_exact (never discloses); the shared graph-level
        # disclosed mask must not leak its policy's disclosable cells in.
        mech = GeoIndistinguishabilityMechanism(world, epsilon=1.0)
        batch = mech.release_batch(
            np.arange(world.n_cells), rng=np.random.default_rng(1)
        )
        assert not batch.exact.any()


class TestFloat32Adversary:
    def _batch(self, world, engine, seed=21):
        cells = np.arange(world.n_cells)
        return cells, engine.release_batch(cells, rng=np.random.default_rng(seed))

    def test_posterior_batch_dtype_and_normalisation(self, world, engine):
        _, batch = self._batch(world, engine)
        attacker = BayesianAttacker(world, engine.mechanism, float32=True)
        posteriors = attacker.posterior_batch(batch)
        assert posteriors.dtype == np.float32
        assert np.allclose(posteriors.sum(axis=1), 1.0, atol=1e-5)

    def test_expected_error_within_documented_tolerance(self, world, engine):
        _, batch = self._batch(world, engine)
        reference = BayesianAttacker(world, engine.mechanism)
        single = BayesianAttacker(world, engine.mechanism, float32=True)
        e64 = reference.expected_error_batch(batch)
        e32 = single.expected_error_batch(batch)
        assert e32.dtype == np.float64  # handed back upcast for aggregation
        assert np.allclose(e64, e32, rtol=1e-3)

    def test_estimates_and_inference_error_agree(self, world, engine):
        cells, batch = self._batch(world, engine)
        reference = BayesianAttacker(world, engine.mechanism)
        single = BayesianAttacker(world, engine.mechanism, float32=True)
        assert np.array_equal(
            reference.estimate_batch(batch), single.estimate_batch(batch)
        )
        assert np.allclose(
            reference.inference_error_batch(batch, cells),
            single.inference_error_batch(batch, cells),
            rtol=1e-3,
        )

    def test_scalar_path_stays_float64(self, world, engine):
        _, batch = self._batch(world, engine)
        single = BayesianAttacker(world, engine.mechanism, float32=True)
        posterior = single.posterior(batch[0])
        assert posterior.dtype == np.float64

    def test_pdf_matrix_dtype_parameter(self, world, engine):
        _, batch = self._batch(world, engine)
        dense = engine.pdf_matrix(batch.points, dtype=np.float32)
        assert dense.dtype == np.float32
        reference = engine.pdf_matrix(batch.points)
        assert np.allclose(dense, reference, rtol=1e-5)

    def test_metrics_thread_float32(self, world, engine):
        cells = list(range(10))
        kwargs = dict(rng=np.random.default_rng(3), trials_per_cell=2)
        ref = adversary_error(world, engine.mechanism, cells, rng=np.random.default_rng(3), trials_per_cell=2)
        f32 = adversary_error(world, engine.mechanism, cells, float32=True, **kwargs)
        assert f32 == pytest.approx(ref, rel=1e-3)
        ref_e = expected_inference_error(world, engine.mechanism, cells, rng=np.random.default_rng(5), trials_per_cell=2)
        f32_e = expected_inference_error(
            world, engine.mechanism, cells, rng=np.random.default_rng(5), trials_per_cell=2, float32=True
        )
        assert f32_e == pytest.approx(ref_e, rel=1e-3)

    def test_sharded_adversary_accepts_float32(self, world, engine):
        cells = list(range(8))
        ref = expected_inference_error(
            world, engine.mechanism, cells, rng=7, trials_per_cell=2, shards=2, backend="serial"
        )
        f32 = expected_inference_error(
            world, engine.mechanism, cells, rng=7, trials_per_cell=2, shards=2,
            backend="serial", float32=True,
        )
        assert f32 == pytest.approx(ref, rel=1e-3)

    def test_experiment_float32_runs(self, capsys):
        code = cli.main(
            ["experiment", "e4", "--size", "6", "--users", "4", "--horizon", "6", "--float32"]
        )
        assert code == 0
        assert "E4" in capsys.readouterr().out
