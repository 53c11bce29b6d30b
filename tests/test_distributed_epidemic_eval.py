"""Distributed epidemic evaluators: shard/backend determinism matrix.

The trace-level evaluators (E2's R0 estimator, E3's contact tracing, E11's
metapop flows) ride the same `ShardPlan` + `ExecutionBackend` machinery as
E1/E4 (tests/test_distributed_eval.py); this matrix pins the same contract
for them: bit-identity across shard counts {1, 2, 5, 7} and every
registered backend, and agreement with the scalar per-release reference.
"""

import pytest

from repro.core.mechanisms import PolicyLaplaceMechanism
from repro.engine import PrivacyEngine, backend_names
from repro.epidemic.analysis import r0_estimation_error
from repro.epidemic.metapop import forecast_divergence, forecast_from_flows
from repro.epidemic.monitor import LocationMonitor, perturbed_flows
from repro.epidemic.tracing import ContactTracingProtocol
from repro.errors import DataError, ValidationError
from repro.experiments.configs import build_mechanism, build_policy
from repro.geo.grid import GridWorld
from repro.mobility.synthetic import geolife_like
from repro.mobility.trajectory import TraceDB
from repro.server.pipeline import run_release_rounds_batched

#: every registered backend x these counts.
BACKENDS = backend_names()
SHARD_COUNTS = [1, 2, 5, 7]


@pytest.fixture(scope="module")
def world():
    return GridWorld(6, 6)


@pytest.fixture(scope="module")
def db(world):
    return geolife_like(world, n_users=7, horizon=8, rng=1)


@pytest.fixture(scope="module")
def mechanism(world):
    return build_mechanism("P-LM", world, build_policy("G1", world), 1.0)


@pytest.fixture(scope="module")
def engine(world):
    return PrivacyEngine.from_spec(world, mechanism="P-LM", policy="G1", epsilon=1.0)


class TestR0Estimation:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_bit_identical(self, world, db, engine, mechanism, backend, shards):
        reference = r0_estimation_error(
            world, mechanism, db, p_transmit=0.3, gamma=0.1, rng=9, shards=1
        )
        value = r0_estimation_error(
            world, engine, db, p_transmit=0.3, gamma=0.1, rng=9,
            shards=shards, backend=backend,
        )
        # Exact equality of every float: the merge is bit-exact, and the
        # EngineRef-rebuilt engine must draw the live mechanism's streams.
        assert value == reference

    def test_scalar_reference_matches_batched(self, world, db, mechanism):
        batched = r0_estimation_error(
            world, mechanism, db, p_transmit=0.3, gamma=0.1, rng=5, shards=3
        )
        scalar = r0_estimation_error(
            world, mechanism, db, p_transmit=0.3, gamma=0.1, rng=5, shards=3, batched=False
        )
        assert scalar == pytest.approx(batched, rel=1e-12)

    def test_r0_true_matches_unsharded(self, world, db, mechanism):
        # The true-trace half involves no draws, so it crosses layouts exactly.
        sharded = r0_estimation_error(
            world, mechanism, db, p_transmit=0.3, gamma=0.1, rng=4, shards=2
        )
        unsharded = r0_estimation_error(
            world, mechanism, db, p_transmit=0.3, gamma=0.1, rng=4
        )
        assert sharded[0] == unsharded[0]

    def test_unsharded_equals_one_shard(self, world, db, mechanism):
        # One layout: without shards= / backend= the estimator is the
        # one-shard serial run on per-user streams.
        one = r0_estimation_error(
            world, mechanism, db, p_transmit=0.3, gamma=0.1, rng=4, shards=1
        )
        assert r0_estimation_error(
            world, mechanism, db, p_transmit=0.3, gamma=0.1, rng=4
        ) == one

    def test_mismatched_world_rejected(self, db, mechanism):
        with pytest.raises(ValidationError):
            r0_estimation_error(
                GridWorld(4, 4), mechanism, db, p_transmit=0.3, gamma=0.1, shards=2
            )


def _protocol(world, window=8):
    return ContactTracingProtocol(
        world, build_policy("Gb", world), PolicyLaplaceMechanism, 1.0,
        min_count=2, window=window,
    )


def _patient(db, window):
    diagnosis = db.times()[-1]
    start = diagnosis - window + 1
    users = sorted(db.users())
    return (
        max(users, key=lambda u: len(db.contacts_of(u, min_count=2, start=start, end=diagnosis))),
        diagnosis,
    )


class TestContactTracing:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_outcome_bit_identical(self, world, db, backend, shards):
        protocol = _protocol(world)
        patient, diagnosis = _patient(db, protocol.window)
        reference = protocol.run(db, patient, diagnosis, rng=7, shards=1)
        outcome = protocol.run(
            db, patient, diagnosis, rng=7, shards=shards, backend=backend
        )
        assert outcome == reference

    def test_scalar_reference_matches_batched(self, world, db):
        protocol = _protocol(world)
        patient, diagnosis = _patient(db, protocol.window)
        batched = protocol.run(db, patient, diagnosis, rng=3, shards=4)
        scalar = protocol.run(db, patient, diagnosis, rng=3, shards=4, batched=False)
        assert scalar == batched

    def test_released_db_and_ledger_sharded(self, world, db, engine):
        # Screening on a given stream and charging a ledger both work
        # sharded, and equal the one-shard run, ledger entries included.
        from repro.core.accounting import BudgetLedger

        protocol = _protocol(world)
        patient, diagnosis = _patient(db, protocol.window)
        stored = run_release_rounds_batched(world, db, engine, rng=5).released_db
        runs = {}
        for shards in (1, 2):
            for released in (None, stored):
                ledger = BudgetLedger()
                outcome = protocol.run(
                    db, patient, diagnosis, rng=7, released_db=released,
                    ledger=ledger, shards=shards, backend="serial",
                )
                runs[shards, released is None] = (outcome, ledger.entries)
        for generated in (True, False):
            assert runs[1, generated] == runs[2, generated]
            purposes = {entry.purpose for entry in runs[2, generated][1]}
            assert purposes == ({"stream", "tracing-resend"} if generated else {"tracing-resend"})

    def test_lone_patient_yields_empty_outcome(self, world):
        lone = TraceDB()
        for time in range(8):
            lone.record(5, time, 3)
        protocol = _protocol(world)
        outcome = protocol.run(lone, 5, 7, rng=0, shards=3)
        assert outcome.flagged == frozenset()
        assert outcome.candidates == frozenset()
        assert outcome.epsilon_spent == 0.0


class TestMetapopFlows:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_flow_counters_bit_identical(self, world, db, engine, mechanism, backend, shards):
        reference = perturbed_flows(world, mechanism, db, 3, 3, rng=11, shards=1)
        assert perturbed_flows(
            world, engine, db, 3, 3, rng=11, shards=shards, backend=backend
        ) == reference

    def test_scalar_reference_matches_batched(self, world, db, mechanism):
        batched = perturbed_flows(world, mechanism, db, 3, 3, rng=2, shards=3)
        scalar = perturbed_flows(world, mechanism, db, 3, 3, rng=2, shards=3, batched=False)
        assert scalar == batched

    def test_unsharded_matches_legacy_pipeline(self, world, db, mechanism):
        # The unsharded path must keep E11's historical stream: one batched
        # release over to_arrays order, flows counted on the snapped copy.
        from repro.epidemic.analysis import perturb_tracedb

        monitor = LocationMonitor(world, 3, 3)
        true_flows, observed = perturbed_flows(world, mechanism, db, 3, 3, rng=6)
        released = perturb_tracedb(world, mechanism, db, rng=6)
        assert true_flows == monitor.flows(db)
        assert observed == monitor.flows(released)

    def test_forecast_invariant_end_to_end(self, world, db, mechanism):
        # The quantity E11 actually reports: identical flow counters must
        # yield identical divergences at every shard count.
        import numpy as np

        monitor = LocationMonitor(world, 3, 3)
        _, _, cells = db.to_arrays()
        populations = (
            np.bincount(monitor.area_of_batch(cells), minlength=monitor.n_areas) * 10.0 + 1.0
        )

        def divergence(shards):
            true_flows, observed = perturbed_flows(world, mechanism, db, 3, 3, rng=8, shards=shards)
            reference = forecast_from_flows(
                true_flows, monitor.n_areas, populations,
                beta=0.6, sigma=0.25, gamma=0.1, mobility_rate=0.3, steps=40,
            )
            candidate = forecast_from_flows(
                observed, monitor.n_areas, populations,
                beta=0.6, sigma=0.25, gamma=0.1, mobility_rate=0.3, steps=40,
            )
            return forecast_divergence(reference, candidate)

        values = {divergence(k) for k in (1, 2, 5)}
        assert len(values) == 1

    def test_empty_db_rejected(self, world, mechanism):
        with pytest.raises(DataError):
            perturbed_flows(world, mechanism, TraceDB(), shards=2)

