"""One RNG layout for evaluation: evaluators score the stream the server stores.

Every evaluator called without ``shards=`` / ``backend=`` is the one-shard
serial run on per-user (or per-slot) streams, so for one seed it scores
exactly what ``run_release_rounds_batched`` stores; E1, E2 and E11 return
the final value of that run's live views.  The argument checks those runs
rely on (integer shard and trial counts, a mechanism built for the scored
world) hold on that default path too.
"""

import pytest

from repro.adversary.metrics import adversary_error, expected_inference_error, utility_error
from repro.engine import PrivacyEngine
from repro.epidemic.analysis import estimate_r0_contacts, perturb_tracedb, r0_estimation_error
from repro.epidemic.monitor import LocationMonitor, monitoring_utility, perturbed_flows
from repro.errors import ValidationError
from repro.geo.grid import GridWorld
from repro.mobility.synthetic import geolife_like, gowalla_like
from repro.server.pipeline import run_release_rounds_batched

SEED = 31
TRACES = {
    "geolife": lambda world: geolife_like(world, n_users=9, horizon=12, rng=2),
    "gowalla": lambda world: gowalla_like(
        world, n_users=9, checkins_per_user=6, horizon=12, rng=2
    ),
}


@pytest.fixture(scope="module")
def world():
    return GridWorld(8, 8)


@pytest.mark.parametrize("policy", ["G1", "Gb"])
@pytest.mark.parametrize("mechanism", ["P-LM", "P-PIM", "GraphExp"])
@pytest.mark.parametrize("trace", sorted(TRACES))
def test_evaluators_score_the_stored_stream(world, trace, mechanism, policy):
    db = TRACES[trace](world)
    engine = PrivacyEngine.from_spec(world, mechanism=mechanism, policy=policy, epsilon=1.0)
    server = run_release_rounds_batched(world, db, engine, rng=SEED, live_metrics=True)
    stored = server.released_db
    live = server.metrics_at(server.metrics.rounds[-1])

    perturbed = perturb_tracedb(world, engine, db, rng=SEED)
    assert list(perturbed.checkins()) == list(stored.checkins())
    # E1, E11 and E2 return the live views' final value: one implementation.
    assert monitoring_utility(world, engine, db, rng=SEED) == live["monitoring"]
    true_flows, observed = perturbed_flows(world, engine, db, rng=SEED)
    assert (true_flows, observed) == (live["flows"].true_flows, live["flows"].observed_flows)
    assert observed == LocationMonitor(world, 4, 4).flows(stored)
    r0_true, r0_perturbed, _ = r0_estimation_error(
        world, engine, db, p_transmit=0.3, gamma=0.1, rng=SEED
    )
    assert (r0_true, r0_perturbed) == (live["contacts"].r0_true, live["contacts"].r0_observed)
    # Occupancy pair counts equal the co-location loop (the oracle) exactly.
    assert r0_true == estimate_r0_contacts(db, p_transmit=0.3, gamma=0.1)
    assert r0_perturbed == estimate_r0_contacts(stored, p_transmit=0.3, gamma=0.1)


#: Every evaluator, called on ``(world, mechanism, db)`` plus keyword arguments.
EVALUATORS = {
    "monitoring_utility": lambda w, m, db, **kw: monitoring_utility(w, m, db, rng=0, **kw),
    "perturbed_flows": lambda w, m, db, **kw: perturbed_flows(w, m, db, rng=0, **kw),
    "r0_estimation_error": lambda w, m, db, **kw: r0_estimation_error(
        w, m, db, p_transmit=0.3, gamma=0.1, rng=0, **kw
    ),
    "perturb_tracedb": lambda w, m, db: perturb_tracedb(w, m, db, rng=0),
    "utility_error": lambda w, m, db, **kw: utility_error(w, m, [1, 2], rng=0, **kw),
    "adversary_error": lambda w, m, db, **kw: adversary_error(w, m, [1, 2], rng=0, **kw),
    "expected_inference_error": lambda w, m, db, **kw: expected_inference_error(
        w, m, [1, 2], rng=0, **kw
    ),
}
TRIAL_METRICS = ("utility_error", "adversary_error", "expected_inference_error")


@pytest.mark.parametrize(
    "name,argument,value",
    [
        (name, "shards", value)
        for name in ("monitoring_utility", "utility_error", "r0_estimation_error")
        for value in (2.7, True, 2.0)
    ]
    + [(name, "trials_per_cell", value) for name in TRIAL_METRICS for value in (0, -1, 2.5, True)],
)
def test_bad_counts_rejected(name, argument, value):
    world = GridWorld(6, 6)
    engine = PrivacyEngine.from_spec(world, mechanism="P-LM", policy="G1", epsilon=1.0)
    db = geolife_like(world, n_users=4, horizon=6, rng=1)
    with pytest.raises(ValidationError):
        EVALUATORS[name](world, engine, db, **{argument: value})


@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_mechanism_for_another_world_rejected(name):
    built_for = GridWorld(6, 6)
    scored = GridWorld(6, 6, cell_size=10)
    engine = PrivacyEngine.from_spec(built_for, mechanism="P-LM", policy="G1", epsilon=1.0)
    db = geolife_like(scored, n_users=4, horizon=6, rng=1)
    with pytest.raises(ValidationError):
        EVALUATORS[name](scored, engine, db)
