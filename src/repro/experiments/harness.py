"""Runners regenerating every evaluation artifact (experiments E1-E12).

Each function takes an :class:`~repro.experiments.configs.ExperimentConfig`
(laptop-scale defaults) and returns a
:class:`~repro.experiments.reporting.ResultTable` with the rows the
corresponding demo panel plots.  Every runner seeds all randomness from
``config.rng()``, so the same config reproduces the same table.

Two runners are execution-aware:

* E8 (:func:`run_scalability`) sweeps the sharded *release* path across
  ``config.backends x config.shard_counts`` and, since the distributed
  evaluation layer exists, times the sharded E1 metric over the same plan —
  release and eval throughput side by side, each with a live determinism
  column.  The micro-latency view (per-release / per-filter-step timings)
  additionally lives in ``benchmarks/bench_e8_scalability.py``.
* E1 / E2 / E3 / E4 / E5 / E11 pass ``config.eval_shards`` (default one
  shard) and ``config.eval_backend`` (default serial) to their metric
  calls (the CLI's ``repro experiment e1 --shards N --backend B``): E1's
  monitoring report, E2's R0 estimates, E3's tracing event sets, E4/E5's
  trial grids, and E11's metapopulation flow matrices all run over per-key
  streams, so every table is the same at any shard count and backend.
  E1, E2 and E11 read the final value of the live view
  (:mod:`repro.server.live_metrics`) their release stream folds into.  One execution backend is opened per runner and shared by every
  metric call in the sweep, so a ``pool`` backend's workers stay warm
  across the whole table.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.adversary.metrics import adversary_error, utility_error
from repro.core.mechanisms import PolicyLaplaceMechanism, PolicyPlanarIsotropicMechanism
from repro.core.policies import random_policy
from repro.engine import EngineSpec, PrivacyEngine, ensure_backend
from repro.epidemic.analysis import r0_estimation_error
from repro.epidemic.monitor import monitoring_utility
from repro.epidemic.tracing import ContactTracingProtocol, static_tracing
from repro.experiments.configs import ExperimentConfig, build_mechanism, build_policy
from repro.experiments.reporting import ResultTable
from repro.epidemic.analysis import perturb_tracedb
from repro.server.pipeline import run_release_rounds_batched

__all__ = [
    "run_monitoring_utility",
    "run_r0_estimation",
    "run_contact_tracing",
    "run_adversary_error",
    "run_random_policy_tradeoff",
    "run_theorem_bounds",
    "run_policy_matrix",
    "run_scalability",
    "run_mechanism_ablation",
    "run_temporal_privacy",
    "run_metapop_forecast",
    "run_dataset_sensitivity",
]


def _dataset(config: ExperimentConfig, world):
    """Instantiate the configured workload (geolife/gowalla/random_waypoint)."""
    from repro.mobility.datasets import make_dataset

    kwargs = {"n_users": config.n_users, "horizon": config.horizon}
    if config.dataset == "gowalla":
        # Gowalla check-ins are sparse: at most one per step and well under
        # the horizon, mirroring the real feed's cadence.
        kwargs["checkins_per_user"] = max(2, config.horizon // 2)
    return make_dataset(config.dataset, world, rng=config.rng(), **kwargs)


@contextmanager
def _eval_execution(config: ExperimentConfig):
    """``(shards, backend)`` for a runner's metric calls, backend held open.

    One live ``config.eval_backend`` (``None`` means serial) is opened for
    the *whole* runner and closed afterwards — so a ``pool`` backend forks
    its workers once per table, not once per metric call.
    ``config.eval_shards`` passes through (``None`` means one shard).
    """
    with ensure_backend(config.eval_backend) as backend:
        yield config.eval_shards, backend


def _metric_source(world, policy, policy_name, mechanism_name, epsilon):
    """The release source a metric runner scores.

    The mechanism wrapped in a spec-carrying
    :class:`~repro.engine.PrivacyEngine`, so shard tasks travel as
    :class:`~repro.engine.EngineRef` spec hashes and pool workers cache the
    built engine across the sweep instead of unpickling it per task.
    """
    mechanism = build_mechanism(mechanism_name, world, policy, epsilon)
    spec = EngineSpec.named(mechanism_name, policy_name, epsilon=float(epsilon))
    return PrivacyEngine(world, policy, mechanism, spec=spec)


def run_monitoring_utility(config: ExperimentConfig = ExperimentConfig()) -> ResultTable:
    """E1: location-monitoring utility vs epsilon per policy x mechanism.

    One row per ``(policy, mechanism, epsilon)`` combination with the three
    monitoring metrics (mean Euclidean error, area accuracy, flow L1).
    Each combination spawns its per-user streams from one ``config.rng()``
    stream consumed combination-major, so it scores what the server would
    store: the row is the live ``monitoring`` view's final value over that
    stream.  The table is invariant under ``config.eval_shards`` and
    ``config.eval_backend``.
    """
    world = config.make_world()
    db = _dataset(config, world)
    table = ResultTable(
        ["policy", "mechanism", "epsilon", "mean_euclidean_error", "area_accuracy", "flow_l1_error"],
        title=f"E1: location monitoring utility ({config.dataset})",
    )
    rng = config.rng()
    with _eval_execution(config) as (shards, backend):
        for policy_name in config.policies:
            policy = build_policy(policy_name, world)
            for mechanism_name in config.mechanisms:
                for epsilon in config.epsilons:
                    source = _metric_source(
                        world, policy, policy_name, mechanism_name, epsilon
                    )
                    report = monitoring_utility(
                        world,
                        source,
                        db,
                        block_rows=config.monitor_block[0],
                        block_cols=config.monitor_block[1],
                        rng=rng,
                        shards=shards,
                        backend=backend,
                    )
                    table.add_row(
                        policy_name,
                        mechanism_name,
                        epsilon,
                        report.mean_euclidean_error,
                        report.area_accuracy,
                        report.flow_l1_error,
                    )
    return table


def run_r0_estimation(config: ExperimentConfig = ExperimentConfig()) -> ResultTable:
    """E2: error of the R0 estimate from perturbed vs true locations.

    One row per ``(policy, mechanism, epsilon)`` with the true and
    perturbed-data R0 estimates and their absolute difference.  Each
    combination spawns its per-user streams from one ``config.rng()``
    stream consumed combination-major and reads the live ``contacts``
    view's final value over that stream (epoch-keyed occupancy counts);
    the table is invariant under ``config.eval_shards`` and
    ``config.eval_backend``.
    """
    world = config.make_world()
    db = _dataset(config, world)
    table = ResultTable(
        ["policy", "mechanism", "epsilon", "r0_true", "r0_perturbed", "abs_error"],
        title="E2: R0 estimation accuracy",
    )
    rng = config.rng()
    with _eval_execution(config) as (shards, backend):
        for policy_name in config.policies:
            policy = build_policy(policy_name, world)
            for mechanism_name in config.mechanisms:
                for epsilon in config.epsilons:
                    source = _metric_source(
                        world, policy, policy_name, mechanism_name, epsilon
                    )
                    r0_true, r0_perturbed, error = r0_estimation_error(
                        world,
                        source,
                        db,
                        p_transmit=config.p_transmit,
                        gamma=config.gamma,
                        rng=rng,
                        shards=shards,
                        backend=backend,
                    )
                    table.add_row(
                        policy_name, mechanism_name, epsilon, r0_true, r0_perturbed, error
                    )
    return table


def run_contact_tracing(config: ExperimentConfig = ExperimentConfig()) -> ResultTable:
    """E3: dynamic-Gc tracing vs the static perturbed-data baseline.

    Per epsilon, runs the dynamic contact-tracing protocol and the static
    baseline against the same diagnosed patient (the user with the most
    ground-truth contacts) and reports precision/recall/F1 plus the
    epsilon actually spent.  Both methods spawn their per-user streams from
    the same ``config.rng()`` stream in interleaved order, so rows are
    reproducible per config seed.  The dynamic protocol fans its
    non-patient population out over ``config.eval_shards`` /
    ``config.eval_backend`` (outcomes invariant under both); the static
    baseline scores :func:`~repro.epidemic.analysis.perturb_tracedb`'s
    one-shard stream.
    """
    world = config.make_world()
    db = _dataset(config, world)
    diagnosis_time = db.times()[-1]
    window = min(config.tracing_window, config.horizon)
    start = diagnosis_time - window + 1
    # Patient: the user with the most ground-truth contacts, so both methods
    # have something to find.
    users = sorted(db.users())
    patient = max(users, key=lambda u: len(db.contacts_of(u, min_count=2, start=start, end=diagnosis_time)))
    base_policy = build_policy("Gb", world)
    table = ResultTable(
        ["method", "epsilon", "precision", "recall", "f1", "n_candidates", "epsilon_spent"],
        title=f"E3: contact tracing (patient={patient}, true contacts="
        f"{len(db.contacts_of(patient, min_count=2, start=start, end=diagnosis_time))})",
    )
    rng = config.rng()
    with _eval_execution(config) as (shards, backend):
        for epsilon in config.epsilons:
            protocol = ContactTracingProtocol(
                world,
                base_policy,
                PolicyLaplaceMechanism,
                epsilon,
                min_count=2,
                window=window,
            )
            outcome = protocol.run(
                db, patient, diagnosis_time, rng=rng, shards=shards, backend=backend
            )
            table.add_row(
                "dynamic-Gc",
                epsilon,
                outcome.precision,
                outcome.recall,
                outcome.f1,
                len(outcome.candidates),
                outcome.epsilon_spent,
            )
            mechanism = PolicyLaplaceMechanism(world, base_policy, epsilon)
            released = perturb_tracedb(world, mechanism, db, rng=rng)
            baseline = static_tracing(
                world, released, db, patient, diagnosis_time, window=window, min_count=2
            )
            table.add_row(
                "static",
                epsilon,
                baseline.precision,
                baseline.recall,
                baseline.f1,
                len(baseline.candidates),
                baseline.epsilon_spent,
            )
    return table


def run_adversary_error(config: ExperimentConfig = ExperimentConfig()) -> ResultTable:
    """E4: empirical privacy (Bayesian adversary error) per policy.

    One row per ``(policy, mechanism, epsilon)`` with the attacker's mean
    realised inference error and the matching utility error over one shared
    sample of true cells (``config.trials`` trials per cell).  Both metrics
    spawn per-trial-slot streams from one ``config.rng()`` stream and run
    over ``config.eval_shards`` / ``config.eval_backend`` (the table is
    invariant under both).  Per-shard attackers are built inside the
    workers and share the world's cached distance matrix — under the
    ``pool`` backend it survives the whole sweep.
    """
    world = config.make_world()
    rng = config.rng()
    sample_size = min(20, world.n_cells)
    true_cells = rng.choice(world.n_cells, size=sample_size, replace=False).tolist()
    table = ResultTable(
        ["policy", "mechanism", "epsilon", "adversary_error", "utility_error"],
        title="E4: empirical privacy (adversary inference error)",
    )
    with _eval_execution(config) as (shards, backend):
        for policy_name in config.policies:
            policy = build_policy(policy_name, world)
            for mechanism_name in config.mechanisms:
                for epsilon in config.epsilons:
                    source = _metric_source(
                        world, policy, policy_name, mechanism_name, epsilon
                    )
                    privacy = adversary_error(
                        world,
                        source,
                        true_cells,
                        rng=rng,
                        trials_per_cell=config.trials,
                        shards=shards,
                        backend=backend,
                        float32=config.float32,
                    )
                    utility = utility_error(
                        world,
                        source,
                        true_cells,
                        rng=rng,
                        trials_per_cell=config.trials,
                        shards=shards,
                        backend=backend,
                    )
                    table.add_row(policy_name, mechanism_name, epsilon, privacy, utility)
    return table


def run_random_policy_tradeoff(
    config: ExperimentConfig = ExperimentConfig(),
    sizes: tuple[int, ...] = (20, 50),
    densities: tuple[float, ...] = (0.05, 0.1, 0.3),
    epsilon: float = 1.0,
) -> ResultTable:
    """E5: the demo's random-policy-graph privacy/utility explorer.

    For each ``(size, density)`` pair, samples a random policy graph from
    ``config.rng()``, builds P-LM at ``epsilon``, and scores utility and
    adversary error over (up to 20 of) its protected cells with
    ``config.trials`` trials each — graph sampling and metric draws share
    one stream, so the table is a pure function of the config seed.  Both
    metrics run over per-trial-slot streams on ``config.eval_shards`` /
    ``config.eval_backend``, as in E4.
    """
    world = config.make_world()
    rng = config.rng()
    table = ResultTable(
        ["size", "density", "n_edges", "utility_error", "adversary_error"],
        title=f"E5: random policy graphs (epsilon={epsilon})",
    )
    with _eval_execution(config) as (shards, backend):
        for size in sizes:
            for density in densities:
                policy = random_policy(world, size=size, density=density, rng=rng)
                mechanism = PolicyLaplaceMechanism(world, policy, epsilon)
                protected = [c for c in policy.nodes if not policy.is_disclosable(c)]
                if not protected:
                    continue
                cells = protected[: min(20, len(protected))]
                utility = utility_error(
                    world, mechanism, cells, rng=rng, trials_per_cell=config.trials,
                    shards=shards, backend=backend,
                )
                privacy = adversary_error(
                    world, mechanism, cells, rng=rng, trials_per_cell=config.trials,
                    shards=shards, backend=backend, float32=config.float32,
                )
                table.add_row(size, density, policy.n_edges, utility, privacy)
    return table


def run_theorem_bounds(
    config: ExperimentConfig = ExperimentConfig(),
    n_outputs: int = 40,
    n_pairs: int = 60,
) -> ResultTable:
    """E6: analytic verification of Theorems 2.1 and 2.2.

    For {eps, G1}-private P-LM, the Geo-I guarantee requires
    ``log(pdf(z|s)/pdf(z|s')) <= eps * d_E(s, s')`` for *all* pairs; for
    {eps, G2}-private P-PIM, location-set privacy requires a flat ``eps``
    bound within the set.  Densities are closed-form, so the observed maxima
    are exact up to float error.
    """
    world = config.make_world()
    rng = config.rng()
    table = ResultTable(
        ["theorem", "policy", "mechanism", "epsilon", "max_log_ratio", "bound", "holds"],
        title="E6: theorem 2.1 / 2.2 indistinguishability bounds",
    )
    outputs = np.column_stack(
        (
            rng.uniform(-world.width, 2 * world.width, n_outputs) * world.cell_size,
            rng.uniform(-world.height, 2 * world.height, n_outputs) * world.cell_size,
        )
    )
    for epsilon in config.epsilons:
        # Theorem 2.1: {eps, G1} implies eps-Geo-Indistinguishability.  The
        # pair draws keep the scalar loop's RNG order; all (pair, output)
        # log-ratios then come from one pdf_matrix call over the distinct
        # cells instead of 2 * n_pairs * n_outputs scalar pdf evaluations.
        policy = build_policy("G1", world)
        mechanism = PolicyLaplaceMechanism(world, policy, epsilon)
        pairs = np.asarray(
            [rng.choice(world.n_cells, size=2, replace=False) for _ in range(n_pairs)],
            dtype=int,
        )
        distinct, flat_index = np.unique(pairs.ravel(), return_inverse=True)
        column = flat_index.reshape(pairs.shape)
        log_pdf = np.log(mechanism.pdf_matrix(outputs, distinct))  # (n_outputs, k)
        coords_a = world.coords_array(pairs[:, 0])
        coords_b = world.coords_array(pairs[:, 1])
        distances = np.hypot(
            coords_a[:, 0] - coords_b[:, 0], coords_a[:, 1] - coords_b[:, 1]
        )
        ratios = (log_pdf[:, column[:, 0]] - log_pdf[:, column[:, 1]]) / distances[None, :]
        worst = max(0.0, float(ratios.max()))
        table.add_row("2.1 (Geo-I)", "G1", "P-LM", epsilon, worst, epsilon, worst <= epsilon + 1e-9)

        # Theorem 2.2: {eps, G2} over a location set implies eps-LS privacy.
        # The max over ordered pairs (a, b) of log pdf(z|a) - log pdf(z|b) is
        # each output row's max minus min in one (n_outputs, |set|) matrix.
        subset = sorted(rng.choice(world.n_cells, size=12, replace=False).tolist())
        from repro.core.policies import location_set_policy

        set_policy = location_set_policy(world, subset, name="G2")
        pim = PolicyPlanarIsotropicMechanism(world, set_policy, epsilon)
        log_pdf = np.log(pim.pdf_matrix(outputs, subset))
        worst = max(0.0, float((log_pdf.max(axis=1) - log_pdf.min(axis=1)).max()))
        table.add_row("2.2 (LocSet)", "G2", "P-PIM", epsilon, worst, epsilon, worst <= epsilon + 1e-9)
    return table


def run_policy_matrix(
    config: ExperimentConfig = ExperimentConfig(), epsilon: float = 1.0
) -> ResultTable:
    """E7: per-function utility of Ga / Gb / Gc — "no policy is best for all".

    One row per policy with all three app metrics side by side: monitoring
    area accuracy, R0 absolute error, and tracing F1 (with the policy as the
    tracing base).
    """
    world = config.make_world()
    db = _dataset(config, world)
    diagnosis_time = db.times()[-1]
    window = min(config.tracing_window, config.horizon)
    start = diagnosis_time - window + 1
    users = sorted(db.users())
    patient = max(
        users, key=lambda u: len(db.contacts_of(u, min_count=2, start=start, end=diagnosis_time))
    )
    table = ResultTable(
        ["policy", "monitoring_area_accuracy", "monitoring_error", "r0_abs_error", "tracing_f1"],
        title=f"E7: policy-by-function matrix (epsilon={epsilon})",
    )
    rng = config.rng()
    for policy_name in ("Ga", "Gb", "Gc"):
        policy = build_policy(policy_name, world)
        mechanism = PolicyLaplaceMechanism(world, policy, epsilon)
        monitoring = monitoring_utility(
            world,
            mechanism,
            db,
            block_rows=config.monitor_block[0],
            block_cols=config.monitor_block[1],
            rng=rng,
        )
        _, _, r0_error = r0_estimation_error(
            world, mechanism, db, p_transmit=config.p_transmit, gamma=config.gamma, rng=rng
        )
        protocol = ContactTracingProtocol(
            world, policy, PolicyLaplaceMechanism, epsilon, min_count=2, window=window
        )
        outcome = protocol.run(db, patient, diagnosis_time, rng=rng)
        table.add_row(
            policy_name,
            monitoring.area_accuracy,
            monitoring.mean_euclidean_error,
            r0_error,
            outcome.f1,
        )
    return table


def run_mechanism_ablation(
    config: ExperimentConfig = ExperimentConfig(),
    epsilon: float = 1.0,
    ablation_world_size: int = 6,
) -> ResultTable:
    """E9 (ablation): how close do the practical mechanisms get to optimal?

    On a small world (the LP has n^2 variables) every mechanism's *analytic*
    expected error is compared at one budget, for the isotropic G1 policy and
    for a deliberately anisotropic corridor policy where P-PIM's hull shines.
    """
    from repro.core.mechanisms import GraphExponentialMechanism, OptimalDiscreteMechanism
    from repro.core.policy_graph import PolicyGraph
    from repro.geo.grid import GridWorld

    world = GridWorld(ablation_world_size, ablation_world_size)
    rng = config.rng()

    def corridor_policy() -> PolicyGraph:
        """Horizontal chains only: a maximally anisotropic sensitivity hull."""
        edges = []
        for row in range(world.height):
            for col in range(world.width - 1):
                edges.append((world.cell_of(row, col), world.cell_of(row, col + 1)))
        return PolicyGraph(world, edges, name="corridor")

    policies = {"G1": build_policy("G1", world), "corridor": corridor_policy()}
    table = ResultTable(
        ["policy", "mechanism", "epsilon", "mean_empirical_error", "optimality_gap"],
        title=f"E9: mechanism ablation vs LP-optimal (epsilon={epsilon})",
    )
    sample_cells = [int(c) for c in rng.choice(world.n_cells, size=10, replace=False)]
    for policy_name, policy in policies.items():
        optimal = OptimalDiscreteMechanism(
            world, policy, epsilon, max_component_size=world.n_cells
        )
        optimal_error = float(
            np.mean([optimal.expected_error(cell) for cell in sample_cells])
        )
        mechanisms = {
            "P-LM": PolicyLaplaceMechanism(world, policy, epsilon),
            "P-PIM": PolicyPlanarIsotropicMechanism(world, policy, epsilon),
            "GraphExp": GraphExponentialMechanism(world, policy, epsilon),
            "Optimal-LP": optimal,
        }
        for mechanism_name, mechanism in mechanisms.items():
            from repro.adversary.metrics import utility_error

            empirical = utility_error(
                world, mechanism, sample_cells, rng=rng, trials_per_cell=40
            )
            table.add_row(
                policy_name,
                mechanism_name,
                epsilon,
                empirical,
                empirical - optimal_error,
            )
    return table


def run_temporal_privacy(
    config: ExperimentConfig = ExperimentConfig(),
    epsilon: float = 1.0,
    deltas: tuple[float, ...] = (0.0, 0.05, 0.2),
    horizon: int = 30,
    temporal_world_size: int = 8,
) -> ResultTable:
    """E10 (extension): streaming release with delta-location sets + repair.

    Follows one Markov-mobile user for ``horizon`` steps under each delta:
    the released stream's utility, the surrogate rate, the mean
    delta-location-set size, repair activity, and the *tracking* adversary's
    mean error (forward filtering over all releases, per-step mechanisms).
    """
    from repro.adversary.tracking import TrajectoryAttacker
    from repro.core.temporal import TemporalReleaser
    from repro.geo.grid import GridWorld
    from repro.mobility.markov import MarkovModel

    world = GridWorld(temporal_world_size, temporal_world_size)
    markov = MarkovModel.lazy_walk(world, p_stay=0.4)
    base_policy = build_policy("G1", world)
    rng = config.rng()
    start = int(rng.integers(world.n_cells))
    trajectory = markov.sample_trajectory(start, horizon, rng=rng)
    table = ResultTable(
        [
            "delta",
            "mean_set_size",
            "surrogate_rate",
            "repaired_edges",
            "utility_error",
            "tracking_error",
        ],
        title=f"E10: temporal release with delta-location sets (epsilon={epsilon})",
    )
    for delta in deltas:
        releaser = TemporalReleaser(
            world, base_policy, markov, PolicyLaplaceMechanism, epsilon, delta=delta
        )
        records = releaser.run(trajectory.cells, rng=rng)
        mechanisms = [
            PolicyLaplaceMechanism(world, record.repair.graph, epsilon)
            for record in records
        ]
        attacker = TrajectoryAttacker(world, markov)
        tracking = attacker.track(
            [record.release for record in records], mechanisms, trajectory.cells
        )
        table.add_row(
            delta,
            float(np.mean([len(record.delta_set) for record in records])),
            releaser.surrogate_rate(),
            sum(len(record.repair.added_edges) for record in records),
            releaser.mean_utility_error(),
            tracking.mean_error,
        )
    return table


def run_metapop_forecast(
    config: ExperimentConfig = ExperimentConfig(),
    beta: float = 0.6,
    mobility_rate: float = 0.3,
    forecast_steps: int = 120,
) -> ResultTable:
    """E11 (extension): epidemic forecasting from privacy-preserving flows.

    The monitoring app's end-to-end utility (Sec. 3.1's motivation): fit a
    metapopulation SEIR to the inter-area flows of the true stream and of
    each perturbed stream, and report the divergence between the forecast
    infectious curves, per policy and budget.  Each combination's flow
    measurement is the live ``flows`` view's final value over per-user
    streams on ``config.eval_shards`` / ``config.eval_backend``; the flow
    matrices — and therefore the forecasts — are invariant under both.
    """
    from repro.epidemic.metapop import forecast_divergence, forecast_from_flows
    from repro.epidemic.monitor import LocationMonitor, perturbed_flows

    world = config.make_world()
    db = _dataset(config, world)
    monitor = LocationMonitor(world, config.monitor_block[0], config.monitor_block[1])
    n_areas = monitor.n_areas
    # Populations proportional to true occupancy so areas are heterogeneous
    # and the forecast genuinely depends on the mobility matrix.
    _, _, occupied_cells = db.to_arrays()
    occupancy = np.bincount(
        monitor.area_of_batch(occupied_cells), minlength=n_areas
    ).astype(float)
    scale = 10.0 * config.n_users / max(occupancy.sum(), 1.0)
    populations = occupancy * scale * n_areas + 1.0

    def forecast(flows):
        return forecast_from_flows(
            flows,
            n_areas,
            populations,
            beta=beta,
            sigma=config.sigma,
            gamma=config.gamma,
            mobility_rate=mobility_rate,
            steps=forecast_steps,
        )

    reference = forecast(monitor.flows(db))
    table = ResultTable(
        ["policy", "epsilon", "forecast_divergence", "peak_time_true", "peak_time_perturbed"],
        title="E11: metapopulation forecast from perturbed flows",
    )
    rng = config.rng()
    with _eval_execution(config) as (shards, backend):
        for policy_name in config.policies:
            policy = build_policy(policy_name, world)
            for epsilon in config.epsilons:
                source = _metric_source(world, policy, policy_name, "P-LM", epsilon)
                _, observed_flows = perturbed_flows(
                    world,
                    source,
                    db,
                    block_rows=config.monitor_block[0],
                    block_cols=config.monitor_block[1],
                    rng=rng,
                    shards=shards,
                    backend=backend,
                )
                candidate = forecast(observed_flows)
                table.add_row(
                    policy_name,
                    epsilon,
                    forecast_divergence(reference, candidate),
                    reference.peak_time(),
                    candidate.peak_time(),
                )
    return table


def run_scalability(config: ExperimentConfig = ExperimentConfig()) -> ResultTable:
    """E8: sharded release *and* evaluation throughput per backend x shards.

    For every ``(backend, shards)`` pair in ``config.backends x
    config.shard_counts`` this times two full runs over the configured
    workload:

    * the release path —
      :func:`~repro.server.pipeline.run_release_rounds_batched` with
      streaming shard ingestion (``seconds`` / ``releases_per_sec``);
    * the evaluation path — the sharded E1 metric
      (:func:`~repro.epidemic.monitor.monitoring_utility` over the same
      shard plan and backend), reported as ``eval_seconds`` /
      ``eval_releases_per_sec``.

    The engine comes from :meth:`ExperimentConfig.make_engine`, so
    ``--engine-spec`` files flow straight into this sweep.  One backend
    instance is built per backend name and shared across that backend's
    whole row block, which is what lets the ``pool`` backend amortise
    worker startup and engine pickling across the sweep.  Each block
    starts with one untimed release on its backend, so the first timed
    row does not pay for starting the workers (a pool starts them on
    first use).

    Every run is seeded with ``config.seed`` under the sharded
    per-user-stream contract, so all combinations must produce identical
    values; ``matches_serial`` re-asserts that element-wise for the
    released rounds and ``eval_matches_serial`` compares the full
    :class:`~repro.epidemic.monitor.MonitoringReport` bit-for-bit — both
    against explicit serial 1-shard baselines computed up front, outside
    the timed sweep.  The checks ride along with the throughput numbers
    and stay meaningful even when the sweep is pinned to a single
    non-serial combination.

    With ``config.store_path`` set, each combination is additionally timed
    store-backed — every shard committed transactionally into a
    :class:`~repro.store.TraceStore` (fresh per combination, unless
    ``config.resume`` continues an existing run) — and reported in a
    ``durable_releases_per_sec`` column (``None`` without a store), whose
    output must also match the serial baseline.

    With ``config.live_metrics`` set, each combination additionally runs
    with the :mod:`~repro.server.live_metrics` views attached and reports
    ``live_matches_batch`` — whether every per-round
    :meth:`~repro.server.pipeline.Server.metrics_at` snapshot equals a
    from-scratch :func:`~repro.server.live_metrics.batch_recompute`
    bitwise — and ``live_query_speedup``, the cost of that full recompute
    over the cost of querying every live snapshot (both ``None`` when the
    flag is off).
    """
    world = config.make_world()
    db = _dataset(config, world)
    engine = config.make_engine(world=world)
    block_rows, block_cols = config.monitor_block
    table = ResultTable(
        [
            "backend",
            "shards",
            "seconds",
            "releases_per_sec",
            "matches_serial",
            "eval_seconds",
            "eval_releases_per_sec",
            "eval_matches_serial",
            "durable_releases_per_sec",
            "live_matches_batch",
            "live_query_speedup",
        ],
        title=(
            f"E8: sharded release + eval rounds ({config.dataset}, "
            f"{config.n_users} users x {config.horizon} steps, "
            f"{engine.mechanism.name})"
        ),
    )
    reference = run_release_rounds_batched(
        world, db, engine, rng=config.seed, shards=1, backend="serial"
    )
    baseline = list(reference.released_db.checkins())
    eval_baseline = monitoring_utility(
        world, engine, db, block_rows, block_cols,
        rng=config.seed, shards=1, backend="serial",
    )
    for backend_name in config.backends:
        with ensure_backend(backend_name) as backend:
            # Untimed: starts the workers before the first timed row.
            run_release_rounds_batched(
                world, db, engine, rng=config.seed,
                shards=max(config.shard_counts, default=1), backend=backend,
            )
            for shards in config.shard_counts:
                start = perf_counter()
                server = run_release_rounds_batched(
                    world, db, engine, rng=config.seed, shards=shards, backend=backend,
                )
                seconds = perf_counter() - start
                start = perf_counter()
                report = monitoring_utility(
                    world, engine, db, block_rows, block_cols,
                    rng=config.seed, shards=shards, backend=backend,
                )
                eval_seconds = perf_counter() - start
                durable_rate = None
                if config.store_path is not None:
                    # Fresh store per combination (each is a complete run
                    # of its own) unless the caller is resuming one;
                    # matching the serial baseline folds the durable
                    # output into the sweep's determinism check.
                    if not config.resume:
                        for suffix in ("", "-wal", "-shm"):
                            Path(config.store_path + suffix).unlink(missing_ok=True)
                    start = perf_counter()
                    durable_server = run_release_rounds_batched(
                        world, db, engine, rng=config.seed, shards=shards,
                        backend=backend,
                        store=config.store_path, resume=config.resume,
                    )
                    durable_seconds = perf_counter() - start
                    if list(durable_server.released_db.checkins()) != baseline:
                        raise AssertionError(
                            "store-backed run diverged from the serial baseline"
                        )
                    durable_rate = round(len(db) / durable_seconds, 1)
                live_match = None
                live_speedup = None
                if config.live_metrics:
                    from repro.engine.sharding import (
                        ShardPlan,
                        stream_shard_releases,
                    )
                    from repro.server.live_metrics import (
                        batch_recompute,
                        default_views,
                    )

                    views = default_views(
                        world,
                        block_rows=block_rows,
                        block_cols=block_cols,
                        p_transmit=config.p_transmit,
                        gamma=config.gamma,
                    )
                    live_server = run_release_rounds_batched(
                        world, db, engine, rng=config.seed, shards=shards,
                        backend=backend,
                        live_metrics=views,
                    )
                    # Re-derive the raw release rows over the same plan
                    # (per-user streams make them identical to what the
                    # live run committed), outside both timed sections.
                    plan = ShardPlan.build(
                        sorted(db.users()), shards, rng=config.seed
                    )
                    rows = [
                        (np.asarray(s_users, dtype=int),
                         np.asarray(s_times, dtype=int),
                         s_batch.points,
                         np.asarray(s_batch.cells, dtype=int))
                        for s_users, s_times, s_batch
                        in stream_shard_releases(engine, db, plan)
                    ]
                    row_users = np.concatenate([r[0] for r in rows])
                    row_times = np.concatenate([r[1] for r in rows])
                    row_points = np.concatenate([r[2] for r in rows])
                    row_true = np.concatenate([r[3] for r in rows])
                    row_snapped = np.asarray(
                        world.snap_batch(row_points), dtype=int
                    )
                    start = perf_counter()
                    batch_values = batch_recompute(
                        views, plan, row_users, row_times, row_points,
                        row_true, row_snapped,
                    )
                    batch_seconds = perf_counter() - start
                    registry = live_server.metrics
                    start = perf_counter()
                    live_values = {
                        r: live_server.metrics_at(r) for r in registry.rounds
                    }
                    live_seconds = perf_counter() - start
                    live_match = (
                        set(live_values) == set(batch_values)
                        and all(
                            dict(live_values[r]) == batch_values[r]
                            for r in live_values
                        )
                    )
                    live_speedup = round(
                        batch_seconds / max(live_seconds, 1e-9), 1
                    )
                table.add_row(
                    backend_name,
                    shards,
                    round(seconds, 6),
                    round(len(db) / seconds, 1),
                    list(server.released_db.checkins()) == baseline,
                    round(eval_seconds, 6),
                    round(len(db) / eval_seconds, 1),
                    report == eval_baseline,
                    durable_rate,
                    live_match,
                    live_speedup,
                )
    return table


def run_dataset_sensitivity(
    config: ExperimentConfig = ExperimentConfig(),
    datasets: tuple[str, ...] = ("geolife", "gowalla", "random_waypoint"),
    epsilon: float = 1.0,
) -> ResultTable:
    """E12 (robustness): are the E1 conclusions workload-independent?

    Runs the monitoring-utility metrics on all synthetic workloads at one
    budget, per policy.  The paper demonstrates on both Geolife and Gowalla;
    this runner checks that the policy ordering (finer = better point
    utility) does not depend on which workload is plugged in.
    """
    import dataclasses

    world = config.make_world()
    table = ResultTable(
        ["dataset", "policy", "epsilon", "mean_euclidean_error", "area_accuracy"],
        title=f"E12: dataset sensitivity of monitoring utility (epsilon={epsilon})",
    )
    rng = config.rng()
    for dataset in datasets:
        dataset_config = dataclasses.replace(config, dataset=dataset)
        db = _dataset(dataset_config, world)
        for policy_name in config.policies:
            policy = build_policy(policy_name, world)
            mechanism = PolicyLaplaceMechanism(world, policy, epsilon)
            report = monitoring_utility(
                world,
                mechanism,
                db,
                block_rows=config.monitor_block[0],
                block_cols=config.monitor_block[1],
                rng=rng,
            )
            table.add_row(
                dataset, policy_name, epsilon, report.mean_euclidean_error, report.area_accuracy
            )
    return table
