"""E14 — evaluation-layer throughput: batched vs scalar E1/E4 runners.

PR 2's acceptance bar: at the default ``ExperimentConfig`` the batched
evaluation layer must run the E1 (monitoring utility) and E4 (adversary
error) sweeps >= 5x faster than the scalar per-release reference loops.
The scalar baselines below run the seed's harness sweeps through the
metrics' ``batched=False`` reference paths: one ``release`` call per
check-in or trial and per-release scoring, on the same per-user / per-slot
streams as the batched runners, so both paths consume identical seeded RNG
streams (see ``tests/test_eval_batched.py`` for the equivalence proof).
They no longer reproduce the seed's loops verbatim: the seed drew every
release from one shared stream.
"""

import time

from repro.adversary.metrics import adversary_error, utility_error
from repro.epidemic.monitor import monitoring_utility
from repro.experiments.configs import ExperimentConfig, build_mechanism, build_policy
from repro.experiments.harness import _dataset, run_adversary_error, run_monitoring_utility

SPEEDUP_FLOOR = 5.0


def _scalar_e1(config: ExperimentConfig) -> None:
    """The seed's E1 loop: scalar releases, Counter-loop flow aggregation."""
    world = config.make_world()
    db = _dataset(config, world)
    rng = config.rng()
    for policy_name in config.policies:
        policy = build_policy(policy_name, world)
        for mechanism_name in config.mechanisms:
            for epsilon in config.epsilons:
                mechanism = build_mechanism(mechanism_name, world, policy, epsilon)
                monitoring_utility(
                    world,
                    mechanism,
                    db,
                    block_rows=config.monitor_block[0],
                    block_cols=config.monitor_block[1],
                    rng=rng,
                    batched=False,
                )


def _scalar_e4(config: ExperimentConfig) -> None:
    """The seed's E4 loop: per-release attacker estimates and utility draws."""
    world = config.make_world()
    rng = config.rng()
    sample_size = min(20, world.n_cells)
    true_cells = rng.choice(world.n_cells, size=sample_size, replace=False).tolist()
    for policy_name in config.policies:
        policy = build_policy(policy_name, world)
        for mechanism_name in config.mechanisms:
            for epsilon in config.epsilons:
                mechanism = build_mechanism(mechanism_name, world, policy, epsilon)
                adversary_error(
                    world, mechanism, true_cells, rng=rng,
                    trials_per_cell=config.trials, batched=False,
                )
                utility_error(
                    world, mechanism, true_cells, rng=rng,
                    trials_per_cell=config.trials, batched=False,
                )


def _measure(label: str, batched, scalar) -> float:
    config = ExperimentConfig()
    batched(config)  # warm caches (datasets, policies, distance matrices)
    start = time.perf_counter()
    batched(config)
    batched_seconds = time.perf_counter() - start
    start = time.perf_counter()
    scalar(config)
    scalar_seconds = time.perf_counter() - start
    speedup = scalar_seconds / batched_seconds
    print(
        f"\n{label}: scalar={scalar_seconds:.2f}s batched={batched_seconds:.2f}s "
        f"speedup={speedup:.1f}x"
    )
    return speedup


def test_e1_monitoring_speedup():
    """Acceptance: E1 at default config >= 5x over the scalar-loop baseline."""
    assert _measure("E14/E1", run_monitoring_utility, _scalar_e1) >= SPEEDUP_FLOOR


def test_e4_adversary_speedup():
    """Acceptance: E4 at default config >= 5x over the scalar-loop baseline."""
    assert _measure("E14/E4", run_adversary_error, _scalar_e4) >= SPEEDUP_FLOOR


def test_bench_e1_batched(benchmark):
    benchmark.pedantic(run_monitoring_utility, args=(ExperimentConfig(),), rounds=1, iterations=1)


def test_bench_e4_batched(benchmark):
    benchmark.pedantic(run_adversary_error, args=(ExperimentConfig(),), rounds=1, iterations=1)
