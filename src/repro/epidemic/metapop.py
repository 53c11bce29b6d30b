"""Metapopulation SEIR driven by the location monitor's flow matrices.

The paper motivates location monitoring as the input to city-level epidemic
understanding: "people's movement between different cities or provinces ...
provides essential insights when combining with the incidence rate in each
city along with the people's movement" (Sec. 3.1).  This module closes that
loop: the inter-area flows produced by :class:`~repro.epidemic.monitor.
LocationMonitor` parameterise a metapopulation SEIR model — one S/E/I/R
compartment vector per coarse area, coupled by the observed mobility — and
the forecasting error between the true-flow and perturbed-flow models is the
end-to-end utility of the monitoring app.

The pipeline is fed by :func:`~repro.epidemic.monitor.perturbed_flows`,
whose ``shards=`` / ``backend=`` arguments scale the flow measurement over
metric shard plans: it folds every shard into the E11 live view, whose
flow counts are integers added in any order (flows are within-user
transitions, so per-user shards partition them), and
:func:`forecast_from_flows` turns the resulting counters into a forecast —
so a sharded E11 run forecasts from *bit-identical* flow matrices at any
shard count, on any execution backend.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.utils.validation import check_non_negative, check_positive

__all__ = [
    "MetapopulationSEIR",
    "MetapopTrajectory",
    "flow_matrix",
    "forecast_divergence",
    "forecast_from_flows",
]


def flow_matrix(flows: Counter, n_areas: int) -> np.ndarray:
    """Row-stochastic mobility matrix from monitor flow counts.

    ``flows`` maps ``(src_area, dst_area) -> count`` (the output of
    :meth:`LocationMonitor.flows`); rows with no observations default to
    staying put.
    """
    if n_areas < 1:
        raise ValidationError(f"n_areas must be >= 1, got {n_areas}")
    matrix = np.zeros((n_areas, n_areas))
    for (src, dst), count in flows.items():
        if not (0 <= src < n_areas and 0 <= dst < n_areas):
            raise ValidationError(f"flow ({src}, {dst}) outside {n_areas} areas")
        if count < 0:
            raise ValidationError("flow counts must be non-negative")
        matrix[src, dst] += count
    row_sums = matrix.sum(axis=1)
    for area in range(n_areas):
        if row_sums[area] == 0:
            matrix[area, area] = 1.0
        else:
            matrix[area] /= row_sums[area]
    return matrix


@dataclass(frozen=True)
class MetapopTrajectory:
    """Per-area compartment time series, shape ``(steps+1, n_areas)`` each."""

    times: np.ndarray
    susceptible: np.ndarray
    exposed: np.ndarray
    infectious: np.ndarray
    recovered: np.ndarray

    @property
    def total_infectious(self) -> np.ndarray:
        """System-wide infectious curve (sum over areas)."""
        return self.infectious.sum(axis=1)

    def peak_time(self) -> float:
        """Time of the system-wide infectious peak."""
        return float(self.times[int(np.argmax(self.total_infectious))])


class MetapopulationSEIR:
    """Discrete-time SEIR over coupled areas.

    Each step: (1) epidemic transitions within each area with force of
    infection ``beta * I_a / N_a``; (2) a fraction ``mobility_rate`` of every
    compartment redistributes between areas according to the mobility matrix.

    Parameters
    ----------
    mobility:
        Row-stochastic ``(n_areas, n_areas)`` matrix (from :func:`flow_matrix`).
    beta, sigma, gamma:
        SEIR rates, as in :class:`~repro.epidemic.seir.SEIRModel`.
    mobility_rate:
        Fraction of each area's population moving per step (in [0, 1]).
    """

    def __init__(
        self,
        mobility: np.ndarray,
        beta: float,
        sigma: float,
        gamma: float,
        mobility_rate: float = 0.2,
    ) -> None:
        matrix = np.asarray(mobility, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValidationError(f"mobility must be square, got {matrix.shape}")
        if np.any(matrix < -1e-12) or not np.allclose(matrix.sum(axis=1), 1.0, atol=1e-8):
            raise ValidationError("mobility must be row-stochastic")
        self.mobility = np.clip(matrix, 0.0, None)
        self.n_areas = matrix.shape[0]
        self.beta = check_non_negative("beta", beta)
        self.sigma = check_positive("sigma", sigma)
        self.gamma = check_positive("gamma", gamma)
        if not 0.0 <= mobility_rate <= 1.0:
            raise ValidationError(f"mobility_rate must be in [0, 1], got {mobility_rate}")
        self.mobility_rate = mobility_rate

    def simulate(
        self,
        populations: np.ndarray,
        seed_area: int,
        seed_infectious: float = 1.0,
        steps: int = 100,
    ) -> MetapopTrajectory:
        """Run the coupled dynamics from one seeded area."""
        pops = np.asarray(populations, dtype=float)
        if pops.shape != (self.n_areas,) or np.any(pops < 0):
            raise ValidationError("populations must be non-negative, one per area")
        if not 0 <= seed_area < self.n_areas:
            raise ValidationError(f"seed_area {seed_area} out of range")
        check_non_negative("seed_infectious", seed_infectious)
        if steps < 1:
            raise ValidationError(f"steps must be >= 1, got {steps}")

        susceptible = pops.copy()
        exposed = np.zeros(self.n_areas)
        infectious = np.zeros(self.n_areas)
        recovered = np.zeros(self.n_areas)
        infectious[seed_area] = min(seed_infectious, susceptible[seed_area])
        susceptible[seed_area] -= infectious[seed_area]

        history = np.empty((steps + 1, 4, self.n_areas))
        history[0] = (susceptible, exposed, infectious, recovered)
        move = self.mobility_rate
        stay = 1.0 - move
        for step in range(1, steps + 1):
            totals = susceptible + exposed + infectious + recovered
            with np.errstate(divide="ignore", invalid="ignore"):
                force = np.where(totals > 0, self.beta * infectious / totals, 0.0)
            new_exposed = np.minimum(force, 1.0) * susceptible
            new_infectious = self.sigma * exposed
            new_recovered = self.gamma * infectious
            susceptible = susceptible - new_exposed
            exposed = exposed + new_exposed - new_infectious
            infectious = infectious + new_infectious - new_recovered
            recovered = recovered + new_recovered
            # Mobility mixing: a `move` fraction redistributes along the matrix.
            susceptible = stay * susceptible + move * (susceptible @ self.mobility)
            exposed = stay * exposed + move * (exposed @ self.mobility)
            infectious = stay * infectious + move * (infectious @ self.mobility)
            recovered = stay * recovered + move * (recovered @ self.mobility)
            history[step] = (susceptible, exposed, infectious, recovered)

        return MetapopTrajectory(
            times=np.arange(steps + 1, dtype=float),
            susceptible=history[:, 0],
            exposed=history[:, 1],
            infectious=history[:, 2],
            recovered=history[:, 3],
        )


def forecast_from_flows(
    flows: Counter,
    n_areas: int,
    populations,
    beta: float,
    sigma: float,
    gamma: float,
    mobility_rate: float = 0.2,
    seed_area: int | None = None,
    steps: int = 100,
) -> MetapopTrajectory:
    """Fit-and-run: flow counts -> mobility matrix -> metapop SEIR forecast.

    The one-call form of the E11 pipeline's tail, consuming exactly what
    :func:`~repro.epidemic.monitor.perturbed_flows` (sharded or not)
    produces.  ``seed_area`` defaults to the most populous area — the
    harness's seeding convention — and ``populations`` is one head count per
    coarse area.  Deterministic: the same flow counters always forecast the
    same trajectory, which is what lets the sharded flow path claim
    end-to-end E11 invariance.
    """
    pops = np.asarray(populations, dtype=float)
    model = MetapopulationSEIR(
        flow_matrix(flows, n_areas),
        beta=beta,
        sigma=sigma,
        gamma=gamma,
        mobility_rate=mobility_rate,
    )
    if seed_area is None:
        seed_area = int(np.argmax(pops))
    return model.simulate(pops, seed_area=seed_area, steps=steps)


def forecast_divergence(
    reference: MetapopTrajectory,
    candidate: MetapopTrajectory,
    per_area: bool = True,
) -> float:
    """Normalised L1 distance between two forecast infectious curves.

    With ``per_area=True`` (default) the distance is taken over the full
    ``(time, area)`` surface — the quantity the mobility matrix actually
    shapes: *when the wave reaches each area*.  With ``per_area=False`` only
    the system-wide total curves are compared (nearly invariant to mixing
    when areas are homogeneous, kept for ablation).  0 means the
    perturbed-flow model forecasts exactly like the true-flow model.
    """
    if per_area:
        a = reference.infectious
        b = candidate.infectious
    else:
        a = reference.total_infectious
        b = candidate.total_infectious
    if a.shape != b.shape:
        raise ValidationError("trajectories must have equal shape")
    denominator = np.abs(a).sum()
    if denominator == 0:
        return float(np.abs(b).sum())
    return float(np.abs(a - b).sum() / denominator)
