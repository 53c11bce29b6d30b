"""PANDA: Policy-aware Location Privacy for Epidemic Surveillance.

A full reproduction of the VLDB 2020 demo by Cao, Takagi, Xiao, Xiong and
Yoshikawa: PGLP (policy-graph location privacy) mechanisms, the policy
menagerie of the paper's figures, a mobility + adversary + epidemic substrate,
and the client/server surveillance pipeline — fronted by a batched,
spec-driven :class:`PrivacyEngine` built for population-scale workloads.

Quickstart::

    import numpy as np
    from repro import PrivacyEngine, GridWorld

    world = GridWorld(10, 10)
    engine = PrivacyEngine.from_spec(
        world, mechanism="planar_laplace", policy="G1", epsilon=1.0
    )

    # One call releases a whole population (structure-of-arrays batch);
    # a seeded batch reproduces sequential scalar releases exactly.
    cells = np.arange(world.n_cells)
    batch = engine.release_batch(cells, rng=7)
    print(batch.points.shape, int(batch.exact.sum()), batch.epsilons.sum())

    # The adversary/filtering stack consumes whole likelihood matrices.
    likelihood = engine.pdf_matrix(batch.points)     # (100, 100)

    # Scalar ergonomics remain for notebook use:
    release = engine.release(world.cell_of(5, 5), rng=7)
    print(release.point, release.exact)

Mechanism and policy names resolve through :mod:`repro.engine.registry`
(``planar_laplace`` / ``P-LM``, ``planar_isotropic`` / ``P-PIM``,
``graph_exponential``, ``geo_indistinguishability`` / ``Geo-I``,
``optimal_lp``; policies ``G1``, ``G2``, ``Ga``, ``Gb``, ``Gc``), so
experiments, the CLI and saved configs all describe engines the same way.
Lower-level building blocks (``grid_policy``, ``PolicyLaplaceMechanism``,
...) stay public for direct use.
"""

from repro.errors import (
    ReproError,
    ValidationError,
    PolicyError,
    MechanismError,
    GeometryError,
    DataError,
    BudgetError,
    TracingError,
)
from repro.geo import GridWorld, ConvexPolygon, convex_hull, euclidean
from repro.core import (
    PolicyGraph,
    grid_policy,
    complete_policy,
    area_policy,
    contact_tracing_policy,
    random_policy,
    full_disclosure_policy,
    location_set_policy,
    Mechanism,
    Release,
    ReleaseBatch,
    PolicyLaplaceMechanism,
    PolicyPlanarIsotropicMechanism,
    GraphExponentialMechanism,
    OptimalDiscreteMechanism,
    GeoIndistinguishabilityMechanism,
    LocationSetPIMechanism,
    restrict_policy,
    RepairReport,
    BudgetLedger,
    TemporalReleaser,
    TimestepRelease,
)
from repro.mobility import (
    CheckIn,
    Trajectory,
    TraceDB,
    MarkovModel,
    BayesFilter,
    delta_location_set,
    geolife_like,
    gowalla_like,
    random_waypoint,
    make_dataset,
)
from repro.adversary import (
    BayesianAttacker,
    TrajectoryAttacker,
    TrackingResult,
    adversary_error,
    utility_error,
)
from repro.epidemic import (
    SEIRModel,
    simulate_outbreak,
    LocationMonitor,
    monitoring_utility,
    contact_rate,
    estimate_r0_contacts,
    estimate_r0_seir,
    perturb_tracedb,
    r0_estimation_error,
    ContactTracingProtocol,
    static_tracing,
    HealthCode,
    HealthCodeReport,
    HealthCodeService,
)
from repro.server import (
    LocalLocationDB,
    PolicyConfigurator,
    PolicyProposal,
    Client,
    Server,
    run_release_rounds,
    run_release_rounds_batched,
    TransparencyLog,
)
from repro.engine import (
    PrivacyEngine,
    EngineSpec,
    MechanismSpec,
    PolicySpec,
    ExecutionSpec,
    ShardPlan,
    ExecutionBackend,
    register_mechanism,
    register_policy,
    register_backend,
    mechanism_names,
    policy_names,
    backend_names,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "ValidationError",
    "PolicyError",
    "MechanismError",
    "GeometryError",
    "DataError",
    "BudgetError",
    "TracingError",
    # geo
    "GridWorld",
    "ConvexPolygon",
    "convex_hull",
    "euclidean",
    # core
    "PolicyGraph",
    "grid_policy",
    "complete_policy",
    "area_policy",
    "contact_tracing_policy",
    "random_policy",
    "full_disclosure_policy",
    "location_set_policy",
    "Mechanism",
    "Release",
    "ReleaseBatch",
    "PolicyLaplaceMechanism",
    "PolicyPlanarIsotropicMechanism",
    "GraphExponentialMechanism",
    "OptimalDiscreteMechanism",
    "GeoIndistinguishabilityMechanism",
    "LocationSetPIMechanism",
    "restrict_policy",
    "RepairReport",
    "BudgetLedger",
    "TemporalReleaser",
    "TimestepRelease",
    # mobility
    "CheckIn",
    "Trajectory",
    "TraceDB",
    "MarkovModel",
    "BayesFilter",
    "delta_location_set",
    "geolife_like",
    "gowalla_like",
    "random_waypoint",
    "make_dataset",
    # adversary
    "BayesianAttacker",
    "TrajectoryAttacker",
    "TrackingResult",
    "adversary_error",
    "utility_error",
    # epidemic
    "SEIRModel",
    "simulate_outbreak",
    "LocationMonitor",
    "monitoring_utility",
    "contact_rate",
    "estimate_r0_contacts",
    "estimate_r0_seir",
    "perturb_tracedb",
    "r0_estimation_error",
    "ContactTracingProtocol",
    "static_tracing",
    "HealthCode",
    "HealthCodeReport",
    "HealthCodeService",
    # server
    "LocalLocationDB",
    "PolicyConfigurator",
    "PolicyProposal",
    "Client",
    "Server",
    "run_release_rounds",
    "run_release_rounds_batched",
    "TransparencyLog",
    # engine
    "PrivacyEngine",
    "EngineSpec",
    "MechanismSpec",
    "PolicySpec",
    "ExecutionSpec",
    "ShardPlan",
    "ExecutionBackend",
    "register_backend",
    "backend_names",
    "register_mechanism",
    "register_policy",
    "mechanism_names",
    "policy_names",
]
