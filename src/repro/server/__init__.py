"""System glue: clients, the untrusted server, and policy configuration.

Implements the message flow of Fig. 1 / Fig. 3: clients keep a local 14-day
location database, approve or reject policies pushed by the server's Location
Policy Configuration module, and release perturbed locations; the semi-honest
server accumulates the releases and can request history re-sends under an
updated policy (contact tracing).
"""

from repro.server.localdb import LocalLocationDB
from repro.server.policy_config import PolicyConfigurator, PolicyProposal
from repro.server.pipeline import (
    Client,
    Server,
    run_release_rounds,
    run_release_rounds_batched,
)
from repro.server.audit import PolicyRecord, ReleaseRecord, TransparencyLog
from repro.server.live_metrics import (
    ContactRateView,
    ContactSnapshot,
    FlowMatrixView,
    FlowSnapshot,
    LiveMetricRegistry,
    LiveMetricView,
    MonitoringUtilityView,
    batch_recompute,
    default_views,
    expected_coverage,
)

__all__ = [
    "LocalLocationDB",
    "PolicyConfigurator",
    "PolicyProposal",
    "Client",
    "Server",
    "run_release_rounds",
    "run_release_rounds_batched",
    "PolicyRecord",
    "ReleaseRecord",
    "TransparencyLog",
    "ContactRateView",
    "ContactSnapshot",
    "FlowMatrixView",
    "FlowSnapshot",
    "LiveMetricRegistry",
    "LiveMetricView",
    "MonitoringUtilityView",
    "batch_recompute",
    "default_views",
    "expected_coverage",
]
