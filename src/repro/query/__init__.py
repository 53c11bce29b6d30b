"""Windowed analytics over the durable trace store (the query surface).

:class:`~repro.query.api.QueryEngine` answers sliding/tumbling time-window
aggregates — contact rate, flow matrices, top-k hot cells, per-user epsilon
spend, trajectory range scans — from the accelerator summary tables the
store writes inside shard-commit transactions, each round's block in the
commit that completes the round (:mod:`repro.store.accelerator`), never
from a full pass over ``releases``.
:mod:`repro.query.reference` holds the naive full-scan implementations every
answer is bit-checked against.  See ``docs/queries.md``.
"""

from repro.query.api import (
    QueryEngine,
    Window,
    WindowContactRate,
    sliding_windows,
    tumbling_windows,
)

__all__ = [
    "QueryEngine",
    "Window",
    "WindowContactRate",
    "sliding_windows",
    "tumbling_windows",
]
