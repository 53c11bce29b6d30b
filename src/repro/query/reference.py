"""Naive full-scan references for every :class:`~repro.query.QueryEngine` answer.

Each ``full_scan_*`` function reads the *entire* ``releases`` table (a
deliberate O(rows) pass with no WHERE clause), filters and aggregates in
plain Python/NumPy, and produces the value the accelerator-served query
must equal **bitwise**.  They are the correctness oracle of the query
surface — the E22 benchmark also times them as the cost a reader without
the accelerator would pay — so they must stay naive: no index use, no
summary tables.

Ground truth is never persisted per row, so the true-side references take a
``true_resolver(users, times) -> cells`` callable (the same contract as the
resume replay path), typically built from the run's true
:class:`~repro.mobility.trajectory.TraceDB`.

The references answer over *whatever the store currently holds* — they do
not apply the coverage-frontier refusal.  That asymmetry is the point of
the Hypothesis interleaving property: at any commit prefix, a query either
refuses or equals the full scan of that prefix.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.epidemic.analysis import pair_events
from repro.epidemic.monitor import LocationMonitor
from repro.errors import DataError, StoreError, ValidationError
from repro.geo.grid import GridWorld
from repro.query.api import Window, WindowContactRate

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.mobility.trajectory import CheckIn
    from repro.store.store import TraceStore

__all__ = [
    "full_scan_contact_rate",
    "full_scan_epsilon_spent",
    "full_scan_flow_matrix",
    "full_scan_times",
    "full_scan_top_cells",
    "full_scan_trajectory",
    "full_scan_users",
]

TrueResolver = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _scan(store: "TraceStore") -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One full pass over ``releases``: ``(users, times, cells, epsilons)``."""
    rows = store.connection.execute(
        "SELECT user, time, cell, epsilon FROM releases"
    ).fetchall()
    if not rows:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy(), np.empty(0, dtype=float)
    users, times, cells, epsilons = zip(*rows)
    return (
        np.asarray(users, dtype=np.int64),
        np.asarray(times, dtype=np.int64),
        np.asarray(cells, dtype=np.int64),
        np.asarray(epsilons, dtype=float),
    )


def _resolve(
    kind: str,
    users: np.ndarray,
    times: np.ndarray,
    cells: np.ndarray,
    true_resolver: TrueResolver | None,
) -> np.ndarray:
    if kind == "observed":
        return cells
    if kind == "true":
        if true_resolver is None:
            raise StoreError(
                "true-side reference needs a true_resolver (ground-truth "
                "cells are never persisted per row)"
            )
        return np.asarray(true_resolver(users, times), dtype=np.int64)
    raise ValidationError(f"kind must be 'observed' or 'true', got {kind!r}")


def full_scan_contact_rate(
    store: "TraceStore",
    window: Window,
    kind: str = "observed",
    true_resolver: TrueResolver | None = None,
    p_transmit: float = 0.3,
    gamma: float = 0.1,
) -> WindowContactRate:
    """The E2 window estimate from a full pass: occupancy -> pair events."""
    users, times, cells, _ = _scan(store)
    cells = _resolve(kind, users, times, cells, true_resolver)
    occupancy: Counter = Counter()
    observations = 0
    for time, cell in zip(times.tolist(), cells.tolist()):
        if window.start <= time <= window.end:
            occupancy[(time, cell)] += 1
            observations += 1
    if observations == 0:
        raise DataError("window contains no observations")
    rate = 2.0 * pair_events(occupancy) / observations
    return WindowContactRate(
        window=window,
        kind=kind,
        contact_rate=rate,
        r0=float(p_transmit) * rate / float(gamma),
        pair_events=pair_events(occupancy),
        observations=observations,
    )


def full_scan_flow_matrix(
    store: "TraceStore",
    window: Window,
    world: GridWorld,
    kind: str = "observed",
    true_resolver: TrueResolver | None = None,
    block_rows: int = 4,
    block_cols: int = 4,
) -> Counter:
    """Window flow matrix from a full pass: sort, pair steps, count areas."""
    users, times, cells, _ = _scan(store)
    cells = _resolve(kind, users, times, cells, true_resolver)
    if len(users) < 2:
        return Counter()
    order = np.lexsort((times, users))
    u, t, c = users[order], times[order], cells[order]
    step = (u[1:] == u[:-1]) & (t[1:] == t[:-1] + 1)
    in_window = step & (t[1:] >= window.start) & (t[1:] <= window.end)
    monitor = LocationMonitor(world, block_rows, block_cols)
    return monitor.flows_between(c[:-1][in_window], c[1:][in_window])


def full_scan_top_cells(
    store: "TraceStore",
    window: Window,
    k: int,
    kind: str = "observed",
    true_resolver: TrueResolver | None = None,
) -> list[tuple[int, int]]:
    """Top-k hot cells from a full pass, same ``(-count, cell)`` tie-break."""
    users, times, cells, _ = _scan(store)
    cells = _resolve(kind, users, times, cells, true_resolver)
    counts: Counter = Counter()
    for time, cell in zip(times.tolist(), cells.tolist()):
        if window.start <= time <= window.end:
            counts[cell] += 1
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return [(int(cell), int(count)) for cell, count in ranked[: int(k)]]


def full_scan_epsilon_spent(store: "TraceStore", user: int, window: Window) -> float:
    """One user's window spend from a full pass, time-ascending accumulation.

    The scalar float adds run in the user's time order from 0.0 — the exact
    accumulation the server ledger and the accelerator query's fold
    perform, so the float is identical bit for bit, not merely close.
    """
    users, times, _, epsilons = _scan(store)
    user = int(user)
    charges = sorted(
        (int(time), float(epsilon))
        for row_user, time, epsilon in zip(users.tolist(), times.tolist(), epsilons.tolist())
        if row_user == user and window.start <= time <= window.end
    )
    total = 0.0
    for _, epsilon in charges:
        total += epsilon
    return total


def full_scan_trajectory(
    store: "TraceStore", user: int, window: Window | None = None
) -> "list[CheckIn]":
    """One user's window check-ins from a full pass, times ascending."""
    from repro.mobility.trajectory import CheckIn

    users, times, cells, _ = _scan(store)
    user = int(user)
    picked = sorted(
        (int(time), int(cell))
        for row_user, time, cell in zip(users.tolist(), times.tolist(), cells.tolist())
        if row_user == user
        and (window is None or window.start <= time <= window.end)
    )
    return [CheckIn(time=time, user=user, cell=cell) for time, cell in picked]


def full_scan_users(store: "TraceStore") -> frozenset[int]:
    """The distinct stored users via the old full ``SELECT DISTINCT`` scan."""
    rows = store.connection.execute("SELECT DISTINCT user FROM releases").fetchall()
    return frozenset(int(user) for (user,) in rows)


def full_scan_times(store: "TraceStore") -> list[int]:
    """The distinct stored times via the old full ``SELECT DISTINCT`` scan."""
    rows = store.connection.execute(
        "SELECT DISTINCT time FROM releases ORDER BY time"
    ).fetchall()
    return [int(time) for (time,) in rows]
