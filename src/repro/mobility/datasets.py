"""Dataset registry, serialization, and summary statistics.

Gives the experiments a single entry point (``make_dataset``) mirroring the
paper's two evaluation datasets, plus JSON-lines persistence so generated
workloads can be frozen and replayed across benchmark runs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

from repro.errors import DataError
from repro.geo.grid import GridWorld
from repro.mobility.synthetic import geolife_like, gowalla_like, random_waypoint
from repro.mobility.trajectory import CheckIn, TraceDB

__all__ = [
    "DATASETS",
    "make_dataset",
    "dataset_summary",
    "save_tracedb",
    "load_tracedb",
]

#: Registry of named dataset generators (name -> callable).
DATASETS: dict[str, Callable[..., TraceDB]] = {
    "geolife": geolife_like,
    "gowalla": gowalla_like,
    "random_waypoint": random_waypoint,
}


def make_dataset(name: str, world: GridWorld, rng=None, **kwargs) -> TraceDB:
    """Instantiate a named dataset over ``world``.

    ``name`` is one of ``"geolife"``, ``"gowalla"``, ``"random_waypoint"``
    (the synthetic stand-ins documented in DESIGN.md); extra keyword
    arguments flow to the generator.
    """
    try:
        generator = DATASETS[name]
    except KeyError:
        raise DataError(f"unknown dataset {name!r}; choose from {sorted(DATASETS)}") from None
    return generator(world, rng=rng, **kwargs)


def dataset_summary(db: TraceDB) -> dict:
    """Descriptive statistics used in experiment headers and EXPERIMENTS.md."""
    users = sorted(db.users())
    times = db.times()
    history_lengths = [len(db.user_history(user)) for user in users]
    distinct_cells = {checkin.cell for checkin in db.checkins()}
    return {
        "n_users": len(users),
        "n_checkins": len(db),
        "time_span": (times[0], times[-1]) if times else (None, None),
        "mean_history_length": (sum(history_lengths) / len(history_lengths)) if users else 0.0,
        "distinct_cells": len(distinct_cells),
    }


def save_tracedb(db: TraceDB, path: str | Path) -> None:
    """Write a trace database as JSON lines (one check-in per line)."""
    target = Path(path)
    with target.open("w", encoding="utf-8") as handle:
        for checkin in db.checkins():
            handle.write(
                json.dumps({"t": checkin.time, "u": checkin.user, "c": checkin.cell}) + "\n"
            )


def load_tracedb(path: str | Path) -> TraceDB:
    """Read a trace database written by :func:`save_tracedb`."""
    source = Path(path)
    if not source.exists():
        raise DataError(f"dataset file {source} does not exist")
    db = TraceDB()
    with source.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                db.add(CheckIn(time=int(record["t"]), user=int(record["u"]), cell=int(record["c"])))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError, DataError) as exc:
                raise DataError(f"malformed check-in at {source}:{line_number}") from exc
    return db
