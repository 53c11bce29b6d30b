"""Persisting experiment results: tables, manifests, reload.

Benchmarks print their tables; longer campaigns want them on disk with
enough metadata to reproduce the run.  A *manifest* records the experiment
id, the configuration, and the library version next to the rows themselves.
Storage is plain CSV + JSON so results diff cleanly in version control.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.errors import DataError, ValidationError
from repro.experiments.configs import ExperimentConfig
from repro.experiments.reporting import ResultTable

__all__ = ["save_table", "load_table", "save_manifest", "load_manifest"]


def save_table(table: ResultTable, path: str | Path) -> Path:
    """Write a result table as CSV (with its title as a ``#`` comment)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as handle:
        if table.title:
            handle.write(f"# {table.title}\n")
        handle.write(table.to_csv())
    return target


def load_table(path: str | Path) -> ResultTable:
    """Read a table written by :func:`save_table`.

    Values are parsed back as int / float / bool where possible, str
    otherwise — enough fidelity for post-hoc analysis and plotting.
    """
    source = Path(path)
    if not source.exists():
        raise DataError(f"result file {source} does not exist")
    title = ""
    rows: list[list[str]] = []
    with source.open("r", encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle if line.strip()]
    if not lines:
        raise DataError(f"result file {source} is empty")
    if lines[0].startswith("#"):
        title = lines[0][1:].strip()
        lines = lines[1:]
    if not lines:
        raise DataError(f"result file {source} has no header")
    columns = lines[0].split(",")
    table = ResultTable(columns, title=title)
    for line in lines[1:]:
        values = [_parse(cell) for cell in line.split(",")]
        if len(values) != len(columns):
            raise DataError(f"malformed row in {source}: {line!r}")
        table.add_row(*values)
    return table


def _parse(cell: str):
    if cell == "True":
        return True
    if cell == "False":
        return False
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


def save_manifest(
    experiment: str,
    config: ExperimentConfig,
    table_path: str | Path,
    path: str | Path,
    notes: str = "",
) -> Path:
    """Write a JSON manifest describing one experiment run."""
    import repro

    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    manifest = {
        "experiment": experiment,
        "library_version": repro.__version__,
        "config": dataclasses.asdict(config),
        "table": str(table_path),
        "notes": notes,
    }
    target.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return target


def load_manifest(path: str | Path) -> dict:
    """Read a manifest and rebuild its :class:`ExperimentConfig`.

    Returns the manifest dict with ``config`` replaced by a reconstructed
    :class:`ExperimentConfig` instance.  A config key that is not an
    :class:`ExperimentConfig` field, or an unknown key in its
    ``engine_spec``, raises :class:`~repro.errors.DataError` naming the
    manifest and the keys.
    """
    source = Path(path)
    if not source.exists():
        raise DataError(f"manifest {source} does not exist")
    try:
        manifest = json.loads(source.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"manifest {source} is not valid JSON") from exc
    raw_config = manifest.get("config")
    if not isinstance(raw_config, dict):
        raise DataError(f"manifest {source} has no config block")
    known = {config_field.name for config_field in dataclasses.fields(ExperimentConfig)}
    unknown = sorted(key for key in raw_config if key not in known)
    if unknown:
        raise DataError(f"manifest {source} config has unknown keys {unknown}")
    # Tuples arrive as lists from JSON; coerce the fields that need it.
    for key in (
        "epsilons",
        "policies",
        "mechanisms",
        "monitor_block",
        "shard_counts",
        "backends",
    ):
        if key in raw_config and isinstance(raw_config[key], list):
            raw_config[key] = tuple(raw_config[key])
    # A pinned engine spec serializes as its dict form; rebuild the dataclass.
    if isinstance(raw_config.get("engine_spec"), dict):
        from repro.engine import EngineSpec

        try:
            raw_config["engine_spec"] = EngineSpec.from_dict(raw_config["engine_spec"])
        except ValidationError as exc:
            raise DataError(f"manifest {source} engine_spec: {exc}") from exc
    manifest["config"] = ExperimentConfig(**raw_config)
    return manifest
