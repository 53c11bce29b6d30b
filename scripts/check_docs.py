#!/usr/bin/env python
"""Documentation checker: run fenced Python snippets, verify relative links.

Walks ``README.md`` and every ``docs/*.md``, and

* executes each fenced ```` ```python ```` block in a fresh namespace (with
  ``src/`` importable), so quickstart code in the docs is guaranteed to run
  against the current API — the docs equivalent of a doctest;
* parses each fenced ```` ```json ```` block, and loads every one whose top
  level has ``mechanism`` and ``policy`` keys through
  ``EngineSpec.from_dict``, so the documented spec wire format is checked
  against the strict loader;
* resolves every relative markdown link/image target against the repo tree,
  so renames can't silently strand the docs.

Exit code 0 when everything passes; 1 with a per-file error report
otherwise.  Run locally or in CI::

    python scripts/check_docs.py               # snippets + links
    python scripts/check_docs.py --links-only  # fast dead-link check
    python scripts/check_docs.py --snippets-only
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

PYTHON_FENCE = re.compile(r"^```python\s*$(.*?)^```\s*$", re.DOTALL | re.MULTILINE)
JSON_FENCE = re.compile(r"^```json\s*$(.*?)^```\s*$", re.DOTALL | re.MULTILINE)
#: markdown links and images, minus in-page anchors and bare URLs.
LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
EXTERNAL = ("http://", "https://", "mailto:")


def doc_files() -> list[Path]:
    """README plus the docs/ tree, in deterministic order."""
    files = [ROOT / "README.md"]
    files.extend(sorted((ROOT / "docs").glob("*.md")))
    return [path for path in files if path.exists()]


def run_snippets(path: Path) -> list[str]:
    """Execute every python fence and load every json fence in ``path``.

    Returns error descriptions.  A json fence must parse; one whose top
    level names a ``mechanism`` and a ``policy`` must also load through
    ``EngineSpec.from_dict``.
    """
    from repro.engine import EngineSpec

    errors = []
    text = path.read_text(encoding="utf-8")
    for index, match in enumerate(PYTHON_FENCE.finditer(text), start=1):
        snippet = match.group(1)
        line = text[: match.start()].count("\n") + 2  # first line inside fence
        try:
            code = compile(snippet, f"{path.name}:snippet{index}", "exec")
            exec(code, {"__name__": f"__doc_snippet_{index}__"})  # noqa: S102
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            errors.append(f"{path.name}:{line} snippet {index} failed: {exc!r}")
    for index, match in enumerate(JSON_FENCE.finditer(text), start=1):
        line = text[: match.start()].count("\n") + 2
        try:
            payload = json.loads(match.group(1))
            if isinstance(payload, dict) and {"mechanism", "policy"} <= payload.keys():
                EngineSpec.from_dict(payload)
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            errors.append(f"{path.name}:{line} json fence {index} failed: {exc!r}")
    return errors


def check_links(path: Path) -> list[str]:
    """Verify that relative link targets exist; return error descriptions."""
    errors = []
    for match in LINK.finditer(path.read_text(encoding="utf-8")):
        target = match.group(1)
        if target.startswith(EXTERNAL) or target.startswith("#"):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            errors.append(f"{path.name}: broken relative link -> {target}")
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--links-only",
        action="store_true",
        help="only verify relative link targets (fast, no code execution)",
    )
    mode.add_argument(
        "--snippets-only",
        action="store_true",
        help="only execute fenced python snippets",
    )
    args = parser.parse_args(argv)

    failures = []
    for path in doc_files():
        errors = []
        if not args.links_only:
            errors += run_snippets(path)
        if not args.snippets_only:
            errors += check_links(path)
        text = path.read_text(encoding="utf-8")
        snippet_count = len(PYTHON_FENCE.findall(text))
        json_count = len(JSON_FENCE.findall(text))
        status = "ok" if not errors else f"{len(errors)} error(s)"
        print(
            f"{path.relative_to(ROOT)}: {snippet_count} snippet(s), "
            f"{json_count} json fence(s), {status}"
        )
        failures.extend(errors)
    for error in failures:
        print(f"  FAIL {error}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
