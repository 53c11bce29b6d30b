"""The docs are part of the build: every README/docs snippet must run.

Imports ``scripts/check_docs.py`` and applies it to each documentation file
individually, so a broken quickstart fails tier-1 with the exact file named
(CI additionally runs the script standalone).
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("check_docs", ROOT / "scripts" / "check_docs.py")
check_docs = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("check_docs", check_docs)
_spec.loader.exec_module(check_docs)


def test_docs_exist():
    files = [path.name for path in check_docs.doc_files()]
    assert "README.md" in files
    assert "architecture.md" in files
    assert "engine_specs.md" in files


@pytest.mark.parametrize("path", check_docs.doc_files(), ids=lambda p: p.name)
def test_snippets_run(path):
    errors = check_docs.run_snippets(path)
    assert not errors, "\n".join(errors)


@pytest.mark.parametrize("path", check_docs.doc_files(), ids=lambda p: p.name)
def test_relative_links_resolve(path):
    errors = check_docs.check_links(path)
    assert not errors, "\n".join(errors)


def test_readme_has_snippets():
    # The quickstart must stay executable documentation, not prose-only.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert len(check_docs.PYTHON_FENCE.findall(readme)) >= 2


def test_json_fences_load_through_the_strict_spec_loader(tmp_path):
    # Only fences shaped like an engine spec go through EngineSpec.from_dict;
    # every json fence must parse.
    doc = tmp_path / "doc.md"
    doc.write_text(
        "```json\n"
        '{"mechanism": {"name": "P-LM"}, "policy": {"name": "G1"}, "extra": 1}\n'
        "```\n\n"
        "```json\n"
        '{"not": "a spec"}\n'
        "```\n\n"
        "```json\n"
        "{broken\n"
        "```\n",
        encoding="utf-8",
    )
    errors = check_docs.run_snippets(doc)
    assert len(errors) == 2
    assert "json fence 1" in errors[0] and "'extra'" in errors[0]
    assert "json fence 3" in errors[1]
