"""Packaging: every third-party module the package imports is declared in
``pyproject.toml``, so an install from it can import the package."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


def _top_level_imports(path):
    """Top-level module names of the absolute imports in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def _normalized(name):
    return re.sub(r"[-_.]+", "-", name).lower()


def test_every_third_party_import_is_a_declared_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    declared = {_normalized(re.match(r"[A-Za-z0-9._-]+", req).group(0))
                for req in project["project"]["dependencies"]}
    imported = {name for path in (ROOT / "src" / "rfequiv").glob("*.py")
                for name in _top_level_imports(path)}
    third_party = imported - set(sys.stdlib_module_names) - {"rfequiv"}
    assert {"numpy", "scipy"} <= third_party  # the scan finds imports at all
    assert sorted(n for n in third_party if _normalized(n) not in declared) == []
