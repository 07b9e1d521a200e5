"""Imports: every third-party module the package imports is declared in
``pyproject.toml``, so an install from it can import the package, and every
name a module imports is used or re-exported."""

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


def _unused_imports(source):
    """Names that ``source`` imports but neither reads nor lists in its
    ``__all__``; a star import binds no name of its own."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_finds_a_dangling_name():
    source = ("from __future__ import annotations\nimport os.path, numpy as np\n"
              "from .model import _gone, kept\nfrom .sim import *\n"
              "__all__ = ['kept']\nnp.zeros(1)\n")
    assert _unused_imports(source) == [(2, "os"), (3, "_gone")]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "rfequiv").glob("*.py")),
                         ids=lambda p: p.name)
def test_every_imported_name_is_used_or_exported(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []
