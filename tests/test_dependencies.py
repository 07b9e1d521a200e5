"""Imports: every third-party module the package imports is declared in
``pyproject.toml``, so an install from it can import the package, every
name a module imports is used or re-exported, and every private name a
module defines is read somewhere.  The count and seed rules have one
owner: no module but ``model`` writes their texts.  So has the matrix
container: no module but ``model`` names ``.npy`` or ``numpy.lib.format``,
and none loads through ``np.load`` or imports ``pickle``.  And so has the
matrix 2-norm: no function but ``rdel.spectral_norm`` takes one."""

import ast
import functools
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


def _private_definitions(source):
    """Line of each module-level private name that ``source`` defines (a
    function, a class or an assignment target; dunders are not private)."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.setdefault(node.name, node.lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined.setdefault(name.id, node.lineno)
    return {name: line for name, line in defined.items()
            if name.startswith("_") and not name.startswith("__")}


@functools.cache  # each file's text is scanned once for all modules
def _references(source):
    """Names that ``source`` reads as a ``Name`` or an ``Attribute``; an
    assignment target and a string are no reference."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return frozenset(found)


def _orphans(source, others):
    """``(line, name)`` of each private name that ``source`` defines at
    module level and that neither it nor any of ``others`` reads."""
    read = _references(source).union(*map(_references, others))
    return sorted((line, name) for name, line in _private_definitions(source).items()
                  if name not in read)


def test_orphans_finds_an_unread_private_name():
    source = ("_A, _B = 1, 2\n_C: int = 3\n__all__ = []\n"
              "def _used(): return _A\nclass _Gone: pass\n"
              "def _named(): pass\n_read = None\n")
    other = "import m\nm._read\nm._used()\nsetattr(m, '_named', 1)\n"
    assert _orphans(source, [other]) == [(1, "_B"), (2, "_C"), (5, "_Gone"),
                                         (6, "_named")]


@functools.cache
def _sources():
    """Path and text of every Python file in ``src/``, ``tests/`` and
    ``perfbench/``."""
    return {p: p.read_text(encoding="utf-8")
            for folder in ("src", "tests", "perfbench")
            for p in sorted((ROOT / folder).rglob("*.py"))}


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "rfequiv").glob("*.py")),
                         ids=lambda p: p.name)
def test_every_private_name_is_read(path):
    assert _orphans(_sources()[path], _sources().values()) == []


# the texts of model._check_count and model._check_seed
RULE_TEXTS = ("must be >=", "unsigned 64-bit")


def _rule_texts(source):
    """``(line, text)`` of each string constant in ``source``, the literal
    parts of an f-string among them, that holds one of ``RULE_TEXTS``."""
    return sorted((node.lineno, node.value) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and any(text in node.value for text in RULE_TEXTS))


def test_rule_texts_finds_a_second_owner():
    source = ('"""Counts must be >= 1."""\nok = "must be a positive finite real"\n'
              'a = f"{name} must be >= {least}"\n'
              'b = ("seed must fit in an "\n     "unsigned 64-bit integer")\n')
    assert _rule_texts(source) == [
        (1, "Counts must be >= 1."), (3, " must be >= "),
        (4, "seed must fit in an unsigned 64-bit integer")]


def test_count_and_seed_rules_have_one_owner():
    found = {path.name: _rule_texts(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "rfequiv").glob("*.py"))}
    assert found.pop("model.py")  # the scan finds the rules' own texts
    assert {name: hits for name, hits in found.items() if hits} == {}


def _container_names(source):
    """``(line, text)`` of each place in ``source`` that names the ``.npy``
    container: a string constant that holds ``.npy`` (the literal parts of
    an f-string among them) and a use or an import of ``numpy.lib.format``."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if ".npy" in node.value:
                hits.append((node.lineno, node.value))
        elif isinstance(node, ast.Attribute):
            if ast.unparse(node) in ("np.lib.format", "numpy.lib.format"):
                hits.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [f"{getattr(node, 'module', None) or ''}.{alias.name}".lstrip(".")
                     for alias in node.names]
            hits += [(node.lineno, name) for name in names
                     if name.startswith("numpy.lib.format")]
    return sorted(hits)


def _pickle_routes(source):
    """``(line, text)`` of each call of numpy's ``load`` and each import of
    ``pickle`` in ``source``: the routes by which a file could unpickle."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.load",
                                                                    "numpy.load"):
            hits.append((node.lineno, ast.unparse(node.func)))
        elif isinstance(node, ast.Import):
            hits += [(node.lineno, alias.name) for alias in node.names
                     if alias.name.split(".")[0] == "pickle"]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] == "pickle" or (
                    node.module == "numpy" and any(a.name == "load" for a in node.names)):
                hits.append((node.lineno, node.module))
    return sorted(hits)


def test_container_scans_find_a_second_owner():
    source = ('"""Reads m.npy."""\nimport pickle\nimport numpy as np\n'
              'from numpy.lib import format\nfrom numpy import load\n'
              'a = np.lib.format.read_array\nb = np.load(f"{p}.npy")\n'
              'c = "m.npz"\n')
    assert _container_names(source) == [
        (1, "Reads m.npy."), (4, "numpy.lib.format"), (6, "np.lib.format"),
        (7, ".npy")]
    assert _pickle_routes(source) == [(2, "pickle"), (5, "numpy"), (7, "np.load")]


def test_matrix_container_has_one_owner():
    """``model`` alone picks a matrix's container by name and reads ``.npy``
    through numpy's reader with pickles refused; no module loads a file
    through ``np.load`` or imports ``pickle``."""
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "rfequiv").glob("*.py"))}
    names = {name: _container_names(source) for name, source in sources.items()}
    assert names.pop("model.py")  # the scan finds the owner's own names
    assert {name: hits for name, hits in names.items() if hits} == {}
    routes = {name: _pickle_routes(source) for name, source in sources.items()}
    assert {name: hits for name, hits in routes.items() if hits} == {}


def _two_norm(call):
    """Whether ``call`` takes a matrix 2-norm: ``norm`` or ``matrix_norm``
    of order 2, ``svd`` with ``compute_uv=False``, or ``svdvals``."""
    name = ast.unparse(call.func).rsplit(".", 1)[-1]
    keywords = {k.arg: k.value for k in call.keywords}
    if name in ("norm", "matrix_norm"):
        order = call.args[1] if len(call.args) > 1 else keywords.get("ord")
        return isinstance(order, ast.Constant) and order.value == 2
    if name == "svd":  # numpy's and scipy's svd(a, full_matrices, compute_uv)
        flag = call.args[2] if len(call.args) > 2 else keywords.get("compute_uv")
        return isinstance(flag, ast.Constant) and flag.value is False
    return name == "svdvals"


def _two_norms(source):
    """``(line, function, callee)`` of each matrix 2-norm in ``source``,
    ``function`` the innermost ``def`` around it (None at module level)."""
    hits = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and _two_norm(child):
                hits.append((child.lineno, function, ast.unparse(child.func)))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else function)

    visit(ast.parse(source), None)
    return sorted(hits)


def test_two_norm_scan_finds_a_second_owner():
    source = ('import numpy as np\nfrom scipy.linalg import svd, svdvals\n'
              'def spectral_norm(a):\n    return np.linalg.norm(a, 2)\n'
              'def other(a):\n    top = lambda b: svd(b, compute_uv=False)[0]\n'
              '    return (np.linalg.norm(a, ord=2), np.linalg.norm(a), svdvals(a),\n'
              '            np.linalg.svd(a), np.linalg.norm(a, "fro"), top(a))\n'
              'x = np.linalg.matrix_norm(np.eye(2), ord=2)\n'
              'y = np.linalg.svd(np.eye(2), False, False)\n')
    assert _two_norms(source) == [
        (4, "spectral_norm", "np.linalg.norm"), (6, "other", "svd"),
        (7, "other", "np.linalg.norm"), (7, "other", "svdvals"),
        (9, None, "np.linalg.matrix_norm"), (10, None, "np.linalg.svd")]


def test_matrix_two_norm_has_one_owner():
    """Every largest singular value goes through ``rdel.spectral_norm``, so
    one routine, with one error bound, answers for all of them."""
    hits = {path.name: [hit for hit in _two_norms(path.read_text(encoding="utf-8"))
                        if (path.name, hit[1]) != ("rdel.py", "spectral_norm")]
            for path in sorted((ROOT / "src" / "rfequiv").glob("*.py"))}
    assert {name: found for name, found in hits.items() if found} == {}
