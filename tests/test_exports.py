"""The package surface: ``rfequiv`` re-exports exactly what its library
modules list in ``__all__``, so neither side can drift from the other."""

import ast
import importlib
import pkgutil
from pathlib import Path

import rfequiv

# reached as ``rfequiv.cli``; its ``main`` is not a library name
FRONT_DOOR = {"cli"}
# the most names the package may re-export; a new export raises it on purpose
MAX_EXPORTS = 44


def _reexports():
    """``{module: names}`` of the ``from .module import ...`` lines."""
    tree = ast.parse(Path(rfequiv.__file__).read_text(encoding="utf-8"))
    return {node.module: [alias.name for alias in node.names]
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1}


def test_package_reexports_exactly_each_module_all():
    reexports = _reexports()
    library = {m.name for m in pkgutil.iter_modules(rfequiv.__path__)}
    assert set(reexports) == library - FRONT_DOOR
    for module, names in reexports.items():
        listed = importlib.import_module(f"rfequiv.{module}").__all__
        assert sorted(names) == sorted(listed), module
        assert all(hasattr(rfequiv, name) for name in names), module


def test_package_surface_stays_within_its_bound():
    names = [name for names in _reexports().values() for name in names]
    assert len(names) <= MAX_EXPORTS, sorted(names)
