"""The package surface: ``rfequiv`` re-exports exactly what its library
modules list in ``__all__``, so neither side can drift from the other."""

import ast
import importlib
import pkgutil
import re
import types
from pathlib import Path

import rfequiv

# reached as ``rfequiv.cli``; its ``main`` is not a library name
FRONT_DOOR = {"cli"}
# the most names the package may re-export; a new export raises it on purpose
MAX_EXPORTS = 31


def _library():
    return {m.name for m in pkgutil.iter_modules(rfequiv.__path__)} - FRONT_DOOR


def _exports():
    """``[(name, module)]`` over every library module's ``__all__``."""
    return [(name, module) for module in sorted(_library())
            for name in importlib.import_module(f"rfequiv.{module}").__all__]


def test_package_reexports_exactly_each_module_all():
    # __init__ holds one star import per library module and no name list
    tree = ast.parse(Path(rfequiv.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert all(isinstance(node, ast.ImportFrom) and node.level == 1
               and [alias.name for alias in node.names] == ["*"]
               for node in imports)
    assert sorted(node.module for node in imports) == sorted(_library())
    # every public attribute that is not a module is one module's export
    exports = dict(_exports())
    assert len(exports) == len(_exports()), "a name in two modules' __all__"
    public = {name for name in dir(rfequiv) if not name.startswith("_")
              and not isinstance(getattr(rfequiv, name), types.ModuleType)}
    assert public == set(exports), sorted(public ^ set(exports))
    for name, module in exports.items():
        source = importlib.import_module(f"rfequiv.{module}")
        assert getattr(rfequiv, name) is getattr(source, name), name


def test_package_surface_stays_within_its_bound():
    names = [name for name, _ in _exports()]
    assert len(names) <= MAX_EXPORTS, sorted(names)


def test_readme_states_the_export_count():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    stated = re.findall(r"`rfequiv` exports (\d+) names", readme)
    assert stated == [str(len(_exports()))], stated
