"""The benchmark harness reaches the package by name; every name must exist.

``perfbench/spans.py`` wraps the functions listed in ``TRACED`` by looking
them up in their defining ``rfequiv`` module, and ``perfbench/workloads.py``
imports package names at load time.  A deletion in the package that one of
them still names would break the benchmark; this test breaks first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


SPANS = _load("spans")


@pytest.mark.parametrize("qualname", [f"{module}.{func}"
                                      for module, funcs in SPANS.TRACED.items()
                                      for func in funcs])
def test_traced_name_resolves(qualname):
    module, func = qualname.split(".")
    assert callable(getattr(importlib.import_module(f"rfequiv.{module}"), func))


def test_facts_name_traced_functions():
    traced = {f"{m}.{f}" for m, funcs in SPANS.TRACED.items() for f in funcs}
    assert set(SPANS.FACTS) <= traced


def test_workloads_module_loads():
    assert set(_load("workloads").WORKLOADS) == {
        "theory_curve", "replicate_sweep", "diagnose", "resolvent_probe"}
