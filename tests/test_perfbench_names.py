"""The benchmark harness reaches the package by name; every name must exist,
and every library call it makes must bind to the function's signature.

``perfbench/spans.py`` wraps the functions listed in ``TRACED`` by looking
them up in their defining ``rfequiv`` module, and ``perfbench/workloads.py``
imports package names at load time.  A deletion in the package that one of
them still names would break the benchmark; this test breaks first.  So does
a signature change that one of the calls in ``perfbench/workloads.py``,
``perfbench/reference.py`` or ``perfbench/selftest.py`` no longer fits,
including calls that run only on some seeds.  A name can also resolve and
still read 0 because no verb calls it any more; the traced ``diagnose`` run
below guards that for the zeroth-moment table.
"""

import importlib
import importlib.util
import inspect
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


# Each library call of perfbench/workloads.py, perfbench/reference.py and
# perfbench/selftest.py, as (module, function, positional argument count,
# keyword names), in the shape of the call there.
CALLS = {
    "workloads-run_replicates": ("sim", "run_replicates", 4,
                                 ("reps", "kernels", "workers")),
    "reference-run_replicates": ("sim", "run_replicates", 4, ("reps", "kernels")),
    "sample_features": ("sim", "sample_features", 5, ("seed",)),
    "build_pseudoresolvent": ("sim", "build_pseudoresolvent", 4, ()),
    "anisotropic_gap": ("sim", "anisotropic_gap", 3, ()),
    "rf_solution_matrix": ("rdel", "rf_solution_matrix", 4, ()),
    "estimate_kernels": ("kernels", "estimate_kernels", 6, ()),
    "build_equiv": ("equiv", "build_equiv", 5, ()),
    "kernel_ridge_error": ("equiv", "kernel_ridge_error", 5, ()),
    "analytic_identity_kernels": ("kernels", "analytic_identity_kernels", 2, ()),
    "load_kernels": ("kernels", "load_kernels", 1, ()),
    "save_kernels": ("kernels", "save_kernels", 2, ()),
    "write_matrix": ("model", "write_matrix", 2, ()),
    "to_json_text": ("model", "to_json_text", 1, ()),
    "synthetic_regression": ("model", "synthetic_regression", 4, ("seed",)),
}


@pytest.mark.parametrize("call", list(CALLS))
def test_perfbench_call_binds(call):
    module, func, positional, keywords = CALLS[call]
    f = getattr(importlib.import_module(f"rfequiv.{module}"), func)
    inspect.signature(f).bind(*range(positional), **dict.fromkeys(keywords))


def test_equiv_report_method_binds():
    # selftest.py serializes build_equiv(...).to_report()
    solution = importlib.import_module("rfequiv.equiv").EquivSolution
    inspect.signature(solution.to_report).bind("self")


def test_diagnose_traces_its_zeroth_moment_check(tmp_path):
    # the table diagnose reports is timed under its own span, with its
    # solves inside it, and tracing leaves the report bytes alone
    cli = importlib.import_module("rfequiv.cli")
    argv = ["diagnose", "--synthetic", "12,6,4", "--d", "4", "--delta", "0.1",
            "--reps", "4", "--samples", "100", "--eta-list", "100,1000,10000"]
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    assert cli.main(argv + ["--out", str(plain)]) == 0
    with SPANS.Tracer() as tracer:
        tracer.op = 1
        assert cli.main(argv + ["--out", str(traced)]) == 0
    assert traced.read_bytes() == plain.read_bytes()
    checks = [s for s in tracer.spans if s.name == "rdel.zeroth_moment_check"]
    assert len(checks) == 1
    check = checks[0]
    # the heights run on the pool, whose threads open spans with no parent;
    # such a span inside the check's interval is its work, as spans.self_ns
    # counts it
    solves = [s for s in tracer.spans if s.name == "rdel.rf_solution_matrix"
              and (s.parent == check.id
                   or (s.parent is None and s.thread != check.thread
                       and check.start_ns <= s.start_ns <= s.end_ns <= check.end_ns))]
    assert len(solves) == 3
