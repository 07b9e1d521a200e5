"""Boundary inputs: each one ends in its documented outcome, without waste.

Every case in the table asserts its exit code (CLI) or exception type
(library; ``None`` when the call returns), a failure report on exit 4, and
that no ``RuntimeWarning`` escapes.  An expected ``(outcome, text)`` pair
also requires ``text`` in the exception message or in standard error.
Where the fix is to refuse an input before any work, the expensive call is
replaced by one that fails the test when it is reached.
"""

import cmath
import functools
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rfequiv import (
    Activation,
    LinearizationSpec,
    RFConfig,
    cli,
    equiv,
    estimate_delta_gaussianity,
    rdel,
    save_kernels,
    sim,
    solve_alpha,
    solve_rdel,
    synthetic_regression,
    zeroth_moment_check,
)
from rfequiv.model import _check_ridge, _check_z

DIAGNOSE = ["diagnose", "--synthetic", "12,6,4", "--d", "4", "--delta", "0.1",
            "--reps", "4", "--samples", "10000", "--eta-list", "100,1000"]
# the Monte Carlo draws of diagnose; options must be checked before either
DIAGNOSE_DRAWS = ((cli, "estimate_kernels"), (cli, "estimate_delta_gaussianity"))
PREDICT = ["predict", "--kernels", "{kernels}", "--y", "{y}", "--yhat", "{yhat}",
           "--d", "2", "--delta", "1"]
SCALAR_PRODUCTS = {"EB": np.zeros((0, 1)), "EQ": np.zeros((0, 0)),
                   "EBBt": np.zeros((0, 0))}
NAN = float("nan")
INF = float("inf")


def _forbidden(name):
    def call(*args, **kwargs):
        raise AssertionError(f"{name} was reached")
    return call


def _raise_linalg_error(*args, **kwargs):
    raise np.linalg.LinAlgError("Singular matrix")


def _scalar_spec(superop=None):
    """The semicircle instance, with the superop swapped after its probes."""
    spec = LinearizationSpec(np.zeros((1, 1)), np.array([1]), lambda M: M.copy())
    if superop is not None:
        spec.superop = superop
    return spec


def _solve(z, tau):
    return lambda: solve_rdel(_scalar_spec(_forbidden("superop")), z, tau)


def _nan_superop_once():
    calls = []

    def superop(M):
        assert not calls, "iterated past a non-finite defect"
        calls.append(M)
        return np.full_like(M, NAN)

    solve_rdel(_scalar_spec(superop), 1j, 0.1)


def _pencil(dims, delta):
    """Build the pseudo-resolvent of a fixed unit-scale draw at z = 0."""
    n, d, t = dims
    rng = np.random.default_rng(0)
    A = rng.standard_normal((n, d)) / np.sqrt(n)
    Ahat = rng.standard_normal((t, d)) / np.sqrt(n)
    return lambda: sim.build_pseudoresolvent(A, Ahat, delta, 0.0)


def _gaussianity(z):
    ds = synthetic_regression(6, 3, 4, 0.1, seed=0)
    cfg = RFConfig(d=4, delta=0.1, n=6, seed=0)
    ident = Activation("identity")
    return lambda: estimate_delta_gaussianity(ds, ident, ident, cfg, z, 0.1,
                                              reps=4, seed=0)


# (run, expected, guarded, patched): run is CLI argv (without --out) or a
# callable; expected is the exit code or the exception type (None: returns),
# optionally paired with a message fragment; guarded calls must never be
# reached; patched maps (module, name) to a replacement.
CASES = {
    "diagnose-tau-nan": (DIAGNOSE + ["--tau", "nan"], 2, DIAGNOSE_DRAWS, {}),
    "diagnose-tau-inf": (DIAGNOSE + ["--tau", "inf"], 2, DIAGNOSE_DRAWS, {}),
    "diagnose-z-nan": (DIAGNOSE + ["--z", "nanj"], 2, DIAGNOSE_DRAWS, {}),
    "diagnose-z-inf": (DIAGNOSE + ["--z", "1e999j"], 2, DIAGNOSE_DRAWS, {}),
    "diagnose-z-real": (DIAGNOSE + ["--z", "0.5"], 2, DIAGNOSE_DRAWS, {}),
    "diagnose-z-infj": (DIAGNOSE + ["--z", "infj"],
                        (2, "z must be 0 or finite"), DIAGNOSE_DRAWS, {}),
    "diagnose-probes-negative": (DIAGNOSE + ["--probes", "-3"], 2,
                                 DIAGNOSE_DRAWS, {}),
    "diagnose-eta-nan": (DIAGNOSE + ["--eta-list", "100,nan"], 2,
                         DIAGNOSE_DRAWS, {}),
    "predict-linalg-error": (PREDICT, 4, (),
                             {(cli, "build_equiv"): _raise_linalg_error}),
    "solve-rdel-z-nan": (_solve(complex(0, NAN), 0.1), ValueError, (), {}),
    "solve-rdel-z-inf": (_solve(complex(0, INF), 0.1), ValueError, (), {}),
    "solve-rdel-z-nan-real": (_solve(complex(NAN, 1), 0.1), ValueError, (), {}),
    "solve-rdel-tau-inf": (_solve(1j, INF), ValueError, (), {}),
    "solve-rdel-nan-defect": (_nan_superop_once, RuntimeError, (), {}),
    "zeroth-moment-eta-nan": (
        lambda: zeroth_moment_check(_scalar_spec(), SCALAR_PRODUCTS, [100.0, NAN]),
        ValueError, ((rdel, "solve_rdel"),), {}),
    "superop-probe-nan": (
        lambda: LinearizationSpec(np.eye(3), [1, 1, 0], lambda M: M * np.nan),
        ValueError, (), {}),
    "expectation-nan": (
        lambda: LinearizationSpec(np.diag([NAN, 1.0]), [1, 0], lambda M: 0 * M),
        ValueError, (), {}),
    "alpha-kernel-nan": (lambda: solve_alpha(np.diag([NAN, 1.0]), 1, 1.0),
                         ValueError, ((equiv, "_iterate"),), {}),
    "gaussianity-z-nan": (_gaussianity(complex(0, NAN)), ValueError,
                          ((sim, "_sample_features"),), {}),
    "m-infinity-tau-nan": (lambda: rdel.m_infinity(_scalar_spec(), NAN),
                           ValueError, (), {}),
    "m-infinity-tau-inf": (lambda: rdel.m_infinity(_scalar_spec(), INF),
                           ValueError, (), {}),
    # a tall pencil at z = 0 carries the factor delta^(n-d) in its determinant
    "pencil-tall-delta-1e-300": (_pencil((12, 4, 4), 1e-300),
                                 (RuntimeError, "numerically singular"), (), {}),
    "pencil-tall-delta-1e-17": (_pencil((12, 4, 4), 1e-17),
                                (RuntimeError, "numerically singular"), (), {}),
    "pencil-tall-delta-1e-14": (_pencil((12, 4, 4), 1e-14),
                                (RuntimeError, "defect"), (), {}),
    "pencil-tall-delta-1e-10": (_pencil((12, 4, 4), 1e-10),
                                (RuntimeError, "defect"), (), {}),
    "pencil-tall-delta-1e-6": (_pencil((12, 4, 4), 1e-6), None, (), {}),
    # a wide one stays invertible as delta -> 0
    "pencil-wide-delta-1e-300": (_pencil((4, 12, 4), 1e-300), None, (), {}),
}


@pytest.fixture
def files(tmp_path, toy_kernels):
    paths = {"kernels": tmp_path / "k.json", "y": tmp_path / "y.csv",
             "yhat": tmp_path / "yhat.csv"}
    save_kernels(toy_kernels, paths["kernels"])
    paths["y"].write_text("1\n0\n")
    paths["yhat"].write_text("0.7\n")
    return {k: str(v) for k, v in paths.items()}


@pytest.mark.parametrize("case", list(CASES))
def test_boundary(case, files, tmp_path, monkeypatch, capsys):
    run, expected, guarded, patched = CASES[case]
    expected, text = expected if isinstance(expected, tuple) else (expected, "")
    for module, name in guarded:
        monkeypatch.setattr(module, name, _forbidden(name))
    for (module, name), fn in patched.items():
        monkeypatch.setattr(module, name, fn)
    out = tmp_path / "out.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if callable(run):
            try:
                run()
                outcome, message = None, ""
            except Exception as exc:
                outcome, message = type(exc), str(exc)
        else:
            outcome = cli.main([a.format(**files) for a in run]
                               + ["--out", str(out)])
            message = capsys.readouterr().err
    assert outcome is expected, message
    assert text in message
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    if outcome == 4:
        assert json.loads(out.read_text())["error"] == "LinAlgError"
    elif outcome == 2:
        assert not out.exists()


NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.complex_numbers(allow_nan=True, allow_infinity=True,
                       allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, complex(0, 5e-324),
                     complex(0, -0.0), complex(-1, 0), complex(NAN, 1)]),
)


@settings(max_examples=400, deadline=None)
@given(NUMBERS)
def test_ridge_and_z_checks_accept_or_raise_value_error(x):
    finite = cmath.isfinite(x)
    want = {
        "ridge": isinstance(x, float) and finite and x > 0,
        "z": finite and (complex(x).imag > 0 or x == 0),
        "z-regularized": finite and complex(x).imag >= 0,
    }
    for name, check in (("ridge", _check_ridge), ("z", _check_z),
                        ("z-regularized",
                         functools.partial(_check_z, regularized=True))):
        try:
            check(x)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == want[name], (name, x)
    if want["z"]:
        assert _check_z(x) == complex(x)
