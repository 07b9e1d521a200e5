"""Boundary inputs: each one ends in its documented outcome, without waste.

Every case in the table asserts its exit code (CLI) or exception type
(library; ``None`` when the call returns), a failure report on exit 4, and
that no ``RuntimeWarning`` escapes.  An expected ``(outcome, text)`` pair
also requires ``text`` in the exception message or in standard error; on
exit 4, ``text`` is the failure name that the report must carry.
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
    KernelSet,
    LinearizationSpec,
    RFConfig,
    cli,
    equiv,
    estimate_delta_gaussianity,
    kernels,
    rdel,
    rf_zeroth_moment_check,
    save_kernels,
    sim,
    solve_rdel,
    synthetic_regression,
    verify_centering,
    zeroth_moment_check,
)
from rfequiv.model import _check_ridge, _check_z

DIAGNOSE = ["diagnose", "--synthetic", "12,6,4", "--d", "4", "--delta", "0.1",
            "--reps", "4", "--samples", "10000", "--eta-list", "100,1000"]
# the Monte Carlo draws of diagnose; options must be checked before either
DIAGNOSE_DRAWS = ((cli, "estimate_kernels"), (cli, "estimate_delta_gaussianity"))
PREDICT = ["predict", "--kernels", "{kernels}", "--y", "{y}", "--yhat", "{yhat}",
           "--d", "2", "--delta", "1"]
NAN = float("nan")
INF = float("inf")
# malformed variants of the toy kernel file predict reads, each replacing
# some keys of the file save_kernels writes, with the expected outcome:
# parse faults are format errors, as in the CSV loader, and a header that
# disagrees with the block shapes is an inconsistent input
PARSE_FAULT = (3, "malformed kernel JSON")
BAD_KERNELS = {
    "samples-text": ({"samples": "many"}, PARSE_FAULT),
    "samples-inf": ({"samples": INF}, PARSE_FAULT),
    "cell-text": ({"K_aa": [[1.0, "x"], [0.0, 1.0]]}, PARSE_FAULT),
    "block-ragged": ({"K_aa": [[1.0, 0.0], [0.0]]}, PARSE_FAULT),
    "header-shape": ({"n_train": 5, "n_test": 9},
                     (2, "disagrees with the blocks")),
    # every block must be 2-D, whatever its shape would broadcast to
    "block-3d": ({"K_ah": [[[0.0], [0.0]]]}, (3, "K_ah is 3-D")),
    "block-1d": ({"K_ah": [0.0, 0.0]}, (3, "K_ah is 1-D")),
    "block-scalar": ({"n_train": 1, "n_test": 1, "K_aa": 1.0, "K_ah": 0.0,
                      "K_hh": 1.0}, (3, "K_aa is 0-D")),
}
# the structured zeroth-moment check must refuse bad heights before a solve
RF_SOLVES = ((rdel, "rf_solution_matrix"), (equiv, "solve_subdel"))
# every feature draw applies an activation; a refused n must come before one
DRAWS = ((kernels, "apply_activation"), (sim, "_sample_features"))
IDENT = Activation("identity")
SMALL = synthetic_regression(4, 2, 3, 0.0, seed=0)


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


def _rf_zeroth(etas):
    K = KernelSet(np.eye(2), np.zeros((2, 1)), np.eye(1), 1)
    return lambda: rf_zeroth_moment_check(K, (2, 3, 1), 0.5, etas)


def _width_defect(K_aa, d, delta, z, nu):
    """``sqrt(d) |nu - T(nu)| / |T(nu)|`` for the scalar map
    ``T(nu) = -(1 + z + sum_j lam_j / (delta - z - d nu lam_j))^{-1}``."""
    lam = np.clip(np.linalg.eigvalsh(K_aa), 0.0, None)
    t = -1.0 / (1.0 + z + np.sum(lam / (delta - z - d * nu * lam)))
    return np.sqrt(d) * abs(nu - t) / abs(t)


def _subdel_solved(K_aa, d, delta, z):
    """solve_subdel returns nu in the upper half-plane, solved to rounding."""
    def run():
        _, nu = equiv.solve_subdel(K_aa, d, delta, z)
        assert nu.imag > 0, nu
        defect = _width_defect(K_aa, d, delta, z, nu)
        assert defect <= 1e-13, defect
    return run


def _subdel_far(K_aa, d, delta, z):
    """At ``|z| -> inf``, ``nu = -1/(1 + z)`` to rounding, with no overflow."""
    def run():
        _, nu = equiv.solve_subdel(K_aa, d, delta, z)
        assert nu == pytest.approx(-1.0 / (1.0 + z), rel=1e-12, abs=0), nu
    return run


def _pencil(dims, delta):
    """Build the pseudo-resolvent of a fixed unit-scale draw at z = 0."""
    n, d, t = dims
    rng = np.random.default_rng(0)
    A = rng.standard_normal((n, d)) / np.sqrt(n)
    Ahat = rng.standard_normal((t, d)) / np.sqrt(n)
    return lambda: sim.build_pseudoresolvent(A, Ahat, delta, 0.0)


def _predict_bad(name):
    """PREDICT on the malformed kernel file ``BAD_KERNELS[name]``."""
    return [f"{{{name}}}" if a == "{kernels}" else a for a in PREDICT]


def _predict_identity4(delta):
    """PREDICT on K_aa = I_4 at d = 4, the interpolation threshold, where
    kappa ~ 2 sqrt(delta) and denom ~ sqrt(delta)."""
    return ["predict", "--kernels", "{identity4}", "--y", "{y4}", "--yhat",
            "{yhat}", "--d", "4", "--delta", delta]


def _newton_steps_below(limit):
    """The nu solve, failing the test once it takes ``limit`` steps."""
    solve = equiv._solve_nu

    def call(*args):
        out = solve(*args)
        assert out[-1] < limit, f"nu solve took {out[-1]} Newton steps"
        return out
    return call


def _gaussianity(z):
    ds = synthetic_regression(6, 3, 4, 0.1, seed=0)
    cfg = RFConfig(d=4, delta=0.1, n=6, seed=0)
    return lambda: estimate_delta_gaussianity(ds, IDENT, IDENT, cfg, z, 0.1,
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
    # DIAGNOSE has ell = 12 + 4 + 2 * 4 = 24
    "diagnose-ell-above-max": (DIAGNOSE + ["--max-ell", "23"],
                               (2, "exceeds --max-ell 23"),
                               DIAGNOSE_DRAWS + DRAWS, {}),
    "estimate-kernels-n-zero": (
        ["estimate-kernels", "--synthetic", "4,2,3", "--n", "0"],
        (2, "n must be >= 1"), DRAWS, {}),
    # an explicit --samples is checked, never replaced by the default
    "estimate-kernels-samples-zero": (
        ["estimate-kernels", "--synthetic", "4,2,3", "--samples", "0"],
        (2, "--samples must be >= 1"), DRAWS, {}),
    "diagnose-samples-zero": (DIAGNOSE + ["--samples", "0"],
                              (2, "--samples must be >= 1"),
                              DIAGNOSE_DRAWS + DRAWS, {}),
    "diagnose-samples-one": (DIAGNOSE + ["--samples", "1"],
                             (2, "--samples >= 2"), DIAGNOSE_DRAWS + DRAWS, {}),
    # every verb checks --seed against [0, 2^64) before any draw
    "estimate-kernels-seed-negative": (
        ["estimate-kernels", "--synthetic", "4,2,3", "--seed", "-1"],
        (2, "unsigned 64-bit"), DRAWS, {}),
    "estimate-kernels-seed-2-64": (
        ["estimate-kernels", "--synthetic", "4,2,3", "--seed", str(2 ** 64)],
        (2, "unsigned 64-bit"), DRAWS, {}),
    "sweep-seed-negative": (
        ["sweep", "--synthetic", "4,2,3", "--d-list", "2", "--delta-list", "0.1",
         "--reps", "2", "--seed", "-1"],
        (2, "unsigned 64-bit"), DRAWS, {}),
    # the replicate verbs check --reps before any kernel draw
    **{f"{verb}-reps-zero": (
        [verb, "--synthetic", "4,2,3", *grid, "--reps", "0"],
        (2, "--reps must be >= 1"), DRAWS, {})
       for verb, grid in (("simulate", ["--d", "2", "--delta", "0.1"]),
                          ("compare", ["--d", "2", "--delta", "0.1"]),
                          ("sweep", ["--d-list", "2", "--delta-list", "0.1"]))},
    # estimate-kernels runs no replicates, so it has no --reps to ignore
    "estimate-kernels-reps": (
        ["estimate-kernels", "--synthetic", "4,2,3", "--reps", "3"],
        (2, "unrecognized arguments: --reps"), DRAWS, {}),
    "sample-features-n-zero": (
        lambda: sim.sample_features(SMALL, IDENT, IDENT, 2, 0, 0),
        (ValueError, "n must be >= 1"), DRAWS, {}),
    "verify-centering-n-zero": (
        lambda: verify_centering(IDENT, IDENT, SMALL, 0, 100, 0),
        (ValueError, "n must be >= 1"), DRAWS, {}),
    **{f"predict-kernels-{name}": (_predict_bad(name), expected,
                                   ((cli, "build_equiv"),), {})
       for name, (_, expected) in BAD_KERNELS.items()},
    "predict-linalg-error": (PREDICT, (4, "LinAlgError"), (),
                             {(cli, "build_equiv"): _raise_linalg_error}),
    # a small ridge at the interpolation threshold returns a report until
    # denom ~ sqrt(delta) falls below its guard, in a few Newton steps
    **{f"predict-identity4-delta-{delta}": (
        _predict_identity4(delta), expected, (),
        {(equiv, "_solve_nu"): _newton_steps_below(100)})
       for delta, expected in (("1e-10", 0), ("1e-14", 0),
                               ("1e-18", (4, "DenominatorDegenerate")))},
    # a kernel block must be 2-D, not reshaped to one
    "kernelset-block-3d": (
        lambda: KernelSet(np.eye(1), np.zeros((1, 1, 1)), np.eye(1), 1),
        (ValueError, "K_ah is 3-D"), (), {}),
    "kernelset-block-0d": (lambda: KernelSet(1.0, np.zeros((1, 1)), np.eye(1), 1),
                           (ValueError, "K_aa is 0-D"), (), {}),
    "solve-rdel-z-nan": (_solve(complex(0, NAN), 0.1), ValueError, (), {}),
    "solve-rdel-z-inf": (_solve(complex(0, INF), 0.1), ValueError, (), {}),
    "solve-rdel-z-nan-real": (_solve(complex(NAN, 1), 0.1), ValueError, (), {}),
    "solve-rdel-tau-inf": (_solve(1j, INF), ValueError, (), {}),
    "solve-rdel-nan-defect": (_nan_superop_once, RuntimeError, (), {}),
    "zeroth-moment-eta-nan": (
        lambda: zeroth_moment_check(_scalar_spec(), [100.0, NAN]),
        ValueError, ((rdel, "solve_rdel"),), {}),
    "rf-zeroth-moment-eta-nan": (_rf_zeroth([100.0, NAN]), ValueError,
                                 RF_SOLVES, {}),
    "rf-zeroth-moment-eta-inf": (_rf_zeroth([100.0, INF]), ValueError,
                                 RF_SOLVES, {}),
    "rf-zeroth-moment-eta-zero": (_rf_zeroth([0.0, 100.0]), ValueError,
                                  RF_SOLVES, {}),
    "rf-zeroth-moment-eta-negative": (_rf_zeroth([-10.0, 100.0]), ValueError,
                                      RF_SOLVES, {}),
    "rf-zeroth-moment-eta-decreasing": (_rf_zeroth([1000.0, 100.0]),
                                        ValueError, RF_SOLVES, {}),
    "rf-zeroth-moment-eta-repeated": (_rf_zeroth([100.0, 100.0]), ValueError,
                                      RF_SOLVES, {}),
    "rf-zeroth-moment-eta-single": (_rf_zeroth([100.0]), ValueError,
                                    RF_SOLVES, {}),
    "rf-zeroth-moment-eta-accepted": (_rf_zeroth([100.0, 1000.0]), None,
                                      (), {}),
    "superop-probe-nan": (
        lambda: LinearizationSpec(np.eye(3), [1, 1, 0], lambda M: M * np.nan),
        ValueError, (), {}),
    "expectation-nan": (
        lambda: LinearizationSpec(np.diag([NAN, 1.0]), [1, 0], lambda M: 0 * M),
        ValueError, (), {}),
    # at z = 0 solve_subdel is the alpha solve
    "alpha-kernel-nan": (
        lambda: equiv.solve_subdel(np.diag([NAN, 1.0]), 1, 1.0, 0.0),
        ValueError, ((equiv, "_solve_nu"),), {}),
    # near the real axis the nu solve ends in a handful of steps
    "subdel-identity4-near-axis": (
        _subdel_solved(np.eye(4), 4, 0.3, 2 + 1e-3j), None, (), {}),
    "subdel-identity4-small-ridge": (
        _subdel_solved(np.eye(4), 4, 1e-7, 1e-6j), None, (), {}),
    "subdel-far-z": (_subdel_far(0.5 * np.eye(3), 4, 0.3, 1e300j), None, (), {}),
    "diagnose-identity4-near-axis": (
        ["diagnose", "--synthetic", "4,1,3", "--kernels", "{identity4}",
         "--d", "4", "--delta", "0.3", "--z", "2+0.001j", "--reps", "4",
         "--samples", "100"], 0, (), {}),
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
             "yhat": tmp_path / "yhat.csv", "identity4": tmp_path / "i4.json",
             "y4": tmp_path / "y4.csv"}
    save_kernels(toy_kernels, paths["kernels"])
    save_kernels(KernelSet(np.eye(4), np.zeros((4, 1)), np.eye(1), 1),
                 paths["identity4"])
    paths["y"].write_text("1\n0\n")
    paths["y4"].write_text("1\n1\n1\n1\n")
    paths["yhat"].write_text("0.7\n")
    toy = json.loads(paths["kernels"].read_text())
    for name, (changes, _) in BAD_KERNELS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({**toy, **changes}))
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
        assert json.loads(out.read_text())["error"] == text
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


def _log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0 ** e)


# PSD spectra with zero eigenvalues among them, from a few thousandths to
# a thousand
SPECTRA = st.lists(st.one_of(st.just(0.0), _log_uniform(1e-3, 1e3)),
                   min_size=1, max_size=12)


@settings(max_examples=300, deadline=None)
@given(SPECTRA, st.integers(1, 60), _log_uniform(1e-8, 1e3),
       st.floats(-4.0, 6.0), _log_uniform(1e-12, 1e4))
def test_subdel_solves_every_admissible_z(lam, d, delta, x, eta):
    # K_aa is diagonal, so its spectrum is exact and the defect measures the
    # solve alone; by uniqueness, a defect at rounding level with Im nu > 0
    # identifies the solution
    K = np.diag(lam)
    z = complex(x, eta)
    N11, nu = equiv.solve_subdel(K, d, delta, z)
    assert nu.imag > 0
    assert np.linalg.eigvalsh((N11 - N11.conj().T) / 2j).min() >= -1e-12
    assert _width_defect(K, d, delta, z, nu) <= 1e-12
