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
import collections
import functools
import inspect
import json
import sys
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rfequiv import (
    Activation,
    Dataset,
    KernelSet,
    NonConvergence,
    RFConfig,
    cli,
    equiv,
    estimate_delta_gaussianity,
    estimate_kernels,
    model,
    rdel,
    save_kernels,
    sim,
    synthetic_regression,
    verify_centering,
    write_json,
    zeroth_moment_check,
)
from rfequiv.model import _check_ridge, _check_z
from rfequiv.rdel import LinearizationSpec, solve_rdel

from conftest import continued_nu, train_kernels

DIAGNOSE = ["diagnose", "--synthetic", "12,6,4", "--d", "4", "--delta", "0.1",
            "--reps", "4", "--samples", "10000", "--eta-list", "100,1000"]
# the kernel routes and the Monte Carlo draws that diagnose calls: the
# closed form, the one Monte Carlo pass, the centering draw of the other
# routes and the Gaussianity draws; options must be checked before any
DIAGNOSE_DRAWS = ((cli, "exact_kernels"), (cli, "_kernels_and_centering"),
                  (cli, "verify_centering"), (cli, "estimate_delta_gaussianity"))
# diagnose's grid on a design whose entry of 1e154 makes the features'
# squares overflow
DIAGNOSE_1E154 = ["--d", "2", "--delta", "1", "--reps", "4"]
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
    # a count is a JSON integer; none of these may be converted into one
    "samples-fraction": ({"samples": 2.7}, PARSE_FAULT),
    "samples-bool": ({"samples": True}, PARSE_FAULT),
    "samples-numeric-text": ({"samples": "12"}, PARSE_FAULT),
    "cell-text": ({"K_aa": [[1.0, "x"], [0.0, 1.0]]}, PARSE_FAULT),
    "block-ragged": ({"K_aa": [[1.0, 0.0], [0.0]]}, PARSE_FAULT),
    "header-shape": ({"n_train": 5, "n_test": 9},
                     (2, "disagrees with the blocks")),
    # the header counts are JSON integers too; 2.0 and true equal 2 and 1
    "header-fraction": ({"n_train": 2.0}, PARSE_FAULT),
    "header-bool": ({"n_test": True}, PARSE_FAULT),
    "header-text": ({"n_train": "2"}, PARSE_FAULT),
    "block-shapes": ({"n_train": 3, "K_aa": np.eye(3).tolist()},
                     (2, "kernel block shapes are inconsistent")),
    # every block must be 2-D, whatever its shape would broadcast to
    "block-3d": ({"K_ah": [[[0.0], [0.0]]]}, (3, "K_ah is 3-D")),
    "block-1d": ({"K_ah": [0.0, 0.0]}, (3, "K_ah is 1-D")),
    "block-scalar": ({"n_train": 1, "n_test": 1, "K_aa": 1.0, "K_ah": 0.0,
                      "K_hh": 1.0}, (3, "K_aa is 0-D")),
    # orjson reads an integer beyond 64 bits as a float, which is no count
    "samples-2-64": ({"samples": 2 ** 64}, PARSE_FAULT),
    "samples-below-int64": ({"samples": -2 ** 63 - 1}, PARSE_FAULT),
    # the closed-form flag is a JSON boolean, not a truthy value
    "exact-text": ({"exact": "true"}, PARSE_FAULT),
    "exact-one": ({"exact": 1}, PARSE_FAULT),
    "exact-null": ({"exact": None}, PARSE_FAULT),
}
# byte-level damage to the toy kernel file: every parse fault names the file
# and says "malformed kernel JSON"
MANGLED_KERNELS = {
    "truncated": lambda data: data[:len(data) // 2],
    "utf8-bom": lambda data: b"\xef\xbb\xbf" + data,
    "invalid-utf8": lambda data: data.replace(b'"samples"', b'"samples\xff"'),
}
# the structured zeroth-moment check must refuse bad heights before a solve
RF_SOLVES = ((rdel, "rf_solution_matrix"), (equiv, "solve_subdel"))
# every feature draw applies an activation; a refused input must come before one
DRAWS = ((model, "apply_activation"),)
IDENT = Activation("identity")
# two admissible inputs on which Newton steps near the axis are refused; a
# Picard fallback took 10 000 steps on each without ending
STALLS = (
    ([461.56481671708735, 0.033496864999248428, 94.934277888896261,
      0.46769263262473498, 0.0047901019855080109, 0.0], 2, 0.543,
     -1.3010854826500902, 2.637062778397088e-12),
    ([3.5288861029926553, 8.1099448337520596e-3, 0.5169118740030707,
      11.062519529247815, 0.59624279039582018, 1.7061936432323933e-2,
      14.440135745962325, 1.3717481668274595e-3], 2, 18.197300238164903,
     -3.899822708651392, 6.363284980435887e-9),
)
SMALL = synthetic_regression(4, 2, 3, 0.0, seed=0)
SMALL_CFG = RFConfig(d=2, delta=0.1, n=4, seed=0)
SMALL_KERNELS = KernelSet(np.eye(4), np.zeros((4, 2)), np.eye(2), 1)
# every feature of sign on this design is sign(0) = 0
ZERO_DESIGN = Dataset(np.zeros((3, 2)), np.zeros((1, 2)), np.zeros(3), np.zeros(1))
# K_aa = 0, so at z = 0 every eigenvalue of N11 is 1 / delta
ZERO2 = KernelSet(np.zeros((2, 2)), np.zeros((2, 1)), np.eye(1), 1)


def _forbidden(name):
    def call(*args, **kwargs):
        raise AssertionError(f"{name} was reached")
    return call


def _returns(call, want):
    """Run ``call`` and require that it return ``want``."""
    def run():
        got = call()
        assert got == want, got
    return run


def _finite_solution(K, dims, delta, z):
    """rf_solution_matrix returns a finite ``M``."""
    def run():
        M = rdel.rf_solution_matrix(K, dims, delta, z)
        assert np.isfinite(M).all()
    return run


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
    return lambda: zeroth_moment_check(K, (2, 3, 1), 0.5, etas)


def _width_defect(K_aa, d, delta, z, nu):
    """``sqrt(d) |nu - T(nu)| / |T(nu)|`` for the scalar map
    ``T(nu) = -(1 + z + sum_j lam_j / (delta - z - d nu lam_j))^{-1}``."""
    lam = np.clip(np.linalg.eigvalsh(K_aa), 0.0, None)
    t = -1.0 / (1.0 + z + np.sum(lam / (delta - z - d * nu * lam)))
    return np.sqrt(d) * abs(nu - t) / abs(t)


def _subdel_solved(K_aa, d, delta, z):
    """solve_subdel returns nu in the upper half-plane, solved to rounding."""
    def run():
        _, nu = equiv.solve_subdel(train_kernels(K_aa), d, delta, z)
        assert nu.imag > 0, nu
        defect = _width_defect(K_aa, d, delta, z, nu)
        assert defect <= 1e-13, defect
    return run


def _subdel_far(K_aa, d, delta, z):
    """At ``|z| -> inf``, ``nu = -1/(1 + z)`` to rounding, with no overflow."""
    def run():
        _, nu = equiv.solve_subdel(train_kernels(K_aa), d, delta, z)
        assert nu == pytest.approx(-1.0 / (1.0 + z), rel=1e-12, abs=0), nu
    return run


def _alpha_is(K_aa, d, delta, want):
    """The alpha solve (solve_subdel at z = 0) returns exactly ``want``."""
    def run():
        _, nu = equiv.solve_subdel(train_kernels(K_aa), d, delta, 0.0)
        assert nu == want, nu
    return run


def _subdel_continued(lam, d, delta, z, frames=None):
    """solve_subdel on ``diag(lam)`` returns the root continued from far
    above the axis, within 1e-12 relative; with ``frames``, the solve runs
    under a recursion limit that many frames above the caller's depth."""
    def run():
        limit = sys.getrecursionlimit()
        if frames:
            sys.setrecursionlimit(len(inspect.stack(0)) + frames)
        try:
            _, nu = equiv.solve_subdel(train_kernels(np.diag(lam)), d, delta, z)
        finally:
            sys.setrecursionlimit(limit)
        want = continued_nu(lam, d, delta, z)
        assert abs(nu - want) <= 1e-12 * abs(want), (nu, want)
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


def _predict_tiny_ridge(kernels, d, delta):
    """PREDICT on a six-point kernel file with ``K_ah = 0`` and
    ``K_hh = I_3`` at a ridge near the smallest positive double."""
    return ["predict", "--kernels", f"{{{kernels}}}", "--y", "{y6}", "--yhat",
            "{yhat3}", "--d", str(d), "--delta", delta]


def _predict_identity4(delta):
    """PREDICT on K_aa = I_4 at d = 4, the interpolation threshold, where
    kappa ~ 2 sqrt(delta) and denom ~ sqrt(delta)."""
    return ["predict", "--kernels", "{identity4}", "--y", "{y4}", "--yhat",
            "{yhat}", "--d", "4", "--delta", delta]


def _newton_steps_below(limit):
    """The nu solve, failing the test once it takes ``limit`` steps over all
    its heights."""
    solve = equiv._solve_nu

    def call(*args):
        out = solve(*args)
        assert out[-1] < limit, f"nu solve took {out[-1]} Newton steps"
        return out
    return call


def _overflow(verb, kernels):
    """``verb`` on a design whose every entry is 1e308, so that ``X phi(Z)``
    overflows, with ``--sigma sin``; with ``kernels``, from a kernel file,
    so that only the replicate or Gaussianity draws meet the design."""
    grid = {"estimate-kernels": [],
            "sweep": ["--d-list", "4", "--delta-list", "0.1", "--reps", "3"],
            "diagnose": ["--d", "4", "--delta", "0.1", "--reps", "4",
                         "--eta-list", "100,1000"]}
    return [verb, "--x", "{huge-x}", "--xhat", "{huge-xhat}", "--y", "{y4}",
            "--yhat", "{yhat2}", "--sigma", "sin", "--samples", "1000",
            *grid.get(verb, ["--d", "4", "--delta", "0.1", "--reps", "3"]),
            *(["--kernels", "{identity4x2}"] if kernels else [])]


def _labels(verb, y):
    """``verb`` on the four-point identity kernels with the train labels of
    file ``y``; ``simulate`` also reads a four-by-three design."""
    if verb == "predict":
        return ["predict", "--kernels", "{identity4}", "--y", f"{{{y}}}",
                "--yhat", "{yhat}", "--d", "2", "--delta", "0.1"]
    return ["simulate", "--kernels", "{identity4}", "--x", "{x4}", "--xhat",
            "{xhat1}", "--y", f"{{{y}}}", "--yhat", "{yhat}", "--d", "2",
            "--delta", "0.1", "--reps", "3"]


def _gap(shapes, nan_probe=False):
    """anisotropic_gap on fixed complex draws of the shapes of ``G``,
    ``M_theory`` and ``U``; with ``nan_probe``, ``U`` is all NaN."""
    def run():
        rng = np.random.default_rng(1)
        G, M, U = (rng.standard_normal(s) + 1j * rng.standard_normal(s)
                   for s in shapes)
        sim.anisotropic_gap(G, M, np.full_like(U, NAN) if nan_probe else U)
    return run


def _averaged_near_float_limit():
    """A set whose ``K_aa`` has an entry of 1e308 and is symmetric to 1e-12
    relative but not exactly: it keeps ``B / 2 + B^T / 2``, finite, where
    ``(B + B^T) / 2`` overflows."""
    K = KernelSet(np.array([[1e308, 1.0], [0.0, 1.0]]), np.zeros((2, 1)),
                  np.eye(1), 1)
    assert np.array_equal(K.K_aa, [[1e308, 0.5], [0.5, 1.0]])


def _gaussianity(z):
    ds = synthetic_regression(6, 3, 4, 0.1, seed=0)
    cfg = RFConfig(d=4, delta=0.1, n=6, seed=0)
    return lambda: estimate_delta_gaussianity(ds, IDENT, IDENT, cfg, z, 0.1,
                                              reps=4)


# (run, expected, guarded, patched): run is CLI argv (without --out) or a
# callable; expected is the exit code or the exception type (None: returns),
# optionally paired with a message fragment; guarded calls must never be
# reached; patched maps (module, name) to a replacement.
CASE_ROWS = [
    ("diagnose-tau-nan", (DIAGNOSE + ["--tau", "nan"], 2, DIAGNOSE_DRAWS, {})),
    ("diagnose-tau-inf", (DIAGNOSE + ["--tau", "inf"], 2, DIAGNOSE_DRAWS, {})),
    ("diagnose-z-nan", (DIAGNOSE + ["--z", "nanj"], 2, DIAGNOSE_DRAWS, {})),
    ("diagnose-z-inf", (DIAGNOSE + ["--z", "1e999j"], 2, DIAGNOSE_DRAWS, {})),
    ("diagnose-z-real", (DIAGNOSE + ["--z", "0.5"], 2, DIAGNOSE_DRAWS, {})),
    ("diagnose-z-infj", (DIAGNOSE + ["--z", "infj"],
                         (2, "z must be 0 or finite"), DIAGNOSE_DRAWS, {})),
    ("diagnose-probes-negative", (DIAGNOSE + ["--probes", "-3"], 2,
                                  DIAGNOSE_DRAWS, {})),
    ("diagnose-eta-nan", (DIAGNOSE + ["--eta-list", "100,nan"], 2,
                          DIAGNOSE_DRAWS, {})),
    # DIAGNOSE has ell = 12 + 4 + 2 * 4 = 24
    ("diagnose-ell-above-max", (DIAGNOSE + ["--max-ell", "23"],
                                (2, "exceeds --max-ell 23"),
                                DIAGNOSE_DRAWS + DRAWS, {})),
    ("estimate-kernels-n-zero", (
        ["estimate-kernels", "--synthetic", "4,2,3", "--n", "0"],
        (2, "n must be >= 1"), DRAWS, {})),
    # an explicit --samples is checked, never replaced by the default
    ("estimate-kernels-samples-zero", (
        ["estimate-kernels", "--synthetic", "4,2,3", "--samples", "0"],
        (2, "--samples must be >= 1"), DRAWS, {})),
    ("diagnose-samples-zero", (DIAGNOSE + ["--samples", "0"],
                               (2, "--samples must be >= 1"),
                               DIAGNOSE_DRAWS + DRAWS, {})),
    ("diagnose-samples-one", (DIAGNOSE + ["--samples", "1"],
                              (2, "--samples must be >= 2"), DIAGNOSE_DRAWS + DRAWS,
                              {})),
    # every verb checks --seed against [0, 2^64) before any draw
    ("estimate-kernels-seed-negative", (
        ["estimate-kernels", "--synthetic", "4,2,3", "--seed", "-1"],
        (2, "unsigned 64-bit"), DRAWS, {})),
    ("estimate-kernels-seed-2-64", (
        ["estimate-kernels", "--synthetic", "4,2,3", "--seed", str(2 ** 64)],
        (2, "unsigned 64-bit"), DRAWS, {})),
    ("sweep-seed-negative", (
        ["sweep", "--synthetic", "4,2,3", "--d-list", "2", "--delta-list", "0.1",
         "--reps", "2", "--seed", "-1"],
        (2, "unsigned 64-bit"), DRAWS, {})),
    # sweep checks every grid cell before the kernel draw
    *[(f"sweep-{name}", (
        ["sweep", "--synthetic", "4,2,3", *grid, "--reps", "2"],
        (2, text), DRAWS, {}))
       for name, grid, text in (
           ("d-list-zero", ["--d-list", "0", "--delta-list", "0.1"],
            "d must be >= 1"),
           ("delta-list-negative", ["--d-list", "2", "--delta-list=-1"],
            "delta must be a positive finite real"),
           ("delta-list-nan", ["--d-list", "2", "--delta-list", "nan"],
            "delta must be a positive finite real"),
           ("d-list-empty", ["--d-list", ",", "--delta-list", "0.1"],
            "empty item in the comma-separated list ','"),
           ("d-list-empty-item", ["--d-list", "2,", "--delta-list", "0.1"],
            "empty item in the comma-separated list '2,'"),
           ("delta-list-empty-item", ["--d-list", "2", "--delta-list", ",0.1"],
            "empty item in the comma-separated list ',0.1'"))],
    # every number list refuses an empty item, as a CSV file refuses an
    # empty cell, before any draw
    ("estimate-kernels-synthetic-empty-item", (
        ["estimate-kernels", "--synthetic", "4,,2,3"],
        (2, "empty item in the comma-separated list '4,,2,3'"), DRAWS, {})),
    ("diagnose-eta-list-empty-item", (
        DIAGNOSE + ["--eta-list", "100,,1000"],
        (2, "empty item in the comma-separated list '100,,1000'"),
        DIAGNOSE_DRAWS, {})),
    # an item that is no number is named with its list, not in Python's words
    ("sweep-d-list-not-an-integer", (
        ["sweep", "--synthetic", "4,2,3", "--d-list", "4.5", "--delta-list", "0.1",
         "--reps", "2"],
        (2, "item '4.5' of the comma-separated list '4.5' is not an integer"),
        DRAWS, {})),
    ("estimate-kernels-synthetic-not-an-integer", (
        ["estimate-kernels", "--synthetic", "4,2,x"],
        (2, "item 'x' of the comma-separated list '4,2,x' is not an integer"),
        DRAWS, {})),
    ("diagnose-eta-list-not-a-number", (
        DIAGNOSE + ["--eta-list", "100,abc"],
        (2, "item 'abc' of the comma-separated list '100,abc' is not a number"),
        DIAGNOSE_DRAWS, {})),
    *[(f"estimate-kernels-{kind}-params-empty-item", (
        ["estimate-kernels", "--synthetic", "4,2,3", f"--{kind}", "custom-table",
         f"--{kind}-params={params}"],
        (2, f"empty item in the comma-separated list '{params}'"), DRAWS, {}))
       for kind, params in (("sigma", "-1,1,,-1,1"), ("phi", "-1,1,-1,1,"))],
    # the replicate verbs check --reps before any kernel draw
    *[(f"{verb}-reps-zero", (
        [verb, "--synthetic", "4,2,3", *grid, "--reps", "0"],
        (2, "--reps must be >= 1"), DRAWS, {}))
       for verb, grid in (("simulate", ["--d", "2", "--delta", "0.1"]),
                          ("compare", ["--d", "2", "--delta", "0.1"]),
                          ("sweep", ["--d-list", "2", "--delta-list", "0.1"]))],
    # estimate-kernels runs no replicates, so it has no --reps to ignore
    ("estimate-kernels-reps", (
        ["estimate-kernels", "--synthetic", "4,2,3", "--reps", "3"],
        (2, "unrecognized arguments: --reps"), DRAWS, {})),
    # an activation refuses parameters it cannot use before any draw
    *[(f"estimate-kernels-{name}", (
        ["estimate-kernels", "--synthetic", "4,2,3", *options], (2, text),
        DRAWS, {}))
       for name, options, text in (
           ("table-nan-abscissa", ["--sigma", "custom-table",
                                   "--sigma-params=-50,nan,50,-1,0,1"],
            "parameters must be finite"),
           ("table-inf-ordinate", ["--sigma", "custom-table",
                                   "--sigma-params=-50,0,50,-1,inf,1"],
            "parameters must be finite"),
           ("table-odd-params", ["--sigma", "custom-table",
                                 "--sigma-params", "0,1,2"],
            "custom-table needs k >= 2 abscissae followed by k ordinates"),
           ("erf-params", ["--sigma", "erf", "--sigma-params", "1,2"],
            "'erf' takes no parameters"),
           ("phi-sin-params", ["--phi", "sin", "--phi-params", "1"],
            "'sin' takes no parameters"))],
    # features that overflow end the same way on every route: no report
    # and no RuntimeWarning
    *[(f"{verb}-overflow{'-kernels' * kernels}", (
        _overflow(verb, kernels), (2, "non-finite activation output"), (), {}))
       for verb in ("estimate-kernels", "simulate", "compare", "sweep", "diagnose")
       for kernels in (False, True) if verb != "estimate-kernels" or not kernels],
    # without --kernels the rows above take the closed form; phi = sin has
    # none, so the kernel draws meet the design
    ("estimate-kernels-overflow-monte-carlo", (
        _overflow("estimate-kernels", False) + ["--phi", "sin"],
        (2, "non-finite activation output"), ((cli, "exact_kernels"),), {})),
    # a noise level must be a finite real >= 0; NaN passes "< 0"
    *[(f"{verb}-noise-sd-{value}", (
        [verb, "--synthetic", "10,5,4", "--noise-sd", value, *grid],
        (2, "noise_sd must be a finite real >= 0"), DRAWS, {}))
       for verb, grid in (("estimate-kernels", []),
                          ("simulate", ["--d", "2", "--delta", "0.1"]))
       for value in ("nan", "inf")],
    ("synthetic-noise-sd-nan", (
        lambda: synthetic_regression(10, 5, 4, NAN, seed=0),
        (ValueError, "noise_sd must be a finite real >= 0"), DRAWS, {})),
    # a bool or a text is no noise level: True drew noise of SD 1, and a
    # text failed in the comparison with a bare TypeError
    *[(f"synthetic-noise-sd-{name}", (
        lambda value=value: synthetic_regression(4, 2, 3, value, 0),
        (ValueError, f"noise_sd must be a finite real >= 0, not {value!r}"),
        DRAWS, {}))
       for name, value in (("bool", True), ("text", "0.5"))],
    ("sample-features-n-zero", (
        lambda: sim.sample_features(SMALL, IDENT, IDENT, 2, 0, 0),
        (ValueError, "n must be >= 1"), DRAWS, {})),
    ("verify-centering-n-zero", (
        lambda: verify_centering(IDENT, IDENT, SMALL, 0, 100, 0),
        (ValueError, "n must be >= 1"), DRAWS, {})),
    *[(f"predict-kernels-{name}", (_predict_bad(name), expected,
                                   ((cli, "build_equiv"),), {}))
       for name, (_, expected) in BAD_KERNELS.items()],
    *[(f"predict-kernels-{name}", (_predict_bad(name), PARSE_FAULT,
                                   ((cli, "build_equiv"),), {}))
       for name in MANGLED_KERNELS],
    # a matrix or label file that is not UTF-8 is an input fault naming it
    ("estimate-kernels-x-invalid-utf8", (
        ["estimate-kernels", "--x", "{x4-ff}", "--xhat", "{xhat1}", "--y", "{y4}",
         "--yhat", "{yhat}", "--samples", "100"],
        (3, "x4-ff.csv: not UTF-8 text"), DRAWS, {})),
    # a trailing comma is an empty cell, not the end of the row
    ("estimate-kernels-x-empty-cell", (
        ["estimate-kernels", "--x", "{x4-empty-cell}", "--xhat", "{xhat1}",
         "--samples", "100"],
        (3, "x4-empty-cell.csv:2: empty cell"), DRAWS, {})),
    ("estimate-kernels-x-blank", (
        ["estimate-kernels", "--x", "{blank}", "--xhat", "{xhat1}"],
        (3, "blank.csv: no numeric rows"), DRAWS, {})),
    # a file named .npy is numpy's format: one that numpy's reader refuses,
    # with bytes after the array, or holding another dtype or number of
    # axes, is an input fault naming it, before any draw
    *[(f"estimate-kernels-x-npy-{name}", (
        ["estimate-kernels", "--x", f"{{npy-{name}}}", "--xhat", "{npy-1x3}",
         "--samples", "100"], (3, f"npy-{name}.npy: {text}"), DRAWS, {}))
       for name, text in (
           ("short", "not a readable .npy file (Failed to read all data"),
           ("float32", "holds a 2-D float32 array, not a 2-D float64 one"),
           ("1d", "holds a 1-D float64 array, not a 2-D float64 one"),
           ("object", "not a readable .npy file (Object arrays cannot be loaded"),
           ("trailing", "bytes after the array"),
           ("csv", "not a readable .npy file (the magic string is not correct"),
           ("npz", "not a readable .npy file (the magic string is not correct"),
           # a header may promise more than memory holds: numpy cannot
           # allocate it, or reads short where the host overcommits
           ("huge", "not a readable .npy file ("))],
    # a design with no rows or no columns is refused, naming it, before any
    # draw: it would give empty or all-zero kernel blocks
    ("estimate-kernels-npy-no-rows", (
        ["estimate-kernels", "--x", "{npy-0x3}", "--xhat", "{npy-1x3}",
         "--samples", "100", "--n", "1"],
        (2, "X is empty (shape (0, 3))"), DRAWS, {})),
    ("estimate-kernels-npy-no-columns", (
        ["estimate-kernels", "--x", "{npy-3x0}", "--xhat", "{npy-1x0}",
         "--samples", "100"],
        (2, "X is empty (shape (3, 0))"), DRAWS, {})),
    # --synthetic replaces the matrix files, so a given one is refused
    # rather than left unread, before any draw
    *[(f"{verb}-synthetic-with-{name}", (
        [verb, "--synthetic", "4,2,3", f"--{name}", "{x4}", *grid],
        (2, f"--synthetic replaces the matrix files; drop --{name}"),
        DIAGNOSE_DRAWS + DRAWS, {}))
       for verb, name, grid in (
           ("estimate-kernels", "x", []),
           ("simulate", "y", ["--d", "2", "--delta", "0.1"]),
           ("compare", "yhat", ["--d", "2", "--delta", "0.1"]),
           ("sweep", "xhat", ["--d-list", "2", "--delta-list", "0.1"]),
           ("diagnose", "x", ["--d", "2", "--delta", "0.1"]))],
    # --noise-sd draws label noise for --synthetic alone: with matrix files
    # it would be ignored, so it is refused before any draw
    *[(f"{verb}-noise-sd-with-files", (
        [verb, "--x", "{x4}", "--xhat", "{xhat1}", "--y", "{y4}", "--yhat",
         "{yhat}", "--noise-sd", "3.0", *grid],
        (2, "--noise-sd applies only to --synthetic; drop it"),
        DIAGNOSE_DRAWS + DRAWS, {}))
       for verb, grid in (
           ("estimate-kernels", []),
           ("simulate", ["--d", "2", "--delta", "0.1"]),
           ("compare", ["--d", "2", "--delta", "0.1"]),
           ("sweep", ["--d-list", "2", "--delta-list", "0.1"]),
           ("diagnose", ["--d", "2", "--delta", "0.1"]))],
    # a width whose features no memory holds: 4 x 10^17 doubles exceed any
    # 64-bit address space, so numpy refuses the array at once, whatever the
    # host's overcommit, and no page is touched
    ("simulate-width-beyond-memory", (
        ["simulate", "--synthetic", "10,5,4", "--d", str(10 ** 17), "--delta",
         "0.1", "--reps", "3"], (4, "MemoryError"), (), {})),
    ("estimate-kernels-synthetic-two-dims", (
        ["estimate-kernels", "--synthetic", "4,2"],
        (2, "--synthetic needs exactly NTRAIN,NTEST,N0"), DRAWS, {})),
    ("estimate-kernels-no-design", (
        ["estimate-kernels"], (2, "provide --x and --xhat, or use --synthetic"),
        DRAWS, {})),
    ("simulate-no-labels", (
        ["simulate", "--kernels", "{identity4}", "--x", "{x4}", "--xhat",
         "{xhat1}", "--d", "2", "--delta", "0.1", "--reps", "3"],
        (2, "provide --y and --yhat"), DRAWS, {})),
    # a kernel file that does not fit the dataset is refused before any draw,
    # and blamed, not the labels or the width
    *[(f"{verb}-kernels-shape", (
        [verb, "--synthetic", "5,1,3", "--kernels", "{identity4}", *grid],
        (2, "i4.json: kernel blocks are 4 x 1, the dataset is 5 x 1"),
        DIAGNOSE_DRAWS + DRAWS, {}))
       for verb, grid in (("simulate", ["--d", "2", "--delta", "0.1"]),
                          ("sweep", ["--d-list", "2", "--delta-list", "0.1"]),
                          ("diagnose", ["--d", "2", "--delta", "0.1"]))],
    ("predict-y-invalid-utf8", (_labels("predict", "y4-ff"),
                                (3, "y4-ff.csv: not UTF-8 text"),
                                ((equiv, "_solve_nu"),), {})),
    # a label file is one column or one row of finite values; a prediction
    # that overflows is refused before any replicate is drawn
    *[(f"{verb}-labels-{name}", (_labels(verb, y), (2, text),
                                 ((equiv, "_solve_nu"),) + DRAWS, {}))
       for verb in ("predict", "simulate")
       for name, y, text in (
           ("two-column", "y2x2", "y must be one row or one column"),
           ("inf", "y4-inf", "y contains non-finite entries"))],
    *[(f"{verb}-labels-overflow", (_labels(verb, "y4-huge"),
                                   (2, "the predicted error overflows"), DRAWS, {}))
       for verb in ("predict", "simulate")],
    ("predict-linalg-error", (PREDICT, (4, "LinAlgError"), (),
                              {(cli, "build_equiv"): _raise_linalg_error})),
    # a small ridge at the interpolation threshold returns a report until
    # denom ~ sqrt(delta) falls below its guard, in a few Newton steps
    *[(f"predict-identity4-delta-{delta}", (
        _predict_identity4(delta), expected, (),
        {(equiv, "_solve_nu"): _newton_steps_below(100)}))
       for delta, expected in (("1e-10", 0), ("1e-14", 0),
                               ("1e-18", (4, "DenominatorDegenerate")))],
    # near the smallest positive double a Newton step may land on x = 0,
    # where r = 0 is taken, and d lam / delta may overflow, which is refused
    # before the first step
    ("predict-tiny-ridge-x-zero", (_predict_tiny_ridge("half6", 64, "1e-300"),
                                   0, (), {})),
    ("alpha-tiny-ridge-x-zero", (
        _alpha_is(0.5 * np.eye(6), 64, 1e-300, -0.90625),
        None, (), {})),
    *[(f"predict-tiny-ridge-overflow-{name}", (
        _predict_tiny_ridge(kernels, d, delta), (4, "NonConvergence"), (), {}))
       for name, kernels, d, delta in (("1e-307", "hundred6", 64, "1e-307"),
                                       ("5e-324", "half6", 6, "5e-324"))],
    ("alpha-tiny-ridge-overflow", (
        lambda: equiv.solve_subdel(train_kernels(100 * np.eye(6)), 64, 1e-307,
                                   0.0),
        (NonConvergence, "overflows"), (), {})),
    # at m = d, once every r_j = 1 / (1 + mu_j / x) underflows the slope
    # F'(x) is 0, which is a failure, not a ZeroDivisionError
    ("predict-zero-slope", (
        ["predict", "--kernels", "{underflow4}", "--y", "{y4}", "--yhat", "{yhat}",
         "--d", "4", "--delta", "3.171139148026149e-09"],
        (4, "NonConvergence"), (), {})),
    # a kernel entry near the float limit reaches the eigendecomposition as
    # given, since the block is exactly symmetric (model._matrix halves one
    # that is symmetric only to rounding), so the solve names the overflow;
    # (B + B^T) / 2 was inf there, with a RuntimeWarning
    *[(f"{verb}-kernel-entry-1e308", (
        [verb, "--kernels", "{float-limit2}", *data, "--d", "2", "--delta", "1"],
        (4, "NonConvergence"), (), {}))
       for verb, data in (
           ("predict", ["--y", "{y}", "--yhat", "{yhat}"]),
           ("simulate", ["--synthetic", "2,1,3", "--reps", "3"]),
           ("diagnose", ["--synthetic", "2,1,3", "--reps", "4", "--samples", "100"]))],
    # a block symmetric only to rounding is averaged once, at the door, as
    # B / 2 + B^T / 2, which keeps an entry near the float limit finite
    ("kernelset-asymmetric-entry-1e308", (_averaged_near_float_limit, None, (), {})),
    ("predict-kernel-asymmetric-entry-1e308", (
        ["predict", "--kernels", "{float-limit2-asym}", "--y", "{y}", "--yhat",
         "{yhat}", "--d", "2", "--delta", "1"], (4, "NonConvergence"), (), {})),
    # finite features whose products overflow, in the centering moments of
    # the closed-form route and in the chunk products of the Monte Carlo
    # route, are refused as a non-finite feature is (the closed-form route
    # exited 4 at the pseudo-resolvent before, after two RuntimeWarnings)
    *[(f"{name}-feature-products-overflow", (
        [verb, "--x", "{x4-1e154}", "--xhat", "{xhat1}", "--sigma", "identity",
         "--n", "1", "--samples", "100", *extra],
        (2, "non-finite activation output"), (), {}))
       for name, verb, extra in (
           ("diagnose-exact", "diagnose", DIAGNOSE_1E154),
           ("diagnose-monte-carlo", "diagnose", DIAGNOSE_1E154 + ["--phi", "sign"]),
           ("estimate-kernels-monte-carlo", "estimate-kernels", ["--phi", "sign"]))],
    # at a subnormal ridge g = 1 / delta overflows; the report is refused
    # by name, with no RuntimeWarning from the solve or from build_equiv
    ("predict-subnormal-ridge-g-overflow", (
        ["predict", "--kernels", "{zero2}", "--y", "{y}", "--yhat", "{yhat}",
         "--d", "3", "--delta", "3.5e-309"],
        (2, "the predicted error overflows"), (), {})),
    # a kernel block must be 2-D, not reshaped to one
    ("kernelset-block-3d", (
        lambda: KernelSet(np.eye(1), np.zeros((1, 1, 1)), np.eye(1), 1),
        (ValueError, "K_ah is 3-D"), (), {})),
    ("kernelset-block-0d", (lambda: KernelSet(1.0, np.zeros((1, 1)), np.eye(1), 1),
                            (ValueError, "K_aa is 0-D"), (), {})),
    # a sample count is an integer, not converted into one
    *[(f"kernelset-samples-{name}", (
        lambda samples=samples: KernelSet(np.eye(1), np.zeros((1, 1)), np.eye(1),
                                          samples),
        (ValueError, "samples must be an integer >= 1"), (), {}))
       for name, samples in (("fraction", 2.7), ("bool", True))],
    # kernel ridge regression needs a width d >= 1, as build_equiv does
    *[(f"kernel-ridge-error-d-{name}", (
        lambda d=d: equiv.kernel_ridge_error(
            KernelSet(np.eye(2), np.zeros((2, 1)), np.eye(1), 1), [1.0, 0.0],
            [0.7], d, 0.1),
        (ValueError, "d must be >= 1"), ((equiv, "_ridge_solve"),), {}))
       for name, d in (("zero", 0), ("negative", -1))],
    ("solve-rdel-z-nan", (_solve(complex(0, NAN), 0.1), ValueError, (), {})),
    ("solve-rdel-z-inf", (_solve(complex(0, INF), 0.1), ValueError, (), {})),
    ("solve-rdel-z-nan-real", (_solve(complex(NAN, 1), 0.1), ValueError, (), {})),
    ("solve-rdel-tau-inf", (_solve(1j, INF), ValueError, (), {})),
    ("solve-rdel-nan-defect", (_nan_superop_once, RuntimeError, (), {})),
    ("rf-zeroth-moment-eta-nan", (_rf_zeroth([100.0, NAN]), ValueError,
                                  RF_SOLVES, {})),
    ("rf-zeroth-moment-eta-inf", (_rf_zeroth([100.0, INF]), ValueError,
                                  RF_SOLVES, {})),
    ("rf-zeroth-moment-eta-zero", (_rf_zeroth([0.0, 100.0]), ValueError,
                                   RF_SOLVES, {})),
    ("rf-zeroth-moment-eta-negative", (_rf_zeroth([-10.0, 100.0]), ValueError,
                                       RF_SOLVES, {})),
    ("rf-zeroth-moment-eta-decreasing", (_rf_zeroth([1000.0, 100.0]),
                                         ValueError, RF_SOLVES, {})),
    ("rf-zeroth-moment-eta-repeated", (_rf_zeroth([100.0, 100.0]), ValueError,
                                       RF_SOLVES, {})),
    ("rf-zeroth-moment-eta-single", (_rf_zeroth([100.0]), ValueError,
                                     RF_SOLVES, {})),
    ("rf-zeroth-moment-eta-accepted", (_rf_zeroth([100.0, 1000.0]), None,
                                       (), {})),
    ("superop-probe-nan", (
        lambda: LinearizationSpec(np.eye(3), [1, 1, 0], lambda M: M * np.nan),
        ValueError, (), {})),
    ("expectation-nan", (
        lambda: LinearizationSpec(np.diag([NAN, 1.0]), [1, 0], lambda M: 0 * M),
        ValueError, (), {})),
    # at z = 0 solve_subdel is the alpha solve; the kernel set refuses a
    # NaN before it
    ("alpha-kernel-nan", (
        lambda: equiv.solve_subdel(train_kernels(np.diag([NAN, 1.0])), 1, 1.0,
                                   0.0),
        (ValueError, "K_aa contains non-finite"), ((equiv, "_solve_nu"),), {})),
    # near the real axis the nu solve ends in a handful of steps
    ("subdel-identity4-near-axis", (
        _subdel_solved(np.eye(4), 4, 0.3, 2 + 1e-3j), None, (), {})),
    ("subdel-identity4-small-ridge", (
        _subdel_solved(np.eye(4), 4, 1e-7, 1e-6j), None, (), {})),
    ("subdel-far-z", (_subdel_far(0.5 * np.eye(3), 4, 0.3, 1e300j), None, (), {})),
    # where a Newton step is refused the solve climbs to 4 Im z and comes
    # back down, which lands on the continued root in a bounded number of
    # steps; a Picard fallback stalled on the first two and ended on a
    # near-real root of rounding-level defect on the third
    *[(f"subdel-stall-eta-{eta:.0e}", (
        _subdel_continued(lam, d, delta, complex(x, eta)), None, (),
        {(equiv, "_solve_nu"): _newton_steps_below(301)}))
       for lam, d, delta, x, eta in STALLS],
    ("subdel-near-real-root", (
        _subdel_continued([0.5, 1.0, 2.0, 0.0], 4, 0.3, 2 + 1e-30j), None, (),
        {(equiv, "_solve_nu"): _newton_steps_below(301)})),
    # at the smallest positive height the ladder has about 540 rungs; they
    # are a loop, so 50 frames above the caller suffice, under a wrapper too
    ("subdel-near-real-root-5e-324", (
        _subdel_continued([0.5, 1.0, 2.0, 0.0], 4, 0.3, 2 + 5e-324j, frames=50),
        None, (), {(equiv, "_solve_nu"): _newton_steps_below(1000)})),
    ("diagnose-identity4-near-axis", (
        ["diagnose", "--synthetic", "4,1,3", "--kernels", "{identity4}",
         "--d", "4", "--delta", "0.3", "--z", "2+0.001j", "--reps", "4",
         "--samples", "100"], 0, (), {})),
    ("gaussianity-z-nan", (_gaussianity(complex(0, NAN)), ValueError, DRAWS, {})),
    # a tall pencil at z = 0 carries the factor delta^(n-d) in its determinant
    ("pencil-tall-delta-1e-300", (_pencil((12, 4, 4), 1e-300),
                                  (RuntimeError, "numerically singular"), (), {})),
    ("pencil-tall-delta-1e-17", (_pencil((12, 4, 4), 1e-17),
                                 (RuntimeError, "numerically singular"), (), {})),
    ("pencil-tall-delta-1e-14", (_pencil((12, 4, 4), 1e-14),
                                 (RuntimeError, "defect"), (), {})),
    ("pencil-tall-delta-1e-10", (_pencil((12, 4, 4), 1e-10),
                                 (RuntimeError, "defect"), (), {})),
    ("pencil-tall-delta-1e-6", (_pencil((12, 4, 4), 1e-6), None, (), {})),
    # a wide one stays invertible as delta -> 0
    ("pencil-wide-delta-1e-300", (_pencil((4, 12, 4), 1e-300), None, (), {})),
    ("pencil-width-mismatch", (
        lambda: sim.build_pseudoresolvent(np.ones((3, 2)), np.ones((1, 3)), 0.1,
                                          0.0),
        (ValueError, "A and Ahat must share the width d"), (), {})),
    # at a subnormal ridge and z = 0, 1 / delta overflows on a null
    # eigenvalue of K_aa; the overflow is named before N11 is formed, as
    # build_equiv names it, and off the axis the same blocks still solve
    ("subdel-subnormal-ridge-overflow", (
        lambda: equiv.solve_subdel(train_kernels(np.zeros((2, 2))), 3, 3.5e-309,
                                   0.0),
        (ValueError, "N11 overflows"), (), {})),
    ("rf-solution-subnormal-ridge-overflow", (
        lambda: rdel.rf_solution_matrix(ZERO2, (2, 3, 1), 3.5e-309, 0.0),
        (ValueError, "N11 overflows"), (), {})),
    ("rf-solution-subnormal-ridge-off-axis", (
        _finite_solution(ZERO2, (2, 3, 1), 3.5e-309, 1j), None, (), {})),
    ("rf-solution-d-zero", (
        lambda: rdel.rf_solution_matrix(ZERO2, (2, 0, 1), 0.5, 1j),
        (ValueError, "d must be >= 1"), ((equiv, "solve_subdel"),), {})),
    ("spec-superop-not-callable", (
        lambda: LinearizationSpec(np.eye(2), [1, 0], "S"),
        (ValueError, "superop must be callable"), (), {})),
    ("spectral-norm-empty", (
        _returns(lambda: rdel.spectral_norm(np.zeros((0, 3))), 0.0), None, (),
        {})),
    # a draw budget too small for its statistic is refused before a draw
    ("estimate-kernels-m-zero", (
        lambda: estimate_kernels(SMALL, IDENT, IDENT, 4, 0, 0),
        (ValueError, "m must be >= 1"), DRAWS, {})),
    ("verify-centering-m-one", (
        lambda: verify_centering(IDENT, IDENT, SMALL, 4, 1, 0),
        (ValueError, "m must be >= 2"), DRAWS, {})),
    # all-zero features have no RMS norm to divide by; the ratio is 0
    ("verify-centering-zero-features", (
        _returns(lambda: verify_centering(Activation("sign"), IDENT,
                                          ZERO_DESIGN, 3, 100, 0), 0.0),
        None, (), {})),
    ("run-replicates-reps-zero", (
        lambda: sim.run_replicates(SMALL, IDENT, IDENT, SMALL_CFG, reps=0,
                                   kernels=SMALL_KERNELS),
        (ValueError, "reps must be >= 1"), DRAWS + ((equiv, "build_equiv"),),
        {})),
    ("gaussianity-reps-one", (
        lambda: estimate_delta_gaussianity(SMALL, IDENT, IDENT, SMALL_CFG, 1j,
                                           0.1, reps=1),
        (ValueError, "reps must be >= 2"), DRAWS, {})),
    ("sample-features-d-zero", (
        lambda: sim.sample_features(SMALL, IDENT, IDENT, 0, 4, 0),
        (ValueError, "the feature count must be >= 1"), DRAWS, {})),
    ("rfconfig-n-zero", (lambda: RFConfig(d=2, delta=0.1, n=0, seed=0),
                         (ValueError, "n must be >= 1"), (), {})),
    # a count is an integer, never a bool: each of these was accepted and
    # then failed at the first draw with a numpy TypeError, or drew with it
    *[(f"rfconfig-d-{name}", (
        lambda d=d: RFConfig(d=d, delta=0.1, n=4, seed=0),
        (ValueError, f"d must be an integer >= 1, not {d!r}"), DRAWS, {}))
       for name, d in (("fraction", 2.5), ("bool", True))],
    ("estimate-kernels-m-fraction", (
        lambda: estimate_kernels(SMALL, IDENT, IDENT, 4, 2.5, 0),
        (ValueError, "m must be an integer >= 1, not 2.5"), DRAWS, {})),
    ("run-replicates-reps-bool", (
        lambda: sim.run_replicates(SMALL, IDENT, IDENT, SMALL_CFG, reps=True,
                                   kernels=SMALL_KERNELS),
        (ValueError, "reps must be an integer >= 1, not True"),
        DRAWS + ((equiv, "build_equiv"),), {})),
    # every root seed is an integer in [0, 2^64), on every entry that hashes
    # one; a fraction was truncated, and -1 and 2^64 hashed as they came
    ("synthetic-seed-fraction", (
        lambda: synthetic_regression(3, 2, 2, 0.0, seed=1.7),
        (ValueError, "unsigned 64-bit"), DRAWS, {})),
    *[(f"library-{name}-seed-{label}", (
        lambda call=call, seed=seed: call(seed), (ValueError, "unsigned 64-bit"),
        DRAWS, {}))
       for name, call in (
           ("estimate-kernels",
            lambda seed: estimate_kernels(SMALL, IDENT, IDENT, 4, 100, seed)),
           ("verify-centering",
            lambda seed: verify_centering(IDENT, IDENT, SMALL, 4, 100, seed)),
           ("sample-features",
            lambda seed: sim.sample_features(SMALL, IDENT, IDENT, 2, 4, seed)))
       for label, seed in (("negative", -1), ("2-64", 2 ** 64), ("fraction", 3.0))],
    # a bool is no ridge: True solved at delta = 1
    ("build-equiv-delta-bool", (
        lambda: equiv.build_equiv(KernelSet(np.eye(3), np.zeros((3, 1)),
                                            np.eye(1), 1),
                                  np.ones(3), np.ones(1), 2, True),
        (ValueError, "delta must be a positive finite real"),
        DRAWS + ((equiv, "solve_subdel"),), {})),
    ("rfconfig-delta-bool", (lambda: RFConfig(d=2, delta=True, n=4, seed=0),
                             (ValueError, "delta must be a positive finite real"),
                             DRAWS, {})),
    ("gaussianity-tau-bool", (
        lambda: estimate_delta_gaussianity(SMALL, IDENT, IDENT, SMALL_CFG, 1j,
                                           True, reps=4),
        (ValueError, "tau must be a positive finite real"), DRAWS, {})),
    # a probe or a theory matrix not of G's square shape was read in part,
    # and a NaN probe gave a NaN gap
    ("anisotropic-gap-probe-narrow", (
        _gap(((128, 128), (128, 128), (128, 64))),
        (ValueError, "must share one square shape"), DRAWS, {})),
    ("anisotropic-gap-theory-tall", (
        _gap(((128, 128), (256, 128), (128, 128))),
        (ValueError, "must share one square shape"), DRAWS, {})),
    ("anisotropic-gap-probe-nan", (
        _gap(((128, 128),) * 3, nan_probe=True),
        (ValueError, "the anisotropic trace is not finite"), DRAWS, {})),
    ("json-null-value", (_returns(lambda: model.to_json_text({"a": None}),
                                  '{"a":null}'), None, (), {})),
    ("json-key-not-string", (lambda: model.to_json_text({1: 2.0}),
                             (TypeError, "JSON report keys must be strings"),
                             (), {})),
    ("json-unsupported-type", (
        lambda: model.to_json_text({"a": {1, 2}}),
        (TypeError, "cannot serialize set in a JSON report"), (), {})),
]
# the option rows again with sign/sin, which has no closed form, so that
# the Monte Carlo route's pass is guarded as well as the closed form's
CASE_ROWS += [
    (name.replace("diagnose-", "diagnose-sign-sin-"),
     (run + ["--sigma", "sign", "--phi", "sin"], *rest))
    for name, (run, *rest) in CASE_ROWS
    if name.startswith(tuple(f"diagnose-{option}-" for option in
                             ("z", "tau", "eta", "probes", "samples")))]
# (name, case) rows, not a dict literal, in which a repeated name would
# silently replace the earlier row: here it fails the collection
CASES = dict(CASE_ROWS)
if len(CASES) != len(CASE_ROWS):
    raise ValueError("repeated case names: " + ", ".join(
        name for name, count in collections.Counter(
            name for name, _ in CASE_ROWS).items() if count > 1))


@pytest.fixture
def files(tmp_path, toy_kernels):
    paths = {"kernels": tmp_path / "k.json", "y": tmp_path / "y.csv",
             "yhat": tmp_path / "yhat.csv", "identity4": tmp_path / "i4.json",
             "y4": tmp_path / "y4.csv", "identity4x2": tmp_path / "i4x2.json",
             "huge-x": tmp_path / "hx.csv", "huge-xhat": tmp_path / "hxh.csv",
             "yhat2": tmp_path / "yhat2.csv", "half6": tmp_path / "h6.json",
             "hundred6": tmp_path / "c6.json", "y6": tmp_path / "y6.csv",
             "yhat3": tmp_path / "yhat3.csv", "x4": tmp_path / "x4.csv",
             "xhat1": tmp_path / "xhat1.csv", "y2x2": tmp_path / "y2x2.csv",
             "y4-inf": tmp_path / "y4-inf.csv", "y4-huge": tmp_path / "y4-huge.csv",
             "x4-ff": tmp_path / "x4-ff.csv", "y4-ff": tmp_path / "y4-ff.csv",
             "blank": tmp_path / "blank.csv",
             "x4-empty-cell": tmp_path / "x4-empty-cell.csv",
             "underflow4": tmp_path / "u4.json", "zero2": tmp_path / "z2.json",
             "float-limit2": tmp_path / "fl2.json",
             "float-limit2-asym": tmp_path / "fl2a.json",
             "x4-1e154": tmp_path / "x4-1e154.csv"}
    save_kernels(toy_kernels, paths["kernels"])
    save_kernels(KernelSet(np.eye(4), np.zeros((4, 1)), np.eye(1), 1),
                 paths["identity4"])
    save_kernels(KernelSet(np.eye(4), np.zeros((4, 2)), np.eye(2), 1),
                 paths["identity4x2"])
    for name, scale in (("half6", 0.5), ("hundred6", 100.0)):
        save_kernels(KernelSet(scale * np.eye(6), np.zeros((6, 3)), np.eye(3),
                               1), paths[name])
    lam = [1.14262314e-219, 1.39677140e-114, 1.63152407e15, 7.81635213e132]
    save_kernels(KernelSet(np.diag(lam), np.zeros((4, 1)), np.zeros((1, 1)), 1),
                 paths["underflow4"])
    save_kernels(KernelSet(np.zeros((2, 2)), np.zeros((2, 1)), np.eye(1), 1),
                 paths["zero2"])
    save_kernels(KernelSet(np.diag([1e308, 1.0]), np.zeros((2, 1)), np.eye(1), 1),
                 paths["float-limit2"])
    # K_aa within the symmetry tolerance but not exactly symmetric
    write_json(paths["float-limit2-asym"], {
        "n_train": 2, "n_test": 1, "samples": 1, "K_aa": [[1e308, 1.0], [0.0, 1.0]],
        "K_ah": [[0.0], [0.0]], "K_hh": [[1.0]]})
    paths["y"].write_text("1\n0\n")
    paths["y4"].write_text("1\n1\n1\n1\n")
    paths["yhat"].write_text("0.7\n")
    paths["yhat2"].write_text("0\n0\n")
    paths["y6"].write_text("1\n" * 6)
    paths["yhat3"].write_text("0\n" * 3)
    paths["x4"].write_text("1,0,0\n0,1,0\n0,0,1\n1,1,0\n")
    paths["xhat1"].write_text("1,0,1\n")
    paths["x4-1e154"].write_text("1e154,0,0\n0,1,0\n0,0,1\n1,1,0\n")
    # four labels in two columns would fill y4 if flattened
    paths["y2x2"].write_text("1,1\n1,1\n")
    paths["y4-inf"].write_text("1\ninf\n1\n1\n")
    paths["y4-huge"].write_text("1e200\n-1e200\n1e200\n1e200\n")
    # x4 and y4, each with one byte that is not UTF-8
    paths["x4-ff"].write_bytes(b"1,0,0\n0,\xff,0\n0,0,1\n1,1,0\n")
    paths["y4-ff"].write_bytes(b"1\n\xff\n1\n1\n")
    paths["x4-empty-cell"].write_text("1,0,0\n0,1,0,\n0,0,1\n1,1,0\n")
    paths["blank"].write_text("\n  \n")
    for rows, cols in ((0, 3), (1, 3), (3, 0), (1, 0)):
        paths[f"npy-{rows}x{cols}"] = tmp_path / f"npy-{rows}x{cols}.npy"
        np.save(paths[f"npy-{rows}x{cols}"], np.ones((rows, cols)))
    for name in ("short", "float32", "1d", "object", "trailing", "csv", "npz",
                 "huge"):
        paths[f"npy-{name}"] = tmp_path / f"npy-{name}.npy"
    np.save(paths["npy-float32"], np.ones((1, 3), np.float32))
    np.save(paths["npy-1d"], np.ones(3))
    np.save(paths["npy-object"], np.array([[1.0, "a"]], dtype=object),
            allow_pickle=True)
    paths["npy-short"].write_bytes(paths["npy-1x3"].read_bytes()[:-4])
    paths["npy-trailing"].write_bytes(paths["npy-1x3"].read_bytes() + b"\0")
    paths["npy-csv"].write_text("1,0,0\n0,1,0\n")
    with open(paths["npy-npz"], "wb") as fh:
        np.savez(fh, X=np.ones((1, 3)))
    # a 2^20 x 2^20 header (8 TiB) over one row of data
    header = np.lib.format.header_data_from_array_1_0(np.ones((1, 3)))
    with open(paths["npy-huge"], "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, {**header, "shape": (2 ** 20,) * 2})
        fh.write(np.ones(3).tobytes())
    paths["huge-x"].write_text("1e308,1e308,1e308\n" * 4)
    paths["huge-xhat"].write_text("1e308,1e308,1e308\n" * 2)
    toy = json.loads(paths["kernels"].read_text())
    for name, (changes, _) in BAD_KERNELS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({**toy, **changes}))
    for name, mangle in MANGLED_KERNELS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_bytes(mangle(paths["kernels"].read_bytes()))
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


# diagnose on each kernel route, with the DIAGNOSE_DRAWS call its kernel
# half makes first
DIAGNOSE_ROUTES = {
    "exact": (DIAGNOSE, "exact_kernels"),
    "monte-carlo": (DIAGNOSE + ["--sigma", "sign", "--phi", "sin"],
                    "_kernels_and_centering"),
    "kernel-file": (["diagnose", "--synthetic", "4,1,3", "--kernels", "{identity4}",
                     "--d", "4", "--delta", "0.3", "--reps", "4", "--samples", "100"],
                    "verify_centering"),
}


def _diagnose_failure(route, threads, fail, files, tmp_path, monkeypatch, capsys):
    """Run diagnose on ``route`` at ``RF_EQUIV_THREADS`` = ``threads`` with
    each DIAGNOSE_DRAWS call in ``fail`` raising its own ``RuntimeError``;
    on two workers the kernel half raises only once the Gaussianity half
    has.  Return the exit code, standard error and the report."""
    raised = threading.Event()

    def failing(name):
        def call(*args, **kwargs):
            if name == "estimate_delta_gaussianity":
                raised.set()
            elif threads == "2" and "estimate_delta_gaussianity" in fail:
                assert raised.wait(timeout=30)
            raise RuntimeError(f"{name} failed")
        return call

    monkeypatch.setenv("RF_EQUIV_THREADS", threads)
    for module, name in DIAGNOSE_DRAWS:
        if name in fail:
            monkeypatch.setattr(module, name, failing(name))
    out = tmp_path / "out.json"
    code = cli.main([a.format(**files) for a in DIAGNOSE_ROUTES[route][0]]
                    + ["--out", str(out)])
    return code, capsys.readouterr().err, json.loads(out.read_text())


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("route", list(DIAGNOSE_ROUTES))
def test_diagnose_names_the_kernel_half_where_both_halves_fail(
        route, threads, files, tmp_path, monkeypatch, capsys):
    # the halves run side by side; the kernel half's error is raised, as a
    # loop over the two would raise it, even where the other failed first
    kernel_call = DIAGNOSE_ROUTES[route][1]
    code, err, report = _diagnose_failure(
        route, threads, {name for _, name in DIAGNOSE_DRAWS}, files, tmp_path,
        monkeypatch, capsys)
    assert code == 4
    assert report == {"error": "RuntimeError", "message": f"{kernel_call} failed"}
    assert f"RuntimeError: {kernel_call} failed" in err


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("route", list(DIAGNOSE_ROUTES))
def test_diagnose_reports_a_gaussianity_failure_alone(
        route, threads, files, tmp_path, monkeypatch, capsys):
    code, err, report = _diagnose_failure(
        route, threads, {"estimate_delta_gaussianity"}, files, tmp_path,
        monkeypatch, capsys)
    assert code == 4
    assert report == {"error": "RuntimeError",
                      "message": "estimate_delta_gaussianity failed"}
    assert "RuntimeError: estimate_delta_gaussianity failed" in err


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
@example(*STALLS[0])
@example(*STALLS[1])
def test_subdel_solves_every_admissible_z(lam, d, delta, x, eta):
    # K_aa is diagonal, so its spectrum is exact and the defect measures the
    # solve alone.  A defect at rounding level with Im nu > 0 does not
    # identify the solution: near the axis a near-real point with
    # Im nu ~ Im z can meet both, so the subdel-near-real-root boundary row
    # checks against the continued root
    K = np.diag(lam)
    z = complex(x, eta)
    with mock.patch.object(equiv, "_solve_nu", _newton_steps_below(301)):
        N11, nu = equiv.solve_subdel(train_kernels(K), d, delta, z)
    assert nu.imag > 0
    assert np.linalg.eigvalsh((N11 - N11.conj().T) / 2j).min() >= -1e-12
    assert _width_defect(K, d, delta, z, nu) <= 1e-12
