"""Metamorphic properties of the prediction, which need no oracle.

By the formulas in ``equiv``'s docstring, scaling the kernels and the ridge
together, ``(K, delta) -> (cK, c delta)``, leaves ``alpha``, ``denom`` and the
predicted error unchanged: ``M11`` scales by ``1/c``, so ``K_aa M11`` and
``alpha`` do not move, and ``beta`` scales by ``c`` while
``||K_aa^{1/2} M11 y||^2`` scales by ``1/c``.  Permuting the train rows with
``y``, or the test rows with ``yhat``, permutes the blocks alike and leaves
the prediction unchanged.  Each property is held on the closed-form, the
Monte Carlo and the kernel-file routes, and on every verb that predicts:
``predict``, ``simulate``, ``compare`` and ``sweep``.
"""

import csv
import json

import numpy as np
import pytest

from rfequiv import (Activation, Dataset, KernelSet, build_equiv, estimate_kernels,
                     exact_kernels, load_kernels, save_kernels, synthetic_regression,
                     write_matrix)
from rfequiv.cli import main

# relative tolerance, fixed before the test first ran: the last measurement
# of both properties (relu, 60/30/40) read at most 1.7e-15
TOL = 1e-12
DS = synthetic_regression(60, 30, 40, 0.5, seed=2)
GRID = [(30, 0.1), (90, 0.01)]  # (d, delta)
FIELDS = ("alpha", "denom", "predicted_error")


def _through_file(K, path):
    save_kernels(K, path)
    return load_kernels(path)


# each route maps (dataset, a directory for its files) to a kernel set and
# passes a kernel set on as that route's reader would see it
ROUTES = {
    "exact": (lambda ds, tmp: exact_kernels(ds, Activation("erf"), Activation("identity"), 60),
              lambda K, tmp: K),
    "monte-carlo": (lambda ds, tmp: estimate_kernels(ds, Activation("sign"),
                                                     Activation("sin"), 60, 4000, seed=3),
                    lambda K, tmp: K),
    "file": (lambda ds, tmp: _through_file(
                 exact_kernels(ds, Activation("relu"), Activation("identity"), 60),
                 tmp / "base.json"),
             lambda K, tmp: _through_file(K, tmp / "moved.json")),
}


def _scaled(K, c):
    return KernelSet(c * K.K_aa, c * K.K_ah, c * K.K_hh, K.samples, exact=K.exact)


def _assert_same(got, want):
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert abs(a - b) <= TOL * abs(b), (name, a, b)


@pytest.mark.parametrize("route", list(ROUTES))
def test_scaling_kernels_and_ridge_together_leaves_the_prediction(route, tmp_path):
    kernels, passed = ROUTES[route]
    K = kernels(DS, tmp_path)
    for d, delta in GRID:
        want = build_equiv(K, DS.y, DS.yhat, d, delta)
        for c in (1e-3, 7.0):
            got = build_equiv(passed(_scaled(K, c), tmp_path), DS.y, DS.yhat, d,
                              c * delta)
            _assert_same(got, want)


@pytest.mark.parametrize("route", list(ROUTES))
def test_permuting_rows_with_their_labels_leaves_the_prediction(route, tmp_path):
    kernels, _ = ROUTES[route]
    rng = np.random.default_rng(7)
    p, q = rng.permutation(DS.n_train), rng.permutation(DS.n_test)
    K = kernels(DS, tmp_path)
    for ds in (Dataset(DS.X[p], DS.Xhat, DS.y[p], DS.yhat),
               Dataset(DS.X, DS.Xhat[q], DS.y, DS.yhat[q])):
        moved = kernels(ds, tmp_path)
        for d, delta in GRID:
            _assert_same(build_equiv(moved, ds.y, ds.yhat, d, delta),
                         build_equiv(K, DS.y, DS.yhat, d, delta))


def _predict_verb(K, y, delta, d, tmp_path, name):
    """The ``predict`` verb's report on kernel set ``K`` and train labels
    ``y`` (test labels ``DS.yhat``), both through the files it reads."""
    paths = {key: tmp_path / f"{name}-{key}" for key in ("k.json", "y.csv", "yhat.csv",
                                                         "out.json")}
    save_kernels(K, paths["k.json"])
    write_matrix(paths["y.csv"], y[:, None])
    write_matrix(paths["yhat.csv"], DS.yhat[:, None])
    assert main(["predict", "--kernels", str(paths["k.json"]), "--y", str(paths["y.csv"]),
                 "--yhat", str(paths["yhat.csv"]), "--d", str(d), "--delta", repr(delta),
                 "--out", str(paths["out.json"])]) == 0
    return json.loads(paths["out.json"].read_text())


def _assert_same_report(got, want):
    for name in ("predicted_error", "alpha", "denom"):
        assert abs(got[name] - want[name]) <= TOL * abs(want[name]), (name, got, want)


def test_predict_verb_holds_the_scaling_and_permutation_properties(tmp_path):
    """The two properties above, on the ``predict`` verb: kernel files
    written by ``save_kernels``, labels by ``write_matrix``."""
    K = exact_kernels(DS, Activation("erf"), Activation("identity"), 60)
    p = np.random.default_rng(11).permutation(DS.n_train)
    moved = KernelSet(K.K_aa[np.ix_(p, p)], K.K_ah[p], K.K_hh, K.samples, exact=K.exact)
    for d, delta in GRID:
        want = _predict_verb(K, DS.y, delta, d, tmp_path, "base")
        for c in (1e-3, 7.0):
            _assert_same_report(
                _predict_verb(_scaled(K, c), DS.y, c * delta, d, tmp_path, "scaled"), want)
        _assert_same_report(_predict_verb(moved, DS.y[p], delta, d, tmp_path, "moved"),
                            want)


# relative tolerance of the empirical mean under a train-row permutation,
# fixed before the test first ran: the features are the same rows in another
# order, so only the order of the solve's sums moves, by rounding times the
# condition number of the ridge system (about 1e3 at delta = 0.01)
EMPIRICAL_TOL = 1e-9


def _replicate_verb(verb, K, ds, c, tmp_path):
    """``(predicted, empirical mean)`` of each (d, delta) cell of ``verb``
    on kernel set ``K`` and dataset ``ds`` at ``c`` times GRID's ridges,
    every input through the files it reads: ``save_kernels`` for the
    kernels, ``write_matrix`` for the designs and labels, in the new
    directory ``tmp_path``."""
    tmp_path.mkdir()
    files = {key: tmp_path / f"{key}.csv" for key in ("x", "xhat", "y", "yhat")}
    for key, value in zip(files, (ds.X, ds.Xhat, ds.y[:, None], ds.yhat[:, None])):
        write_matrix(files[key], value)
    save_kernels(K, tmp_path / "k.json")
    argv = [verb, "--kernels", str(tmp_path / "k.json"), "--sigma", "erf",
            "--reps", "4", "--seed", "5",
            *(arg for key, path in files.items() for arg in (f"--{key}", str(path)))]
    if verb == "sweep":
        out = tmp_path / "sweep.csv"
        assert main([*argv, "--d-list", ",".join(str(d) for d, _ in GRID),
                     "--delta-list", ",".join(repr(c * delta) for _, delta in GRID),
                     "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            return [(float(row["predicted"]), float(row["empirical_mean"]))
                    for row in csv.DictReader(fh)]
    cells = []
    for d, delta in GRID:
        out = tmp_path / f"{verb}.json"
        assert main([*argv, "--d", str(d), "--delta", repr(c * delta),
                     "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        cells.append((rep["predicted"], rep["mean" if verb == "simulate" else
                                            "empirical_mean"]))
    return cells


@pytest.mark.parametrize("verb", ["simulate", "compare", "sweep"])
def test_replicate_verbs_hold_the_scaling_and_permutation_properties(verb, tmp_path):
    """``predicted`` does not move under ``(K, delta) -> (cK, c delta)`` or
    a permutation of the train rows, taken by X, y and the kernel blocks
    together; under the permutation the features are the same rows in
    another order, so the empirical mean holds too."""
    K = exact_kernels(DS, Activation("erf"), Activation("identity"), 60)
    want = _replicate_verb(verb, K, DS, 1.0, tmp_path / "base")
    for c in (1e-3, 7.0):
        got = _replicate_verb(verb, _scaled(K, c), DS, c, tmp_path / f"scaled-{c}")
        for (a, _), (b, _) in zip(got, want, strict=True):
            assert abs(a - b) <= TOL * abs(b), (c, a, b)
    p = np.random.default_rng(13).permutation(DS.n_train)
    moved = KernelSet(K.K_aa[np.ix_(p, p)], K.K_ah[p], K.K_hh, K.samples, exact=K.exact)
    got = _replicate_verb(verb, moved, Dataset(DS.X[p], DS.Xhat, DS.y[p], DS.yhat),
                          1.0, tmp_path / "moved")
    for (a, ea), (b, eb) in zip(got, want, strict=True):
        assert abs(a - b) <= TOL * abs(b), (a, b)
        assert abs(ea - eb) <= EMPIRICAL_TOL * abs(eb), (ea, eb)
