"""Metamorphic properties of the prediction, which need no oracle.

By the formulas in ``equiv``'s docstring, scaling the kernels and the ridge
together, ``(K, delta) -> (cK, c delta)``, leaves ``alpha``, ``denom`` and the
predicted error unchanged: ``M11`` scales by ``1/c``, so ``K_aa M11`` and
``alpha`` do not move, and ``beta`` scales by ``c`` while
``||K_aa^{1/2} M11 y||^2`` scales by ``1/c``.  Permuting the train rows with
``y``, or the test rows with ``yhat``, permutes the blocks alike and leaves
the prediction unchanged.  Each property is held on the closed-form, the
Monte Carlo and the kernel-file routes.
"""

import numpy as np
import pytest

from rfequiv import (Activation, Dataset, KernelSet, build_equiv, estimate_kernels,
                     exact_kernels, load_kernels, save_kernels, synthetic_regression)

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
