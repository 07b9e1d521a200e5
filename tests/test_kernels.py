"""Kernel blocks: the closed forms, the Monte Carlo estimator that is their
oracle, and the kernel file."""

import collections
import dataclasses
import json
import os
import re
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rfequiv
from rfequiv import (
    Activation,
    Dataset,
    KernelSet,
    MatrixFormatError,
    RFConfig,
    SimReport,
    ZerothMomentReport,
    estimate_delta_gaussianity,
    estimate_kernels,
    exact_kernels,
    load_kernels,
    sample_features,
    save_kernels,
    synthetic_regression,
    verify_centering,
    write_json,
)
from rfequiv import kernels
from rfequiv.cli import main
from rfequiv.kernels import _parse_json, default_samples
from rfequiv.rdel import LinearizationSpec, RDELSolution

from conftest import EDGE_FLOATS, gaussian_surrogate_run

IDENTITY = Activation("identity")
ERF = Activation("erf")


# ---------------------------------------------------------------------------
# identity closed form, the oracle of the Monte Carlo tests
# ---------------------------------------------------------------------------

def test_identity_kernels_on_eye():
    ds = Dataset(np.eye(2), np.eye(2), np.zeros(2), np.zeros(2))
    ks = exact_kernels(ds, IDENTITY, IDENTITY, 2)
    assert np.array_equal(ks.K_aa, np.eye(2) / 2)


def test_identity_kernels_orthogonal_rows():
    ds = Dataset(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]),
                 np.zeros(1), np.zeros(1))
    ks = exact_kernels(ds, IDENTITY, IDENTITY, 1)
    assert ks.K_ah == pytest.approx(np.zeros((1, 1)))


def test_unexported_identity_alias_is_the_identity_branch():
    ds = synthetic_regression(7, 3, 4, 0.2, seed=9)
    alias = rfequiv.kernels.analytic_identity_kernels(ds, 5)
    ks = exact_kernels(ds, IDENTITY, IDENTITY, 5)
    for f in ("K_aa", "K_ah", "K_ha", "K_hh"):
        assert np.array_equal(getattr(alias, f), getattr(ks, f))
    assert (alias.samples, alias.exact) == (ks.samples, ks.exact)
    assert "analytic_identity_kernels" not in rfequiv.kernels.__all__
    assert not hasattr(rfequiv, "analytic_identity_kernels")


def test_identity_kernels_match_brute_force():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((5, 3))
    xh = rng.standard_normal((2, 3))
    ds = Dataset(x, xh, np.zeros(5), np.zeros(2))
    ks = exact_kernels(ds, IDENTITY, IDENTITY, 3)
    assert np.allclose(ks.K_aa, x @ x.T / 3, rtol=1e-15, atol=0)
    assert np.allclose(ks.K_ah, x @ xh.T / 3, rtol=1e-15, atol=0)
    assert np.allclose(ks.K_hh, xh @ xh.T / 3, rtol=1e-15, atol=0)


# ---------------------------------------------------------------------------
# closed forms for phi = identity
# ---------------------------------------------------------------------------

CLOSED_FORM_KINDS = ("identity", "erf", "sign", "relu", "sin")


@pytest.mark.parametrize("kind", CLOSED_FORM_KINDS)
def test_exact_kernels_agree_with_monte_carlo_within_its_error(kind):
    # each entry of the 200 000-draw mean of u u^T against the closed form,
    # in units of its standard error, which an independent draw of 20 000
    # columns estimates; the sign diagonal, sign(.)^2 = 1, has no variance
    sigma, m = Activation(kind), 200_000
    ds = synthetic_regression(12, 6, 5, 0.3, seed=4)
    exact = exact_kernels(ds, sigma, IDENTITY, 12).joint()
    est = estimate_kernels(ds, sigma, IDENTITY, 12, m, seed=3).joint()
    U = np.vstack(sample_features(ds, sigma, IDENTITY, 20_000, 12, seed=8))
    k = U.shape[1]
    se = np.sqrt(((U * U) @ (U * U).T / k - (U @ U.T / k) ** 2) / m)
    keep = ~np.eye(len(se), dtype=bool) if kind == "sign" else se > 0
    z = (est - exact)[keep] / se[keep]
    assert np.abs(z).max() <= 4.5
    assert 0.5 <= z.std() <= 1.5  # the error is not overstated either
    assert np.allclose(est[~keep], exact[~keep], rtol=1e-14, atol=0)


@pytest.mark.parametrize("kind", CLOSED_FORM_KINDS)
def test_exact_kernels_give_a_zero_row_a_zero_kernel_row(kind):
    # as the draws do: sigma(0) = 0 for every kind, sign and relu included
    ds = synthetic_regression(6, 3, 4, 0.3, seed=2)
    X, Xhat = ds.X.copy(), ds.Xhat.copy()
    X[2] = 0.0
    Xhat[0] = 0.0
    ds = Dataset(X, Xhat, ds.y, ds.yhat)
    exact = exact_kernels(ds, Activation(kind), IDENTITY, 6).joint()
    est = estimate_kernels(ds, Activation(kind), IDENTITY, 6, 64, seed=1).joint()
    for row in (2, 6):
        assert np.count_nonzero(exact[row]) == 0
        assert np.count_nonzero(est[row]) == 0
    assert np.count_nonzero(exact[0]) == len(exact) - 2


@pytest.mark.parametrize("kind", CLOSED_FORM_KINDS)
def test_exact_kernels_refuse_an_overflowing_design(kind):
    # C = D D^T overflows; the suite's filter fails a leaked RuntimeWarning
    ds = Dataset(np.full((2, 3), 1e308), np.full((1, 3), 1e308), np.zeros(2),
                 np.zeros(1))
    with pytest.raises(ValueError, match="non-finite activation output"):
        exact_kernels(ds, Activation(kind), IDENTITY, 2)


@pytest.mark.parametrize("sigma, phi", [
    (Activation("custom-table", (-50.0, 50.0, -1.0, 1.0)), IDENTITY),
    (ERF, Activation("sign")),
    (IDENTITY, ERF),
])
def test_exact_kernels_refuse_inputs_without_a_closed_form(sigma, phi):
    ds = synthetic_regression(4, 2, 3, 0.0, seed=0)
    with pytest.raises(ValueError, match="no closed-form kernel"):
        exact_kernels(ds, sigma, phi, 4)


@pytest.mark.parametrize("kind, diag, across", [
    ("identity", 1.0, 0.0), ("sign", 1.0, 0.0),
    ("erf", 2 / np.pi * np.arcsin(2 / 3), 0.0),
    ("sin", (1 - np.exp(-2.0)) / 2, 0.0),
    # relu features have a mean, so orthogonal rows keep 1 / (2 pi)
    ("relu", 0.5, 1 / (2 * np.pi)),
])
def test_exact_kernels_on_orthogonal_unit_rows(kind, diag, across):
    ds = Dataset(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0]]),
                 np.zeros(2), np.zeros(1))
    J = exact_kernels(ds, Activation(kind), IDENTITY, 1).joint()
    want = np.array([[diag, 0.0, across], [0.0, 0.0, 0.0], [across, 0.0, diag]])
    assert J == pytest.approx(want, rel=1e-15, abs=0)


def test_exact_sign_and_relu_are_exact_on_the_diagonal():
    # the cosine of a row with itself is 1, not an ulp below, which arcsin
    # would turn into a relative error of 1e-8
    ds = synthetic_regression(30, 10, 7, 0.0, seed=5)
    s = np.concatenate([np.sum(ds.X ** 2, axis=1), np.sum(ds.Xhat ** 2, axis=1)])
    sign = exact_kernels(ds, Activation("sign"), IDENTITY, 4).joint()
    relu = exact_kernels(ds, Activation("relu"), IDENTITY, 4).joint()
    assert np.all(np.diag(sign) == 0.25)
    assert np.diag(relu) == pytest.approx(s / 8, rel=1e-15, abs=0)


# ---------------------------------------------------------------------------
# Monte Carlo estimator
# ---------------------------------------------------------------------------

def test_estimator_converges_to_identity_oracle():
    # second moment of X z / sqrt(n) over z ~ N(0, I) is X X^T / n
    ds = synthetic_regression(30, 10, 5, 0.5, seed=6)
    ref = exact_kernels(ds, IDENTITY, IDENTITY, 30)
    est = estimate_kernels(ds, IDENTITY, IDENTITY, 30, 50_000, seed=0)
    rel = np.linalg.norm(est.K_aa - ref.K_aa) / np.linalg.norm(ref.K_aa)
    assert rel <= 3 / np.sqrt(50_000)


def test_zero_design_gives_zero_blocks():
    ds = Dataset(np.zeros((3, 2)), np.zeros((2, 2)), np.zeros(3), np.zeros(2))
    ks = estimate_kernels(ds, ERF, IDENTITY, 3, 64, seed=1)
    for f in ("K_aa", "K_ah", "K_ha", "K_hh"):
        assert np.count_nonzero(getattr(ks, f)) == 0


def test_estimator_is_deterministic_bitwise():
    ds = synthetic_regression(8, 4, 6, 0.3, seed=2)
    a = estimate_kernels(ds, ERF, IDENTITY, 8, 1500, seed=4)
    b = estimate_kernels(ds, ERF, IDENTITY, 8, 1500, seed=4)
    for f in ("K_aa", "K_ah", "K_ha", "K_hh"):
        assert np.array_equal(getattr(a, f), getattr(b, f))


def test_estimator_independent_of_worker_count(monkeypatch):
    # every loop on the shared pool: kernel chunks (67, more than the
    # pool's 64 tasks, so some tasks run two), centering chunks (m not a
    # multiple of the 512-draw chunk), surrogate replicates, and the
    # Gaussianity draws and pairs at a width d = 64 where OpenBLAS would
    # split the d x d Schur-complement products over its threads
    ds = synthetic_regression(8, 4, 6, 0.3, seed=2)
    cfg = RFConfig(d=6, delta=0.3, n=8, seed=2)
    wide = RFConfig(d=64, delta=0.3, n=8, seed=4)

    def run():
        ks = estimate_kernels(ds, ERF, IDENTITY, 8, 34_000, seed=4)
        surrogate = gaussian_surrogate_run(ks, ds.y, ds.yhat, cfg, reps=5)
        dg = estimate_delta_gaussianity(ds, ERF, IDENTITY, wide, 1j, 0.1, reps=6)
        return ([getattr(ks, f) for f in ("K_aa", "K_ah", "K_ha", "K_hh")]
                + [verify_centering(ERF, IDENTITY, ds, 8, 2900, seed=4),
                   surrogate.replicate_errors,
                   np.array([dg.value, dg.standard_error])])

    runs = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("RF_EQUIV_THREADS", threads)
        runs[threads] = run()
    for a, b in zip(runs["1"], runs["2"]):
        assert np.array_equal(a, b)


def test_in_place_kahan_fold_equals_the_allocating_form(monkeypatch):
    """The fold's in-place Kahan step, bit for bit against the allocating
    form kept here as the oracle, on partials whose large parts cancel
    between the first and the last, where the compensation keeps the bits
    of the small parts that a plain sum loses beside the large total."""
    rng = np.random.default_rng(3)
    k, m = 6, 7
    big = 1e8 * rng.standard_normal((k, k))
    parts = [rng.standard_normal((k, k)) for _ in range(40)]
    parts[0] += big
    parts[-1] -= big
    monkeypatch.setattr(kernels, "_feature_chunks",
                        lambda *args: ((p.copy(), None) for p in parts))
    monkeypatch.setattr(kernels, "_split", lambda ds, joint, samples: joint)
    got = kernels._chunk_fold(types.SimpleNamespace(n_train=4, n_test=2), IDENTITY,
                              IDENTITY, 1, m, 0, "kernels", gram=True)[0]
    total = comp = np.zeros((k, k))
    for part in parts:
        y = part - comp
        t = total + y
        comp = (t - total) - y
        total = t

    def symmetrised_mean(fold):
        joint = fold / m
        return ((joint + joint.T) / 2).tobytes()

    assert got.tobytes() == symmetrised_mean(total)
    assert got.tobytes() != symmetrised_mean(sum(parts))  # the compensation mattered


def test_two_seeds_agree_within_clt_band():
    ds = synthetic_regression(30, 10, 5, 0.5, seed=6)
    ref = exact_kernels(ds, IDENTITY, IDENTITY, 30)
    a = estimate_kernels(ds, IDENTITY, IDENTITY, 30, 4000, seed=10)
    b = estimate_kernels(ds, IDENTITY, IDENTITY, 30, 4000, seed=11)
    gap = np.linalg.norm(a.K_aa - b.K_aa) / np.linalg.norm(ref.K_aa)
    assert gap <= 10 / np.sqrt(4000)


def test_estimated_joint_matrix_is_psd_up_to_roundoff():
    ds = synthetic_regression(10, 6, 7, 0.4, seed=5)
    ks = estimate_kernels(ds, ERF, IDENTITY, 10, 500, seed=8)
    w = np.linalg.eigvalsh(ks.joint())
    assert w.min() >= -1e-10 * max(w.max(), 1e-300)


def test_mc_error_scales_like_inverse_sqrt_m():
    ds = synthetic_regression(30, 10, 5, 0.5, seed=6)
    ref = exact_kernels(ds, IDENTITY, IDENTITY, 30)
    den = np.linalg.norm(ref.K_aa)
    ms = [100, 1000, 10_000]
    errs = [
        np.linalg.norm(
            estimate_kernels(ds, IDENTITY, IDENTITY, 30, m, seed=3).K_aa
            - ref.K_aa
        )
        / den
        for m in ms
    ]
    slope = np.polyfit(np.log(ms), np.log(errs), 1)[0]
    assert -0.65 <= slope <= -0.35


def test_default_samples_floor_and_scaling():
    assert default_samples(10, 10) == 10_000
    assert default_samples(400, 400) == 20 * 800


# ---------------------------------------------------------------------------
# centering score
# ---------------------------------------------------------------------------

def test_centering_score_small_for_odd_activation():
    ds = synthetic_regression(12, 5, 8, 0.2, seed=3)
    m = 4000
    v = verify_centering(ERF, IDENTITY, ds, 12, m, seed=2)
    assert v <= 5 / np.sqrt(m)


def test_centering_score_flags_shifted_activation():
    # sigma(x) = x + 1 via a linear interpolation table; for scalar design
    # X = I_1 the score is E[z+1] / sqrt(E[(z+1)^2]) = 1/sqrt(2)
    shifted = Activation("custom-table", (-12.0, 12.0, -11.0, 13.0))
    ds = Dataset(np.eye(1), np.eye(1), np.zeros(1), np.zeros(1))
    v = verify_centering(shifted, IDENTITY, ds, 1, 20_000, seed=5)
    assert v > 0.5
    assert v == pytest.approx(1 / np.sqrt(2), abs=0.05)


def test_centering_rejects_non_finite_features():
    # X W overflows to inf; the RuntimeWarning filter of the suite turns a
    # leaked overflow warning into a failure
    ds = Dataset(np.full((2, 3), 1e308), np.full((1, 3), 1e308), np.zeros(2),
                 np.zeros(1))
    with pytest.raises(ValueError, match="non-finite activation output"):
        verify_centering(IDENTITY, IDENTITY, ds, 1, 300, seed=0)


# ---------------------------------------------------------------------------
# validation and serialization
# ---------------------------------------------------------------------------

def test_kernelset_rejects_asymmetric_block():
    bad = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError):
        KernelSet(bad, np.zeros((2, 1)), np.eye(1), 1)


def test_kernelset_derives_k_ha_from_k_ah():
    rng = np.random.default_rng(5)
    K_ah = 0.1 * rng.standard_normal((3, 2))
    ks = KernelSet(np.eye(3), K_ah, np.eye(2), 1)
    assert np.array_equal(ks.K_ha, K_ah.T)
    assert ks.K_ha.flags.c_contiguous
    assert not np.shares_memory(ks.K_ha, ks.K_ah)
    with pytest.raises(TypeError):
        KernelSet(np.eye(3), K_ah, K_ah.T, np.eye(2), 1)


def test_kernelset_rejects_indefinite_joint():
    # off-diagonal coupling stronger than the diagonal blocks allow
    with pytest.raises(ValueError):
        KernelSet(np.eye(2), np.full((2, 2), 0.9), np.eye(2), 1)


def test_every_solve_takes_the_sets_psd_verdict(tmp_path):
    # K_aa's smallest eigenvalue, -5e-8, is within the set's tolerance of
    # 1e-10 lam_max(J) = 1e-7, though below -1e-8 lam_max(K_aa): the set
    # accepts it, and every solve on the set clips it to 0
    Q = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))[0]
    K_aa = (Q * [1.0, 0.5, 0.2, -5e-8]) @ Q.T
    K = KernelSet((K_aa + K_aa.T) / 2, np.zeros((4, 1)), np.array([[1e3]]), 10)
    y, yhat = np.array([1.0, -0.5, 0.3, 2.0]), np.array([0.7])
    cfg = RFConfig(d=3, delta=0.5, n=4, seed=1)
    assert np.isfinite(rfequiv.build_equiv(K, y, yhat, 3, 0.5).predicted_error)
    assert np.isfinite(rfequiv.solve_subdel(K, 3, 0.5, 1j)[1])
    assert np.isfinite(gaussian_surrogate_run(K, y, yhat, cfg, reps=2).mean)
    kern, ys, yhats = (tmp_path / name for name in ("k.json", "y.csv", "yhat.csv"))
    save_kernels(K, kern)
    rfequiv.write_matrix(ys, y.reshape(-1, 1))
    rfequiv.write_matrix(yhats, yhat.reshape(-1, 1))
    assert main(["predict", "--kernels", str(kern), "--y", str(ys), "--yhat",
                 str(yhats), "--d", "3", "--delta", "0.5",
                 "--out", str(tmp_path / "p.json")]) == 0


def _joint_with_min_eig(c, flat, m=12):
    """An exactly symmetric m x m matrix with largest eigenvalue 1 and
    smallest ``c * 1e-10``.  With ``flat`` the top eigenvector is the
    all-ones direction, so every diagonal entry is near 1/m: the
    certificate's shift, the tolerance scaled by the largest diagonal
    entry, is then far below ``1e-10 * lam_max``."""
    rng = np.random.default_rng(11)
    start = rng.standard_normal((m, m))
    if flat:
        start[:, 0] = 1.0
        w = np.r_[1.0, c * 1e-10, np.geomspace(1e-6, 1e-3, m - 2)]
    else:
        w = np.r_[np.linspace(0.1, 1.0, m - 1)[::-1], c * 1e-10]
    Q = np.linalg.qr(start)[0]
    J = (Q * w) @ Q.T
    return (J + J.T) / 2


def _spy_eigvalsh(monkeypatch):
    """The list that records the shape of each ``np.linalg.eigvalsh`` call."""
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a, *args: calls.append(a.shape) or eigvalsh(a, *args))
    return calls


def _psd_decision(J, monkeypatch):
    """Build a KernelSet on J's blocks and check its decision against the
    eigvalsh rule, min eig ``>= -1e-10 * lam_max - 1e-300``, and that a
    refusal names the min eig.  Returns (accepted, whether eigvalsh ran)."""
    w = np.linalg.eigvalsh(J)
    accept = w[0] >= -1e-10 * max(w[-1], 0.0) - 1e-300
    calls = _spy_eigvalsh(monkeypatch)
    n = len(J) * 2 // 3
    blocks = J[:n, :n], J[:n, n:], J[n:, n:]
    if accept:
        KernelSet(*blocks, 1)
    else:
        with pytest.raises(ValueError, match=re.escape(
                f"joint kernel block matrix is not PSD (min eig {w[0]:.3e})")):
            KernelSet(*blocks, 1)
    return accept, bool(calls)


@pytest.mark.parametrize("flat", [False, True])
@pytest.mark.parametrize("c", [-3, -1.05, -0.95, -0.3, 0, 0.5])
def test_kernelset_psd_decision_at_the_tolerance(c, flat, monkeypatch):
    """The shifted Cholesky certificate decides as the eigvalsh rule does."""
    accept, ran_eigvalsh = _psd_decision(_joint_with_min_eig(c, flat), monkeypatch)
    assert accept == (c > -1)  # the matrix lands on the intended side
    if c >= 0:
        assert not ran_eigvalsh  # the certificate accepted alone
    if flat and c == -0.3:
        assert ran_eigvalsh  # a shift of about 1e-10 / 12 is too small


@pytest.mark.parametrize("m", [12, 474, 475, 1000])
@pytest.mark.parametrize("c", [-3, -1.05, -0.95, 0, 0.5])
def test_kernelset_psd_decision_on_large_joint(c, m, monkeypatch):
    """One rule at every size, with no gate on m: the certificate proves
    every set of this family with lam_min >= 0 but one, and eigvalsh
    decides the rest.  The one is the singular set at m = 1000, whose
    certificate shift, about (m + 2) u tr J, is 1.04 times the tolerance's
    1e-10 max J_ii: such a set pays for both routes."""
    accept, ran_eigvalsh = _psd_decision(_joint_with_min_eig(c, False, m),
                                         monkeypatch)
    assert accept == (c > -1)
    assert ran_eigvalsh == (c < 0 or (c == 0 and m == 1000))


@pytest.mark.parametrize("seed", [1, 2])
def test_benchmark_kernel_sets_are_certified_without_eigvalsh(seed, monkeypatch):
    """The kernel sets of the benchmark's workloads are accepted by the
    certificate alone: exact erf at 200/200 (theory_curve), Monte Carlo
    sign/sin at 200/100 (diagnose) and the rank-300 identity set of 600
    rows (resolvent_probe), where eigvalsh would cost several times more."""
    calls = _spy_eigvalsh(monkeypatch)
    ds = synthetic_regression(200, 200, 200, 0.5, seed)
    exact_kernels(ds, ERF, IDENTITY, 200)
    ds = synthetic_regression(200, 100, 200, 0.5, seed)
    estimate_kernels(ds, Activation("sign"), Activation("sin"), 200,
                     default_samples(200, 100), seed)
    ds = synthetic_regression(300, 300, 300, 0.0, seed)
    ks = exact_kernels(ds, IDENTITY, IDENTITY, 300)
    assert calls == []
    assert np.linalg.matrix_rank(ks.joint()) == 300


@pytest.mark.parametrize("J, certified", [
    (1.7e308 * np.eye(6), True), (1.7e308 * np.eye(600), True),
    (5e-324 * np.eye(6), False), (5e-324 * np.eye(600), False),
    (np.diag([0.0, 0.0, 1.0]), True),  # test_boundary's ZERO2
    (np.diag([1.14262314e-219, 1.39677140e-114, 1.63152407e15,
              7.81635213e132, 0.0]), True),  # test_boundary's underflow4
    (np.full((6, 6), 1e308), True),
    (1e308 * np.outer(np.resize([1.0, -1.0], 600), np.resize([1.0, -1.0], 600)),
     True),
], ids=["huge-eye6", "huge-eye600", "tiny-eye6", "tiny-eye600", "zero2",
        "underflow4", "rank-one6", "rank-one600"])
def test_psd_decision_at_the_edges_of_the_range(J, certified, monkeypatch):
    """Sets at the ends of the double range get the eigvalsh rule's verdict,
    acceptance, with no RuntimeWarning (an error in this suite): no step
    of the certificate overflows, and a diagonal below 1e-290, where a
    step could leave the normal range, goes to eigvalsh."""
    accept, ran_eigvalsh = _psd_decision(J, monkeypatch)
    assert accept
    assert ran_eigvalsh != certified


def test_kernels_json_round_trip(tmp_path):
    ds = synthetic_regression(6, 3, 4, 0.2, seed=1)
    ks = estimate_kernels(ds, ERF, IDENTITY, 6, 300, seed=7)
    p = tmp_path / "k.json"
    save_kernels(ks, p)
    back = load_kernels(p)
    assert back.samples == ks.samples
    for f in ("K_aa", "K_ah", "K_ha", "K_hh"):
        assert np.array_equal(getattr(back, f), getattr(ks, f))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.integers(-2 ** 53, 2 ** 53).map(float),
    st.sampled_from(EDGE_FLOATS)), min_size=1, max_size=40))
def test_kernel_file_parse_is_bit_identical(tmp_path_factory, values):
    """Every finite double written as its shortest round-trip text, -0.0
    included, reads back with the same bits, as the stdlib reads it."""
    p = tmp_path_factory.mktemp("parse") / "v.json"
    write_json(p, {"v": values})
    back = np.array(_parse_json(p, p.read_bytes())["v"], dtype=float)
    stdlib = np.array(json.loads(p.read_text())["v"], dtype=float)
    want = np.array(values, dtype=float)
    assert back.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert stdlib.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_load_kernels_keeps_samples_up_to_2_64_minus_1(tmp_path):
    """The largest count orjson reads as an integer; 2^64 is refused (see
    the boundary table)."""
    p = tmp_path / "k.json"
    save_kernels(KernelSet(np.eye(1), np.zeros((1, 1)), np.eye(1), 2 ** 64 - 1), p)
    assert load_kernels(p).samples == 2 ** 64 - 1


def test_save_kernels_writes_three_blocks_in_order(tmp_path):
    # a closed form adds "exact": true after the count; Monte Carlo does not
    ds = synthetic_regression(4, 2, 3, 0.2, seed=1)
    p = tmp_path / "k.json"
    save_kernels(exact_kernels(ds, IDENTITY, IDENTITY, 3), p)
    assert list(json.loads(p.read_text())) == [
        "n_train", "n_test", "samples", "exact", "K_aa", "K_ah", "K_hh"]
    save_kernels(estimate_kernels(ds, IDENTITY, IDENTITY, 3, 10, seed=0), p)
    assert list(json.loads(p.read_text())) == [
        "n_train", "n_test", "samples", "K_aa", "K_ah", "K_hh"]


def test_exact_flag_round_trips_and_a_missing_one_is_monte_carlo(tmp_path):
    ds = synthetic_regression(6, 3, 4, 0.2, seed=1)
    p = tmp_path / "k.json"
    ks = exact_kernels(ds, ERF, IDENTITY, 6)
    assert ks.exact and ks.samples == 1
    save_kernels(ks, p)
    assert json.loads(p.read_text())["exact"] is True
    back = load_kernels(p)
    assert back.exact
    for f in ("K_aa", "K_ah", "K_ha", "K_hh"):
        assert np.array_equal(getattr(back, f), getattr(ks, f))
    save_kernels(estimate_kernels(ds, ERF, IDENTITY, 6, 300, seed=7), p)
    assert not load_kernels(p).exact
    with pytest.raises(ValueError, match="exact must be True or False"):
        KernelSet(np.eye(1), np.zeros((1, 1)), np.eye(1), 1, exact=1)


def test_load_kernels_rejects_missing_key(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"n_train": 2, "n_test": 1}')
    with pytest.raises(MatrixFormatError):
        load_kernels(p)


# ---------------------------------------------------------------------------
# one parse and one factorisation per kernel file
# ---------------------------------------------------------------------------

SMALL_FILE = ('{"n_train": 1, "n_test": 1, "samples": 1, '
              '"K_aa": [[%s]], "K_ah": [[%s]], "K_hh": [[1.0]]}')
GRID = [(d, delta) for d in (25, 50, 100, 150, 200, 300, 400, 800)
        for delta in (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)]


@pytest.fixture
def empty_memo(monkeypatch):
    """load_kernels with nothing kept from an earlier test."""
    monkeypatch.setattr(rfequiv.kernels, "_last_file", [None, None])


def test_memo_key_is_the_bytes_not_the_size_or_mtime(tmp_path, empty_memo):
    p = tmp_path / "k.json"
    p.write_text(SMALL_FILE % ("2.0", "0.5"))
    first = load_kernels(p)
    assert load_kernels(p) is first
    assert rfequiv.kernels._last_file[0] == p.read_bytes()  # the key is the bytes
    stat = p.stat()
    p.write_text(SMALL_FILE % ("3.0", "0.5"))
    os.utime(p, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert (p.stat().st_size, p.stat().st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
    assert load_kernels(p).K_aa.tolist() == [[3.0]]


def test_other_bytes_release_the_kept_file(tmp_path, empty_memo):
    # the kept bytes are about 3x the blocks: a read of other bytes, a bad
    # file included, lets go of them before its parse
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(SMALL_FILE % ("2.0", "0.5"))
    bad.write_text(SMALL_FILE % ("2.0", "5.0"))  # not PSD
    first = load_kernels(good)
    with pytest.raises(ValueError, match="not PSD"):
        load_kernels(bad)
    assert rfequiv.kernels._last_file == [None, None]
    again = load_kernels(good)
    assert again is not first and again.K_aa.tolist() == [[2.0]]


def test_threads_reading_two_files_each_get_the_set_of_their_bytes(tmp_path,
                                                                  empty_memo):
    """More threads than cores alternate between two files with a short
    switch interval: every call returns the set of the bytes it read, never
    the other file's set or nothing, while the memo is replaced under it."""
    files = []
    for value in (2.0, 3.0):
        path = tmp_path / f"k{value}.json"
        path.write_text(SMALL_FILE % (value, "0.5"))
        files.append((path, value))
    wrong = []

    def work(k):
        for j in range(40):
            path, value = files[(j + k) % 2]
            ks = load_kernels(path)
            if ks is None or ks.K_aa[0, 0] != value:
                wrong.append((k, j))

    threads = [threading.Thread(target=work, args=(k,))
               for k in range(4 * (os.cpu_count() or 1))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


@pytest.mark.parametrize("bad, code, message", [
    (SMALL_FILE.replace('"K_hh"', '"K_xx"') % ("2.0", "0.5"), 3,
     "malformed kernel JSON"),
    (SMALL_FILE % ("2.0", "5.0"), 2, "not PSD"),
])
def test_a_bad_file_after_a_good_one_fails_as_it_does_alone(
        tmp_path, empty_memo, capsys, bad, code, message):
    kern, y, yhat = (tmp_path / name for name in ("k.json", "y.csv", "yhat.csv"))
    y.write_text("1\n")
    yhat.write_text("0.5\n")
    argv = ["predict", "--kernels", str(kern), "--y", str(y), "--yhat",
            str(yhat), "--d", "2", "--delta", "1", "--out", str(tmp_path / "p.json")]
    kern.write_text(bad)
    assert main(argv) == code
    alone = capsys.readouterr().err
    assert message in alone
    kern.write_text(SMALL_FILE % ("2.0", "0.5"))
    assert main(argv) == 0
    kern.write_text(bad)
    assert main(argv) == code
    assert capsys.readouterr().err == alone


def test_kernel_set_is_immutable_and_owns_its_blocks(tmp_path, empty_memo):
    K_aa, K_ah, K_hh = np.eye(2), np.full((2, 1), 0.5), np.eye(1)
    ks = KernelSet(K_aa, K_ah, K_hh, 1)
    K_aa[0, 0] = K_ah[0, 0] = K_hh[0, 0] = 9.0
    assert ks.K_aa[0, 0] == ks.K_ah[0, 0] * 2 == ks.K_ha[0, 0] * 2 == ks.K_hh[0, 0] == 1.0
    # a read-only array that owns its memory, as load_kernels builds, is kept
    frozen = np.eye(2)
    frozen.flags.writeable = False
    assert KernelSet(frozen, K_ah / 18, K_hh / 9, 1).K_aa is frozen
    assert KernelSet(frozen[::-1, ::-1], K_ah / 18, K_hh / 9, 1).K_aa.base is None
    p = tmp_path / "k.json"
    save_kernels(ks, p)
    for kernels in (ks, load_kernels(p)):
        for name in ("K_aa", "K_ah", "K_ha", "K_hh"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(kernels, name)[0, 0] = 2.0
        for name, value in (("K_aa", np.eye(2)), ("samples", 3), ("exact", True)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(kernels, name, value)


@pytest.mark.parametrize("cls", [KernelSet, Dataset, RDELSolution, SimReport,
                                 LinearizationSpec, ZerothMomentReport])
def test_array_holders_compare_by_identity(cls):
    # a generated __eq__ would compare the arrays and raise on their truth value
    assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__


def test_kernel_set_is_equal_only_to_itself_and_a_dict_key():
    a = KernelSet(np.eye(2), np.zeros((2, 1)), np.eye(1), 1)
    b = KernelSet(np.eye(2), np.zeros((2, 1)), np.eye(1), 1)
    assert a == a and a != b
    assert a in [b, a] and b not in [a]
    assert {a: 1, b: 2}[a] == 1


def test_predict_grid_parses_and_factorises_once(tmp_path, monkeypatch, empty_memo):
    """The 48 points of one file: one parse and one eigendecomposition, and
    the bytes of a new interpreter that parses and factorises anew at every
    point, as one process per point would."""
    ds = synthetic_regression(100, 100, 100, 0.5, seed=3)
    kern, y, yhat = (tmp_path / name for name in ("k.json", "y.csv", "yhat.csv"))
    save_kernels(exact_kernels(ds, ERF, IDENTITY, 100), kern)
    rfequiv.write_matrix(y, ds.y[:, None])
    rfequiv.write_matrix(yhat, ds.yhat[:, None])

    def argv(out):
        return [["predict", "--kernels", str(kern), "--y", str(y), "--yhat",
                 str(yhat), "--d", str(d), "--delta", repr(delta),
                 "--out", str(out / f"p-{d}-{delta}.json")] for d, delta in GRID]

    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # the CSV reader parses with orjson too: count the kernel file's parse
    monkeypatch.setattr(rfequiv.kernels, "_parse_json",
                        counted("parse", rfequiv.kernels._parse_json))
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    (tmp_path / "memo").mkdir()
    for args in argv(tmp_path / "memo"):
        assert main(args) == 0
    assert calls == {"parse": 1, "eigh": 1}

    (tmp_path / "fresh").mkdir()
    code = ("import rfequiv.kernels as kernels\n"
            "from rfequiv.cli import main\n"
            f"for args in {argv(tmp_path / 'fresh')!r}:\n"
            "    kernels._last_file = [None, None]\n"
            "    assert main(args) == 0\n")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   cwd=Path(rfequiv.__file__).resolve().parents[1])
    for d, delta in GRID:
        name = f"p-{d}-{delta}.json"
        assert (tmp_path / "memo" / name).read_bytes() == \
            (tmp_path / "fresh" / name).read_bytes()


def test_threads_share_one_eigendecomposition(monkeypatch):
    """More threads than cores ask a new set for its basis at once, with a
    short switch interval: one eigendecomposition, and equal reports."""
    ds = synthetic_regression(40, 10, 20, 0.5, seed=5)
    ks = exact_kernels(ds, ERF, IDENTITY, 40)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
    reports = []

    def work():
        reports.append(rfequiv.build_equiv(ks, ds.y, ds.yhat, 30, 0.1).to_report())

    threads = [threading.Thread(target=work) for _ in range(4 * (os.cpu_count() or 1))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(calls) == 1
    assert len(reports) == len(threads) and all(r == reports[0] for r in reports)
