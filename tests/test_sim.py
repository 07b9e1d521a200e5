"""Monte Carlo pipeline: features, test error, pencils, diagnostics."""

import math
import sys

import numpy as np
import pytest

from rfequiv import (
    Activation,
    Dataset,
    KernelSet,
    RFConfig,
    anisotropic_gap,
    build_pseudoresolvent,
    empirical_test_error,
    estimate_delta_gaussianity,
    estimate_kernels,
    exact_kernels,
    rf_solution_matrix,
    run_replicates,
    sample_features,
    synthetic_regression,
)
from rfequiv.model import apply_activation, substream
from rfequiv.rdel import _pencil_defect, _pencil_matrix
from rfequiv import model
from rfequiv.sim import _pencil_rows

import oracles
from conftest import (caller_blas_threads, dense_delta_gaussianity,
                      dense_pencil, dense_pseudoresolvent,
                      gaussian_surrogate_run, traced_peak, unit_row_dataset)

IDENTITY = Activation("identity")
ERF = Activation("erf")


# ---------------------------------------------------------------------------
# sample_features
# ---------------------------------------------------------------------------

def test_features_identity_chain_reuses_the_same_gaussians():
    # with X = I and n = 1 the identity draw *is* the raw Gaussian block, so
    # re-sampling under erf must equal erf applied to the identity draw
    ds = Dataset(np.eye(4), np.eye(4), np.zeros(4), np.zeros(4))
    a_id, ah_id = sample_features(ds, IDENTITY, IDENTITY, 6, 1, seed=13)
    a_erf, ah_erf = sample_features(ds, ERF, IDENTITY, 6, 1, seed=13)
    assert np.array_equal(a_erf, apply_activation(ERF, a_id))
    assert np.array_equal(ah_erf, apply_activation(ERF, ah_id))


def test_features_vanish_on_zero_design():
    ds = Dataset(np.zeros((3, 2)), np.zeros((2, 2)), np.zeros(3), np.zeros(2))
    a, ah = sample_features(ds, ERF, IDENTITY, 5, 3, seed=0)
    assert np.count_nonzero(a) == 0 and np.count_nonzero(ah) == 0
    assert a.shape == (3, 5) and ah.shape == (2, 5)


def test_features_deterministic():
    ds = synthetic_regression(6, 3, 4, 0.2, seed=8)
    a1, _ = sample_features(ds, ERF, IDENTITY, 7, 6, seed=3)
    a2, _ = sample_features(ds, ERF, IDENTITY, 7, 6, seed=3)
    assert np.array_equal(a1, a2)


def test_feature_column_covariance_matches_kernel_estimate():
    # d columns of one draw are d i.i.d. samples of the same column law the
    # kernel estimator integrates, so the two empirical covariances agree
    # within a CLT band
    ds = synthetic_regression(15, 8, 10, 0.3, seed=4)
    m = 10_000
    a, _ = sample_features(ds, ERF, IDENTITY, m, 15, seed=9)
    khat = a @ a.T / m
    kest = estimate_kernels(ds, ERF, IDENTITY, 15, m, seed=10)
    rel = np.linalg.norm(khat - kest.K_aa) / np.linalg.norm(kest.K_aa)
    assert rel <= 5 / np.sqrt(m)


# ---------------------------------------------------------------------------
# empirical_test_error
# ---------------------------------------------------------------------------

def test_error_zero_predictor_returns_target_norm():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 3))
    yhat = rng.standard_normal(4)
    v = empirical_test_error(a, np.zeros((4, 3)), rng.standard_normal(5),
                             yhat, 0.5)
    assert v == pytest.approx(float(yhat @ yhat), rel=1e-12)


def test_error_training_identity():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((6, 4)) / np.sqrt(6)
    y = rng.standard_normal(6)
    delta = 0.3
    got = empirical_test_error(a, a, y, y, delta)
    r = np.linalg.solve(a @ a.T + delta * np.eye(6), y)
    assert got == pytest.approx(delta ** 2 * float(r @ r), rel=1e-10)


def test_error_huge_ridge_shrinks_estimator_to_zero():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 3))
    ah = rng.standard_normal((2, 3))
    yhat = rng.standard_normal(2)
    v = empirical_test_error(a, ah, rng.standard_normal(5), yhat, 1e12)
    assert v == pytest.approx(float(yhat @ yhat), rel=1e-9)


def test_error_invariant_under_orthogonal_feature_rotation():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((6, 5))
    ah = rng.standard_normal((3, 5))
    y = rng.standard_normal(6)
    yhat = rng.standard_normal(3)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    base = empirical_test_error(a, ah, y, yhat, 0.7)
    rot = empirical_test_error(a @ q, ah @ q, y, yhat, 0.7)
    assert rot == pytest.approx(base, rel=1e-9)


# ---------------------------------------------------------------------------
# run_replicates
# ---------------------------------------------------------------------------

def test_replicates_single_rep_reproducible():
    ds = synthetic_regression(12, 6, 8, 0.2, seed=5)
    cfg = RFConfig(d=10, delta=0.4, n=12, seed=5)
    k = estimate_kernels(ds, ERF, IDENTITY, 12, 500, seed=6)
    r1 = run_replicates(ds, ERF, IDENTITY, cfg, reps=1, kernels=k)
    r2 = run_replicates(ds, ERF, IDENTITY, cfg, reps=1, kernels=k)
    assert r1.replicate_errors.shape == (1,)
    assert np.array_equal(r1.replicate_errors, r2.replicate_errors)


def test_replicates_full_report_is_deterministic():
    ds = synthetic_regression(12, 6, 8, 0.2, seed=5)
    cfg = RFConfig(d=10, delta=0.4, n=12, seed=5)
    k = estimate_kernels(ds, ERF, IDENTITY, 12, 500, seed=6)
    r1 = run_replicates(ds, ERF, IDENTITY, cfg, reps=8, kernels=k)
    r2 = run_replicates(ds, ERF, IDENTITY, cfg, reps=8, kernels=k)
    assert r1.to_report() == r2.to_report()
    assert list(r1.to_report()) == ["config", "replicates", "mean", "std",
                                    "predicted", "rel_gap"]


def test_replicates_desk_scale_gap():
    ds = synthetic_regression(200, 200, 200, 0.5, seed=1)
    cfg = RFConfig(d=200, delta=0.1, n=200, seed=2)
    k = estimate_kernels(ds, ERF, IDENTITY, 200, 100_000, seed=1)
    rep = run_replicates(ds, ERF, IDENTITY, cfg, reps=30, kernels=k)
    assert rep.rel_gap < 0.05


def test_training_error_median_decreases_with_width():
    # more random features fit the training labels better; flagged as a
    # sanity trend, not a limit statement
    means = {20: [], 40: [], 80: []}
    k_cache = {}
    for s in range(7):
        base = synthetic_regression(60, 1, 30, 0.2, seed=50 + s)
        ds = Dataset(base.X, base.X, base.y, base.y)
        if s not in k_cache:
            k_cache[s] = estimate_kernels(ds, ERF, IDENTITY, 60, 2000,
                                          seed=77)
        for d in means:
            cfg = RFConfig(d=d, delta=0.5, n=60, seed=s)
            rep = run_replicates(ds, ERF, IDENTITY, cfg, reps=5,
                                 kernels=k_cache[s])
            means[d].append(rep.mean)
    med = {d: float(np.median(v)) for d, v in means.items()}
    assert med[20] > med[40] > med[80]


# ---------------------------------------------------------------------------
# pseudo-resolvent
# ---------------------------------------------------------------------------

def test_pseudoresolvent_decoupled_case():
    delta = 0.8
    G = build_pseudoresolvent(np.zeros((3, 2)), np.zeros((2, 2)), delta, 0.0)
    n, d, t = 3, 2, 2
    assert G.shape == (n + d + 2 * t,) * 2
    assert np.allclose(G[:3, :3], np.eye(3) / delta, atol=1e-12)
    assert np.count_nonzero(np.round(G[n + d:n + d + t, :n], 12)) == 0


def _features(n, d, t, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, d)) / np.sqrt(n),
            rng.standard_normal((t, d)) / np.sqrt(n))


@pytest.mark.parametrize("delta", [1e-3, 0.3, 10.0])
@pytest.mark.parametrize("z", [0, 1j, 0.2 + 0.8j, 2 + 0.01j])
@pytest.mark.parametrize("dims", [(5, 9, 4), (7, 7, 3), (12, 5, 4), (6, 4, 1)],
                         ids=["n<d", "n=d", "n>d", "t=1"])
def test_pseudoresolvent_matches_dense_lu_oracle(dims, z, delta):
    A, Ahat = _features(*dims, seed=sum(dims))
    got = build_pseudoresolvent(A, Ahat, delta, z)
    want = dense_pseudoresolvent(A, Ahat, delta, z)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("dims, z", [((5, 9, 4), 1j), ((12, 5, 4), 0.0),
                                     ((6, 4, 1), 0.2 + 0.8j)])
def test_blockwise_defect_equals_the_dense_defect(dims, z):
    # X is no inverse, so every entry of (L - z*Lambda) X - I counts
    A, Ahat = _features(*dims, seed=3)
    rows = _pencil_rows(A, Ahat, 0.3, z)
    P = dense_pencil(A, Ahat, 0.3, z)
    rng = np.random.default_rng(4)
    ell = P.shape[0]
    X = rng.standard_normal((ell, ell)) + 1j * rng.standard_normal((ell, ell))
    dense = np.linalg.norm(P @ X - np.eye(ell))
    assert _pencil_defect(dims, rows, X) == pytest.approx(dense, rel=1e-12)
    assert np.array_equal(_pencil_matrix(dims, rows), P)


@pytest.fixture(scope="module")
def probe_shape():
    """Features of the resolvent_probe shape (identity features, n = t = 300,
    d = 150; ell = 1050) and the bytes of their complex ell x ell G."""
    ds = synthetic_regression(300, 300, 300, 0.0, seed=5)
    A, Ahat = sample_features(ds, IDENTITY, IDENTITY, 150, 300, seed=6)
    return A, Ahat, 1050 ** 2 * 16


# Both bounds, in bytes of G, were fixed before the first run.  With the defect
# check holding whole block rows the build read 1.91 G and the check 0.86 G;
# with row ranges of 64 rows and G assembled in place, 1.17 G and 0.12 G.
def test_pseudoresolvent_build_holds_little_besides_g(monkeypatch, probe_shape):
    monkeypatch.setenv("RF_EQUIV_THREADS", "1")
    A, Ahat, g_bytes = probe_shape
    peak = traced_peak(lambda: build_pseudoresolvent(A, Ahat, 0.3, 1j))
    assert peak <= 1.35 * g_bytes


def test_pencil_defect_holds_one_row_range(monkeypatch, probe_shape):
    monkeypatch.setenv("RF_EQUIV_THREADS", "1")
    A, Ahat, g_bytes = probe_shape
    G = build_pseudoresolvent(A, Ahat, 0.3, 1j)
    rows = _pencil_rows(A, Ahat, 0.3, 1j)
    peak = traced_peak(lambda: _pencil_defect((300, 150, 300), rows, G))
    assert peak <= 0.25 * g_bytes


def test_pseudoresolvent_direct_residual():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((4, 3)) / 2
    ah = rng.standard_normal((2, 3)) / 2
    G = build_pseudoresolvent(a, ah, 0.5, 1j)
    defect = dense_pencil(a, ah, 0.5, 1j) @ G - np.eye(G.shape[0])
    assert np.linalg.norm(defect, 2) <= 1e-9


def test_pseudoresolvent_block31_is_the_ridge_hat_matrix():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 4)) / np.sqrt(5)
    ah = rng.standard_normal((3, 4)) / np.sqrt(5)
    delta = 0.4
    G = build_pseudoresolvent(a, ah, delta, 0.0)
    n, d, t = 5, 4, 3
    assert G.shape == (n + d + 2 * t,) * 2
    want = ah @ a.T @ np.linalg.inv(a @ a.T + delta * np.eye(n))
    got = G[n + d:n + d + t, :n]
    assert np.linalg.norm(got - want, 2) <= 1e-8


def test_pseudoresolvent_route_reproduces_test_error():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((6, 5)) / np.sqrt(6)
    ah = rng.standard_normal((4, 5)) / np.sqrt(6)
    y = rng.standard_normal(6)
    yhat = rng.standard_normal(4)
    delta = 0.6
    G = build_pseudoresolvent(a, ah, delta, 0.0)
    n, d, t = 6, 5, 4
    assert G.shape == (n + d + 2 * t,) * 2
    pred = G[n + d:n + d + t, :n].real @ y
    route = float(np.sum((yhat - pred) ** 2))
    direct = empirical_test_error(a, ah, y, yhat, delta)
    assert route == pytest.approx(direct, rel=1e-8)


def test_regularized_resolvent_distance_bound():
    # || (L - z Lam - i tau)^{-1} - (L - z Lam)^{-1} || <= tau ||(L - z Lam)^{-1}||^2
    rng = np.random.default_rng(9)
    for _ in range(4):
        a = rng.standard_normal((4, 3)) / 2
        ah = rng.standard_normal((3, 3)) / 2
        G = build_pseudoresolvent(a, ah, 0.5, 1j)
        ell = G.shape[0]
        base = dense_pencil(a, ah, 0.5, 1j)
        norm_sq = np.linalg.norm(G, 2) ** 2
        for tau in (1e-1, 1e-3):
            shifted = np.linalg.inv(base - 1j * tau * np.eye(ell))
            gap = np.linalg.norm(shifted - G, 2)
            assert gap <= tau * norm_sq * (1 + 1e-10)


def test_anisotropic_gap_rank_one_probe():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((4, 3)) / 2
    ah = rng.standard_normal((2, 3)) / 2
    G = build_pseudoresolvent(a, ah, 0.5, 1j)
    ell = G.shape[0]
    m_theory = np.zeros((ell, ell), dtype=complex)
    assert anisotropic_gap(G, m_theory, np.zeros((ell, ell))) == 0.0
    e1 = np.zeros((ell, ell))
    e1[0, 0] = 1.0
    assert anisotropic_gap(G, m_theory, e1) == pytest.approx(abs(G[0, 0]))


# ---------------------------------------------------------------------------
# Gaussianity diagnostic
# ---------------------------------------------------------------------------

def test_delta_gaussianity_is_deterministic_and_counts_pairs():
    ds = synthetic_regression(10, 5, 6, 0.3, seed=2)
    cfg = RFConfig(d=6, delta=0.4, n=10, seed=4)
    a = estimate_delta_gaussianity(ds, IDENTITY, IDENTITY, cfg, 1j, 0.1, reps=10)
    b = estimate_delta_gaussianity(ds, IDENTITY, IDENTITY, cfg, 1j, 0.1, reps=10)
    assert a.value == b.value and a.standard_error == b.standard_error
    assert a.pairs == 5


@pytest.mark.parametrize("n, t, d, z, tau", [
    (12, 4, 5, 1j, 0.1), (5, 4, 12, 0.5 + 1j, 0.1), (9, 4, 6, 0.5, 0.1),
    (30, 40, 20, 1j, 0.1), (9, 4, 6, 0.5 + 1j, 1e-3), (9, 4, 6, 1j, 10.0),
    (12, 4, 5, 0, 0.1)],
    ids=["n-above-d", "n-below-d", "z-real", "t-above-d", "tau-small",
         "tau-large", "z-zero"])
def test_delta_gaussianity_matches_dense_oracle(n, t, d, z, tau):
    ds = synthetic_regression(n, t, 6, 0.3, seed=n)
    cfg = RFConfig(d=d, delta=0.3, n=n, seed=5)
    reps = 7
    dg = estimate_delta_gaussianity(ds, ERF, IDENTITY, cfg, z, tau, reps)
    draws = [model._features([ds.X, ds.Xhat], ERF, IDENTITY, n, d,
                             substream(cfg.seed, "delta", i))
             for i in range(reps)]
    value, se = dense_delta_gaussianity(draws, cfg.delta, z, tau)
    assert dg.pairs == 3
    assert dg.value == pytest.approx(value, rel=1e-12, abs=0)
    assert dg.standard_error == pytest.approx(se, rel=1e-12, abs=0)


def test_delta_gaussianity_refuses_an_inaccurate_width_solve(monkeypatch):
    # the width block row of R comes from the inverse of the d x d Schur
    # complement; a relative error of 1e-6 in it must trip the defect check
    inverse = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda S: inverse(S) * (1 + 1e-6))
    ds = synthetic_regression(12, 4, 6, 0.3, seed=1)
    cfg = RFConfig(d=5, delta=0.3, n=12, seed=5)
    with pytest.raises(RuntimeError, match="defect"):
        estimate_delta_gaussianity(ds, ERF, IDENTITY, cfg, 1j, 0.1, 4)


def test_delta_gaussianity_with_small_draws_5x_pairs_cost_at_most_2x_peak(monkeypatch):
    # the pair terms are folded as they arrive, so at this shape, where the
    # held draws are small beside the terms, five times the pairs (reps 8
    # and 40) cost at most twice the traced peak; every draw is still held,
    # so at a shape where the draws dominate the peak grows with reps
    monkeypatch.setenv("RF_EQUIV_THREADS", "1")
    ds = synthetic_regression(60, 30, 20, 0.3, seed=3)
    cfg = RFConfig(d=40, delta=0.3, n=60, seed=7)
    peaks = {reps: traced_peak(lambda: estimate_delta_gaussianity(
                 ds, ERF, IDENTITY, cfg, 1j, 0.1, reps))
             for reps in (8, 40)}
    assert peaks[40] <= 2 * peaks[8]


@pytest.mark.parametrize("n, t, n0, d", [(60, 30, 40, 60), (200, 100, 200, 200)],
                         ids=["ell-180", "ell-600"])
def test_delta_gaussianity_working_set(monkeypatch, n, t, n0, d):
    # in units of one (ell - t) x ell complex array, the size of a pair term:
    # the 10 draws, the running sum and mean, E14, and per pair its term, Xt,
    # the keep gather, R2 and R14.  The bound was fixed before the first run:
    # a pair loop that kept both block rows beside their sum and a fold that
    # copied each step read 11.14-11.20 units here; one buffer per term and
    # the fold in place read 9.24-9.30
    monkeypatch.setenv("RF_EQUIV_THREADS", "1")
    ds = synthetic_regression(n, t, n0, 0.5, seed=1)
    cfg = RFConfig(d=d, delta=0.1, n=n, seed=3)
    ell = n + d + 2 * t
    peak = traced_peak(lambda: estimate_delta_gaussianity(
        ds, Activation("sign"), Activation("sin"), cfg, 1j, 0.1, reps=10))
    assert peak / ((ell - t) * ell * 16) <= 9.5


def test_delta_gaussianity_single_pair_has_no_spread_estimate():
    ds = synthetic_regression(8, 4, 5, 0.3, seed=1)
    cfg = RFConfig(d=5, delta=0.4, n=8, seed=3)
    dg = estimate_delta_gaussianity(ds, IDENTITY, IDENTITY, cfg, 1j, 0.1, reps=2)
    assert dg.pairs == 1
    assert math.isinf(dg.standard_error)


def test_delta_gaussianity_se_shrinks_like_inverse_sqrt_reps():
    ds = synthetic_regression(50, 25, 40, 0.5, seed=9)
    cfg = RFConfig(d=40, delta=0.2, n=50, seed=21)
    reps_list = [8, 16, 32, 64]
    ses = [
        estimate_delta_gaussianity(ds, IDENTITY, IDENTITY, cfg, 1j, 0.1,
                                   reps).standard_error
        for reps in reps_list
    ]
    slope = np.polyfit(np.log(reps_list), np.log(ses), 1)[0]
    assert -0.8 <= slope <= -0.2


def test_sign_features_measurably_less_gaussian_than_identity():
    # fourth-cumulant excess of the +-1 entries is resolvable at small size
    # once the seeds are paired; identity features are exactly Gaussian, so
    # their estimate is pure Monte Carlo floor
    for seed in (0, 2, 6):
        ds = unit_row_dataset(10, 5, 5, seed=seed)
        cfg = RFConfig(d=8, delta=0.2, n=10, seed=seed)
        vals = {}
        for name in ("identity", "sign"):
            dg = estimate_delta_gaussianity(ds, Activation(name), IDENTITY,
                                            cfg, 1j, 0.1, reps=4000)
            vals[name] = dg.value
        assert vals["sign"] > 1.5 * vals["identity"]


# ---------------------------------------------------------------------------
# Gaussian surrogate
# ---------------------------------------------------------------------------

def test_surrogate_degenerate_covariance_pins_every_replicate():
    k = KernelSet(np.eye(3), np.zeros((3, 2)), np.zeros((2, 2)), 10)
    cfg = RFConfig(d=5, delta=0.4, n=3, seed=6)
    yhat = np.array([1.5, -0.5])
    rep = gaussian_surrogate_run(k, np.ones(3), yhat, cfg, reps=4)
    assert np.allclose(rep.replicate_errors, float(yhat @ yhat), rtol=1e-12)
    assert rep.config.get("surrogate") is True


def test_surrogate_reproducible():
    k = KernelSet(np.eye(3), np.zeros((3, 2)), 0.5 * np.eye(2), 10)
    cfg = RFConfig(d=5, delta=0.4, n=3, seed=6)
    y, yhat = np.ones(3), np.array([1.0, 2.0])
    r1 = gaussian_surrogate_run(k, y, yhat, cfg, reps=5)
    r2 = gaussian_surrogate_run(k, y, yhat, cfg, reps=5)
    assert np.array_equal(r1.replicate_errors, r2.replicate_errors)


def test_surrogate_rejects_indefinite_covariance():
    # the set's constructor, the one owner of the PSD rule, refuses the
    # indefinite blocks before any surrogate draw
    cfg = RFConfig(d=4, delta=0.4, n=2, seed=0)
    with pytest.raises(ValueError, match="joint kernel block matrix is not PSD"):
        bad = KernelSet(np.eye(2), np.full((2, 2), 0.9), np.eye(2), 1)
        gaussian_surrogate_run(bad, np.ones(2), np.ones(2), cfg, reps=2)


@pytest.mark.parametrize("reps, message", [
    (0, "reps must be >= 1"), (True, "reps must be an integer >= 1, not True")])
def test_surrogate_refuses_reps_before_the_root(monkeypatch, reps, message):
    # the root is an eigendecomposition of the (n+t)x(n+t) joint kernel:
    # a run that cannot draw must not pay for it
    k = KernelSet(np.eye(4), np.zeros((4, 2)), np.eye(2), 10)
    cfg = RFConfig(d=3, delta=0.4, n=4, seed=0)
    roots = []
    monkeypatch.setattr(oracles, "joint_root", roots.append)
    with pytest.raises(ValueError, match=message):
        gaussian_surrogate_run(k, np.ones(4), np.ones(2), cfg, reps=reps)
    assert roots == []


def test_surrogate_errors_ignore_caller_blas_threads(monkeypatch):
    # the oracle makes the square root of J on one BLAS thread; sim takes
    # no eigendecomposition of its own (at 200/100 OpenBLAS rounds eigh and
    # the root's product differently with two threads)
    ds = synthetic_regression(200, 100, 100, 0.3, 7)
    K = exact_kernels(ds, ERF, IDENTITY, 200)
    cfg = RFConfig(d=100, delta=0.1, n=200, seed=3)
    callers = []
    eigh = np.linalg.eigh

    def spy(*args, **kwargs):  # records who asked _psd_eigh, or eigh itself
        frame = sys._getframe(1)
        if frame.f_code.co_name == "_psd_eigh":
            frame = frame.f_back
        callers.append((frame.f_globals["__name__"], frame.f_code.co_name))
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    runs = []
    for count in (1, 2):
        with caller_blas_threads(count):
            runs.append(gaussian_surrogate_run(K, ds.y, ds.yhat, cfg, reps=4))
    # K_aa's spectrum once, kept for the prediction, and J's root once a run
    assert sorted(callers) == [("oracles", "joint_root")] * 2 + [
        ("rfequiv.kernels", "_eigenbasis")]
    assert np.array_equal(runs[0].replicate_errors, runs[1].replicate_errors)
