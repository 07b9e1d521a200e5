"""Monte Carlo pipeline: features, test error, pencils, diagnostics."""

import math

import numpy as np
import pytest

from rfequiv import (
    Activation,
    Dataset,
    KernelSet,
    RFConfig,
    anisotropic_gap,
    apply_activation,
    build_pseudoresolvent,
    empirical_test_error,
    estimate_delta_gaussianity,
    estimate_kernels,
    gaussian_surrogate_run,
    rf_solution_matrix,
    run_replicates,
    sample_features,
    synthetic_regression,
)
from rfequiv.sim import _pencil_defect

from conftest import dense_pencil, dense_pseudoresolvent, unit_row_dataset

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


def test_report_csv_shape():
    ds = synthetic_regression(10, 5, 6, 0.2, seed=7)
    cfg = RFConfig(d=8, delta=0.4, n=10, seed=7)
    k = estimate_kernels(ds, ERF, IDENTITY, 10, 400, seed=2)
    rep = run_replicates(ds, ERF, IDENTITY, cfg, reps=4, kernels=k)
    lines = rep.to_csv_text().splitlines()
    assert lines[0] == "replicate,error"
    assert len(lines) == 5


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
    pr = build_pseudoresolvent(np.zeros((3, 2)), np.zeros((2, 2)), delta, 0.0)
    n, d, t = pr.dims
    assert (n, d, t) == (3, 2, 2)
    assert np.allclose(pr.value[:3, :3], np.eye(3) / delta, atol=1e-12)
    assert np.count_nonzero(np.round(pr.value[n + d:n + d + t, :n], 12)) == 0


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
    got = build_pseudoresolvent(A, Ahat, delta, z).value
    want = dense_pseudoresolvent(A, Ahat, delta, z)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("dims, z", [((5, 9, 4), 1j), ((12, 5, 4), 0.0),
                                     ((6, 4, 1), 0.2 + 0.8j)])
def test_blockwise_defect_equals_the_dense_defect(dims, z):
    # X is no inverse, so every entry of (L - z*Lambda) X - I counts
    A, Ahat = _features(*dims, seed=3)
    pr = build_pseudoresolvent(A, Ahat, 0.3, z)
    rng = np.random.default_rng(4)
    ell = pr.L.shape[0]
    X = rng.standard_normal((ell, ell)) + 1j * rng.standard_normal((ell, ell))
    lam = np.zeros(ell)
    lam[:dims[0] + dims[1]] = 1.0
    dense = np.linalg.norm((pr.L - z * np.diag(lam)) @ X - np.eye(ell))
    assert _pencil_defect(pr.L, z, X, dims) == pytest.approx(dense, rel=1e-12)
    assert np.array_equal(pr.L - z * np.diag(lam),
                          dense_pencil(A, Ahat, 0.3, z))


def test_pseudoresolvent_direct_residual():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((4, 3)) / 2
    ah = rng.standard_normal((2, 3)) / 2
    pr = build_pseudoresolvent(a, ah, 0.5, 1j)
    n, d, t = pr.dims
    lam = np.zeros(pr.L.shape[0])
    lam[:n + d] = 1.0
    defect = (pr.L - 1j * np.diag(lam)) @ pr.value - np.eye(pr.L.shape[0])
    assert np.linalg.norm(defect, 2) <= 1e-9


def test_pseudoresolvent_block31_is_the_ridge_hat_matrix():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 4)) / np.sqrt(5)
    ah = rng.standard_normal((3, 4)) / np.sqrt(5)
    delta = 0.4
    pr = build_pseudoresolvent(a, ah, delta, 0.0)
    n, d, t = pr.dims
    want = ah @ a.T @ np.linalg.inv(a @ a.T + delta * np.eye(n))
    got = pr.value[n + d:n + d + t, :n]
    assert np.linalg.norm(got - want, 2) <= 1e-8


def test_pseudoresolvent_route_reproduces_test_error():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((6, 5)) / np.sqrt(6)
    ah = rng.standard_normal((4, 5)) / np.sqrt(6)
    y = rng.standard_normal(6)
    yhat = rng.standard_normal(4)
    delta = 0.6
    pr = build_pseudoresolvent(a, ah, delta, 0.0)
    n, d, t = pr.dims
    pred = pr.value[n + d:n + d + t, :n].real @ y
    route = float(np.sum((yhat - pred) ** 2))
    direct = empirical_test_error(a, ah, y, yhat, delta)
    assert route == pytest.approx(direct, rel=1e-8)


def test_regularized_resolvent_distance_bound():
    # || (L - z Lam - i tau)^{-1} - (L - z Lam)^{-1} || <= tau ||(L - z Lam)^{-1}||^2
    rng = np.random.default_rng(9)
    for _ in range(4):
        a = rng.standard_normal((4, 3)) / 2
        ah = rng.standard_normal((3, 3)) / 2
        pr = build_pseudoresolvent(a, ah, 0.5, 1j)
        ell = pr.L.shape[0]
        n, d, t = pr.dims
        lam = np.zeros(ell)
        lam[:n + d] = 1.0
        base = pr.L - 1j * np.diag(lam)
        norm_sq = np.linalg.norm(pr.value, 2) ** 2
        for tau in (1e-1, 1e-3):
            shifted = np.linalg.inv(base - 1j * tau * np.eye(ell))
            gap = np.linalg.norm(shifted - pr.value, 2)
            assert gap <= tau * norm_sq * (1 + 1e-10)


def test_anisotropic_gap_rank_one_probe():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((4, 3)) / 2
    ah = rng.standard_normal((2, 3)) / 2
    pr = build_pseudoresolvent(a, ah, 0.5, 1j)
    ell = pr.L.shape[0]
    m_theory = np.zeros((ell, ell), dtype=complex)
    assert anisotropic_gap(pr, m_theory, np.zeros((ell, ell))) == 0.0
    e1 = np.zeros((ell, ell))
    e1[0, 0] = 1.0
    assert anisotropic_gap(pr, m_theory, e1) == pytest.approx(
        abs(pr.value[0, 0]))


# ---------------------------------------------------------------------------
# Gaussianity diagnostic
# ---------------------------------------------------------------------------

def test_delta_gaussianity_is_deterministic_and_counts_pairs():
    ds = synthetic_regression(10, 5, 6, 0.3, seed=2)
    cfg = RFConfig(d=6, delta=0.4, n=10, seed=2)
    a = estimate_delta_gaussianity(ds, IDENTITY, IDENTITY, cfg, 1j, 0.1,
                                   reps=10, seed=4)
    b = estimate_delta_gaussianity(ds, IDENTITY, IDENTITY, cfg, 1j, 0.1,
                                   reps=10, seed=4)
    assert a.value == b.value and a.standard_error == b.standard_error
    assert a.pairs == 5


def test_delta_gaussianity_single_pair_has_no_spread_estimate():
    ds = synthetic_regression(8, 4, 5, 0.3, seed=1)
    cfg = RFConfig(d=5, delta=0.4, n=8, seed=1)
    dg = estimate_delta_gaussianity(ds, IDENTITY, IDENTITY, cfg, 1j, 0.1,
                                    reps=2, seed=3)
    assert dg.pairs == 1
    assert math.isinf(dg.standard_error)


def test_delta_gaussianity_se_shrinks_like_inverse_sqrt_reps():
    ds = synthetic_regression(50, 25, 40, 0.5, seed=9)
    cfg = RFConfig(d=40, delta=0.2, n=50, seed=9)
    reps_list = [8, 16, 32, 64]
    ses = [
        estimate_delta_gaussianity(ds, IDENTITY, IDENTITY, cfg, 1j, 0.1,
                                   reps, seed=21).standard_error
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
                                            cfg, 1j, 0.1, reps=4000,
                                            seed=seed)
            vals[name] = dg.value
        assert vals["sign"] > 1.5 * vals["identity"]


# ---------------------------------------------------------------------------
# Gaussian surrogate
# ---------------------------------------------------------------------------

def test_surrogate_degenerate_covariance_pins_every_replicate():
    k = KernelSet(np.eye(3), np.zeros((3, 2)), np.zeros((2, 3)),
                  np.zeros((2, 2)), 10)
    cfg = RFConfig(d=5, delta=0.4, n=3, seed=6)
    yhat = np.array([1.5, -0.5])
    rep = gaussian_surrogate_run(k, np.ones(3), yhat, cfg, reps=4, seed=6)
    assert np.allclose(rep.replicate_errors, float(yhat @ yhat), rtol=1e-12)
    assert rep.config.get("surrogate") is True


def test_surrogate_reproducible():
    k = KernelSet(np.eye(3), np.zeros((3, 2)), np.zeros((2, 3)),
                  0.5 * np.eye(2), 10)
    cfg = RFConfig(d=5, delta=0.4, n=3, seed=6)
    y, yhat = np.ones(3), np.array([1.0, 2.0])
    r1 = gaussian_surrogate_run(k, y, yhat, cfg, reps=5, seed=9)
    r2 = gaussian_surrogate_run(k, y, yhat, cfg, reps=5, seed=9)
    assert np.array_equal(r1.replicate_errors, r2.replicate_errors)


def test_surrogate_rejects_indefinite_covariance():
    bad = KernelSet.__new__(KernelSet)
    object.__setattr__(bad, "K_aa", np.eye(2))
    object.__setattr__(bad, "K_ah", np.full((2, 2), 0.9))
    object.__setattr__(bad, "K_ha", np.full((2, 2), 0.9))
    object.__setattr__(bad, "K_hh", np.eye(2))
    object.__setattr__(bad, "samples", 1)
    cfg = RFConfig(d=4, delta=0.4, n=2, seed=0)
    with pytest.raises(ValueError):
        gaussian_surrogate_run(bad, np.ones(2), np.ones(2), cfg, reps=2,
                               seed=0)
