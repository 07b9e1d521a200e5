"""Scalar fixed point, error prediction, solution blocks, two-block resolvent."""

import numpy as np
import pytest

from rfequiv import (
    Activation,
    DenominatorDegenerate,
    KernelSet,
    NonConvergence,
    build_equiv,
    exact_kernels,
    kernel_ridge_error,
    equiv,
    rf_solution_matrix,
    solve_subdel,
    synthetic_regression,
)

from conftest import (caller_blas_threads, dense_equiv, dense_subdel,
                      equiv_alpha, mp_equiv, rand_kernelset, rand_psd,
                      rational_alpha, train_kernels)


# ---------------------------------------------------------------------------
# alpha, the fixed point build_equiv solves
# ---------------------------------------------------------------------------

def test_alpha_zero_kernel_is_minus_one():
    sol = equiv_alpha(np.zeros((3, 3)), 4, 0.7)
    assert sol.alpha == -1.0
    assert sol.residual <= 1e-13


def test_alpha_quadratic_instance_matches_bisection():
    sol = equiv_alpha(np.eye(2), 2, 1.0)
    assert sol.alpha == pytest.approx(-0.5, abs=1e-10)
    assert sol.alpha == pytest.approx(rational_alpha(np.eye(2), 2, 1.0),
                                      rel=1e-13, abs=0)


def test_alpha_large_ridge_limit():
    rng = np.random.default_rng(0)
    K = rand_psd(rng, 6)
    sol = equiv_alpha(K, 8, 1e9)
    assert abs(sol.alpha + 1.0) <= 1e-6


def test_alpha_random_instances_match_bisection():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(2, 25))
        K = rand_psd(rng, n)
        d = int(rng.integers(1, 40))
        delta = float(rng.uniform(0.01, 10.0))
        sol = equiv_alpha(K, d, delta)
        assert -1.0 <= sol.alpha < 0.0
        assert sol.alpha == pytest.approx(rational_alpha(K, d, delta),
                                          rel=1e-13, abs=0)


@pytest.mark.parametrize("delta", [1e-2, 1e-6, 1e-10, 1e-14])
@pytest.mark.parametrize("shape, d", [("d-below-n", 10), ("d-above-n", 60),
                                      ("identity-4", 4)])
def test_alpha_matches_rational_oracle_to_relative_tolerance(shape, d, delta):
    # alpha ~ -delta/kappa shrinks with delta when d < n; a relative
    # tolerance must hold at every size, and K_aa = I_4 at d = 4 is the
    # interpolation threshold, where kappa ~ 2 sqrt(delta)
    K = (np.eye(4) if shape == "identity-4"
         else rand_psd(np.random.default_rng(40), 40))
    want = rational_alpha(K, d, delta)
    sol = equiv_alpha(K, d, delta)
    assert sol.alpha == pytest.approx(want, rel=1e-13, abs=0)
    assert sol.effective_ridge == pytest.approx(-delta / want, rel=1e-13, abs=0)
    assert sol.residual <= 1e-13
    # solve_subdel at z = 0 is the same solve, bit for bit
    assert solve_subdel(train_kernels(K), d, delta, 0.0)[1] == sol.alpha


@pytest.mark.parametrize("d, delta", [(200, 0.1), (400, 1e-2)])
def test_subdel_nu_is_alpha_bit_for_bit_under_caller_blas_threads(d, delta):
    # from about 300 rows OpenBLAS rounds eigh by its thread count, so a set
    # factorises K_aa on one thread, whatever count the caller left and
    # whichever solve asks first: solve_subdel makes the basis of one set
    # at two caller threads, build_equiv that of a second at one
    ds = synthetic_regression(400, 100, 400, 0.5, 5)
    K = exact_kernels(ds, Activation("erf"), Activation("identity"), 400)
    blocks = (K.K_aa, K.K_ah, K.K_hh, K.samples)
    with caller_blas_threads(2):
        nu = solve_subdel(KernelSet(*blocks), d, delta, 0.0)[1]
    with caller_blas_threads(1):
        alpha = build_equiv(KernelSet(*blocks), ds.y, ds.yhat, d, delta).alpha
    assert nu == alpha


def test_alpha_rejects_indefinite_kernel():
    # the set refuses the kernel before the alpha solve could read it
    bad = np.diag([1.0, -0.5])
    with pytest.raises(ValueError, match="not PSD"):
        solve_subdel(train_kernels(bad), 2, 1.0, 0.0)


def test_alpha_nonconvergence_is_reported(monkeypatch):
    monkeypatch.setattr(equiv, "_MAX_STEPS", 3)
    with pytest.raises(NonConvergence):
        solve_subdel(train_kernels(np.eye(4)), 4, 0.3, 2 + 1e-3j)


# ---------------------------------------------------------------------------
# build_equiv
# ---------------------------------------------------------------------------

def test_equiv_worked_instance(toy_kernels):
    y = np.array([1.0, 0.0])
    yhat = np.array([2.0])
    sol = build_equiv(toy_kernels, y, yhat, 2, 1.0)
    assert sol.alpha == pytest.approx(-0.5, abs=1e-10)
    # M11 = I/2 gives y^T M11 K_aa M11 y = 1/4
    assert sol.term_variance == pytest.approx(2 * sol.beta / 4, abs=1e-10)
    assert sol.denom == pytest.approx(0.75, abs=1e-10)
    assert sol.beta == pytest.approx(1 / 3, abs=1e-9)
    assert sol.term_variance == pytest.approx(1 / 6, abs=1e-9)
    assert sol.term_bias == pytest.approx(4.0, abs=1e-9)
    assert sol.predicted_error == pytest.approx(1 / 6 + 4.0, abs=1e-9)
    assert sol.effective_ridge == pytest.approx(2.0, abs=1e-9)


def test_equiv_zero_test_covariance_kills_variance_term(toy_kernels):
    ks = KernelSet(toy_kernels.K_aa, toy_kernels.K_ah, np.zeros((1, 1)), 1)
    sol = build_equiv(ks, np.array([1.0, 0.0]), np.array([0.3]), 2, 1.0)
    assert sol.beta == 0.0
    assert sol.predicted_error == pytest.approx(0.3 ** 2, rel=1e-12)


def test_equiv_zero_train_labels(toy_kernels):
    sol = build_equiv(toy_kernels, np.zeros(2), np.array([0.3]), 2, 1.0)
    assert sol.term_variance == 0.0
    assert sol.predicted_error == pytest.approx(0.3 ** 2, rel=1e-12)


def test_equiv_prediction_decomposes(toy_kernels):
    sol = build_equiv(toy_kernels, np.array([1.0, 0.5]), np.array([-0.7]), 2, 1.0)
    assert sol.predicted_error == pytest.approx(sol.term_variance + sol.term_bias,
                                                rel=1e-12)


def test_equiv_degenerate_denominator_raises():
    ks = KernelSet(np.eye(4), np.zeros((4, 1)), np.eye(1), 1)
    with pytest.raises(DenominatorDegenerate):
        build_equiv(ks, np.ones(4), np.zeros(1), 4, 1e-18)


def _identity_kernels(rng, n, t, n0):
    """Exact identity-activation kernels of a Gaussian design with n0
    columns; K_aa has rank n0 when n > n0."""
    X = rng.standard_normal((n + t, n0))
    joint = X @ X.T / n
    return KernelSet(joint[:n, :n], joint[:n, n:], joint[n:, n:], 1)


@pytest.mark.parametrize("shape, d, delta", [
    ("coupled", 10, 0.1),             # d < n
    ("coupled", 45, 0.1),             # d > n
    ("coupled", 20, 1e-4),            # d = n, small ridge
    ("rank-deficient", 15, 0.1),      # n > n0
    ("rank-deficient", 40, 0.1),
])
def test_equiv_matches_dense_oracle(shape, d, delta):
    rng = np.random.default_rng(d)
    ks = (rand_kernelset(rng, 20, 7) if shape == "coupled"
          else _identity_kernels(rng, 30, 6, 8))
    y = rng.standard_normal(ks.n_train)
    yhat = rng.standard_normal(ks.n_test)
    sol = build_equiv(ks, y, yhat, d, delta)
    want = dense_equiv(ks, y, yhat, d, delta, sol.alpha)
    rel = dict.fromkeys(want, 1e-12)
    if shape == "rank-deficient":
        # the test features lie in the span of the train features, so the
        # two terms of beta cancel to below 1e-3 of their size; beta and
        # the variance term are compared at the size of those terms
        size = sol.alpha ** 2 * np.trace(ks.K_hh) / sol.denom
        rel["beta"] = rel["term_variance"] = 1e-12 * size / sol.beta
    for name, value in want.items():
        assert getattr(sol, name) == pytest.approx(value, rel=rel[name], abs=0), name


@pytest.mark.parametrize("seed", [0, 1])
def test_equiv_matches_extended_precision_oracle(seed):
    # n = 30 > n0 = 8 puts the test features in the span of the train
    # features, and at d = 15, delta = 1e-4 the two terms of beta cancel to
    # about 1e-9 of their size, below what dense_equiv resolves; beta is
    # checked against the same formulas in 60-digit arithmetic instead
    rng = np.random.default_rng(seed)
    ks = _identity_kernels(rng, 30, 6, 8)
    y = rng.standard_normal(ks.n_train)
    yhat = rng.standard_normal(ks.n_test)
    d, delta = 15, 1e-4
    sol = build_equiv(ks, y, yhat, d, delta)
    want = mp_equiv(ks, y, yhat, d, delta)
    # rounding leaves the n - n0 = 22 null eigenvalues of the stored K_aa at
    # up to eps ||K_aa|| either side of 0, and each moves alpha by about
    # its size over delta, so the blocks fix alpha to that much
    null = 22 * np.finfo(float).eps * np.linalg.norm(ks.K_aa, 2) / delta
    rel = {"alpha": 1e-13 + null, "beta": 1e-5, "term_variance": 1e-5,
           "term_bias": 1e-10, "predicted_error": 1e-10}
    for name, value in want.items():
        assert getattr(sol, name) == pytest.approx(value, rel=rel[name], abs=0), name


def test_equiv_report_key_order(toy_kernels):
    sol = build_equiv(toy_kernels, np.array([1.0, 0.0]), np.array([0.0]), 2, 1.0)
    assert list(sol.to_report()) == [
        "alpha", "beta", "denom", "effective_ridge", "predicted_error",
        "term_variance", "term_bias", "iterations", "residual",
    ]


# ---------------------------------------------------------------------------
# solution blocks at z = 0
# ---------------------------------------------------------------------------

def coupled_toy():
    v = np.array([[0.3], [0.1]])
    return KernelSet(np.eye(2), v, np.eye(1), 1)


def blocks_at_zero(ks, d, delta):
    """(M11, M22 scalar, M13, M31, M33) of the solution matrix at z = 0."""
    n, t = ks.n_train, ks.n_test
    M = rf_solution_matrix(ks, (n, d, t), delta, 0.0)
    s1, s3 = slice(0, n), slice(n + d, n + d + t)
    return (M[s1, s1], M[n, n], M[s1, s3], M[s3, s1], M[s3, s3])


def test_m0_decoupled_blocks(toy_kernels):
    alpha = equiv_alpha(toy_kernels.K_aa, 2, 1.0).alpha
    _, _, M13, _, M33 = blocks_at_zero(toy_kernels, 2, 1.0)
    assert np.count_nonzero(M13) == 0
    assert np.allclose(M33, 2 * alpha * toy_kernels.K_hh, atol=1e-10)


def test_m0_coupling_block_by_substitution():
    ks = coupled_toy()
    alpha = equiv_alpha(ks.K_aa, 2, 1.0).alpha  # still -1/2: same K_aa
    M11, _, M13, M31, M33 = blocks_at_zero(ks, 2, 1.0)
    assert np.allclose(M13, 0.5 * ks.K_ah, atol=1e-10)
    assert np.allclose(M31, M13.T, atol=1e-12)
    want33 = ((2 * alpha) ** 2 * ks.K_ha @ M11 @ ks.K_ah
              + 2 * alpha * ks.K_hh)
    assert np.allclose(M33, want33, atol=1e-10)


def test_m0_scalar_block_consistency(toy_kernels):
    alpha = equiv_alpha(toy_kernels.K_aa, 2, 1.0).alpha
    M11, M22, _, _, _ = blocks_at_zero(toy_kernels, 2, 1.0)
    assert M22 == pytest.approx(alpha, abs=1e-12)
    # fixed point restated: tr(K_aa M11) = 1 gives -(1 + 1)^{-1} = alpha
    assert np.trace(toy_kernels.K_aa @ M11) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# solve_subdel (two-block resolvent)
# ---------------------------------------------------------------------------

def test_subdel_no_self_energy_is_direct_inverse():
    # K_aa = 0 turns both self-energy contractions off
    N11, nu = solve_subdel(train_kernels(np.zeros((2, 2))), 3, 0.7, 0.0)
    assert np.allclose(N11, np.eye(2) / 0.7, atol=1e-12)
    assert nu == pytest.approx(-1.0, abs=1e-12)


def test_subdel_matches_scalar_route_at_zero():
    tol = 1e-10
    N11, nu = solve_subdel(train_kernels(np.eye(2)), 2, 1.0, 0.0)
    assert abs(nu - (-0.5)) <= 10 * tol
    assert np.linalg.norm(N11 - 0.5 * np.eye(2), 2) <= 10 * tol


def test_subdel_random_instances_match_scalar_route():
    rng = np.random.default_rng(14)
    for _ in range(5):
        n = int(rng.integers(2, 30))
        K = rand_psd(rng, n)
        d = int(rng.integers(2, 30))
        delta = float(rng.uniform(0.05, 3.0))
        a = equiv_alpha(K, d, delta)
        N11, nu = solve_subdel(train_kernels(K), d, delta, 0.0)
        M11 = np.linalg.inv(delta * np.eye(n) - d * a.alpha * K)
        assert abs(nu - a.alpha) <= 1e-8
        assert np.linalg.norm(N11 - M11, 2) <= 1e-8


def test_subdel_resolvent_norm_bound_off_axis():
    N11, _ = solve_subdel(train_kernels(np.eye(2)), 2, 1.0, 3j)
    assert np.linalg.norm(N11, 2) <= 1 / 3 + 1e-8


def test_subdel_keeps_upper_half_plane():
    rng = np.random.default_rng(8)
    K = rand_psd(rng, 12)
    N11, nu = solve_subdel(train_kernels(K), 9, 0.4, 1j)
    herm = (N11 - N11.conj().T) / 2j
    assert np.linalg.eigvalsh(herm).min() >= -1e-10
    assert nu.imag >= -1e-10


def test_subdel_matches_dense_oracle_off_axis():
    # the oracle converged to 1e-12, the package to rounding: near the real
    # axis (2 + 0.01j) a 1e-10 stop leaves ~3e-9 of error in N11
    rng = np.random.default_rng(29)
    worst = 0.0
    for z in (1j, 0.2 + 0.8j, 3j, 2 + 0.01j):
        for _ in range(5):
            n = int(rng.integers(2, 40))
            K = rand_psd(rng, n)
            d = int(rng.integers(2, 65))
            delta = float(rng.uniform(0.05, 5.0))
            N11, nu = solve_subdel(train_kernels(K), d, delta, z)
            N11_o, nu_o = dense_subdel(K, d, delta, z, tol=1e-12)
            worst = max(worst, abs(nu - nu_o),
                        float(np.linalg.norm(N11 - N11_o, 2)))
    assert worst <= 1e-9


def test_subdel_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        solve_subdel(train_kernels(np.eye(2)), 2, 1.0, -1j)


# ---------------------------------------------------------------------------
# kernel ridge route
# ---------------------------------------------------------------------------

def test_ridge_error_zero_coupling_is_target_norm(toy_kernels):
    v = kernel_ridge_error(toy_kernels, np.array([1.0, 0.0]), np.array([0.7]),
                           2, 2.0)
    assert v == pytest.approx(0.49, rel=1e-12)


def test_ridge_error_matches_bias_term_on_worked_instance():
    ks = coupled_toy()
    y = np.array([1.0, -0.5])
    yhat = np.array([0.8])
    sol = build_equiv(ks, y, yhat, 2, 1.0)
    v = kernel_ridge_error(ks, y, yhat, 2, -1.0 / sol.alpha)
    assert v == pytest.approx(sol.term_bias, rel=1e-10)


def test_ridge_error_matches_bias_term_on_random_instances():
    rng = np.random.default_rng(77)
    for _ in range(5):
        n = int(rng.integers(2, 20))
        t = int(rng.integers(1, 12))
        ks = rand_kernelset(rng, n, t)
        y = rng.standard_normal(n)
        yhat = rng.standard_normal(t)
        d = int(rng.integers(2, 30))
        delta = float(rng.uniform(0.05, 2.0))
        sol = build_equiv(ks, y, yhat, d, delta)
        v = kernel_ridge_error(ks, y, yhat, d, -delta / sol.alpha)
        assert v == pytest.approx(sol.term_bias, rel=1e-9)
        assert sol.effective_ridge >= delta


def test_ridge_error_huge_ridge_limit(toy_kernels):
    yhat = np.array([0.7])
    v = kernel_ridge_error(coupled_toy(), np.array([1.0, 0.0]), yhat, 2, 1e12)
    assert v == pytest.approx(0.49, rel=1e-9)


def test_ridge_error_rejects_nonpositive_ridge(toy_kernels):
    with pytest.raises(ValueError):
        kernel_ridge_error(toy_kernels, np.array([1.0, 0.0]), np.array([0.7]),
                           2, 0.0)
