"""Scalar fixed point, error prediction, solution blocks, two-block resolvent."""

import numpy as np
import pytest

from rfequiv import (
    DenominatorDegenerate,
    KernelSet,
    NonConvergence,
    build_equiv,
    kernel_ridge_error,
    rf_solution_matrix,
    solve_alpha,
    solve_subdel,
)

from conftest import dense_subdel, rand_psd


def bisect_alpha(K_aa, d, delta, tol=1e-14):
    """Independent root-finder for a + 1/(1 + sum_j lam_j/(delta - d a lam_j)).

    The function is continuous and changes sign on [-1, 0), so plain
    bisection brackets the unique root without using the fixed-point map.
    """
    lam = np.linalg.eigvalsh((K_aa + K_aa.T) / 2)

    def f(a):
        return a + 1.0 / (1.0 + np.sum(lam / (delta - d * a * lam)))

    lo, hi = -1.0, -1e-15
    flo = f(lo)
    if flo == 0:
        return lo
    assert flo * f(hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) * flo > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# solve_alpha
# ---------------------------------------------------------------------------

def test_alpha_zero_kernel_is_minus_one():
    sol = solve_alpha(np.zeros((3, 3)), 4, 0.7)
    assert sol.alpha == -1.0
    assert sol.residual <= 1e-13


def test_alpha_quadratic_instance_matches_bisection():
    sol = solve_alpha(np.eye(2), 2, 1.0)
    assert sol.alpha == pytest.approx(-0.5, abs=1e-10)
    assert sol.alpha == pytest.approx(bisect_alpha(np.eye(2), 2, 1.0), abs=1e-10)


def test_alpha_large_ridge_limit():
    rng = np.random.default_rng(0)
    K = rand_psd(rng, 6)
    sol = solve_alpha(K, 8, 1e9)
    assert abs(sol.alpha + 1.0) <= 1e-6


def test_alpha_is_start_independent():
    rng = np.random.default_rng(3)
    K = rand_psd(rng, 10)
    roots = [solve_alpha(K, 12, 0.3, alpha0=a0).alpha
             for a0 in (-1.0, -0.5, -1e-6)]
    assert max(roots) - min(roots) <= 1e-11


def test_alpha_random_instances_match_bisection():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(2, 25))
        K = rand_psd(rng, n)
        d = int(rng.integers(1, 40))
        delta = float(rng.uniform(0.01, 10.0))
        sol = solve_alpha(K, d, delta)
        assert -1.0 <= sol.alpha < 0.0
        assert sol.alpha == pytest.approx(bisect_alpha(K, d, delta), abs=1e-10)
        assert np.all(np.diff(sol.eigenvalues) <= 0)


def test_alpha_rejects_indefinite_kernel():
    bad = np.diag([1.0, -0.5])
    with pytest.raises(ValueError):
        solve_alpha(bad, 2, 1.0)


def test_alpha_nonconvergence_is_reported():
    with pytest.raises(NonConvergence):
        solve_alpha(np.eye(2), 2, 1.0, max_iter=3)


# ---------------------------------------------------------------------------
# build_equiv
# ---------------------------------------------------------------------------

def test_equiv_worked_instance(toy_kernels):
    y = np.array([1.0, 0.0])
    yhat = np.array([2.0])
    sol = build_equiv(toy_kernels, y, yhat, 2, 1.0)
    assert sol.alpha == pytest.approx(-0.5, abs=1e-10)
    assert np.allclose(sol.M11, 0.5 * np.eye(2), atol=1e-10)
    assert sol.denom == pytest.approx(0.75, abs=1e-10)
    assert sol.beta == pytest.approx(1 / 3, abs=1e-9)
    assert sol.term_variance == pytest.approx(1 / 6, abs=1e-9)
    assert sol.term_bias == pytest.approx(4.0, abs=1e-9)
    assert sol.predicted_error == pytest.approx(1 / 6 + 4.0, abs=1e-9)
    assert sol.effective_ridge == pytest.approx(2.0, abs=1e-9)


def test_equiv_zero_test_covariance_kills_variance_term(toy_kernels):
    ks = KernelSet(toy_kernels.K_aa, toy_kernels.K_ah, toy_kernels.K_ha,
                   np.zeros((1, 1)), 1)
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
    ks = KernelSet(np.eye(4), np.zeros((4, 1)), np.zeros((1, 4)), np.eye(1), 1)
    with pytest.raises(DenominatorDegenerate):
        build_equiv(ks, np.ones(4), np.zeros(1), 4, 1e-18, tol=1e-7)


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
    return KernelSet(np.eye(2), v, v.T.copy(), np.eye(1), 1)


def blocks_at_zero(ks, d, delta):
    """(M11, M22 scalar, M13, M31, M33) of the solution matrix at z = 0."""
    n, t = ks.n_train, ks.n_test
    M = rf_solution_matrix(ks, (n, d, t), delta, 0.0, tol=1e-13)
    s1, s3 = slice(0, n), slice(n + d, n + d + t)
    return (M[s1, s1], M[n, n], M[s1, s3], M[s3, s1], M[s3, s3])


def test_m0_decoupled_blocks(toy_kernels):
    alpha = solve_alpha(toy_kernels.K_aa, 2, 1.0).alpha
    _, _, M13, _, M33 = blocks_at_zero(toy_kernels, 2, 1.0)
    assert np.count_nonzero(M13) == 0
    assert np.allclose(M33, 2 * alpha * toy_kernels.K_hh, atol=1e-10)


def test_m0_coupling_block_by_substitution():
    ks = coupled_toy()
    alpha = solve_alpha(ks.K_aa, 2, 1.0).alpha  # still -1/2: same K_aa
    M11, _, M13, M31, M33 = blocks_at_zero(ks, 2, 1.0)
    assert np.allclose(M13, 0.5 * ks.K_ah, atol=1e-10)
    assert np.allclose(M31, M13.T, atol=1e-12)
    want33 = ((2 * alpha) ** 2 * ks.K_ha @ M11 @ ks.K_ah
              + 2 * alpha * ks.K_hh)
    assert np.allclose(M33, want33, atol=1e-10)


def test_m0_scalar_block_consistency(toy_kernels):
    alpha = solve_alpha(toy_kernels.K_aa, 2, 1.0).alpha
    M11, M22, _, _, _ = blocks_at_zero(toy_kernels, 2, 1.0)
    assert M22 == pytest.approx(alpha, abs=1e-12)
    # fixed point restated: tr(K_aa M11) = 1 gives -(1 + 1)^{-1} = alpha
    assert np.trace(toy_kernels.K_aa @ M11) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# solve_subdel (two-block resolvent)
# ---------------------------------------------------------------------------

def test_subdel_no_self_energy_is_direct_inverse():
    # K_aa = 0 turns both self-energy contractions off
    N11, nu = solve_subdel(np.zeros((2, 2)), 3, 0.7, 0.0)
    assert np.allclose(N11, np.eye(2) / 0.7, atol=1e-12)
    assert nu == pytest.approx(-1.0, abs=1e-12)


def test_subdel_matches_scalar_route_at_zero():
    tol = 1e-10
    N11, nu = solve_subdel(np.eye(2), 2, 1.0, 0.0, tol=tol)
    assert abs(nu - (-0.5)) <= 10 * tol
    assert np.linalg.norm(N11 - 0.5 * np.eye(2), 2) <= 10 * tol


def test_subdel_random_instances_match_scalar_route():
    rng = np.random.default_rng(14)
    for _ in range(5):
        n = int(rng.integers(2, 30))
        K = rand_psd(rng, n)
        d = int(rng.integers(2, 30))
        delta = float(rng.uniform(0.05, 3.0))
        a = solve_alpha(K, d, delta)
        N11, nu = solve_subdel(K, d, delta, 0.0)
        M11 = np.linalg.inv(delta * np.eye(n) - d * a.alpha * K)
        assert abs(nu - a.alpha) <= 1e-8
        assert np.linalg.norm(N11 - M11, 2) <= 1e-8


def test_subdel_resolvent_norm_bound_off_axis():
    N11, _ = solve_subdel(np.eye(2), 2, 1.0, 3j)
    assert np.linalg.norm(N11, 2) <= 1 / 3 + 1e-8


def test_subdel_keeps_upper_half_plane():
    rng = np.random.default_rng(8)
    K = rand_psd(rng, 12)
    N11, nu = solve_subdel(K, 9, 0.4, 1j)
    herm = (N11 - N11.conj().T) / 2j
    assert np.linalg.eigvalsh(herm).min() >= -1e-10
    assert nu.imag >= -1e-10


def test_subdel_matches_dense_oracle_off_axis():
    # both routes converged to 1e-12: near the real axis (2 + 0.01j) the
    # default 1e-10 leaves ~3e-9 of error in N11 on either route
    rng = np.random.default_rng(29)
    worst = 0.0
    for z in (1j, 0.2 + 0.8j, 3j, 2 + 0.01j):
        for _ in range(5):
            n = int(rng.integers(2, 40))
            K = rand_psd(rng, n)
            d = int(rng.integers(2, 65))
            delta = float(rng.uniform(0.05, 5.0))
            N11, nu = solve_subdel(K, d, delta, z, tol=1e-12)
            N11_o, nu_o = dense_subdel(K, d, delta, z, tol=1e-12)
            worst = max(worst, abs(nu - nu_o),
                        float(np.linalg.norm(N11 - N11_o, 2)))
    assert worst <= 1e-9


def test_subdel_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        solve_subdel(np.eye(2), 2, 1.0, -1j)


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
    from conftest import rand_kernelset

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
