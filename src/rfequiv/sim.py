"""Monte Carlo simulation of the random-features model.

Draws actual feature matrices, measures the empirical ridge test error,
and provides the diagnostic objects the solver predictions are validated
against: the pseudo-resolvent of the sampled pencil, the anisotropic trace
gap, a Gaussianity discrepancy estimate, and a jointly-Gaussian surrogate
run with matching covariance.

The pseudo-resolvent ``(L - z*Lambda)^{-1}`` is never formed by a dense
ell x ell solve.  Every block is closed-form in the d x d matrix
``C = A^T A + (delta - z)(1 + z) I``, which one thin SVD of the train
features ``A`` diagonalizes for any ``z``; see :func:`build_pseudoresolvent`
for the blocks, the refusal rule for a numerically singular pencil, and
the defect check against the assembled pencil.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from . import equiv
from .kernels import default_samples, estimate_kernels
from .model import (_check_ridge, _check_z, _clamped_eigh, _parallel_map,
                    apply_activation, substream)
from .rdel import (_real_left, _rf_expectation, _rf_slices, _row_defect,
                   spectral_norm)

__all__ = [
    "DeltaGaussianity",
    "PseudoResolvent",
    "SimReport",
    "anisotropic_gap",
    "build_pseudoresolvent",
    "empirical_test_error",
    "estimate_delta_gaussianity",
    "gaussian_surrogate_run",
    "run_replicates",
    "sample_features",
]


@dataclass
class SimReport:
    """Per-replicate empirical errors with their theory comparison."""

    replicate_errors: np.ndarray
    mean: float
    std: float
    predicted: float
    rel_gap: float
    config: dict

    def to_report(self):
        """Report dict with the fixed serialization key order."""
        return {
            "config": self.config,
            "replicates": [float(e) for e in self.replicate_errors],
            "mean": self.mean,
            "std": self.std,
            "predicted": self.predicted,
            "rel_gap": self.rel_gap,
        }

    def to_csv_text(self):
        """One row per replicate, for external plotting."""
        lines = ["replicate,error"]
        lines.extend(
            f"{i},{format(float(e), '.17g')}"
            for i, e in enumerate(self.replicate_errors)
        )
        return "\n".join(lines) + "\n"


def _make_report(errors, predicted, config):
    errors = np.asarray([float(e) for e in errors], dtype=float)
    mean = float(errors.mean())
    std = float(errors.std(ddof=1)) if errors.size > 1 else 0.0
    predicted = float(predicted)
    gap = abs(mean - predicted)
    rel_gap = gap / predicted if predicted > 0 else gap
    return SimReport(
        replicate_errors=errors,
        mean=mean,
        std=std,
        predicted=predicted,
        rel_gap=rel_gap,
        config=dict(config),
    )


def _sample_features(ds, sigma, phi, d, n, rng):
    Z = rng.standard_normal((ds.n0, d))
    W = apply_activation(phi, Z)
    scale = 1.0 / math.sqrt(n)
    A = scale * apply_activation(sigma, ds.X @ W)
    Ahat = scale * apply_activation(sigma, ds.Xhat @ W)
    return A, Ahat


def sample_features(ds, sigma, phi, d, n, seed):
    """One draw of the feature matrices.

    A single weight matrix ``W = phi(Z)``, with ``Z`` i.i.d. standard
    normal of shape (n0, d), produces both blocks:

        A    = n^{-1/2} sigma(X W)       (n_train x d)
        Ahat = n^{-1/2} sigma(Xhat W)    (n_test x d)

    Deterministic given ``seed``.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    rng = substream(seed, "features")
    return _sample_features(ds, sigma, phi, d, n, rng)


def empirical_test_error(A, Ahat, y, yhat, delta):
    """``||yhat - Ahat A^T (A A^T + delta I)^{-1} y||^2``.

    The inner system is symmetric positive definite for ``delta > 0`` and
    is solved by Cholesky; no inverse is ever formed.
    """
    _check_ridge(delta)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    Ahat = np.atleast_2d(np.asarray(Ahat, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    yhat = np.asarray(yhat, dtype=float).ravel()
    G = A @ A.T + delta * np.eye(A.shape[0])
    c = cho_factor((G + G.T) / 2, lower=True)
    v = cho_solve(c, y)
    r = yhat - Ahat @ (A.T @ v)
    return float(r @ r)


def run_replicates(ds, sigma, phi, cfg, reps=30, kernels=None, workers=None):
    """Independent feature draws vs. the deterministic prediction.

    Parameters
    ----------
    ds : Dataset
    sigma, phi : Activation
    cfg : RFConfig
        Supplies d, delta, n, and the root seed; replicate ``i`` uses the
        substream (seed, "replicate", i), so the ensemble is reproducible
        and independent of worker count.
    reps : int
        Number of replicates (>= 1).
    kernels : KernelSet, optional
        Covariance blocks for the prediction; estimated afresh with the
        default sample budget when omitted.
    workers : int, optional
        Thread cap (defaults to the environment-controlled worker count).

    Returns
    -------
    SimReport
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if kernels is None:
        m = default_samples(ds.n_train, ds.n_test)
        kernels = estimate_kernels(ds, sigma, phi, cfg.n, m, cfg.seed)
    sol = equiv.build_equiv(kernels, ds.y, ds.yhat, cfg.d, cfg.delta)

    def one(i):
        rng = substream(cfg.seed, "replicate", i)
        A, Ahat = _sample_features(ds, sigma, phi, cfg.d, cfg.n, rng)
        return empirical_test_error(A, Ahat, ds.y, ds.yhat, cfg.delta)

    errors = list(_parallel_map(one, reps, workers))
    config = {
        "n_train": ds.n_train,
        "n_test": ds.n_test,
        "n0": ds.n0,
        "sigma": sigma.kind,
        "phi": phi.kind,
        "d": cfg.d,
        "delta": cfg.delta,
        "n": cfg.n,
        "seed": cfg.seed,
        "reps": reps,
        "kernel_samples": kernels.samples,
    }
    return _make_report(errors, sol.predicted_error, config)


# ---------------------------------------------------------------------------
# Sampled pencil and its pseudo-resolvent
# ---------------------------------------------------------------------------

def _assemble_linearization(A, Ahat, delta):
    """Symmetric pencil holding the feature matrices in its couplings."""
    dims = (A.shape[0], A.shape[1], Ahat.shape[0])
    s1, s2, _, s4 = _rf_slices(dims)
    L = _rf_expectation(dims, delta)
    L[s1, s2] = A
    L[s2, s1] = A.T
    L[s2, s4] = Ahat.T
    L[s4, s2] = Ahat
    return L


@dataclass
class PseudoResolvent:
    """``(L - z*Lambda)^{-1}`` of one sampled pencil, defect-verified."""

    L: np.ndarray
    z: complex
    value: np.ndarray
    dims: tuple


def _complement(Q):
    """``I - Q Q^T`` for orthonormal columns ``Q``, projected twice so that
    ``Q^T`` times it stays at rounding level."""
    P = np.eye(Q.shape[0]) - Q @ Q.T
    return P - Q @ (Q.T @ P)


def build_pseudoresolvent(A, Ahat, delta, z):
    """Assemble the pencil and invert it through one thin SVD of ``A``.

    ``z`` must be finite, and 0 (with ``delta > 0``) or in the open upper
    half-plane.  In the slot order (train n, width d, test t, test t), with
    ``a = delta - z``, ``b = a (1 + z)`` and the complex-symmetric d x d
    matrix ``C = A^T A + b I``, the inverse ``G`` has the blocks

        G22 = -a C^{-1}                 G21 = C^{-1} A^T = G12^T
        G11 = (I - A C^{-1} A^T) / a    G31 = Ahat G21 = G13^T
        G32 = Ahat G22 = G23^T          G33 = Ahat G22 Ahat^T
        G34 = G43 = -I

    and zeros in blocks (1,4), (2,4), (4,1), (4,2) and (4,4).  With the
    thin SVD ``A = U diag(s) V^T`` (r = min(n, d) columns) and
    ``g = 1 / (s^2 + b)``, these are evaluated without cancellation as

        G11 = (1 + z) U g U^T  +  (I - U U^T) / a         (second term if n > r)
        G21 = V (g s) U^T
        G22 = -a V g V^T  -  (I - V V^T) / (1 + z)        (second term if d > r)

    so every product is real except for complex diagonal scalings, and the
    route stays accurate as ``a -> 0`` whenever the pencil does.

    Since ``det(L - z*Lambda) = +-a^(n-r) (1+z)^(d-r) prod_j (s_j^2 + b)``,
    the pencil is refused with ``RuntimeError`` as numerically singular when
    the smallest modulus among these factors and the unit pivots of the
    test-slot couplings is at most machine epsilon times the largest; this
    happens before any division.  The result is then checked against the
    assembled pencil: ``||(L - z*Lambda) G - I||_F`` must be at most 1e-9,
    with the coupling and diagonal blocks read from ``L``.
    """
    z = _check_z(z)
    _check_ridge(delta)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    Ahat = np.atleast_2d(np.asarray(Ahat, dtype=float))
    if A.shape[1] != Ahat.shape[1]:
        raise ValueError("A and Ahat must share the width d")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(Ahat))):
        raise ValueError("A and Ahat must be finite")
    n, d = A.shape
    t = Ahat.shape[0]
    dims = (n, d, t)
    L = _assemble_linearization(A, Ahat, delta)
    a = delta - z
    U, sv, Vt = np.linalg.svd(A, full_matrices=False)
    r = sv.size
    c = sv ** 2 + a * (1.0 + z)
    factors = np.abs(np.concatenate([c, [1.0], [a] * (n > r), [1.0 + z] * (d > r)]))
    if factors.min() <= np.finfo(float).eps * factors.max():
        raise RuntimeError(
            f"pencil is numerically singular at z={z}, delta={delta:.3e}: "
            f"the factors of its determinant span {factors.min():.3e} to "
            f"{factors.max():.3e} in modulus"
        )
    g = 1.0 / c
    V = Vt.T
    What = Ahat @ V

    def scaled(X, w, Y):  # X diag(w) Y^T for real X and Y
        return _real_left(X, w[:, None] * Y.T)

    s1, s2, s3, s4 = _rf_slices(dims)
    ell = n + d + 2 * t
    value = np.zeros((ell, ell), dtype=complex)
    value[s1, s1] = scaled(U, (1.0 + z) * g, U)
    if n > r:
        value[s1, s1] += _complement(U) / a
    value[s2, s1] = scaled(V, g * sv, U)
    value[s3, s1] = scaled(What, g * sv, U)
    value[s2, s2] = scaled(V, -a * g, V)
    value[s3, s2] = scaled(What, -a * g, V)
    value[s3, s3] = scaled(What, -a * g, What)
    if d > r:
        P = _complement(V)
        N = Ahat @ P
        value[s2, s2] -= P / (1.0 + z)
        value[s3, s2] -= N / (1.0 + z)
        value[s3, s3] -= (N @ N.T) / (1.0 + z)
    value[s1, s2] = value[s2, s1].T
    value[s1, s3] = value[s3, s1].T
    value[s2, s3] = value[s3, s2].T
    value[s3, s4] = value[s4, s3] = -np.eye(t)
    defect = _pencil_defect(L, z, value, dims)
    if defect > 1e-9:
        raise RuntimeError(f"pseudo-resolvent defect {defect:.3e} exceeds 1e-9")
    return PseudoResolvent(L=L, z=z, value=value, dims=dims)


def _pencil_defect(L, z, X, dims):
    """``||(L - z*Lambda) X - I||_F``, one block row at a time.

    Reads the couplings ``L12, L21, L24, L42`` and the diagonals of the
    blocks ``L11, L22, L34, L43`` from ``L``; the other blocks of the
    pencil are zero by construction.
    """
    s1, s2, s3, s4 = _rf_slices(dims)
    X = np.ascontiguousarray(X, dtype=complex)

    def diag(i, j):
        return np.diagonal(L[i, j])[:, None]

    # one block row is alive at a time
    return math.sqrt(
        _row_defect(s1, (diag(s1, s1) - z) * X[s1] + _real_left(L[s1, s2], X[s2]))
        + _row_defect(s2, _real_left(L[s2, s1], X[s1])
                      + (diag(s2, s2) - z) * X[s2] + _real_left(L[s2, s4], X[s4]))
        + _row_defect(s3, diag(s3, s4) * X[s4])
        + _row_defect(s4, _real_left(L[s4, s2], X[s2]) + diag(s4, s3) * X[s3])
    )


def anisotropic_gap(pr, M_theory, U):
    """``|tr(U (pr.value - M_theory))|`` for a probe of nuclear norm <= 1.

    ``tr(U X) = sum_ij U_ij X_ji`` is accumulated over slabs of 64 rows of
    ``X``, each against a contiguous copy of the matching columns of ``U``,
    so no ell x ell temporary is formed.
    """
    U = np.asarray(U)
    X, M = np.asarray(pr.value), np.asarray(M_theory)
    total = 0j
    for r in range(0, U.shape[1], 64):
        Ut = np.ascontiguousarray(U[:, r:r + 64].T).ravel()
        total += Ut @ X[r:r + 64].ravel() - Ut @ M[r:r + 64].ravel()
    return float(abs(total))


# ---------------------------------------------------------------------------
# Gaussianity diagnostic
# ---------------------------------------------------------------------------

@dataclass
class DeltaGaussianity:
    """Monte Carlo estimate of the Gaussianity discrepancy norm.

    ``value`` is the spectral norm of the averaged discrepancy matrix;
    ``standard_error`` aggregates the per-pair Frobenius spread (infinite
    when only one pair is available).
    """

    value: float
    standard_error: float
    pairs: int


def estimate_delta_gaussianity(ds, sigma, phi, cfg, z, tau, reps, seed):
    """Estimate how far the sampled pencil is from a Gaussian one.

    For each replicate pair (L, L') the statistic

        (L - Ebar) R  +  (L' - Ebar) R (L' - Ebar) R,
        R = (L - z*Lambda - i*tau*I)^{-1}

    is averaged, with ``Ebar`` the mean of all sampled pencils; the
    expectation of this matrix vanishes exactly when the pencil entries are
    jointly Gaussian.  ``reps`` feature draws give ``reps // 2`` pairs.
    ``z`` must be finite with ``Im z >= 0`` and ``tau`` a positive finite
    real; draws and pairs run on the shared thread pool.

    Returns
    -------
    DeltaGaussianity
    """
    z = _check_z(z, regularized=True)
    _check_ridge(tau, name="tau")
    if reps < 2:
        raise ValueError("need at least two replicates to form a pair")
    pairs = reps // 2

    def draw(i):
        rng = substream(seed, "delta", i)
        A, Ahat = _sample_features(ds, sigma, phi, cfg.d, cfg.n, rng)
        return _assemble_linearization(A, Ahat, cfg.delta)

    mats = list(_parallel_map(draw, 2 * pairs))
    Ebar = sum(mats) / len(mats)
    ell = Ebar.shape[0]
    shift = np.zeros(ell, dtype=complex)
    shift[: ds.n_train + cfg.d] = z
    shift += 1j * tau
    diag = np.diag_indices(ell)

    def one_pair(i):
        L, Lt = mats[2 * i], mats[2 * i + 1]
        P = np.asarray(L, dtype=complex)
        P[diag] -= shift
        R = np.linalg.inv(P)
        X = _real_left(L - Ebar, R)
        Xt = _real_left(Lt - Ebar, R)
        return X + Xt @ Xt

    terms = list(_parallel_map(one_pair, pairs))
    T = sum(terms) / pairs
    value = spectral_norm(T)
    if pairs > 1:
        spread = sum(float(np.linalg.norm(Ti - T)) ** 2 for Ti in terms)
        se = math.sqrt(spread / (pairs * (pairs - 1)))
    else:
        se = math.inf
    return DeltaGaussianity(value=value, standard_error=se, pairs=pairs)


# ---------------------------------------------------------------------------
# Gaussian surrogate
# ---------------------------------------------------------------------------

def gaussian_surrogate_run(K, y, yhat, cfg, reps, seed):
    """Replicate run with surrogate features of matching covariance.

    Columns ``(a_j; ahat_j)`` are drawn jointly Gaussian with the joint
    kernel block matrix as covariance, through one symmetric PSD square
    root computed up front.  The report carries the same predicted value
    as the true-features run on the same kernels.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    y = np.asarray(y, dtype=float).ravel()
    yhat = np.asarray(yhat, dtype=float).ravel()
    w, V = _clamped_eigh(K.joint(), "joint kernel matrix")
    sqrtC = (V * np.sqrt(w)) @ V.T
    nt = K.n_train
    sol = equiv.build_equiv(K, y, yhat, cfg.d, cfg.delta)

    def one(i):
        rng = substream(seed, "surrogate", i)
        G = rng.standard_normal((nt + K.n_test, cfg.d))
        C = sqrtC @ G
        return empirical_test_error(C[:nt], C[nt:], y, yhat, cfg.delta)

    errors = list(_parallel_map(one, reps))
    config = {
        "surrogate": True,
        "n_train": K.n_train,
        "n_test": K.n_test,
        "d": cfg.d,
        "delta": cfg.delta,
        "n": cfg.n,
        "seed": seed,
        "reps": reps,
        "kernel_samples": K.samples,
    }
    return _make_report(errors, sol.predicted_error, config)
