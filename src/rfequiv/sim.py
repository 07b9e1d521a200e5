"""Monte Carlo simulation of the random-features model.

Draws actual feature matrices, measures the empirical ridge test error,
and provides the diagnostic objects the solver predictions are validated
against: the pseudo-resolvent of the sampled pencil with closed-form block
cross-checks, the anisotropic trace gap, a Gaussianity discrepancy
estimate, and a jointly-Gaussian surrogate run with matching covariance.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, lu_factor, lu_solve

from . import equiv
from .kernels import default_samples, estimate_kernels
from .model import _check_ridge, apply_activation, substream, worker_count
from .rdel import spectral_norm

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


def _parallel_map(fn, count, workers=None):
    """Map ``fn`` over ``range(count)``, results in index order (bit-stable)."""
    if workers is None:
        workers = worker_count()
    workers = max(1, min(int(workers), count))
    if workers == 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, range(count)))


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

    errors = _parallel_map(one, reps, workers)
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
    n, d = A.shape
    t = Ahat.shape[0]
    ell = n + d + 2 * t
    s1 = slice(0, n)
    s2 = slice(n, n + d)
    s3 = slice(n + d, n + d + t)
    s4 = slice(n + d + t, ell)
    L = np.zeros((ell, ell))
    L[s1, s1] = delta * np.eye(n)
    L[s1, s2] = A
    L[s2, s1] = A.T
    L[s2, s2] = -np.eye(d)
    L[s2, s4] = Ahat.T
    L[s4, s2] = Ahat
    L[s3, s4] = -np.eye(t)
    L[s4, s3] = -np.eye(t)
    return L


@dataclass
class PseudoResolvent:
    """``(L - z*Lambda)^{-1}`` of one sampled pencil, block-verified."""

    L: np.ndarray
    z: complex
    value: np.ndarray
    dims: tuple


def build_pseudoresolvent(A, Ahat, delta, z):
    """Assemble the pencil and invert it, cross-checking three blocks.

    ``z`` must be 0 (with ``delta > 0``) or lie in the open upper
    half-plane.  The inverse comes from one partial-pivot LU solve; blocks
    (1,1), (2,2) and (3,1) are then compared against their closed forms

        (1,1) = ((1+z)^{-1} A A^T + (delta - z) I)^{-1}
        (2,2) = -((1+z) I + (delta - z)^{-1} A^T A)^{-1}
        (3,1) = (1+z)^{-1} Ahat A^T (1,1)

    and a mismatch beyond 1e-8 (relative to the block scale) raises, since
    it can only come from an assembly bug.
    """
    z = complex(z)
    if z != 0 and not z.imag > 0:
        raise ValueError("z must be 0 or lie in the open upper half-plane")
    _check_ridge(delta)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    Ahat = np.atleast_2d(np.asarray(Ahat, dtype=float))
    if A.shape[1] != Ahat.shape[1]:
        raise ValueError("A and Ahat must share the width d")
    n, d = A.shape
    t = Ahat.shape[0]
    L = _assemble_linearization(A, Ahat, delta)
    ell = L.shape[0]
    P = np.asarray(L, dtype=complex)
    rows = np.arange(n + d)
    P[rows, rows] -= z
    lu, piv = lu_factor(P)
    value = lu_solve((lu, piv), np.eye(ell, dtype=complex))
    defect = np.linalg.norm(P @ value - np.eye(ell))
    if defect > 1e-9:
        raise RuntimeError(f"pseudo-resolvent defect {defect:.3e} exceeds 1e-9")
    _check_blocks(A, Ahat, delta, z, value, (n, d, t))
    return PseudoResolvent(L=L, z=z, value=value, dims=(n, d, t))


def _check_blocks(A, Ahat, delta, z, value, dims):
    n, d, t = dims
    s1 = slice(0, n)
    s2 = slice(n, n + d)
    s3 = slice(n + d, n + d + t)
    w = 1.0 / (1.0 + z)
    R = np.linalg.inv(w * (A @ A.T) + (delta - z) * np.eye(n))
    B22 = -np.linalg.inv((1.0 + z) * np.eye(d) + (A.T @ A) / (delta - z))
    B31 = w * (Ahat @ (A.T @ R))
    for name, got, want in (
        ("(1,1)", value[s1, s1], R),
        ("(2,2)", value[s2, s2], B22),
        ("(3,1)", value[s3, s1], B31),
    ):
        err = np.linalg.norm(got - want)
        if err > 1e-8 * max(1.0, np.linalg.norm(want)):
            raise RuntimeError(
                f"pseudo-resolvent block {name} mismatch {err:.3e}"
            )


def anisotropic_gap(pr, M_theory, U):
    """``|tr(U (pr.value - M_theory))|`` for a probe of nuclear norm <= 1."""
    D = np.asarray(pr.value) - np.asarray(M_theory)
    return float(abs(np.sum(np.asarray(U) * D.T)))


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


def estimate_delta_gaussianity(ds, sigma, phi, cfg, z, tau, reps, seed,
                               workers=None):
    """Estimate how far the sampled pencil is from a Gaussian one.

    For each replicate pair (L, L') the statistic

        (L - Ebar) R  +  (L' - Ebar) R (L' - Ebar) R,
        R = (L - z*Lambda - i*tau*I)^{-1}

    is averaged, with ``Ebar`` the mean of all sampled pencils; the
    expectation of this matrix vanishes exactly when the pencil entries are
    jointly Gaussian.  ``reps`` feature draws give ``reps // 2`` pairs.

    Returns
    -------
    DeltaGaussianity
    """
    z = complex(z)
    if tau <= 0:
        raise ValueError("tau must be positive")
    if reps < 2:
        raise ValueError("need at least two replicates to form a pair")
    pairs = reps // 2

    def draw(i):
        rng = substream(seed, "delta", i)
        A, Ahat = _sample_features(ds, sigma, phi, cfg.d, cfg.n, rng)
        return _assemble_linearization(A, Ahat, cfg.delta)

    mats = _parallel_map(draw, 2 * pairs, workers)
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
        X = (L - Ebar) @ R
        Xt = (Lt - Ebar) @ R
        return X + Xt @ Xt

    terms = _parallel_map(one_pair, pairs, workers)
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

def gaussian_surrogate_run(K, y, yhat, cfg, reps, seed, workers=None):
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
    joint = K.joint()
    w, V = np.linalg.eigh((joint + joint.T) / 2)
    lam_max = max(float(w[-1]), 0.0)
    if float(w[0]) < -1e-8 * max(lam_max, 1e-300):
        raise ValueError(
            f"joint kernel matrix is not PSD (min eigenvalue {w[0]:.3e})"
        )
    sqrtC = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T
    nt = K.n_train
    sol = equiv.build_equiv(K, y, yhat, cfg.d, cfg.delta)

    def one(i):
        rng = substream(seed, "surrogate", i)
        G = rng.standard_normal((nt + K.n_test, cfg.d))
        C = sqrtC @ G
        return empirical_test_error(C[:nt], C[nt:], y, yhat, cfg.delta)

    errors = _parallel_map(one, reps, workers)
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
