"""Scalar fixed point, the closed-form test-error prediction, and the
reduced two-block resolvent at any spectral parameter.

The central objects: the unique alpha in [-1, 0) solving

    alpha = -(1 + tr(K_aa (delta I - d alpha K_aa)^{-1}))^{-1},

the matrix ``M11 = (delta I - d alpha K_aa)^{-1}``, the variance amplitude

    beta = alpha^2 tr(K_hh + d alpha K_ha M11 (I + delta M11) K_ah) / denom,
    denom = 1 - || sqrt(d) alpha K_aa^{1/2} M11 K_aa^{1/2} ||_F^2,

and the prediction ``d beta ||K_aa^{1/2} M11 y||^2 + ||d alpha K_ha M11 y + yhat||^2``.

Every solve goes through one eigendecomposition of ``K_aa`` and one scalar
iteration, ``nu <- -(1 + z + sum_j lam_j / (delta - z - d nu lam_j))^{-1}``;
at ``z = 0`` its fixed point is alpha.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .model import NonConvergence, _check_ridge, _check_symmetric

__all__ = [
    "AlphaSolution",
    "DENOM_GUARD",
    "DenominatorDegenerate",
    "EquivSolution",
    "build_equiv",
    "kernel_ridge_error",
    "solve_alpha",
    "solve_subdel",
]

DENOM_GUARD = 1e-8
_EIG_CLAMP_REL = 1e-8


class DenominatorDegenerate(RuntimeError):
    """The variance-series denominator fell to or below the positivity guard."""


@dataclass
class AlphaSolution:
    """Converged scalar fixed point together with the spectrum it used."""

    alpha: float
    iterations: int
    residual: float
    eigenvalues: np.ndarray  # spectrum of K_aa, descending


@dataclass
class EquivSolution:
    """Prediction of the test error and every intermediate the formula uses."""

    alpha: float
    M11: np.ndarray
    beta: float
    denom: float
    effective_ridge: float
    predicted_error: float
    term_variance: float
    term_bias: float
    iterations: int
    residual: float

    def to_report(self):
        """Report dict with the fixed serialization key order."""
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "denom": self.denom,
            "effective_ridge": self.effective_ridge,
            "predicted_error": self.predicted_error,
            "term_variance": self.term_variance,
            "term_bias": self.term_bias,
            "iterations": self.iterations,
            "residual": self.residual,
        }


def _clamped_eigh(K):
    """Eigendecomposition of a symmetric PSD matrix with a tolerance for
    Monte Carlo round-off: eigenvalues in [-1e-8 * lam_max, 0) are clamped to
    zero, anything below that is an error."""
    K = np.atleast_2d(np.asarray(K, dtype=float))
    if K.shape[0] != K.shape[1]:
        raise ValueError("K_aa must be square")
    _check_symmetric(K, "K_aa")
    w, V = np.linalg.eigh((K + K.T) / 2)
    lam_max = max(float(w[-1]), 0.0)
    floor = -_EIG_CLAMP_REL * lam_max
    if float(w[0]) < floor:
        raise ValueError(
            f"negative eigenvalue {w[0]:.6e} below the clamp floor {floor:.6e}"
        )
    return np.clip(w, 0.0, None), V


def _iterate(lam, d, delta, z, nu, tol, max_iter):
    """The one scalar fixed-point iteration behind every solve.

    Iterates ``nu <- T(nu) = -(1 + z + sum_j lam_j / (delta - z - d nu lam_j))^{-1}``
    over the eigenvalues ``lam`` of K_aa and stops when
    ``|nu - T(nu)| <= tol``.  With ``z = 0.0`` and a real start everything
    stays real and the fixed point is alpha (delta - d nu lam_j >= delta > 0
    while nu <= 0).  With ``Im z > 0`` the iterates must stay in the closed
    upper half-plane; leaving it by more than 1e-10 raises ``RuntimeError``.

    Returns ``(nu, iterations, residual)``.
    """
    shift, one_z = delta - z, 1.0 + z
    residual = np.inf
    for it in range(max_iter):
        t = -1.0 / (one_z + np.sum(lam / (shift - d * nu * lam)).item())
        residual = abs(nu - t)
        if residual <= tol:
            return nu, it, residual
        if t.imag < -1e-10:
            raise RuntimeError(
                f"lost the upper-half-plane invariant (Im nu {t.imag:.3e})"
            )
        nu = t
    name = "nu" if z else "alpha"
    raise NonConvergence(
        f"{name} iteration stalled at residual {residual:.3e} "
        f"after {max_iter} iterations"
    )


def solve_alpha(K_aa, d, delta, tol=1e-13, max_iter=100_000, alpha0=-1.0):
    """Solve the scalar fixed point by iterating in eigenvalue form.

    One symmetric eigendecomposition up front turns each update into a
    scalar sum, alpha <- -(1 + sum_j lam_j / (delta - d alpha lam_j))^{-1}.
    The iteration starts at ``alpha0`` (default -1, which keeps all iterates
    inside [-1, 0)) and stops when |alpha - T(alpha)| <= tol.

    Returns
    -------
    AlphaSolution

    Raises
    ------
    NonConvergence
        If the budget of ``max_iter`` updates is exhausted.
    ValueError
        If ``K_aa`` has an eigenvalue below -1e-8 * lam_max.
    """
    _check_ridge(delta, d)
    if alpha0 > 0:
        raise ValueError("alpha0 must be <= 0")
    w, _ = _clamped_eigh(K_aa)
    alpha, iterations, residual = _iterate(w, d, delta, 0.0, float(alpha0),
                                           tol, max_iter)
    return AlphaSolution(alpha, iterations, residual, w[::-1].copy())


def build_equiv(K, y, yhat, d, delta, tol=1e-13):
    """Assemble the deterministic test-error prediction for one instance.

    Solves alpha, forms ``M11``, checks the variance-series denominator
    against the positivity guard, and evaluates both prediction terms.

    Raises
    ------
    DenominatorDegenerate
        If denom <= 1e-8, which signals inputs outside the regime where the
        prediction is meaningful (e.g. near-interpolation with tiny ridge).
    """
    y = np.asarray(y, dtype=float).ravel()
    yhat = np.asarray(yhat, dtype=float).ravel()
    if y.shape[0] != K.n_train:
        raise ValueError("y length must equal the K_aa dimension")
    if yhat.shape[0] != K.n_test:
        raise ValueError("yhat length must equal the K_hh dimension")
    _check_ridge(delta, d)

    w, V = _clamped_eigh(K.K_aa)
    alpha, iterations, residual = _iterate(w, d, delta, 0.0, -1.0, tol, 100_000)

    g = 1.0 / (delta - d * alpha * w)  # eigenvalues of M11
    M11 = (V * g) @ V.T
    M11 = (M11 + M11.T) / 2

    denom = 1.0 - d * alpha ** 2 * float(np.sum((w * g) ** 2))
    if denom <= DENOM_GUARD:
        raise DenominatorDegenerate(
            f"variance-series denominator {denom:.6e} <= {DENOM_GUARD:g}"
        )

    P = M11 + delta * (M11 @ M11)  # M11 (I + delta M11)
    cross = float(np.sum(K.K_ah * (P @ K.K_ah)))  # tr(K_ha P K_ah)
    beta = alpha ** 2 * (float(np.trace(K.K_hh)) + d * alpha * cross) / denom

    My = M11 @ y
    term_variance = d * beta * float(My @ (K.K_aa @ My))
    resid = d * alpha * (K.K_ha @ My) + yhat
    term_bias = float(resid @ resid)

    return EquivSolution(
        alpha=alpha,
        M11=M11,
        beta=beta,
        denom=denom,
        effective_ridge=-delta / alpha,
        predicted_error=term_variance + term_bias,
        term_variance=term_variance,
        term_bias=term_bias,
        iterations=iterations,
        residual=residual,
    )


def solve_subdel(K_aa, d, delta, z, tol=1e-10, max_iter=10_000):
    """Reduced two-block resolvent at spectral parameter ``z``.

    The two-block self-consistent equation has the train block
    ``N11 = ((delta - z) I - d nu K_aa)^{-1}`` and the scalar width block
    ``nu = -(1 + z + tr(K_aa N11))^{-1}``.  The train block is diagonal in
    the eigenbasis of K_aa, so the pair reduces to the scalar iteration
    ``nu <- -(1 + z + sum_j lam_j / (delta - z - d nu lam_j))^{-1}``.  ``z``
    must be 0 (real iteration from -1, whose fixed point is alpha) or lie
    in the open upper half-plane (iteration from 1j).  The stopping
    quantity is the scalar step ``|nu - T(nu)|``, and the iteration stops
    once it is at most ``tol``; ``N11 = V diag(1 / (delta - z - d nu lam)) V^T``
    is then formed from the returned ``nu``.  An error in ``nu`` reaches
    ``N11`` multiplied by up to ``d max_j lam_j |N11_j|^2``, so close to the
    real axis ``N11`` needs a smaller ``tol`` than ``nu`` does.

    Returns
    -------
    (N11, nu) : (complex ndarray, complex)

    Raises
    ------
    NonConvergence
        If the step never reaches ``tol`` within ``max_iter`` updates.
    RuntimeError
        If an iterate leaves the upper half-plane by more than 1e-10 while
        Im z > 0.
    """
    z = complex(z)
    if z != 0 and not z.imag > 0:
        raise ValueError("z must be 0 or lie in the open upper half-plane")
    _check_ridge(delta, d)
    w, V = _clamped_eigh(K_aa)
    if z == 0:
        z, nu0 = 0.0, -1.0
    else:
        nu0 = 1j
    nu, _, _ = _iterate(w, d, delta, z, nu0, tol, max_iter)
    g = 1.0 / (delta - z - d * nu * w)
    return np.asarray((V * g) @ V.T, dtype=complex), complex(nu)


def kernel_ridge_error(K, y, yhat, d, ridge):
    """Squared test error of kernel ridge regression on the kernel blocks:
    ``||yhat - d K_ha (d K_aa + ridge I)^{-1} y||^2``.

    With ridge equal to -delta/alpha this reproduces the bias term of
    :func:`build_equiv` exactly (implicit-regularization identity).
    """
    _check_ridge(ridge, name="ridge")
    y = np.asarray(y, dtype=float).ravel()
    yhat = np.asarray(yhat, dtype=float).ravel()
    G = d * K.K_aa + ridge * np.eye(K.n_train)
    c = cho_factor((G + G.T) / 2, lower=True)
    v = cho_solve(c, y)
    r = yhat - d * (K.K_ha @ v)
    return float(r @ r)
