"""Scalar fixed point, the closed-form test-error prediction, and the
reduced two-block resolvent at any spectral parameter.

The central objects: the unique alpha in [-1, 0) solving

    alpha = -(1 + tr(K_aa (delta I - d alpha K_aa)^{-1}))^{-1},

the matrix ``M11 = (delta I - d alpha K_aa)^{-1}``, the variance amplitude

    beta = alpha^2 tr(K_hh + d alpha K_ha M11 (I + delta M11) K_ah) / denom,
    denom = 1 - || sqrt(d) alpha K_aa^{1/2} M11 K_aa^{1/2} ||_F^2,

and the prediction ``d beta ||K_aa^{1/2} M11 y||^2 + ||d alpha K_ha M11 y + yhat||^2``.

Every solve goes through one eigendecomposition ``K_aa = V diag(lam) V^T``
and one scalar iteration,
``nu <- -(1 + z + sum_j lam_j / (delta - z - d nu lam_j))^{-1}``; at
``z = 0`` its fixed point is alpha.  ``M11`` is diagonal in that
eigenbasis, with eigenvalues ``g_j = 1 / (delta - d alpha lam_j)``, so the
prediction is evaluated there and ``M11`` is never formed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .model import (NonConvergence, _check_ridge, _check_z, _clamped_eigh,
                    _ridge_solve)

__all__ = [
    "DenominatorDegenerate",
    "EquivSolution",
    "build_equiv",
    "kernel_ridge_error",
    "solve_subdel",
]

_DENOM_GUARD = 1e-8


class DenominatorDegenerate(RuntimeError):
    """The variance-series denominator fell to or below the positivity guard."""


@dataclass
class EquivSolution:
    """Prediction of the test error and every intermediate the formula uses."""

    alpha: float
    beta: float
    denom: float
    effective_ridge: float
    predicted_error: float
    term_variance: float
    term_bias: float
    iterations: int
    residual: float

    def to_report(self):
        """Report dict; the field order is the serialization key order."""
        return asdict(self)


def _iterate(lam, d, delta, z, nu, tol, max_iter, pencil=False):
    """The one scalar fixed-point iteration behind every solve.

    Iterates ``nu <- T(nu) = -(1 + z + sum_j lam_j / (delta - z - d nu lam_j))^{-1}``
    over the eigenvalues ``lam`` of K_aa and stops when ``|nu - T(nu)|``, or
    with ``pencil`` the defect ``sqrt(d) |nu - T(nu)| / |T(nu)|`` of
    :func:`solve_subdel`, is at most ``tol``.  With ``z = 0.0`` and a real
    start everything stays real and the fixed point is alpha
    (delta - d nu lam_j >= delta > 0 while nu <= 0).  With ``Im z > 0`` the iterates must stay in the closed
    upper half-plane; leaving it by more than 1e-10 raises ``RuntimeError``.

    Returns ``(nu, iterations, residual)``.
    """
    shift, one_z = delta - z, 1.0 + z
    residual = np.inf
    for it in range(max_iter):
        t = -1.0 / (one_z + np.sum(lam / (shift - d * nu * lam)).item())
        residual = abs(nu - t)
        if pencil:
            residual *= d ** 0.5 / abs(t)
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


def build_equiv(K, y, yhat, d, delta, tol=1e-13):
    """Assemble the deterministic test-error prediction for one instance.

    Solves alpha, checks the variance-series denominator against the
    positivity guard, and evaluates both prediction terms in the eigenbasis
    of K_aa.  After the eigendecomposition no n x n matrix is formed:
    ``V^T K_ah`` is the only product of order n^2 t.

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
    denom = 1.0 - d * alpha ** 2 * float(np.sum((w * g) ** 2))
    if denom <= _DENOM_GUARD:
        raise DenominatorDegenerate(
            f"variance-series denominator {denom:.6e} <= {_DENOM_GUARD:g}"
        )

    W = V.T @ K.K_ah
    # tr(K_ha M11 (I + delta M11) K_ah) = sum_j (g_j + delta g_j^2) ||W_j||^2
    cross = float(np.sum((g + delta * g ** 2) * np.sum(W ** 2, axis=1)))
    beta = alpha ** 2 * (float(np.trace(K.K_hh)) + d * alpha * cross) / denom

    c = g * (V.T @ y)  # V^T M11 y
    term_variance = d * beta * float(np.sum(w * c ** 2))  # y^T M11 K_aa M11 y
    resid = d * alpha * (W.T @ c) + yhat
    term_bias = float(resid @ resid)

    return EquivSolution(
        alpha=alpha,
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
    must be finite, and 0 (real iteration from -1, whose fixed point is
    alpha) or in the open upper half-plane (iteration from 1j).  It stops
    once the pencil defect ``||(E - S(M) - z*Lambda)M - I||_F`` of the ``M``
    that :func:`rfequiv.rdel.rf_solution_matrix` builds from ``nu`` is at
    most ``tol``: every block row of that ``M`` but the width row is exact
    by construction, and the width row gives ``sqrt(d) |nu - T(nu)| / |T(nu)|``.
    ``N11 = V diag(1 / (delta - z - d nu lam)) V^T`` is formed from ``nu``.

    Returns
    -------
    (N11, nu) : (complex ndarray, complex)

    Raises
    ------
    NonConvergence
        If the defect never reaches ``tol`` within ``max_iter`` updates.
    RuntimeError
        If an iterate leaves the upper half-plane by more than 1e-10 while
        Im z > 0.
    """
    z = _check_z(z)
    _check_ridge(delta, d)
    w, V = _clamped_eigh(K_aa)
    if z == 0:
        z, nu0 = 0.0, -1.0
    else:
        nu0 = 1j
    nu, _, _ = _iterate(w, d, delta, z, nu0, tol, max_iter, pencil=True)
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
    v = _ridge_solve(d * K.K_aa, ridge, y)
    r = yhat - d * (K.K_ha @ v)
    return float(r @ r)
