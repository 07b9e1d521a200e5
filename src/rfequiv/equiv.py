"""Scalar fixed point, the closed-form test-error prediction, and the
reduced two-block resolvent at any spectral parameter.

The central objects: the unique alpha in [-1, 0) solving
``alpha = -(1 + tr(K_aa M11))^{-1}`` for the matrix
``M11 = (delta I - d alpha K_aa)^{-1}``, the variance amplitude

    beta = alpha^2 tr(K_hh + d alpha K_ha M11 (I + delta M11) K_ah) / denom,
    denom = 1 - || sqrt(d) alpha K_aa^{1/2} M11 K_aa^{1/2} ||_F^2,

and the prediction ``d beta ||K_aa^{1/2} M11 y||^2 + ||d alpha K_ha M11 y + yhat||^2``.

Every solve goes through one eigendecomposition ``K_aa = V diag(lam) V^T``,
in which ``M11`` has eigenvalues ``g_j = 1 / (delta - d alpha lam_j)``, so
``M11`` is never formed.  At ``z = 0``, ``alpha = -delta/kappa`` for the
effective ridge ``kappa > 0`` that Newton's method finds as the root of the
degrees-of-freedom equation ``f(kappa) = kappa (1 - sum_j lam_j / (kappa + d lam_j)) = delta``,
and ``denom = f'(kappa)``.  At ``Im z > 0`` a fixed-point iteration solves
``nu = -(1 + z + sum_j lam_j / (delta - z - d nu lam_j))^{-1}``.
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


def _solve_alpha(lam, d, delta):
    """alpha at ``z = 0`` by Newton's method in ``kappa = -delta/alpha``.

    ``f(kappa) = kappa (1 - sum_j lam_j / (kappa + d lam_j))`` is convex, with
    ``f(0) = 0`` and ``f(kappa) >= kappa - sum_j lam_j``, so steps from
    ``delta + sum_j lam_j`` fall monotonically to the root of ``f = delta``.
    With ``r_j = kappa / (kappa + d lam_j)`` over the m positive ``lam_j``,
    ``f / kappa = (1 - m/d) + sum_j r_j / d`` and ``f' = 1 - d sum_j (lam_j /
    (kappa + d lam_j))^2 = (1 - m/d) + sum_j r_j (2 - r_j) / d`` do not cancel
    as ``kappa -> 0`` when ``d >= m``.  The first step of at most 4 ulp of
    ``kappa`` ends the loop untaken.  Returns ``(alpha, g, kappa, f'(kappa),
    steps)``, ``g_j = kappa / (delta (kappa + d lam_j))`` the eigenvalues of M11.
    """
    pos = lam[lam > 0]
    base = 1.0 - pos.size / d
    kappa, iterations = delta + float(np.sum(pos)), 0
    while True:
        r = kappa / (kappa + d * pos)
        denom = base + float(np.sum(r * (2.0 - r))) / d
        step = (kappa * (base + float(np.sum(r)) / d) - delta) / denom
        if not step > 4 * np.spacing(kappa):  # also ends on a NaN step
            break
        kappa -= step
        iterations += 1
    g = kappa / (delta * (kappa + d * lam))
    return -delta / kappa, g, kappa, denom, iterations


def _iterate(lam, d, delta, z, tol, max_iter=10_000):
    """``nu <- T(nu) = -(1 + z + sum_j lam_j / (delta - z - d nu lam_j))^{-1}``
    at ``Im z > 0`` from ``nu = 1j``, until the pencil defect
    ``sqrt(d) |nu - T(nu)| / |T(nu)|`` is at most ``tol``.  Returns ``nu``
    and the eigenvalues ``1 / (delta - z - d nu lam_j)`` of ``N11``.  An
    iterate below the real axis by more than 1e-10 raises ``RuntimeError``;
    ``max_iter`` updates short of ``tol`` raise :class:`NonConvergence`.
    """
    shift, one_z, nu = delta - z, 1.0 + z, 1j
    residual = np.inf
    for _ in range(max_iter):
        t = -1.0 / (one_z + np.sum(lam / (shift - d * nu * lam)).item())
        residual = abs(nu - t) * (d ** 0.5 / abs(t))
        if residual <= tol:
            return nu, 1.0 / (shift - d * nu * lam)
        if t.imag < -1e-10:
            raise RuntimeError(
                f"lost the upper-half-plane invariant (Im nu {t.imag:.3e})"
            )
        nu = t
    raise NonConvergence(
        f"nu iteration stalled at residual {residual:.3e} "
        f"after {max_iter} iterations"
    )


def build_equiv(K, y, yhat, d, delta):
    """Assemble the deterministic test-error prediction for one instance.

    Solves alpha, checks ``denom = f'(kappa)`` against the positivity guard
    and evaluates both terms in the eigenbasis of K_aa, where ``V^T K_ah`` is
    the only product of order n^2 t.  ``effective_ridge`` is ``kappa``,
    ``iterations`` counts Newton steps, and ``residual`` is
    ``|alpha - T(alpha)| / |alpha|`` for ``T(a) = -(1 + sum_j lam_j g_j)^{-1}``.

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
    alpha, g, kappa, denom, iterations = _solve_alpha(w, d, delta)
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
    t = -1.0 / (1.0 + float(np.sum(w * g)))  # T(alpha)

    return EquivSolution(
        alpha=alpha,
        beta=beta,
        denom=denom,
        effective_ridge=kappa,
        predicted_error=term_variance + term_bias,
        term_variance=term_variance,
        term_bias=term_bias,
        iterations=iterations,
        residual=abs(alpha - t) / abs(alpha),
    )


def solve_subdel(K_aa, d, delta, z, tol=1e-10):
    """Reduced two-block resolvent at spectral parameter ``z``.

    The two-block self-consistent equation has the train block
    ``N11 = ((delta - z) I - d nu K_aa)^{-1}`` and the scalar width block
    ``nu = -(1 + z + tr(K_aa N11))^{-1}``.  The train block is diagonal in
    the eigenbasis of K_aa, so the pair reduces to the scalar equation
    ``nu = -(1 + z + sum_j lam_j / (delta - z - d nu lam_j))^{-1}``.  ``z``
    must be finite, and 0 or in the open upper half-plane.  At ``z = 0``,
    ``nu`` is the alpha of :func:`build_equiv`, bit for bit, and ``tol`` is
    unused.  Otherwise the iteration stops once the pencil defect
    ``||(E - S(M) - z*Lambda)M - I||_F`` of the ``M`` that
    :func:`rfequiv.rdel.rf_solution_matrix` builds from ``nu`` is at most
    ``tol``: every block row of that ``M`` but the width row is exact by
    construction, and the width row gives ``sqrt(d) |nu - T(nu)| / |T(nu)|``.
    Returns ``(N11, nu)``, complex.  Only ``Im z > 0`` can raise: 10 000
    updates short of ``tol`` raise :class:`NonConvergence`, and an iterate
    below the real axis by more than 1e-10 raises ``RuntimeError``.
    """
    z = _check_z(z)
    _check_ridge(delta, d)
    w, V = _clamped_eigh(K_aa)
    nu, g = (_solve_alpha(w, d, delta)[:2] if z == 0
             else _iterate(w, d, delta, z, tol))
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
