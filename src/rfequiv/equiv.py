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
``M11`` is never formed.  One scalar solve serves every spectral parameter:
``nu = -(1 + z + sum_j lam_j / (delta - z - d nu lam_j))^{-1}`` is solved to
rounding by a safeguarded Newton loop in ``x = -1/nu``.  At ``z = 0`` it is
Newton's method on the degrees-of-freedom equation for the effective ridge
``kappa = delta x``, so ``alpha = -delta/kappa``, and ``denom`` is the slope
of the equation at the root.
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
_MAX_STEPS = 10_000


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


def _solve_nu(lam, d, delta, z):
    """``nu`` at ``z`` by a safeguarded Newton loop in ``x = -1/nu``.

    With ``mu_j = d lam_j / (delta - z)`` and ``r_j = 1 / (1 + mu_j / x)``
    over the m positive ``lam_j``, the scalar equation reads
    ``F(x) = x ((1 - m/d) + sum_j r_j / d) = 1 + z``, and
    ``F'(x) = (1 - m/d) + sum_j r_j (2 - r_j) / d``; neither cancels as
    ``mu_j / x`` grows when ``d >= m``, and nothing squares ``z``.  From
    ``x = 1 + z + sum_j lam_j / (delta - z)`` a Newton step is taken if it
    keeps ``Im x >= 0`` and lowers ``|F - 1 - z|``; otherwise the Picard step
    ``x <- 1 + z + sum_j mu_j r_j / d``, which maps the upper half-plane into
    itself, is.  At ``z = 0``, ``delta F(kappa/delta) = kappa (1 - sum_j
    lam_j / (kappa + d lam_j))`` is the convex degrees-of-freedom function of
    the effective ridge ``kappa = delta x``, and every Newton step is taken.
    The loop ends once ``|F - 1 - z|`` is within 4 ulp of the size of the
    terms it is computed from, or the Newton step is at most 4 ulp of
    ``|x|``; past that point a step only moves ``x`` within its rounding
    error.  ``_MAX_STEPS`` steps raise :class:`NonConvergence`.  The
    arithmetic is real when ``z`` is.  Returns ``(x, g, F'(x), steps)``,
    ``g_j = 1 / (delta - z + d lam_j / x)`` the eigenvalues of ``N11``.
    """
    pos = lam[lam > 0]
    base = 1.0 - pos.size / d
    shift, rhs = delta - z, 1.0 + z
    mu = d * pos / shift

    def gap(x):
        r = 1.0 / (1.0 + mu / x)
        return r, x * (base + np.sum(r).item() / d) - rhs

    x = rhs + np.sum(pos / shift).item()
    r, f = gap(x)
    for steps in range(_MAX_STEPS):
        slope = base + np.sum(r * (2.0 - r)).item() / d
        step = f / slope
        size = abs(x) * (abs(base) + np.sum(np.abs(r)).item() / d) + abs(rhs)
        if (abs(f) <= 4 * np.spacing(size)
                or not abs(step) > 4 * np.spacing(abs(x))):  # or a NaN step
            break
        x_new = x - step
        r_new, f_new = gap(x_new)
        if not (x_new.imag >= 0 and abs(f_new) < abs(f)):
            x_new = rhs + np.sum(mu * r).item() / d
            r_new, f_new = gap(x_new)
        x, r, f = x_new, r_new, f_new
    else:
        raise NonConvergence(f"nu solve stalled at |F - 1 - z| {abs(f):.3e} "
                             f"after {_MAX_STEPS} steps")
    return x, 1.0 / (shift + d * lam / x), slope, steps


def build_equiv(K, y, yhat, d, delta):
    """Assemble the deterministic test-error prediction for one instance.

    Solves alpha at ``z = 0``, checks ``denom = F'(x)`` against the
    positivity guard and evaluates both terms in the eigenbasis of K_aa,
    where ``V^T K_ah`` is the only product of order n^2 t.
    ``effective_ridge`` is ``kappa = delta x = -delta/alpha``, ``iterations``
    counts Newton steps, and ``residual`` is
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
    x, g, denom, iterations = _solve_nu(w, d, delta, 0.0)
    alpha = -1.0 / x
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
        effective_ridge=delta * x,
        predicted_error=term_variance + term_bias,
        term_variance=term_variance,
        term_bias=term_bias,
        iterations=iterations,
        residual=abs(alpha - t) / abs(alpha),
    )


def solve_subdel(K_aa, d, delta, z):
    """Reduced two-block resolvent at spectral parameter ``z``.

    The two-block self-consistent equation has the train block
    ``N11 = ((delta - z) I - d nu K_aa)^{-1}`` and the scalar width block
    ``nu = -(1 + z + tr(K_aa N11))^{-1}``.  The train block is diagonal in
    the eigenbasis of K_aa, so the pair reduces to the scalar equation
    ``nu = -(1 + z + sum_j lam_j / (delta - z - d nu lam_j))^{-1}``.  ``z``
    must be finite, and 0 or in the open upper half-plane.  ``nu`` is solved
    to rounding at every ``z``, by the Newton loop of :func:`build_equiv`;
    at ``z = 0`` it is that function's alpha, bit for bit.  Returns
    ``(N11, nu)``, complex.  A solve that has not ended after 10 000 steps
    raises :class:`NonConvergence`.
    """
    z = _check_z(z)
    _check_ridge(delta, d)
    w, V = _clamped_eigh(K_aa)
    # real arithmetic on the axis, so that nu(0) is build_equiv's alpha
    x, g = _solve_nu(w, d, delta, z if z.imag else z.real)[:2]
    return np.asarray((V * g) @ V.T, dtype=complex), complex(-1.0 / x)


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
