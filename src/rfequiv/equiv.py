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
rounding by guarded Newton steps in ``x = -1/nu``; where a step is refused,
one loop climbs the heights ``4 Im z``, ``16 Im z``, ... and comes back
down, restarting each rung from the root of the one above.  At ``z = 0`` it
is Newton's method on the degrees-of-freedom equation for the effective
ridge ``kappa = delta x``, so ``alpha = -delta/kappa``, and ``denom`` is the
slope of the equation there.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .model import (_SINGLE_THREAD_NUMPY_BLAS, NonConvergence, _check_ridge,
                    _check_z, _clamped_eigh, _ridge_solve, _vector)

__all__ = [
    "DenominatorDegenerate",
    "EquivSolution",
    "build_equiv",
    "kernel_ridge_error",
    "solve_subdel",
]

_DENOM_GUARD = 1e-8
_MAX_STEPS = 1_000


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
    """``nu`` at ``z`` by guarded Newton steps in ``x = -1/nu``.

    With ``mu_j = d lam_j / (delta - z)`` and ``r_j = 1 / (1 + mu_j / x)``
    (0 at ``x = 0``) over the m positive ``lam_j``, the scalar equation reads
    ``F(x) = x ((1 - m/d) + sum_j r_j / d) = 1 + z``, and
    ``F'(x) = (1 - m/d) + sum_j r_j (2 - r_j) / d``; neither cancels as
    ``mu_j / x`` grows when ``d >= m``, and nothing squares ``z``.  From
    ``x = 1 + z + sum_j lam_j / (delta - z)`` a Newton step is taken if it
    keeps ``Im x >= 0`` and lowers ``|F - 1 - z|``.  At ``z = 0``,
    ``delta F(kappa/delta)`` is the convex degrees-of-freedom function of
    the effective ridge ``kappa = delta x = -delta/alpha``, and every step is.
    At ``Im z > 0`` the solve is continuation in ``z`` over a ladder of
    heights: a step refused from the explicit start pushes the rung
    ``4 Im z``, solved from its own explicit start, which climbs further if
    it must; a rung that converges is popped, and its root starts the rung
    below.  The root in the upper half-plane is unique and stable in ``z``.
    Each rung ends once ``|F - 1 - z|`` is within 4 ulp of the size of the
    terms it is computed from, or the step is at most 4 ulp of ``|x|``.  A
    non-finite ``mu`` or start at any rung, a zero slope (``m = d`` with
    every ``r_j`` underflowed), a refused step at ``z = 0`` or from a root
    above, and ``_MAX_STEPS`` steps at one height raise
    :class:`NonConvergence`.  The arithmetic is real when ``z`` is.  Returns
    ``(x, g, F'(x), steps)``, ``g_j = 1 / (delta - z + d lam_j / x)`` the
    eigenvalues of ``N11`` (inf, without a warning, where the division
    overflows) and ``steps`` the Newton steps taken at every height.
    """
    pos = lam[lam > 0]
    base = 1.0 - pos.size / d
    rungs, x, total = [z], None, 0  # x: the root of the rung above, if any

    def gap(x):  # at the current rung's mu and rhs
        r = 1.0 / (1.0 + mu / x) if x else np.zeros_like(mu)
        return r, x * (base + np.sum(r).item() / d) - rhs

    while rungs:
        z, warm = rungs[-1], x is not None
        shift, rhs = delta - z, 1.0 + z
        with np.errstate(over="ignore", invalid="ignore"):
            mu = d * pos / shift
            if not warm:
                x = rhs + np.sum(pos / shift).item()
        if not (np.isfinite(mu).all() and np.isfinite(x)):
            raise NonConvergence("nu solve cannot start: lam / (delta - z) "
                                 f"overflows at delta {delta:.3e}")
        r, f = gap(x)
        for steps in range(_MAX_STEPS):
            slope = base + np.sum(r * (2.0 - r)).item() / d
            if not slope:  # m = d and every r_j underflowed: F is flat
                raise NonConvergence(f"nu solve met a zero slope at "
                                     f"|F - 1 - z| {abs(f):.3e}")
            step = f / slope
            size = abs(x) * (abs(base) + np.sum(np.abs(r)).item() / d) + abs(rhs)
            if (abs(f) <= 4 * np.spacing(size)
                    or not abs(step) > 4 * np.spacing(abs(x))):  # or a NaN step
                rungs.pop()
                break
            x_new = x - step
            r_new, f_new = gap(x_new)
            if not (x_new.imag >= 0 and abs(f_new) < abs(f)):
                if warm or not z.imag:
                    raise NonConvergence(f"nu solve refused a Newton step at "
                                         f"|F - 1 - z| {abs(f):.3e}")
                rungs.append(complex(z.real, 4 * z.imag))
                x = None
                break
            x, r, f = x_new, r_new, f_new
        else:
            raise NonConvergence(f"nu solve stalled at |F - 1 - z| "
                                 f"{abs(f):.3e} after {_MAX_STEPS} steps")
        total += steps
    with np.errstate(over="ignore", divide="ignore"):
        g = 1.0 / (shift + d * lam / x)
    return x, g, slope, total


def build_equiv(K, y, yhat, d, delta):
    """Assemble the deterministic test-error prediction for one instance.

    Solves alpha at ``z = 0``, checks ``denom = F'(x)`` against the
    positivity guard and evaluates both terms in the eigenbasis of K_aa, which
    with ``V^T K_ah`` is made once per :class:`KernelSet`, on one BLAS thread.
    ``effective_ridge`` is ``kappa = delta x = -delta/alpha``, ``iterations``
    counts Newton steps, and ``residual`` is
    ``|alpha - T(alpha)| / |alpha|`` for ``T(a) = -(1 + sum_j lam_j g_j)^{-1}``.

    Raises
    ------
    DenominatorDegenerate
        If denom <= 1e-8, which signals inputs outside the regime where the
        prediction is meaningful (e.g. near-interpolation with tiny ridge).
    ValueError
        On labels that are not finite vectors of the block sizes, and on a
        predicted error that overflows.
    """
    y = _vector(y, "y", K.n_train)
    yhat = _vector(yhat, "yhat", K.n_test)
    _check_ridge(delta, d)

    with _SINGLE_THREAD_NUMPY_BLAS:  # OpenBLAS rounds eigh and GEMV by its thread count
        w, V, W = K._eigenbasis()
        x, g, denom, iterations = _solve_nu(w, d, delta, 0.0)
        alpha = -1.0 / x
        if denom <= _DENOM_GUARD:
            raise DenominatorDegenerate(
                f"variance-series denominator {denom:.6e} <= {_DENOM_GUARD:g}"
            )

        with np.errstate(over="ignore", invalid="ignore"):
            # tr(K_ha M11 (I + delta M11) K_ah) = sum_j (g_j + delta g_j^2) ||W_j||^2
            cross = float(np.sum((g + delta * g ** 2) * np.sum(W ** 2, axis=1)))
            beta = alpha ** 2 * (float(np.trace(K.K_hh)) + d * alpha * cross) / denom
            c = g * (V.T @ y)  # V^T M11 y
            term_variance = d * beta * float(np.sum(w * c ** 2))  # y^T M11 K_aa M11 y
            resid = d * alpha * (W.T @ c) + yhat
            term_bias = float(resid @ resid)
        if not np.isfinite(term_variance + term_bias):
            raise ValueError(f"the predicted error overflows ({term_variance + term_bias})")
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
    ``(N11, nu)``, complex.  A refused step from the root at ``4 Im z``, or
    1 000 steps at one height, raise :class:`NonConvergence`; an ``N11``
    that overflows (``1/delta`` on a null eigenvalue at ``z = 0``) raises
    ``ValueError`` before it is formed.
    """
    z = _check_z(z)
    _check_ridge(delta, d)
    with _SINGLE_THREAD_NUMPY_BLAS:  # as in build_equiv, so that nu(0) is its alpha
        w, V = _clamped_eigh(K_aa)
    # real arithmetic on the axis, so that nu(0) is build_equiv's alpha
    x, g = _solve_nu(w, d, delta, z if z.imag else z.real)[:2]
    if not np.isfinite(g).all():
        raise ValueError(f"the train block N11 overflows at delta {delta:.3e}")
    return np.asarray((V * g) @ V.T, dtype=complex), complex(-1.0 / x)


def kernel_ridge_error(K, y, yhat, d, ridge):
    """Squared test error of kernel ridge regression on the kernel blocks:
    ``||yhat - d K_ha (d K_aa + ridge I)^{-1} y||^2``.

    With ridge equal to -delta/alpha this reproduces the bias term of
    :func:`build_equiv` exactly (implicit-regularization identity).
    """
    _check_ridge(ridge, d, name="ridge")
    y = _vector(y, "y", K.n_train)
    yhat = _vector(yhat, "yhat", K.n_test)
    v = _ridge_solve(d * K.K_aa, ridge, y)
    r = yhat - d * (K.K_ha @ v)
    return float(r @ r)
