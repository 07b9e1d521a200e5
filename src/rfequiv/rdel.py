"""Fixed-point machinery for self-consistent resolvent equations.

A problem instance is a :class:`LinearizationSpec`: a symmetric expectation
matrix ``E``, a 0/1 diagonal mask marking where the spectral parameter ``z``
enters, and a linear positivity-preserving superoperator ``S`` describing the
covariance of the random part.  :func:`solve_rdel` drives the Picard
iteration

    M  <-  (E - S(M) - z*Lambda - i*tau*I)^{-1}

to its unique fixed point with nonnegative imaginary part.  The remaining
helpers build on that solution: the large-|z| limit :func:`m_infinity`, the
zeroth-moment diagnostic :func:`zeroth_moment_check`, a regularization
schedule with extrapolation to tau=0, and constructors for the
random-features instance assembled from a :class:`~rfequiv.kernels.KernelSet`.
Every norm reported or bound-checked here is an exact spectral norm
(:func:`spectral_norm`, one LAPACK SVD), not an iterative estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import equiv
from .model import (NonConvergence, _check_heights, _check_ridge,
                    _check_symmetric, _check_z, substream)

__all__ = [
    "LinearizationSpec",
    "RDELSolution",
    "ZerothMomentReport",
    "m_infinity",
    "rf_linearization",
    "rf_solution_matrix",
    "rf_superoperator",
    "rf_zeroth_products",
    "solve_rdel",
    "solve_rdel_tau0",
    "spectral_norm",
    "zeroth_moment_check",
]

_PROBE_ROUNDS = 3
# Regularization of each zeroth_moment_check solve: positive, so the Picard map
# contracts, and tiny, so the heights eta dominate it.
_ZEROTH_TAU = 1e-8
_TAU0_SCHEDULE = (1e-2, 1e-3, 1e-4)  # solve_rdel_tau0, decreasing


def spectral_norm(x):
    """Largest singular value of ``x``, exact up to LAPACK rounding.

    An empty matrix has norm 0.  A non-finite entry raises ``RuntimeError``
    (a solver failure), not the ``LinAlgError`` the SVD would give.
    """
    a = np.atleast_2d(np.asarray(x))
    if a.size == 0:
        return 0.0
    if not np.all(np.isfinite(a)):
        raise RuntimeError("spectral norm of a matrix with non-finite entries")
    return float(np.linalg.norm(a, 2))


@dataclass
class LinearizationSpec:
    """One self-consistent resolvent problem.

    Parameters
    ----------
    expectation : ndarray
        Real symmetric ell x ell matrix ``E``.
    lambda_mask : ndarray
        Length-ell 0/1 vector; ``z`` multiplies the identity restricted to
        the 1 entries.  At least one entry must be 1.
    superop : callable
        Maps a complex ell x ell matrix to a complex ell x ell matrix.
        Must be linear and positivity-preserving; both are checked on
        random probes at construction and a failure, or a non-finite output
        on a probe, aborts with ``ValueError`` (a malformed covariance map
        would otherwise surface as a mysterious solver divergence).
    """

    expectation: np.ndarray
    lambda_mask: np.ndarray
    superop: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        E = np.atleast_2d(np.asarray(self.expectation, dtype=float))
        if E.shape[0] != E.shape[1]:
            raise ValueError("expectation must be square")
        _check_symmetric(E, "expectation")
        self.expectation = (E + E.T) / 2
        mask = np.asarray(self.lambda_mask, dtype=float).ravel()
        if mask.shape[0] != E.shape[0]:
            raise ValueError("lambda_mask length must match the expectation size")
        if not np.all((mask == 0) | (mask == 1)):
            raise ValueError("lambda_mask entries must be 0 or 1")
        if not np.any(mask == 1):
            raise ValueError("lambda_mask needs at least one 1 entry")
        self.lambda_mask = mask
        if not callable(self.superop):
            raise ValueError("superop must be callable")
        self._probe_superop()

    @property
    def ell(self):
        return self.expectation.shape[0]

    def lambda_indices(self):
        """Indices where the spectral parameter enters."""
        return np.flatnonzero(self.lambda_mask == 1)

    def q_indices(self):
        """Complementary indices (the self-adjoint remainder block)."""
        return np.flatnonzero(self.lambda_mask == 0)

    def _probe_superop(self):
        ell = self.ell
        S = self.superop
        for i in range(_PROBE_ROUNDS):
            rng = substream(0, "superop-probe", i)
            X = rng.standard_normal((ell, ell)) + 1j * rng.standard_normal((ell, ell))
            Y = rng.standard_normal((ell, ell)) + 1j * rng.standard_normal((ell, ell))
            X /= np.linalg.norm(X)
            Y /= np.linalg.norm(Y)
            ab = rng.standard_normal(4)
            a = complex(ab[0], ab[1])
            b = complex(ab[2], ab[3])
            lhs = np.asarray(S(a * X + b * Y))
            rhs = a * np.asarray(S(X)) + b * np.asarray(S(Y))
            if np.linalg.norm(lhs - rhs) > 1e-10 * (1.0 + np.linalg.norm(rhs)):
                raise ValueError("superop failed a linearity probe")
            G = rng.standard_normal((ell, ell)) + 1j * rng.standard_normal((ell, ell))
            P = G @ G.conj().T
            P /= np.linalg.norm(P)
            SP = np.asarray(S(P))
            # NaN passes both comparisons, so non-finite output is named here
            if not all(np.all(np.isfinite(v)) for v in (lhs, rhs, SP)):
                raise ValueError("superop returned non-finite entries on a probe")
            herm = (SP + SP.conj().T) / 2
            if float(np.linalg.eigvalsh(herm)[0]) < -1e-8:
                raise ValueError("superop failed a positivity probe")


@dataclass
class RDELSolution:
    """A converged iterate together with its convergence diagnostics.

    ``residual`` is the exact spectral norm of
    ``(E - S(M) - z*Lambda - i*tau*I)M - I`` at the returned ``M``;
    ``residual_history`` keeps the Frobenius defect of every visited iterate
    (the loop's stopping quantity, an upper bound on the spectral one, so
    ``residual <= residual_history[-1]``), and ``iterations`` counts matrix
    inversions performed.
    """

    M: np.ndarray
    z: complex
    tau: float
    residual: float
    iterations: int
    residual_history: np.ndarray


def solve_rdel(spec, z, tau, tol=1e-10, max_iter=10_000):
    """Solve the regularized equation at spectral parameter ``z``.

    Starts from ``i * min(1/tau, 1) * I`` — strictly inside the admissible
    half-plane and already obeying the 1/tau norm bound — and iterates the
    resolvent map until the Frobenius defect drops below ``tol``.  The map
    is a strict contraction for every ``tau > 0``, so no damping is needed.
    The result is checked against the a-priori bounds with exact spectral
    norms: ``||M|| <= 1/tau + tol``, mask block ``<= 1/Im z + tol`` when
    ``Im z > 0``, and ``Im M`` has minimum eigenvalue >= -1e-8.

    Parameters
    ----------
    spec : LinearizationSpec
    z : complex
        Finite, with ``Im z >= 0`` (the regularization supplies the
        imaginary shift when ``z`` is real).
    tau : float
        Positive finite regularization strength.
    tol, max_iter :
        Stopping threshold on the defect and inversion budget.

    Raises
    ------
    ValueError
        On a non-finite ``z`` or ``tau``, before any iteration.
    NonConvergence
        If the inversion budget is exhausted.
    RuntimeError
        At the first non-finite defect, on a singular update matrix
        (impossible for a well-formed superop) or a failed bound check.
    """
    z = _check_z(z, regularized=True)
    _check_ridge(tau, name="tau")
    ell = spec.ell
    I = np.eye(ell)
    shift = z * spec.lambda_mask + 1j * tau  # diagonal of z*Lambda + i*tau*I
    M = (1j * min(1.0 / tau, 1.0)) * np.eye(ell, dtype=complex)
    diag = np.diag_indices(ell)
    history = []
    defect = np.inf
    for it in range(max_iter + 1):
        U = np.asarray(spec.expectation - np.asarray(spec.superop(M)), dtype=complex)
        U[diag] -= shift
        defect_mat = U @ M - I
        defect = float(np.linalg.norm(defect_mat))
        history.append(defect)
        if defect <= tol:
            sol = RDELSolution(
                M=M,
                z=z,
                tau=float(tau),
                residual=spectral_norm(defect_mat),
                iterations=it,
                residual_history=np.asarray(history),
            )
            _check_solution(spec, sol, tol)
            return sol
        if not np.isfinite(defect):
            raise RuntimeError(f"non-finite defect after {it} inversions")
        try:
            M = np.linalg.solve(U, I.astype(complex))
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(
                "singular update matrix in the fixed-point iteration"
            ) from exc
    raise NonConvergence(
        f"fixed-point iteration stalled at defect {defect:.3e} "
        f"after {max_iter} inversions"
    )


def _check_solution(spec, sol, tol):
    """A-priori bound checks every converged iterate must satisfy."""
    norm = spectral_norm(sol.M)
    bound = 1.0 / sol.tau + tol
    if norm > bound:
        raise RuntimeError(
            f"converged iterate violates the norm bound: {norm:.6e} > {bound:.6e}"
        )
    if sol.z.imag > 0:
        idx = spec.lambda_indices()
        block = sol.M[np.ix_(idx, idx)]
        block_bound = 1.0 / sol.z.imag + tol
        block_norm = spectral_norm(block)
        if block_norm > block_bound:
            raise RuntimeError(
                "converged iterate violates the mask-block bound: "
                f"{block_norm:.6e} > {block_bound:.6e}"
            )
    im_min = float(np.linalg.eigvalsh((sol.M - sol.M.conj().T) / 2j)[0])
    if im_min < -1e-8:
        raise RuntimeError(
            f"converged iterate left the admissible half-plane (min Im eig {im_min:.3e})"
        )


def solve_rdel_tau0(spec, z):
    """Solve along a fixed decreasing regularization schedule and extrapolate.

    Solves at ``tau`` = 1e-2, 1e-3, 1e-4 with :func:`solve_rdel`'s defaults.
    The solution is differentiable in ``tau`` near 0 away from singular
    points, so a linear Richardson step from 1e-4 and 1e-3 removes the
    leading error term.  Intended for ``z`` on or near the real axis, where
    solving at ``tau = 0`` directly is not available.

    Returns
    -------
    (M0, solutions)
        ``M0`` is the extrapolated matrix at ``tau = 0``; ``solutions`` is
        the list of :class:`RDELSolution` in schedule order.
    """
    sols = [solve_rdel(spec, z, t) for t in _TAU0_SCHEDULE]
    t_mid, t_small = _TAU0_SCHEDULE[1:]
    m_mid, m_small = sols[1].M, sols[2].M
    M0 = m_small + (m_small - m_mid) * (t_small / (t_mid - t_small))
    return M0, sols


def m_infinity(spec, tau):
    """Limit of the solution as ``|z| -> infinity`` at fixed ``tau``.

    Returns ``diag{0, (E_Q - i*tau*I)^{-1}}`` in the layout induced by the
    mask, where ``E_Q`` is the expectation restricted to the complementary
    block.  ``tau`` must be a finite real ``>= 0``; ``tau = 0`` is allowed
    when ``E_Q`` itself is invertible.
    """
    if not (tau >= 0 and math.isfinite(tau)):
        raise ValueError("tau must be finite and >= 0")
    q = spec.q_indices()
    out = np.zeros((spec.ell, spec.ell), dtype=complex)
    if q.size:
        EQ = spec.expectation[np.ix_(q, q)].astype(complex)
        EQ[np.diag_indices(q.size)] -= 1j * tau
        try:
            out[np.ix_(q, q)] = np.linalg.inv(EQ)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError("E_Q - i*tau*I is singular") from exc
    return out


@dataclass
class ZerothMomentReport:
    """Decay table of the zeroth-moment mismatch along the imaginary axis."""

    etas: np.ndarray
    deltas: np.ndarray
    monotone: bool
    slope: float

    def to_report(self):
        return {
            "etas": [float(e) for e in self.etas],
            "deltas": [float(v) for v in self.deltas],
            "monotone": bool(self.monotone),
            "slope": float(self.slope),
        }


def zeroth_moment_check(spec, products, eta_list):
    """Compare ``-i*eta*(M(i*eta) - M_inf)`` against its zeroth-moment limit.

    The limit matrix is assembled from the supplied expectation products of
    the off-diagonal block ``B`` (coupling mask rows to the complement) and
    the complement block ``Q``:

        [[I, -E[B]^T (E Q)^{-1}],
         [-(E Q)^{-1} E[B], (E Q)^{-1} E[B B^T] (E Q)^{-1}]]

    Parameters
    ----------
    spec : LinearizationSpec
    products : mapping
        Keys ``"EB"`` (q x p), ``"EQ"`` (q x q), ``"EBBt"`` (q x q); ignored
        when the complement block is empty.
    eta_list : sequence of float
        Strictly increasing heights, all positive and finite, at least two;
        anything else raises ``ValueError`` before any solve.  Each height
        is solved by :func:`solve_rdel` with its defaults at ``tau = 1e-8``.

    Returns
    -------
    ZerothMomentReport
        Per-height mismatch norms, a strict-monotone-decrease flag, and the
        fitted log-log slope (close to -1 for a 1/eta decay).
    """
    etas = _check_heights(eta_list)
    lam = spec.lambda_indices()
    q = spec.q_indices()
    omega = np.zeros((spec.ell, spec.ell), dtype=complex)
    omega[np.ix_(lam, lam)] = np.eye(lam.size)
    if q.size:
        EB = np.atleast_2d(np.asarray(products["EB"], dtype=float))
        EQ = np.atleast_2d(np.asarray(products["EQ"], dtype=float))
        EBBt = np.atleast_2d(np.asarray(products["EBBt"], dtype=float))
        if EB.shape != (q.size, lam.size):
            raise ValueError(f"EB must be {q.size} x {lam.size}, got {EB.shape}")
        if EQ.shape != (q.size, q.size) or EBBt.shape != (q.size, q.size):
            raise ValueError("EQ and EBBt must match the complement block size")
        EQi = np.linalg.inv(EQ)
        omega[np.ix_(lam, q)] = -EB.T @ EQi
        omega[np.ix_(q, lam)] = -EQi @ EB
        omega[np.ix_(q, q)] = EQi @ EBBt @ EQi
    minf = m_infinity(spec, _ZEROTH_TAU)
    deltas = []
    for eta in etas:
        sol = solve_rdel(spec, 1j * eta, _ZEROTH_TAU)
        mismatch = -1j * eta * (sol.M - minf) - omega
        deltas.append(spectral_norm(mismatch))
    monotone = all(b < a for a, b in zip(deltas, deltas[1:]))
    floored = np.maximum(deltas, 1e-300)
    slope = float(np.polyfit(np.log(etas), np.log(floored), 1)[0])
    return ZerothMomentReport(
        etas=np.asarray(etas),
        deltas=np.asarray(deltas),
        monotone=monotone,
        slope=slope,
    )


# ---------------------------------------------------------------------------
# Random-features instance
# ---------------------------------------------------------------------------

def _rf_slices(dims):
    n, d, t = dims
    if min(n, d, t) < 1:
        raise ValueError("dims must be positive")
    s1 = slice(0, n)
    s2 = slice(n, n + d)
    s3 = slice(n + d, n + d + t)
    s4 = slice(n + d + t, n + d + 2 * t)
    return s1, s2, s3, s4


def _rf_expectation(dims, delta):
    """Deterministic part of the pencil: ``delta*I``, ``-I`` and test couplings."""
    n, d, t = dims
    s1, s2, s3, s4 = _rf_slices(dims)
    E = np.zeros((n + d + 2 * t, n + d + 2 * t))
    E[s1, s1] = delta * np.eye(n)
    E[s2, s2] = -np.eye(d)
    E[s3, s4] = -np.eye(t)
    E[s4, s3] = -np.eye(t)
    return E


def _check_rf_dims(K, dims):
    n, d, t = dims
    if K.n_train != n or K.n_test != t:
        raise ValueError(
            f"kernel blocks are {K.n_train} x {K.n_test}, dims say ({n}, {t})"
        )


def rf_superoperator(K, dims):
    """Covariance superoperator of the random-features pencil.

    In the four-slot layout (train rows, width, and two test slots) the map
    fills, for input ``M``:

        out[1,1] = tr(M[2,2]) K_aa     out[1,4] = tr(M[2,2]) K_ah
        out[4,1] = tr(M[2,2]) K_ha     out[4,4] = tr(M[2,2]) K_hh
        out[2,2] = rho(M) I_d

    with ``rho(M) = tr(K_aa M[1,1] + K_ah M[4,1] + K_ha M[1,4] + K_hh M[4,4])``
    and zeros elsewhere.  Linear by construction, and positivity-preserving
    because the joint kernel block matrix is PSD.
    """
    _check_rf_dims(K, dims)
    n, d, t = dims
    s1, s2, s3, s4 = _rf_slices(dims)
    ell = n + d + 2 * t
    K_aa, K_ah, K_ha, K_hh = K.K_aa, K.K_ah, K.K_ha, K.K_hh

    def superop(M):
        M = np.asarray(M)
        out = np.zeros((ell, ell), dtype=np.result_type(M.dtype, np.float64))
        t22 = np.trace(M[s2, s2])
        out[s1, s1] = t22 * K_aa
        out[s1, s4] = t22 * K_ah
        out[s4, s1] = t22 * K_ha
        out[s4, s4] = t22 * K_hh
        rho = (
            np.sum(K_aa * M[s1, s1].T)
            + np.sum(K_ah * M[s4, s1].T)
            + np.sum(K_ha * M[s1, s4].T)
            + np.sum(K_hh * M[s4, s4].T)
        )
        out[s2, s2] = rho * np.eye(d)
        return out

    return superop


def rf_linearization(K, dims, delta):
    """Spec of the random-features pencil: expectation, mask, superoperator.

    The expectation is block-diagonal-plus-couplings: ``delta*I`` on the
    train slot, ``-I`` on the width slot, and the constant ``-I`` couplings
    between the two test slots.  The spectral parameter enters on the first
    ``n + d`` coordinates.
    """
    _check_ridge(delta)
    _check_rf_dims(K, dims)
    n, d, t = dims
    mask = np.zeros(n + d + 2 * t)
    mask[: n + d] = 1.0
    return LinearizationSpec(_rf_expectation(dims, delta), mask,
                             rf_superoperator(K, dims))


def rf_zeroth_products(K, dims):
    """Expectation products of the random part for :func:`zeroth_moment_check`.

    The random block ``B`` couples the complement rows to the masked
    columns; its only nonzero entries are the test features, so ``E[B] = 0``
    and ``E[B B^T]`` carries ``d * K_hh`` on the second test slot.
    """
    _check_rf_dims(K, dims)
    n, d, t = dims
    EB = np.zeros((2 * t, n + d))
    EQ = np.zeros((2 * t, 2 * t))
    EQ[:t, t:] = -np.eye(t)
    EQ[t:, :t] = -np.eye(t)
    EBBt = np.zeros((2 * t, 2 * t))
    EBBt[t:, t:] = d * K.K_hh
    return {"EB": EB, "EQ": EQ, "EBBt": EBBt}


def rf_solution_matrix(K, dims, delta, z, tol=1e-10):
    """Full deterministic-equivalent matrix ``M(z)`` of the pencil.

    Solves the two-block reduced equation for the train/width slots and
    fills the remaining blocks with their closed-form expressions in terms
    of ``M[1,1]`` and ``tr(M[2,2])``; the result satisfies the tau = 0
    equation ``(E - S(M) - z*Lambda)M = I`` to solver accuracy.  Much
    cheaper than iterating on the full ell x ell pencil.
    """
    _check_rf_dims(K, dims)
    n, d, t = dims
    s1, s2, s3, s4 = _rf_slices(dims)
    ell = n + d + 2 * t
    N11, nu = equiv.solve_subdel(K.K_aa, d, delta, z, tol=tol)
    t22 = d * nu
    M = np.zeros((ell, ell), dtype=complex)
    M[s1, s1] = N11
    M[s2, s2] = nu * np.eye(d)
    M[s1, s3] = -t22 * (N11 @ K.K_ah)
    M[s3, s1] = -t22 * (K.K_ha @ N11)
    M[s3, s3] = t22 ** 2 * (K.K_ha @ N11 @ K.K_ah) + t22 * K.K_hh
    M[s3, s4] = -np.eye(t)
    M[s4, s3] = -np.eye(t)
    return M
