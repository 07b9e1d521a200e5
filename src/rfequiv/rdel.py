"""Self-consistent resolvent equations.

A generic instance is a :class:`LinearizationSpec`: a symmetric expectation
matrix ``E``, a 0/1 diagonal mask marking where the spectral parameter ``z``
enters, and a linear positivity-preserving superoperator ``S``.
:func:`solve_rdel` drives the Picard iteration

    M  <-  (E - S(M) - z*Lambda - i*tau*I)^{-1}

to its unique fixed point with nonnegative imaginary part.  The
random-features pencil has its own route: its superoperator reads ``M``
through two scalars, so :func:`rf_solution_matrix` builds ``M(z)`` at
``tau = 0`` to rounding from one scalar solve, and
:func:`zeroth_moment_check` takes the zeroth-moment table from it.  On that
pencil :func:`rf_linearization` and :func:`solve_rdel`, unexported, serve as
the test oracle.  Every norm here is a spectral norm to rounding
(:func:`spectral_norm`, one ``eigvalsh`` of the smaller Gram matrix); a
bound that a norm must meet may instead be certified by a Cholesky factor
(``model._positive_definite``).

A four-slot pencil (train n, width d, test t, test t) is written once, as
a table of four block rows of terms ``(column slot, coefficient, real
matrix or None for I)``: :func:`_rf_rows` here for ``E - S(M) - z*Lambda``
and :func:`rfequiv.sim._pencil_rows` for the sampled ``L - z*Lambda``.
A table has one operation, :func:`_pencil_times`, which yields ``P X`` in
row ranges of ``_TILE`` (64) rows, each inside one block row:
:func:`_pencil_matrix` is that product with ``X = I`` and
:func:`_pencil_defect` sums ``||P X - I||_F^2`` over its ranges, so a check
holds one range of the product, not a block row of it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import equiv
from .model import (NonConvergence, _check_count, _check_heights, _check_ridge,
                    _check_z, _matrix, _parallel_map, _positive_definite, _vector,
                    substream)

__all__ = [
    "ZerothMomentReport",
    "rf_solution_matrix",
    "zeroth_moment_check",
]


def spectral_norm(x):
    """Largest singular value of ``x``: the square root of the largest
    eigenvalue (``eigvalsh``) of the smaller Gram matrix, ``a a^H`` or
    ``a^H a``, of ``a = x / max|x|``, times ``max|x|``.

    The scaling keeps every entry of ``a`` at most 1 in modulus, so the Gram
    neither overflows nor underflows whatever the magnitude of ``x``.  For
    an m x k ``a`` with m <= k, the Gram's rounding error is at most
    ``gamma_k ||a||_F^2 <= k m u sigma^2`` in the 2-norm (u the unit
    roundoff; Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., section 3.5), and ``eigvalsh`` adds a backward error of order
    ``m u sigma^2``; so the relative error is at most about ``k m u / 2``,
    and in practice of order ``sqrt(k) u``.  The tests hold it to 1e-13
    relative of numpy's SVD norm.  An empty or zero matrix has norm 0.  A
    non-finite entry raises ``RuntimeError`` (a solver failure), not the
    ``LinAlgError`` the eigensolver would give.
    """
    a = np.atleast_2d(np.asarray(x))
    if a.size == 0:
        return 0.0
    if not np.all(np.isfinite(a)):
        raise RuntimeError("spectral norm of a matrix with non-finite entries")
    scale = float(np.max(np.abs(a)))
    if scale == 0.0:
        return 0.0
    # part by part: a complex quotient takes 1 / scale, which overflows
    # where scale is subnormal
    a = np.ascontiguousarray(a, dtype=np.promote_types(a.dtype, float))
    a = (a.view(float) / scale).view(a.dtype)
    gram = a @ a.conj().T if a.shape[0] <= a.shape[1] else a.conj().T @ a
    return math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0)) * scale


# The generic solver down to rf_linearization is the tests' oracle and no verb
# calls it, so it is not exported.  perfbench traces solve_rdel and
# rf_linearization by name, and ROADMAP item 9 moves all four names to tests/.

_PROBE_ROUNDS = 3
# solve_rdel's stopping defect and inversion budget.
_TOL = 1e-10
_MAX_STEPS = 10_000


@dataclass(eq=False)  # holds arrays: equal only to itself
class LinearizationSpec:
    """One self-consistent resolvent problem.

    Parameters
    ----------
    expectation : ndarray
        Real symmetric ell x ell matrix ``E``, kept as a copy; one that is
        symmetric only to rounding is averaged once, by
        ``model._matrix``.
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
        E = _matrix(self.expectation, "expectation", square=True)
        self.expectation = E.copy()
        mask = _vector(self.lambda_mask, "lambda_mask", E.shape[0])
        if not (np.all((mask == 0) | (mask == 1)) and np.any(mask == 1)):
            raise ValueError("lambda_mask entries must be 0 or 1, at least one of them 1")
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


@dataclass(eq=False)  # holds arrays: equal only to itself
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


def solve_rdel(spec, z, tau):
    """Solve the regularized equation at spectral parameter ``z``.

    Starts from ``i * min(1/tau, 1) * I`` — strictly inside the admissible
    half-plane and already obeying the 1/tau norm bound — and iterates the
    resolvent map until the Frobenius defect drops below ``_TOL`` (1e-10).
    The map is a strict contraction for every ``tau > 0``, so no damping is
    needed.  The result is checked against the a-priori bounds with exact
    spectral norms: ``||M|| <= 1/tau + _TOL``, mask block ``<= 1/Im z + _TOL``
    when ``Im z > 0``, and ``Im M`` has minimum eigenvalue >= -1e-8.

    Parameters
    ----------
    spec : LinearizationSpec
    z : complex
        Finite, with ``Im z >= 0`` (the regularization supplies the
        imaginary shift when ``z`` is real).
    tau : float
        Positive finite regularization strength.

    Raises
    ------
    ValueError
        On a non-finite ``z`` or ``tau``, before any iteration.
    NonConvergence
        After ``_MAX_STEPS`` (10 000) inversions.
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
    for it in range(_MAX_STEPS + 1):
        U = np.asarray(spec.expectation - np.asarray(spec.superop(M)), dtype=complex)
        U[diag] -= shift
        defect_mat = U @ M - I
        defect = float(np.linalg.norm(defect_mat))
        history.append(defect)
        if defect <= _TOL:
            sol = RDELSolution(
                M=M,
                z=z,
                tau=float(tau),
                residual=spectral_norm(defect_mat),
                iterations=it,
                residual_history=np.asarray(history),
            )
            _check_solution(spec, sol)
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
        f"after {_MAX_STEPS} inversions"
    )


def _check_solution(spec, sol):
    """A-priori bound checks every converged iterate must satisfy."""
    norm = spectral_norm(sol.M)
    bound = 1.0 / sol.tau + _TOL
    if norm > bound:
        raise RuntimeError(
            f"converged iterate violates the norm bound: {norm:.6e} > {bound:.6e}"
        )
    if sol.z.imag > 0:
        idx = spec.lambda_indices()
        block = sol.M[np.ix_(idx, idx)]
        block_bound = 1.0 / sol.z.imag + _TOL
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


def rf_linearization(K, dims, delta):
    """Spec of the random-features pencil: expectation, mask, superoperator.

    The expectation is block-diagonal-plus-couplings: ``delta*I`` on the
    train slot, ``-I`` on the width slot, and the constant ``-I`` couplings
    between the two test slots.  The spectral parameter enters on the first
    ``n + d`` coordinates.

    In the four-slot layout (train rows, width, and two test slots) the
    superoperator fills, for input ``M``:

        out[1,1] = tr(M[2,2]) K_aa     out[1,4] = tr(M[2,2]) K_ah
        out[4,1] = tr(M[2,2]) K_ha     out[4,4] = tr(M[2,2]) K_hh
        out[2,2] = rho(M) I_d

    with ``rho(M) = tr(K_aa M[1,1] + K_ah M[4,1] + K_ha M[1,4] + K_hh M[4,4])``
    and zeros elsewhere: the table :func:`_rf_superop_rows`, whose terms
    :func:`_rf_rows` subtracts.  Linear by construction, and
    positivity-preserving because the joint kernel block matrix is PSD.
    """
    _check_ridge(delta)
    _check_rf_dims(K, dims)
    n, d, t = dims
    mask = np.zeros(n + d + 2 * t)
    mask[: n + d] = 1.0
    return LinearizationSpec(
        _pencil_matrix(dims, _rf_rows(K, delta)), mask,
        lambda M: _pencil_matrix(
            dims, _rf_superop_rows(K, *_rf_contractions(K, M, dims))))


# ---------------------------------------------------------------------------
# Random-features instance
# ---------------------------------------------------------------------------

def _rf_slices(dims):
    """The slices of the four slots (train n, width d, test t, test t) of
    the pencil of ``dims = (n, d, t)``, each size a count."""
    n, d, t = dims
    for name, size in zip("ndt", dims):
        _check_count(size, name)
    edges = (0, n, n + d, n + d + t, n + d + 2 * t)
    return tuple(map(slice, edges, edges[1:]))


def _rf_rows(K, delta, z=0.0, t22=0.0, rho=0.0):
    """Table of ``E - S(M) - z*Lambda`` for the deterministic pencil, with
    ``t22 = tr(M[2,2])`` and ``rho(M)`` from :func:`_rf_contractions`; with
    ``z``, ``t22`` and ``rho`` all zero it is the expectation ``E``."""
    fixed = [[(0, delta - z, None)], [(1, -(1.0 + z), None)],
             [(3, -1.0, None)], [(2, -1.0, None)]]
    return [a + b for a, b in zip(fixed, _rf_superop_rows(K, -t22, -rho))]


def _rf_superop_rows(K, t22, rho):
    """Table of the superoperator ``S(M)`` given its two contractions
    ``t22 = tr(M[2,2])`` and ``rho(M)`` (see :func:`rf_linearization`)."""
    return [[(0, t22, K.K_aa), (3, t22, K.K_ah)], [(1, rho, None)], [],
            [(0, t22, K.K_ha), (3, t22, K.K_hh)]]


# Height of the row ranges of _pencil_times: with a complex X of ell columns a
# range's product is _TILE * ell * 16 bytes, whatever the slot sizes.
_TILE = 64


def _pencil_times(dims, rows, X):
    """Yield ``(s, (P X)[s])`` for the row ranges ``s`` of the pencil ``P``
    of a four-slot table, in order: each block row, in the slot order
    (train n, width d, test t, test t), cut into ranges of ``_TILE`` rows.

    ``rows[i]`` lists the terms ``(j, c, B)`` of block row ``i``: block
    ``(i, j)`` of ``P`` is the sum of ``c * B``, or ``c * I`` when ``B`` is
    None.  A term with ``c == 0`` adds nothing and is skipped, so ``E``'s
    table (:func:`_rf_rows` with zero contractions) reads no kernel block.
    The product is real when ``X`` and every coefficient are.  Each range
    is one buffer, zeros of the dtype its terms sum to, that every term,
    ``c`` times the matching rows of ``B`` times ``X[slot j]`` (of
    ``X[slot j]`` itself for ``I``), is added into in place.  So a range
    equals its rows of the block row's product up to the order in which
    BLAS sums a dot product: bit for bit where every product is exact, as
    with ``X = I``, and to rounding elsewhere.
    """
    slots = _rf_slices(dims)
    for si, row in zip(slots, rows):
        row = [(j, c, B) for j, c, B in row if c != 0]
        dtype = np.result_type(X, *(c for _, c, _ in row if c != 1)) if row else float
        for a in range(si.start, si.stop, _TILE):
            s = slice(a, min(a + _TILE, si.stop))
            k = slice(s.start - si.start, s.stop - si.start)  # s inside block row si
            yield s, _row_range(X, slots, row, dtype, k)


def _row_range(X, slots, row, dtype, k):
    """Rows ``k`` of one block row's product, the sum over the terms
    ``(j, c, B)`` of ``row`` of ``c B X[slot j]``: zeros of ``dtype`` with
    each term added in place.  A function of its own, so that neither the
    range nor its last term outlives the caller's use of it."""
    R = np.zeros((k.stop - k.start, X.shape[1]), dtype)
    for j, c, B in row:
        Xj = X[slots[j]]
        term = Xj[k] if B is None else _real_left(B[k], Xj)
        R += term if c == 1 else c * term
    return R


def _pencil_matrix(dims, rows):
    """Dense ell x ell matrix of a pencil table: :func:`_pencil_times` of I."""
    ell = _rf_slices(dims)[3].stop
    return np.vstack([R for _, R in _pencil_times(dims, rows, np.eye(ell))])


def _pencil_defect(dims, rows, X):
    """``||P X - I||_F`` for the pencil ``P`` of a table, with one row range
    of ``P X`` (:func:`_pencil_times`) alive at a time: every entry enters
    the sum of squares.  ``starmap`` keeps no range between its calls, as
    a generator expression's loop variables would while the next is built."""
    X = np.ascontiguousarray(X, dtype=complex)
    return math.sqrt(sum(itertools.starmap(_row_defect, _pencil_times(dims, rows, X))))


def _check_rf_dims(K, dims):
    n, d, t = dims
    if K.n_train != n or K.n_test != t:
        raise ValueError(
            f"kernel blocks are {K.n_train} x {K.n_test}, dims say ({n}, {t})"
        )


def _rf_contractions(K, M, dims):
    """``tr(M[2,2])`` and ``rho(M)``, the two scalars the superoperator reads."""
    s1, s2, _, s4 = _rf_slices(dims)
    rho = (np.sum(K.K_aa * M[s1, s1].T) + np.sum(K.K_ah * M[s4, s1].T)
           + np.sum(K.K_ha * M[s1, s4].T) + np.sum(K.K_hh * M[s4, s4].T))
    return np.trace(M[s2, s2]), rho


def rf_solution_matrix(K, dims, delta, z):
    """Full deterministic-equivalent matrix ``M(z)`` of the pencil.

    Solves the two-block reduced equation for the train/width slots and
    fills the remaining blocks with their closed-form expressions in terms
    of ``M[1,1]`` and ``tr(M[2,2])``.  Every block row but the width row is
    exact by construction, and :func:`rfequiv.equiv.solve_subdel` solves
    the width row to rounding, so the result satisfies the tau = 0 equation
    up to rounding.  No ell x ell solve is involved.
    """
    _check_rf_dims(K, dims)
    n, d, t = dims
    s1, s2, s3, s4 = _rf_slices(dims)
    ell = n + d + 2 * t
    N11, nu = equiv.solve_subdel(K, d, delta, z)
    t22 = d * nu
    M = np.zeros((ell, ell), dtype=complex)
    M[s1, s1] = N11
    M[s2, s2] = nu * np.eye(d)
    M[s1, s3] = -t22 * (N11 @ K.K_ah)
    KN = K.K_ha @ N11
    M[s3, s1] = -t22 * KN
    M[s3, s3] = t22 ** 2 * (KN @ K.K_ah) + t22 * K.K_hh
    M[s3, s4] = -np.eye(t)
    M[s4, s3] = -np.eye(t)
    return M


def _real_left(B, X):
    """``B @ X`` for real ``B``; a complex ``X`` costs one real product."""
    if not np.iscomplexobj(X):
        return B @ X
    X = np.ascontiguousarray(X, dtype=complex)
    return (B @ X.view(float)).view(complex)


def _row_defect(s, R):
    """``||R - I[s]||_F^2`` for the rows ``s`` of a product meant to be I."""
    k = np.arange(R.shape[0])
    R[k, s.start + k] -= 1.0
    return np.linalg.norm(R) ** 2


@dataclass(eq=False)  # holds arrays: equal only to itself
class ZerothMomentReport:
    """Decay table of the zeroth-moment mismatch along the imaginary axis."""

    etas: np.ndarray
    deltas: np.ndarray
    monotone: bool
    slope: float

    def to_report(self):
        return asdict(self)


def zeroth_moment_check(K, dims, delta, eta_list):
    """Decay table of ``Delta(eta) = ||-i*eta*(M(i*eta) - M_inf) - Omega_0||``
    for the random-features pencil, with ``M(i*eta)`` from
    :func:`rf_solution_matrix` at ``tau = 0``.

    ``M_inf``, the limit of ``M`` as ``|z| -> infinity``, is ``E_Q^{-1} = E_Q``
    on the two test slots (the complement ``Q`` of the mask), and the
    zeroth moment is ``Omega_0 = diag(I_{n+d}, d K_hh, 0)``.  So the mismatch
    is ``-(1 + i*eta*nu) I_d`` on the width slot, zero on the second test
    slot, and one (n+t)-sized block on the train and first test slots: its
    norm needs no ell x ell one.  Each solution must pass
    :func:`solve_rdel`'s checks in structured form (else ``RuntimeError``):
    pencil defect ``<= 1e-10``; mask block
    ``max(||M[1,1]||, |nu|) <= c = 1/eta + 1e-10``; ``Im M >= -1e-8`` on the
    (n+t) block and ``Im nu >= 0``.  ``||M|| <= 1/tau`` is vacuous at
    ``tau = 0``.  The two bounds on matrices are certified, up to rounding,
    by a Cholesky factor of ``c^2 I - M[1,1]^H M[1,1]`` and of
    ``Im(block) + 1e-8 I``; only where one does not exist is the bound
    decided by the spectrum (:func:`spectral_norm` of ``M[1,1]``, an
    ``eigvalsh`` of the Im block), by the same rule and with the same
    message as without the certificate.  So one spectral norm a height,
    that of the mismatch, is the rule.  ``eta_list`` (at least two strictly
    increasing positive finite heights) is checked before any solve.

    The heights run on the pool of ``model._parallel_map``, so each
    height's solve, defect, certificates and norm run on one BLAS thread
    and the table's bytes do not depend on the caller's BLAS thread count.
    Up to min(workers, heights) solutions ``M(i*eta)``, each a complex
    ell x ell array, are alive at once.  Where heights fail, the error
    raised is that of the lowest of them, as in a loop over the heights.

    Returns a :class:`ZerothMomentReport`: the per-height norms, a
    strict-decrease flag, and the fitted log-log slope (close to -1 for a
    ``1/eta`` decay).
    """
    etas = _check_heights(eta_list)
    n, d, t = dims
    s1, _, s3, _ = _rf_slices(dims)
    idx = np.r_[s1, s3]
    _check_rf_dims(K, dims)
    omega = np.zeros((n + t, n + t))  # Omega_0 on the (n+t) block
    omega[:n, :n] = np.eye(n)
    omega[n:, n:] = d * K.K_hh

    def height(eta):
        z = 1j * eta
        M = rf_solution_matrix(K, dims, delta, z)
        nu, block = M[n, n], M[np.ix_(idx, idx)]
        rows = _rf_rows(K, delta, z, *_rf_contractions(K, M, dims))
        defect = _pencil_defect(dims, rows, M)
        if not defect <= 1e-10:
            raise RuntimeError(f"pencil defect {defect:.3e} > 1e-10 at z={z}")
        M11, c = M[s1, s1], 1.0 / eta + 1e-10
        if not (abs(nu) <= c and _positive_definite(
                c * c * np.eye(n) - M11.conj().T @ M11)):
            block_norm = max(spectral_norm(M11), abs(nu))
            if block_norm > c:
                raise RuntimeError(f"mask block {block_norm:.6e} > 1/eta at z={z}")
        im = (block - block.conj().T) / 2j
        if not (nu.imag >= 0 and _positive_definite(im + 1e-8 * np.eye(n + t))):
            im_min = float(np.linalg.eigvalsh(im)[0])
            if im_min < -1e-8 or nu.imag < 0:
                raise RuntimeError(f"left the half-plane at z={z} (Im eig "
                                   f"{im_min:.3e}, Im nu {nu.imag:.3e})")
        return max(abs(1.0 + z * nu), spectral_norm(-z * block - omega))

    deltas = list(_parallel_map(lambda k: height(etas[k]), len(etas)))
    monotone = all(b < a for a, b in zip(deltas, deltas[1:]))
    floored = np.maximum(deltas, 1e-300)
    slope = float(np.polyfit(np.log(etas), np.log(floored), 1)[0])
    return ZerothMomentReport(np.asarray(etas), np.asarray(deltas), monotone,
                              slope)
