"""Shared builders for the test suite."""

import math
import re
from contextlib import contextmanager
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from rfequiv import (Dataset, KernelSet, MatrixFormatError, ZerothMomentReport,
                     build_equiv)
from rfequiv.model import _blas_controls
from rfequiv.rdel import solve_rdel, spectral_norm


# finite doubles at the edges of the format; 1.0, -3.0, 2^53 and the largest
# double below 1e17 are written without a point and read as integers
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
               2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 1.0, -3.0, 2.0 ** 53,
               99999999999999984.0, 0.1]


def load_csv_oracle(path):
    """``load_matrix(path, "csv")`` with cells split by a regular expression
    (runs of commas and ``\\s`` whitespace, empty pieces dropped) and
    converted one value at a time, with the loader's messages."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"{path}: not UTF-8 text ({exc})") from exc
    rows = []
    for lineno, line in enumerate(lines, 1):
        tokens = [t for t in re.split(r"[,\s]+", line.strip()) if t]
        commas = line.count(",")
        if commas and len(tokens) <= commas:
            raise MatrixFormatError(f"{path}:{lineno}: empty cell")
        if not tokens:
            continue
        try:
            rows.append([float(t) for t in tokens])
        except ValueError as exc:
            raise MatrixFormatError(f"{path}:{lineno}: non-numeric cell") from exc
    if not rows:
        raise MatrixFormatError(f"{path}: no numeric rows")
    if any(len(r) != len(rows[0]) for r in rows):
        raise MatrixFormatError(f"{path}: ragged rows")
    return np.array(rows, dtype=float)


def blas_threads():
    """The current thread count of each bundled OpenBLAS build."""
    return tuple(get() for get, _ in _blas_controls())


@contextmanager
def caller_blas_threads(count):
    """Run the block with every bundled OpenBLAS set to ``count`` threads,
    as a caller would leave it, and restore the previous counts after."""
    saved = blas_threads()
    for _, set_ in _blas_controls():
        set_(count)
    try:
        yield
    finally:
        for (_, set_), old in zip(_blas_controls(), saved):
            set_(old)


@pytest.fixture(scope="session")
def session_blas_threads():
    return blas_threads()


@pytest.fixture(autouse=True)
def no_leaked_blas_pin(session_blas_threads):
    """Fail a test after which a BLAS thread count differs from its value at
    session start, then put the count back so that later tests run clean."""
    yield
    now = blas_threads()
    if now != session_blas_threads:
        for (_, set_), old in zip(_blas_controls(), session_blas_threads):
            set_(old)
        pytest.fail(f"BLAS thread counts {now} differ from "
                    f"{session_blas_threads} at session start")


@pytest.fixture
def toy_kernels():
    """K_aa = I_2, no train/test coupling, K_hh = I_1.

    With d=2, delta=1 this instance has the closed-form solution
    alpha = -1/2 (the non-positive root of 2 a^2 - a - 1 = 0),
    M11 = 0.5 I, denom = 3/4, beta = 1/3.
    """
    return KernelSet(
        K_aa=np.eye(2),
        K_ah=np.zeros((2, 1)),
        K_hh=np.eye(1),
        samples=1,
    )


def rand_psd(rng, n, extra=2):
    g = rng.standard_normal((n, n + extra))
    return g @ g.T / (n + extra)


def rand_kernelset(rng, n, t):
    """A random jointly-PSD kernel set of shape (n, t)."""
    g = rng.standard_normal((n + t, n + t + 3))
    joint = g @ g.T / (n + t + 3)
    return KernelSet(
        K_aa=joint[:n, :n],
        K_ah=joint[:n, n:],
        K_hh=joint[n:, n:],
        samples=1,
    )


def equiv_alpha(K_aa, d, delta):
    """``build_equiv`` on a bare ``K_aa`` (one uncoupled test point, zero
    labels), for its alpha and the quantities solved with it."""
    n = K_aa.shape[0]
    ks = KernelSet(K_aa, np.zeros((n, 1)), np.eye(1), 1)
    return build_equiv(ks, np.zeros(n), np.zeros(1), d, delta)


def rational_alpha(K_aa, d, delta):
    """Independent oracle for alpha at z = 0, to about one ulp at any size.

    ``kappa = -delta/alpha`` is the one root of
    ``F(kappa) = kappa - sum_j kappa lam_j / (kappa + d lam_j) = delta`` over
    the positive eigenvalues of ``K_aa``; ``F < delta`` below it and
    ``F > delta`` above it, on ``[delta, 2 (delta + sum_j lam_j)]``.  The
    bracket is bisected in log kappa until its ends are adjacent floats,
    each sign decided in exact rational arithmetic, so no tolerance is
    absolute and no cancellation is rounded.  It shares no code with the
    package.
    """
    lam = [Fraction(float(v))
           for v in np.linalg.eigvalsh((K_aa + K_aa.T) / 2) if v > 0]

    def above(kappa):
        k = Fraction(kappa)
        return k - sum(k * v / (k + d * v) for v in lam) > delta

    lo, hi = delta, 2.0 * (delta + float(sum(lam)))
    while True:
        mid = math.sqrt(lo) * math.sqrt(hi)
        if not lo < mid < hi:
            return -delta / hi
        if above(mid):
            hi = mid
        else:
            lo = mid


def dense_equiv(K, y, yhat, d, delta, alpha):
    """Independent oracle for ``build_equiv`` at a given ``alpha``: beta and
    the prediction terms from the dense ``M11 = (delta I - d alpha K_aa)^{-1}``,
    ``P = M11 + delta M11^2`` and ``My = M11 y``.  It reads only the three
    blocks of ``K`` and shares no code with the package.
    """
    K_aa, K_ah, K_hh = K.K_aa, K.K_ah, K.K_hh
    M11 = np.linalg.inv(delta * np.eye(K_aa.shape[0]) - d * alpha * K_aa)
    KM = K_aa @ M11
    denom = 1.0 - d * alpha ** 2 * np.trace(KM @ KM)
    P = M11 + delta * (M11 @ M11)
    cross = np.trace(K_ah.T @ P @ K_ah)
    beta = alpha ** 2 * (np.trace(K_hh) + d * alpha * cross) / denom
    My = M11 @ y
    term_variance = d * beta * (My @ K_aa @ My)
    resid = d * alpha * (K_ah.T @ My) + yhat
    term_bias = resid @ resid
    return {"beta": beta, "term_variance": term_variance, "term_bias": term_bias,
            "predicted_error": term_variance + term_bias}


def mp_equiv(K, y, yhat, d, delta):
    """Extended-precision oracle for ``build_equiv``: the dense formulas of
    the ``equiv`` module docstring in 60-digit arithmetic on the same kernel
    blocks, so the two terms of beta cancel far above the working precision.

    alpha is the root in [-1, 0) of ``G(a) = a (1 + tr(K_aa M11(a))) + 1``,
    ``G'(a) = 1 + tr(K_aa M11) + d a tr((K_aa M11)^2)``, by Newton's method
    from :func:`rational_alpha` until the step is below 1e-20 of alpha; the
    returned alpha, which the dense ``M11`` is built from, is within about
    that step of the root.  It shares no code with the package.
    """
    with mp.workdps(60):
        K_aa, K_ah = mp.matrix(K.K_aa.tolist()), mp.matrix(K.K_ah.tolist())
        y, yhat = mp.matrix(list(y)), mp.matrix(list(yhat))
        I = mp.eye(K_aa.rows)

        def trace(A, B):  # tr(A B)
            return mp.fsum(A[i, j] * B[j, i]
                           for i in range(A.rows) for j in range(A.cols))

        alpha = mp.mpf(rational_alpha(K.K_aa, d, delta))
        for _ in range(10):
            M11 = mp.inverse(delta * I - d * alpha * K_aa)
            KM = K_aa * M11
            t, kmkm = trace(K_aa, M11), trace(KM, KM)
            step = (alpha * (1 + t) + 1) / (1 + t + d * alpha * kmkm)
            if abs(step) <= mp.mpf("1e-20") * abs(alpha):
                break
            alpha -= step
        else:
            raise AssertionError("mp_equiv: alpha did not converge")
        denom = 1 - d * alpha ** 2 * kmkm
        P = M11 + delta * (M11 * M11)
        cross = trace(K_ah.T, P * K_ah)
        beta = alpha ** 2 * (mp.fsum(np.diag(K.K_hh)) + d * alpha * cross) / denom
        My = M11 * y
        term_variance = d * beta * (My.T * K_aa * My)[0]
        resid = d * alpha * (K_ah.T * My) + yhat
        term_bias = (resid.T * resid)[0]
        out = {"alpha": alpha, "beta": beta, "term_variance": term_variance,
               "term_bias": term_bias,
               "predicted_error": term_variance + term_bias}
        return {name: float(value) for name, value in out.items()}


def continued_nu(lam, d, delta, z):
    """Independent oracle for ``nu`` at ``Im z > 0``: the root of
    ``G(nu) = nu (1 + z + sum_j lam_j / (delta - z - d nu lam_j)) + 1``
    continued down in 50-digit arithmetic from ``Im z = 100`` (or ``Im z``
    itself, if higher), halving the height to ``Im z``, with
    ``mp.findroot``'s Newton solver started at each height from the root
    above and at ``-1/(1 + z)`` at the first.  The root in the upper
    half-plane is unique and continuous in ``z``, so this follows it, where a
    point that only meets a rounding-level defect may lie near the real axis
    instead.  It shares no code with the package.
    """
    with mp.workdps(50):
        lam = [mp.mpf(float(v)) for v in lam if v > 0]
        eta = mp.mpf(z.imag)
        height = max(mp.mpf(100), eta)
        nu = -1 / (1 + mp.mpc(z.real, height))
        while True:
            w = mp.mpc(z.real, height)

            def terms(nu):
                return [v / (delta - w - d * nu * v) for v in lam]

            def G(nu):
                return nu * (1 + w + mp.fsum(terms(nu))) + 1

            def dG(nu):
                return 1 + w + mp.fsum(t + d * nu * t * t for t in terms(nu))

            nu = mp.findroot(G, nu, solver="newton", df=dG)
            if height == eta:
                return complex(nu)
            height = max(height / 2, eta)


def m_infinity(spec, tau):
    """Limit of ``solve_rdel(spec, z, tau).M`` as ``|z| -> infinity``:
    ``diag{0, (E_Q - i*tau*I)^{-1}}`` in the layout of the mask, where
    ``E_Q`` is the expectation on the complement ``Q`` of the mask.  ``tau``
    may be 0 when ``E_Q`` is invertible; a singular one is ``RuntimeError``.
    """
    q = np.flatnonzero(spec.lambda_mask == 0)
    out = np.zeros((spec.ell, spec.ell), dtype=complex)
    if q.size:
        EQ = spec.expectation[np.ix_(q, q)] - 1j * tau * np.eye(q.size)
        try:
            out[np.ix_(q, q)] = np.linalg.inv(EQ)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError("E_Q - i*tau*I is singular") from exc
    return out


def zeroth_products(spec):
    """``(E[B], E[Q], E[B B^T])`` of a spec: ``E[q, lam]``, ``E[q, q]`` and
    ``E[B] E[B]^T + S(Pi)[q, q]`` with ``Pi = diag(lambda_mask)``, for the
    mask indices ``lam`` and their complement ``q``."""
    lam = np.flatnonzero(spec.lambda_mask == 1)
    q = np.flatnonzero(spec.lambda_mask == 0)
    EB = spec.expectation[np.ix_(q, lam)]
    cov = np.asarray(spec.superop(np.diag(spec.lambda_mask)))[np.ix_(q, q)]
    return EB, spec.expectation[np.ix_(q, q)], EB @ EB.T + cov


def generic_zeroth_moment(spec, eta_list, tau=1e-8):
    """Oracle for ``zeroth_moment_check`` on any spec: the table of
    ``Delta(eta) = ||-i*eta*(M(i*eta) - M_inf) - Omega_0||`` with ``M`` from
    the generic Picard solve ``solve_rdel(spec, i*eta, tau)`` and ``M_inf``
    from :func:`m_infinity` at the same ``tau``.  The zeroth moment is

        Omega_0 = [[I, -E[B]^T (E Q)^{-1}],
                   [-(E Q)^{-1} E[B], (E Q)^{-1} E[B B^T] (E Q)^{-1}]]

    in the (mask, complement) layout, from :func:`zeroth_products`.  At
    ``tau > 0`` each ``Delta(eta)`` carries a bias of order ``tau * eta``.
    Returns a ``ZerothMomentReport`` whose flag and slope are computed here.
    It shares no code with the structured route (Helton, Rashidi Far and
    Speicher, IMRN 2007, for the averaged fixed point).
    """
    etas = [float(e) for e in eta_list]
    lam = np.flatnonzero(spec.lambda_mask == 1)
    q = np.flatnonzero(spec.lambda_mask == 0)
    omega = np.zeros((spec.ell, spec.ell), dtype=complex)
    omega[np.ix_(lam, lam)] = np.eye(lam.size)
    if q.size:
        EB, EQ, EBBt = zeroth_products(spec)
        EQi = np.linalg.inv(EQ)
        omega[np.ix_(lam, q)] = -EB.T @ EQi
        omega[np.ix_(q, lam)] = -EQi @ EB
        omega[np.ix_(q, q)] = EQi @ EBBt @ EQi
    minf = m_infinity(spec, tau)
    deltas = np.array([
        spectral_norm(-1j * eta * (solve_rdel(spec, 1j * eta, tau).M - minf)
                      - omega)
        for eta in etas])
    monotone = bool(np.all(np.diff(deltas) < 0))
    slope = float(np.polyfit(np.log(etas), np.log(deltas), 1)[0])
    return ZerothMomentReport(np.asarray(etas), deltas, monotone, slope)


def unit_row_dataset(n_train, n_test, n0, seed):
    """Gaussian design with rows normalized to unit Euclidean norm.

    Normalizing puts the identity- and sign-activation feature scales on
    equal footing, which matters for paired-activation comparisons.
    """
    rng = np.random.default_rng(1000 + seed)
    x = rng.standard_normal((n_train, n0))
    xh = rng.standard_normal((n_test, n0))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    xh /= np.linalg.norm(xh, axis=1, keepdims=True)
    w = rng.standard_normal(n0)
    w /= np.linalg.norm(w)
    return Dataset(x, xh, x @ w, xh @ w)


def dense_subdel(K_aa, d, delta, z, tol=1e-10, max_iter=10_000):
    """Independent oracle for ``solve_subdel``: Jacobi iteration on the
    two-block equation with dense n x n matrices and one inverse per step.

    The update inverts ``diag((delta - z) I - d nu K_aa, -(1 + z + tr(K_aa N11)) I_d)``
    and stops when the Frobenius defect over both blocks (the scalar block
    counted d times) is at most ``tol``.  It shares no code with the package.
    """
    K = np.asarray(K_aa, dtype=float)
    n = K.shape[0]
    I = np.eye(n)
    if z == 0:
        z, N11, nu = 0.0, I.copy(), -1.0
    else:
        z, N11, nu = complex(z), 1j * I, 1j
    for _ in range(max_iter):
        u22 = -(1.0 + z + np.sum(K * N11))  # tr(K N11); iterates are symmetric
        U11 = (delta - z) * I - (d * nu) * K
        defect = np.sqrt(np.linalg.norm(U11 @ N11 - I) ** 2
                         + d * abs(u22 * nu - 1.0) ** 2)
        if defect <= tol:
            return np.asarray(N11, dtype=complex), complex(nu)
        N11, nu = np.linalg.inv(U11), 1.0 / u22
    raise AssertionError(f"dense oracle stalled at defect {defect:.3e}")


def dense_pencil(A, Ahat, delta, z):
    """``L - z*Lambda`` of the sampled pencil, assembled densely.

    Slot order (train n, width d, test t, test t): ``(delta - z) I`` and
    ``-(1 + z) I`` on the first two diagonal blocks, ``A`` and ``A^T``
    coupling them, ``Ahat`` and ``Ahat^T`` coupling the width slot to the
    second test slot, and ``-I`` between the two test slots.
    """
    n, d = A.shape
    t = Ahat.shape[0]
    i1, i2, i3, i4 = 0, n, n + d, n + d + t
    P = np.zeros((n + d + 2 * t,) * 2, dtype=complex)
    P[i1:i2, i1:i2] = (delta - z) * np.eye(n)
    P[i2:i3, i2:i3] = -(1.0 + z) * np.eye(d)
    P[i1:i2, i2:i3] = A
    P[i2:i3, i1:i2] = A.T
    P[i2:i3, i4:] = Ahat.T
    P[i4:, i2:i3] = Ahat
    P[i3:i4, i4:] = -np.eye(t)
    P[i4:, i3:i4] = -np.eye(t)
    return P


def dense_delta_gaussianity(draws, delta, z, tau):
    """Independent oracle for ``estimate_delta_gaussianity`` on given draws.

    ``draws`` is a list of feature pairs ``(A, Ahat)``; draws ``2i`` and
    ``2i + 1`` form pair ``i``, and an odd last draw is left out.  With the
    sampled pencils ``L_k = dense_pencil(A_k, Ahat_k, delta, 0)``, their mean
    ``Ebar`` and ``R_i = (L_2i - z*Lambda - i*tau*I)^{-1}``, pair ``i``
    contributes ``T_i = (L_2i - Ebar) R_i + ((L_2i+1 - Ebar) R_i)^2``.
    Returns ``(||T||_2, sqrt(sum_i ||T_i - T||_F^2 / (p (p - 1))))`` for
    the mean ``T`` of the ``p >= 2`` terms.  It shares no code with the
    package.
    """
    p = len(draws) // 2
    L = [dense_pencil(A, Ahat, delta, 0.0) for A, Ahat in draws[:2 * p]]
    Ebar = sum(L) / len(L)
    I = np.eye(Ebar.shape[0])
    terms = []
    for i in range(p):
        A, Ahat = draws[2 * i]
        R = np.linalg.inv(dense_pencil(A, Ahat, delta, z) - 1j * tau * I)
        X = (L[2 * i] - Ebar) @ R
        Xt = (L[2 * i + 1] - Ebar) @ R
        terms.append(X + Xt @ Xt)
    T = sum(terms) / p
    spread = sum(np.linalg.norm(Ti - T) ** 2 for Ti in terms)
    return np.linalg.svd(T, compute_uv=False)[0], np.sqrt(spread / (p * (p - 1)))


def dense_pseudoresolvent(A, Ahat, delta, z):
    """Independent oracle for ``build_pseudoresolvent``: the partial-pivot
    LU inverse of :func:`dense_pencil`, with blocks (1,1), (2,2) and (3,1)
    checked against their closed forms

        (1,1) = ((1+z)^{-1} A A^T + (delta - z) I)^{-1}
        (2,2) = -((1+z) I + (delta - z)^{-1} A^T A)^{-1}
        (3,1) = (1+z)^{-1} Ahat A^T (1,1)

    to 1e-8 relative to the block scale.  It shares no code with the package.
    """
    P = dense_pencil(A, Ahat, delta, z)
    G = lu_solve(lu_factor(P), np.eye(P.shape[0], dtype=complex))
    n, d = A.shape
    t = Ahat.shape[0]
    w = 1.0 / (1.0 + z)
    R = np.linalg.inv(w * (A @ A.T) + (delta - z) * np.eye(n))
    closed = {
        "(1,1)": (G[:n, :n], R),
        "(2,2)": (G[n:n + d, n:n + d],
                  -np.linalg.inv((1.0 + z) * np.eye(d) + (A.T @ A) / (delta - z))),
        "(3,1)": (G[n + d:n + d + t, :n], w * (Ahat @ (A.T @ R))),
    }
    for name, (got, want) in closed.items():
        err = np.linalg.norm(got - want)
        assert err <= 1e-8 * max(1.0, np.linalg.norm(want)), (name, err)
    return G
