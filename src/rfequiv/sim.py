"""Monte Carlo simulation of the random-features model.

Draws actual feature matrices, measures the empirical ridge test error,
and provides the diagnostic objects the solver predictions are validated
against: the pseudo-resolvent of the sampled pencil, the anisotropic trace
gap, and a Gaussianity discrepancy estimate.  Sampled-feature replicates
run through one loop, which compares them with a prediction on the
caller's kernels, for one cell or, in ``sweep``, for a whole grid of cells
on one pool; the tests' Gaussian surrogate oracle draws through it too.

The pseudo-resolvent ``(L - z*Lambda)^{-1}`` is a plain complex ell x ell
array, never formed by a dense ell x ell solve.  Every block is closed-form
in the d x d matrix ``C = A^T A + (delta - z)(1 + z) I``, which one thin
SVD of the train features ``A`` diagonalizes for any ``z``, and no ell x ell
pencil is stored: the pseudo-resolvent is checked against a table of the
pencil's block rows (:func:`_pencil_rows`).  See :func:`build_pseudoresolvent` for
the blocks, the refusal rule for a numerically singular pencil, and the
defect check.  The Gaussianity statistic regularizes by ``i*tau`` on every
slot, so it takes its own route (:func:`estimate_delta_gaussianity`): one
d x d Schur complement per pair, checked on the width block row to 1e-9,
and no sampled pencil assembled.  Like the replicate loops, it draws from
the root seed of its ``RFConfig``.  This module takes no
eigendecomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from . import equiv
from .model import (_check_count, _check_ridge, _check_z, _features, _matrix,
                    _parallel_map, _ridge_solve, _vector, substream)
from .rdel import _pencil_defect, _real_left, _rf_slices, spectral_norm

__all__ = [
    "DeltaGaussianity",
    "SimReport",
    "anisotropic_gap",
    "build_pseudoresolvent",
    "empirical_test_error",
    "estimate_delta_gaussianity",
    "run_replicates",
    "sample_features",
]


@dataclass(eq=False)  # holds arrays: equal only to itself
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


def sample_features(ds, sigma, phi, d, n, seed):
    """One draw of the feature matrices.

    A single weight matrix ``W = phi(Z)``, with ``Z`` i.i.d. standard
    normal of shape (n0, d), produces both blocks:

        A    = n^{-1/2} sigma(X W)       (n_train x d)
        Ahat = n^{-1/2} sigma(Xhat W)    (n_test x d)

    Deterministic given ``seed``.  A ``d`` or ``n`` that is not an integer
    >= 1, a ``seed`` outside ``[0, 2^64)`` (both refused before the draw),
    and features that are not finite raise ``ValueError``.
    """
    return _features([ds.X, ds.Xhat], sigma, phi, n, d, substream(seed, "features"))


def empirical_test_error(A, Ahat, y, yhat, delta):
    """``||yhat - Ahat A^T (A A^T + delta I)^{-1} y||^2``.

    The inner system is symmetric positive definite for ``delta > 0`` and
    is solved by Cholesky; no inverse is ever formed.
    """
    _check_ridge(delta)
    A, Ahat = _matrix(A, "A"), _matrix(Ahat, "Ahat")
    y, yhat = _vector(y, "y", A.shape[0]), _vector(yhat, "yhat", Ahat.shape[0])
    v = _ridge_solve(A @ A.T, delta, y)
    r = yhat - Ahat @ (A.T @ v)
    return float(r @ r)


def _replicates(draw, K, y, yhat, cfgs, reps, config, workers=None):
    """One report per cell ``cfg`` of ``cfgs``: the errors of the draws
    ``draw(cfg, i) -> (A, Ahat)``, ``i < reps``, against ``build_equiv`` on
    ``K``; ``config`` heads each report's config.

    Every cell's prediction is made before the first draw, so a prediction
    that fails leaves every cell undrawn.  One pool runs the
    ``len(cfgs) * reps`` draws: task ``k`` is replicate ``k % reps`` of
    cell ``k // reps``, and each cell's errors are folded in replicate
    order, so a cell's report is bit for bit the one it gets alone, for
    any worker count."""
    _check_count(reps, "reps")
    predicted = [float(equiv.build_equiv(K, y, yhat, cfg.d, cfg.delta).predicted_error)
                 for cfg in cfgs]

    def one(k):
        cfg = cfgs[k // reps]
        A, Ahat = draw(cfg, k % reps)
        return empirical_test_error(A, Ahat, y, yhat, cfg.delta)

    errors = list(_parallel_map(one, len(cfgs) * reps, workers))
    reports = []
    for c, (cfg, pred) in enumerate(zip(cfgs, predicted)):
        cell = np.array(errors[c * reps:(c + 1) * reps], dtype=float)
        mean = float(cell.mean())
        std = float(cell.std(ddof=1)) if reps > 1 else 0.0
        gap = abs(mean - pred)
        head = {**config, "d": cfg.d, "delta": cfg.delta, "n": cfg.n,
                "seed": cfg.seed, "reps": reps, "kernel_samples": K.samples}
        reports.append(SimReport(cell, mean, std, pred,
                                 gap / pred if pred > 0 else gap, head))
    return reports


def _feature_replicates(ds, sigma, phi, cfgs, reps, kernels, workers=None):
    """Sampled-feature reports of the cells ``cfgs`` on one pool (see
    :func:`_replicates`); replicate ``i`` of a cell draws from the substream
    (cfg.seed, "replicate", i)."""
    def draw(cfg, i):
        return _features([ds.X, ds.Xhat], sigma, phi, cfg.n, cfg.d,
                         substream(cfg.seed, "replicate", i))

    config = {"n_train": ds.n_train, "n_test": ds.n_test, "n0": ds.n0,
              "sigma": sigma.kind, "phi": phi.kind}
    return _replicates(draw, kernels, ds.y, ds.yhat, cfgs, reps, config, workers)


def run_replicates(ds, sigma, phi, cfg, reps=30, *, kernels, workers=None):
    """Independent feature draws vs. the deterministic prediction.

    The one-cell case of the loop that ``sweep`` runs over its whole grid,
    so a sweep row equals this report of its cell bit for bit.  The
    prediction is made before the first draw.

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
    kernels : KernelSet
        Covariance blocks for the prediction (required).
    workers : int, optional
        Thread cap (defaults to the environment-controlled worker count).

    Returns
    -------
    SimReport
    """
    return _feature_replicates(ds, sigma, phi, [cfg], reps, kernels, workers)[0]


# ---------------------------------------------------------------------------
# Sampled pencil and its pseudo-resolvent
# ---------------------------------------------------------------------------

def _pencil_rows(A, Ahat, delta, z=0.0):
    """Table of the sampled pencil ``L - z*Lambda`` in the layout of
    :func:`rfequiv.rdel._pencil_matrix`: ``(delta - z) I`` and ``-(1 + z) I``
    on the train and width slots, ``A`` coupling them, ``Ahat`` coupling the
    width slot to the second test slot, and ``-I`` between the test slots."""
    return [[(0, delta - z, None), (1, 1.0, A)],
            [(0, 1.0, A.T), (1, -(1.0 + z), None), (3, 1.0, Ahat.T)],
            [(3, -1.0, None)],
            [(1, 1.0, Ahat), (2, -1.0, None)]]


def _complement(Q):
    """``I - Q Q^T`` for orthonormal columns ``Q``, projected twice so that
    ``Q^T`` times it stays at rounding level."""
    P = np.eye(Q.shape[0])
    P -= Q @ Q.T
    P -= Q @ (Q.T @ P)
    return P


def build_pseudoresolvent(A, Ahat, delta, z):
    """Invert the sampled pencil through one thin SVD of ``A``.

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
    pencil's table (:func:`_pencil_rows`): ``||(L - z*Lambda) G - I||_F``,
    computed 64 rows at a time, must be at most 1e-9.  Returns the complex
    ell x ell array ``G``.

    Besides ``G`` and the features the call holds the thin SVD and
    ``Ahat V``; while a block is written, its right factor ``diag(w) Y^T``,
    as the product goes straight into ``G``; where ``n > r``, the n x n
    complement ``I - U U^T`` and one product of its size, and where
    ``d > r``, the d x d one of ``V``, ``Ahat`` times it and that product's
    t x t square; and, during the check, one range of 64 rows of
    ``(L - z*Lambda) G`` with up to two terms of its size.  At the
    ``test_11`` shape (n = t = 300, d = 150) that is 1.17 times the bytes
    of ``G`` at the peak.
    """
    z = _check_z(z)
    _check_ridge(delta)
    A, Ahat = _matrix(A, "A"), _matrix(Ahat, "Ahat")
    if A.shape[1] != Ahat.shape[1]:
        raise ValueError("A and Ahat must share the width d")
    n, d = A.shape
    t = Ahat.shape[0]
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

    def scaled(block, X, w, Y):  # block = X diag(w) Y^T for real X and Y, in place
        W = np.multiply(w[:, None], Y.T, order="C")
        np.matmul(X, W.view(float), out=block.view(float))

    def divided(block, X, c):  # block += X / c, 64 rows of X / c at a time
        for k in range(0, X.shape[0], 64):
            block[k:k + 64] += X[k:k + 64] / c

    s1, s2, s3, s4 = _rf_slices((n, d, t))
    ell = n + d + 2 * t
    G = np.zeros((ell, ell), dtype=complex)
    scaled(G[s1, s1], U, (1.0 + z) * g, U)
    if n > r:
        divided(G[s1, s1], _complement(U), a)
    scaled(G[s2, s1], V, g * sv, U)
    scaled(G[s3, s1], What, g * sv, U)
    scaled(G[s2, s2], V, -a * g, V)
    scaled(G[s3, s2], What, -a * g, V)
    scaled(G[s3, s3], What, -a * g, What)
    if d > r:
        # x - p / (1 + z) is x + p / -(1 + z) bit for bit: negating the
        # divisor negates the quotient exactly
        P = _complement(V)
        N = Ahat @ P
        divided(G[s2, s2], P, -(1.0 + z))
        divided(G[s3, s2], N, -(1.0 + z))
        divided(G[s3, s3], N @ N.T, -(1.0 + z))
    G[s1, s2] = G[s2, s1].T
    G[s1, s3] = G[s3, s1].T
    G[s2, s3] = G[s3, s2].T
    G[s3, s4] = G[s4, s3] = -np.eye(t)
    defect = _pencil_defect((n, d, t), _pencil_rows(A, Ahat, delta, z), G)
    if defect > 1e-9:
        raise RuntimeError(f"pseudo-resolvent defect {defect:.3e} exceeds 1e-9")
    return G


def anisotropic_gap(G, M_theory, U):
    """``|tr(U (G - M_theory))|`` for a probe of nuclear norm <= 1.

    ``tr(U G) = sum_ij U_ij G_ji`` and ``tr(U M_theory)`` are accumulated
    over slabs of 64 rows, each against the matching columns of ``U``
    copied into one reused contiguous buffer, so no ell x ell temporary is
    formed.  ``ValueError`` is raised, at no cost per entry, for a ``U`` or
    ``M_theory`` that is not of ``G``'s square shape and for a trace that
    is not finite.
    """
    G, M, U = map(np.asarray, (G, M_theory, U))
    if not (G.ndim == 2 and M.shape == U.shape == G.shape == G.shape[::-1]):
        raise ValueError(f"G {G.shape}, M_theory {M.shape} and U {U.shape} "
                         "must share one square shape")
    total = 0j
    slab = np.empty((min(64, U.shape[1]), U.shape[0]), U.dtype)
    for r in range(0, U.shape[1], 64):
        Ut = slab[:U.shape[1] - r]  # the last slab may be shorter
        np.copyto(Ut, U[:, r:r + 64].T)
        Ut = Ut.ravel()
        total += Ut @ G[r:r + 64].ravel() - Ut @ M[r:r + 64].ravel()
    gap = float(abs(total))
    if not math.isfinite(gap):
        raise ValueError(f"the anisotropic trace is not finite ({total})")
    return gap


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


def estimate_delta_gaussianity(ds, sigma, phi, cfg, z, tau, reps):
    """Estimate how far the sampled pencil is from a Gaussian one.

    For each replicate pair (L, L') the statistic

        T_i = (L - Ebar) R  +  (L' - Ebar) R (L' - Ebar) R,
        R = (L - z*Lambda - i*tau*I)^{-1}

    is averaged, with ``Ebar`` the mean of all sampled pencils; the
    expectation of this matrix vanishes exactly when the pencil entries are
    jointly Gaussian.  ``reps`` feature draws give ``reps // 2`` pairs;
    draw ``i`` uses the substream (cfg.seed, "delta", i).  ``z`` must be
    finite with ``Im z >= 0`` and ``tau`` a positive finite real; draws and
    pairs run on the shared thread pool of ``model._parallel_map``.

    No pencil is assembled and no ell x ell matrix inverted.  A draw is kept
    as its features ``J = [A; Ahat]``, and ``L - Ebar`` has only the blocks
    ``A - Abar``, ``Ahat - Ahat_bar`` and their transposes.  In the slot
    order (train n, width d, test t, test t), with ``a1 = delta - z - i*tau``,
    ``a2 = 1 + z + i*tau``, ``e = 1 / (1 + tau^2)`` and ``c = i*tau*e``,
    eliminating the other slots leaves the d x d Schur complement

        S = -a2 I - A^T A / a1 - c Ahat^T Ahat,     G = S^{-1},

    invertible because ``Im S < 0``.  The width block row of ``R`` is
    ``R2 = G B`` with ``B = [-A^T / a1, I, e Ahat^T, -c Ahat^T]``; the train
    and second test rows are ``[R1; R4] = E14 - [A / a1; c Ahat] R2``, where
    ``E14`` holds ``I / a1`` in block (1,1) and ``-e I``, ``c I`` in blocks
    (4,3), (4,4); ``R3`` is never needed.  Block row 3 of ``(L - Ebar) R``
    is zero, so ``T_i`` is formed on the other ell - t rows and its square
    contracts over those indices only.  Rows 1, 3 and 4 of
    ``(L - z*Lambda - i*tau*I) R - I`` vanish by construction and the width
    row is ``(S G - I) B``: its Frobenius norm must be at most 1e-9 for
    every pair, else ``RuntimeError``.  The route equals a dense ell x ell
    inverse up to rounding (the tests hold it to 1e-12 relative); forming
    ``A^T A`` costs some accuracy only where the pencil is ill-conditioned.

    Memory grows with ``reps``: all ``2 * pairs`` draws, each an
    (n + t) x d float64 matrix, are held, because ``Jbar`` needs every one
    of them before the first pair.  Besides them, each worker holds one
    pair's (ell - t) x ell term, ``Xt`` of the same size, its ``keep``
    gather of (ell - t) x (ell - t), ``R2`` and ``R14``.  The term is the
    square ``Xt[:, keep] @ Xt`` with the rows of ``(L - Ebar) R`` added into
    it in place, one block row at a time.  Terms are folded in place as the
    pool yields them, a task of ``pairs / 64`` terms at a time: ``T`` is
    their running sum in index order over ``pairs``, and
    ``sum_i ||T_i - T||_F^2`` comes from Welford's update, each term turned
    into its own step.  ``value`` is ``||T||_2`` from one LAPACK SVD outside
    the pool, at the caller's BLAS thread count.

    Returns
    -------
    DeltaGaussianity
    """
    z = _check_z(z, regularized=True)
    _check_ridge(tau, name="tau")
    _check_count(reps, "reps", 2)  # one pair
    pairs = reps // 2
    n, d, t = ds.n_train, cfg.d, ds.n_test

    def draw(i):
        return np.vstack(_features([ds.X, ds.Xhat], sigma, phi, cfg.n, d,
                                   substream(cfg.seed, "delta", i)))

    draws = list(_parallel_map(draw, 2 * pairs))
    Jbar = sum(draws) / len(draws)

    s1, s2, s3, s4 = _rf_slices((n, d, t))
    ell = s4.stop
    keep = np.r_[0:s2.stop, s4]  # rows of (L - Ebar) R that can be nonzero
    a1, a2 = cfg.delta - z - 1j * tau, 1.0 + z + 1j * tau
    e = 1.0 / (1.0 + tau * tau)
    c = 1j * tau * e
    w = np.r_[np.full(n, 1.0 / a1), np.full(t, c)][:, None]
    # ||(S G - I) B||_F^2 = ||F||^2 + ||F (bnorm J)^T||^2, as the test blocks
    # of B give ||e F Ahat^T||^2 + ||c F Ahat^T||^2 = e ||F Ahat^T||^2
    bnorm = np.r_[np.full(n, 1.0 / abs(a1)), np.full(t, math.sqrt(e))][:, None]
    E14 = np.zeros((n + t, ell), dtype=complex)
    E14[:n, s1] = np.eye(n) / a1
    E14[n:, s3] = -e * np.eye(t)
    E14[n:, s4] = c * np.eye(t)
    diag = np.diag_indices(d)

    def one_pair(i):
        J, Jt = draws[2 * i], draws[2 * i + 1]
        S = -_real_left(J.T, J * w)
        S[diag] -= a2
        G = np.linalg.inv(S)
        F = S @ G
        F[diag] -= 1.0
        defect = math.hypot(np.linalg.norm(F),
                            np.linalg.norm(_real_left(J * bnorm, F.T)))
        if not defect <= 1e-9:
            raise RuntimeError(
                f"Gaussianity pseudo-resolvent defect {defect:.3e} exceeds 1e-9")
        GJ = _real_left(J, G.T)  # (G J^T)^T
        R2 = np.empty((d, ell), dtype=complex)
        R2[:, s1] = GJ[:n].T / -a1
        R2[:, s2] = G
        R2[:, s3] = e * GJ[n:].T
        R2[:, s4] = -c * GJ[n:].T
        R14 = E14 - w * _real_left(J, R2)
        R2r, R14r = R2.view(float), R14.view(float)
        # block rows 1, 2 and 4 of (L' - Ebar) R, as one matrix
        dJ = Jt - Jbar
        Xt = np.empty((ell - t, ell), dtype=complex)
        Xr = Xt.view(float)
        np.matmul(dJ[:n], R2r, out=Xr[:n])
        np.matmul(dJ.T, R14r, out=Xr[n:n + d])
        np.matmul(dJ[n:], R2r, out=Xr[n + d:])
        Ti = Xt[:, keep] @ Xt
        del Xt, Xr
        # the same rows of (L - Ebar) R, added in place one GEMM at a time
        dJ = J - Jbar
        Tr = Ti.view(float)
        Tr[:n] += dJ[:n] @ R2r
        Tr[n:n + d] += dJ.T @ R14r
        Tr[n + d:] += dJ[n:] @ R2r
        return Ti

    terms = _parallel_map(one_pair, pairs)
    total = next(terms)
    mean = total.copy()
    spread = 0.0
    for k, Ti in enumerate(terms, 2):  # Ti is spent: it becomes the step
        total += Ti
        Ti -= mean
        spread += float(np.linalg.norm(Ti)) ** 2 * (k - 1) / k
        Ti /= k
        mean += Ti
    total /= pairs
    value = spectral_norm(total)
    se = math.sqrt(spread / (pairs * (pairs - 1))) if pairs > 1 else math.inf
    return DeltaGaussianity(value=value, standard_error=se, pairs=pairs)
