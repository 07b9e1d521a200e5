"""The covariance blocks of feature columns: in closed form where one
exists, by Monte Carlo otherwise.

A feature column pair is ``u = n^{-1/2} sigma([X; Xhat] phi(z))`` with
``z ~ N(0, I_{n0})``; the blocks ``K_aa``, ``K_ah``, ``K_hh`` of the symmetric
``E[u u^T]`` (``K_ha = K_ah^T`` is derived) drive every prediction downstream.
With ``phi`` = identity and a built-in ``sigma`` (identity, erf, sign, relu,
sin), :func:`exact_kernels` computes the blocks from the Gram matrix of the
design on one BLAS thread; :func:`estimate_kernels` averages sampled columns
for any pair of activations and is the closed forms' test oracle.  A kernel
file records ``samples``, the Monte Carlo budget, and ``"exact": true`` when
its blocks are a closed form (no draw); a file without the key is Monte Carlo.
"""

from __future__ import annotations

import functools
import json
import threading
from dataclasses import dataclass, field

import numpy as np
import orjson

from .model import (
    Activation,
    MatrixFormatError,
    _SINGLE_THREAD_NUMPY_BLAS,
    _check_count,
    _features,
    _matrix,
    _parallel_map,
    _positive_definite,
    substream,
    write_json,
)

__all__ = [
    "KernelSet",
    "estimate_kernels",
    "exact_kernels",
    "load_kernels",
    "save_kernels",
    "verify_centering",
]

_CHUNK = 512  # Monte Carlo draws per reduction chunk (fixed, worker-independent)
_U, _ETA = 2.0 ** -53, 2.0 ** -1074  # unit roundoff, least positive double
_IDENTITY = Activation("identity")
_BASIS_LOCK = threading.Lock()
_last_file = [None, None]  # [bytes, KernelSet] of the last file accepted


def default_samples(n_train, n_test):
    """Default Monte Carlo sample count: max(20 * (n_train + n_test), 10^4)."""
    return max(20 * (n_train + n_test), 10_000)


@dataclass(frozen=True, eq=False)  # holds arrays: equal only to itself
class KernelSet:
    """Second-moment blocks of the stacked feature column (a_j, ahat_j).

    ``K_aa = E[a a^T]`` (n_train x n_train), ``K_ah = E[a ahat^T]``,
    ``K_hh = E[ahat ahat^T]``; ``samples`` is the number of Monte Carlo draws
    behind the estimate, or, when ``exact`` is true and the blocks are a
    closed form, the budget a draw would have had.  ``K_ha`` is derived, a
    C-contiguous copy of ``K_ah^T``.  The set is immutable: its blocks are read-only
    copies, but a read-only C-contiguous array that owns its memory is kept.

    The joint matrix ``J = [[K_aa, K_ah], [K_ha, K_hh]]`` must be PSD up to
    rounding: ``lam_min(J) >= -1e-10 lam_max - 1e-300``, or ``ValueError``
    ("joint kernel block matrix is not PSD (min eig ...)").  A shifted
    Cholesky (Rump 2006) proves the rule for almost every set at any size;
    where it cannot, ``eigvalsh`` decides.  The rule is the package's only
    definiteness verdict on kernels: every solve on an accepted set reads
    its spectra with the eigenvalues inside the tolerance clipped to 0.
    """

    K_aa: np.ndarray
    K_ah: np.ndarray
    K_hh: np.ndarray
    samples: int
    exact: bool = field(default=False, kw_only=True)

    def __post_init__(self):
        _check_count(self.samples, "samples")
        if not isinstance(self.exact, bool):
            raise ValueError(f"exact must be True or False, not {self.exact!r}")
        set_ = functools.partial(object.__setattr__, self)
        set_("samples", int(self.samples))
        set_("_basis", None)
        blocks = {name: _matrix(getattr(self, name), name, square=name != "K_ah")
                  for name in ("K_aa", "K_ah", "K_hh")}
        for name, block in (*blocks.items(), ("K_ha", blocks["K_ah"].T)):
            flags = block.flags
            if flags.writeable or not (flags.owndata and flags.c_contiguous):
                block = block.copy()  # shares nothing with the caller
                block.flags.writeable = False
            set_(name, block)
        n, t = self.K_ah.shape
        if self.K_aa.shape != (n, n) or self.K_hh.shape != (t, t):
            raise ValueError("kernel block shapes are inconsistent")
        self._check_psd()

    def _eigenbasis(self):
        """``(lam, V, V^T K_ah)`` of ``K_aa`` by :func:`_psd_eigh`, made by
        the first call on one numpy BLAS thread, since OpenBLAS rounds eigh
        by its thread count: every solve on the set reads this one
        spectrum."""
        # sweep predicts before its pool, so only a library caller's own
        # threads can ask at once: one of them computes
        with _BASIS_LOCK:
            if self._basis is None:
                with _SINGLE_THREAD_NUMPY_BLAS:
                    w, V = _psd_eigh(self.K_aa)
                    object.__setattr__(self, "_basis", (w, V, V.T @ self.K_ah))
        return self._basis

    @property
    def n_train(self):
        return self.K_aa.shape[0]

    @property
    def n_test(self):
        return self.K_hh.shape[0]

    def joint(self):
        """The full (n_train + n_test) block matrix [[K_aa, K_ah], [K_ha, K_hh]]."""
        return np.block([[self.K_aa, self.K_ah], [self.K_ha, self.K_hh]])

    def _check_psd(self):
        """Raise unless ``lam_min(J) >= -1e-10 lam_max - 1e-300`` for the
        joint matrix J, whose lower triangle alone is read.

        A shifted Cholesky proves the rule for almost every set, at any
        size.  With ``tau = fl((1e-10 - 2u) max J_ii)`` and
        ``A = fl(J + tau I)``, Rump (Verification of positive definiteness,
        BIT Numer. Math. 46, 2006) proves A positive definite when a
        floating-point Cholesky of ``fl(A - cI)`` runs to completion, for
        ``c >= gamma_{m+1} / (1 - 2 gamma_{m+1}) tr A + 4m(2(m+1) + max A_ii) eta``
        with ``gamma_k = ku / (1 - ku)``, ``u = 2^-53``, ``eta = 2^-1074``, A
        symmetric m x m with a nonnegative diagonal and no overflow.  Here c
        takes ``gamma_{m+2}``, one rounding more for a BLAS that multiplies
        by the rounded reciprocal of a pivot; ``2 max J_ii`` stands for
        ``max A_ii``, and the last term is evaluated as
        ``8m eta (m + 1 + max J_ii)``; ``tr A`` is summed as
        ``max J_ii sum(A_ii / max J_ii)``, so that nothing overflows; and the
        factor ``1 + 8(m+2)u`` rounds c up, as c is evaluated with at most
        m + 8 roundings.  An overflow inside the factorisation leaves a
        non-finite pivot, which counts as a failure.  With every
        ``A_ii`` normal, ``|A_ii - J_ii - tau| <= u (J_ii + tau)``, and with
        ``J_ii <= lam_max``:

            lam_min(J) > -tau - u (max J_ii + tau)
                       >= -1e-10 max J_ii >= -1e-10 lam_max.

        Where the factorisation fails, or a diagonal entry is negative, or
        the largest is outside (1e-290, 1.79e308), where a step could leave
        the normal range, ``eigvalsh`` decides by the rule itself.  So does
        a singular J of more than about ``(9e5 max J_ii / mean J_ii)^(1/2)``
        rows (950 on a flat diagonal), whose c exceeds tau: it pays for the
        factorisation and ``eigvalsh`` both.
        """
        J = self.joint()
        m = len(J)
        d = np.einsum("ii->i", J)  # a writeable view: the shifts below write J
        top = float(d.max())
        if float(d.min()) >= 0.0 and 1e-290 < top < 1.79e308:
            d += (1e-10 - 2 * _U) * top
            k = (m + 2) * _U  # gamma_{m+2} / (1 - 2 gamma_{m+2}) = k / (1 - 3k)
            c = k / (1 - 3 * k) * float((d / top).sum()) * top
            d -= (c + 8 * m * _ETA * (m + 1 + top)) * (1 + 8 * k)
            if _positive_definite(J):
                return
        w = np.linalg.eigvalsh(self.joint())
        if float(w[0]) < -1e-10 * max(float(w[-1]), 0.0) - 1e-300:
            raise ValueError("joint kernel block matrix is not PSD "
                             f"(min eig {w[0]:.3e})")


def _psd_eigh(B):
    """``eigh((B + B^T) / 2)`` of ``K_aa`` or ``J`` of an accepted :class:`KernelSet`,
    its eigenvalues clipped at 0.  The set's constructor alone decides
    whether ``J`` is PSD up to rounding, so nothing here decides again: an
    eigenvalue inside that tolerance is rounding, and clips to 0."""
    w, V = np.linalg.eigh((B + B.T) / 2)
    return np.clip(w, 0.0, None), V


def _feature_chunks(ds, sigma, phi, n, m, seed, label, reduce):
    """Yield ``reduce(U)`` for each chunk of ``m`` feature columns, in order.

    Chunk ``c`` holds up to 512 columns ``U = n^{-1/2} sigma([X; Xhat] phi(Z))``
    from :func:`rfequiv.model._features` on the stacked design, with ``Z``
    from the substream (seed, label, c).  ``reduce`` runs in the pool
    worker, so only the partials leave it.
    """
    stacked = np.vstack([ds.X, ds.Xhat])
    sizes = [_CHUNK] * (m // _CHUNK) + ([m % _CHUNK] if m % _CHUNK else [])

    def one_chunk(c):
        (U,) = _features([stacked], sigma, phi, n, sizes[c], substream(seed, label, c))
        return reduce(U)

    return _parallel_map(one_chunk, len(sizes))


def estimate_kernels(ds, sigma, phi, n, m, seed):
    """Average outer products of ``m`` sampled feature columns.

    Each draw stacks train and test features,
    ``u = n^{-1/2} sigma([X; Xhat] phi(z))`` with ``z ~ N(0, I_{n0})``, and
    accumulates ``u u^T``.  Draws are split into fixed-size chunks, one
    substream per chunk index; chunk partial sums are reduced in index order
    with compensated (Kahan) summation, so the result is bit-identical for
    any worker count.

    Parameters
    ----------
    ds : Dataset
    sigma, phi : Activation
        Feature activation and weight map.
    n : int
        Feature normalization (the 1/sqrt(n) scale).
    m : int
        Number of Monte Carlo draws.
    seed : int
        Root seed in ``[0, 2^64)``; the estimator is deterministic given it.

    Returns
    -------
    KernelSet
    """
    return _chunk_fold(ds, sigma, phi, n, m, seed, "kernels", gram=True)[0]


def _chunk_fold(ds, sigma, phi, n, m, seed, label, *, gram=False, moments=False):
    """``(kernels, centering)`` of the ``m`` feature columns of
    :func:`_feature_chunks`, each None unless asked for.

    With ``gram`` each chunk is reduced to ``U U^T``, and the kernels are
    the symmetrised mean of those partials folded with compensated (Kahan)
    summation; with ``moments``, to its column sum and ``sum U**2``, and
    the centering score is ``||mean column|| / RMS column norm``.  A chunk
    is reduced in the pool worker to what is asked for and no more, and the
    partials are folded in chunk order, so neither result depends on the
    worker count.  An ``m`` below 1, or below 2 with ``moments``, raises
    ``ValueError`` before any draw.
    """
    _check_count(m, "m", 1 + moments)

    def reduce(U):
        return (U @ U.T if gram else None,
                (U.sum(axis=1), float(np.sum(U * U))) if moments else None)

    k = ds.n_train + ds.n_test
    total, comp, t = (np.zeros((k, k)) for _ in range(3)) if gram else (None,) * 3
    col_sum, sq_sum = np.zeros(k), 0.0
    for part, sums in _feature_chunks(ds, sigma, phi, n, m, seed, label, reduce):
        if gram:
            # Kahan step, in place on the worker's fresh partial: comp
            # carries the low-order bits lost by total += part
            part -= comp
            np.add(total, part, out=t)
            np.subtract(t, total, out=comp)
            comp -= part
            total, t = t, total
        if moments:
            col_sum += sums[0]
            sq_sum += sums[1]
    kernels = centering = None
    if gram:
        joint = total / m
        kernels = _split(ds, (joint + joint.T) / 2, m)
    if moments:
        rms = np.sqrt(sq_sum / m)
        centering = 0.0 if rms == 0.0 else float(np.linalg.norm(col_sum / m) / rms)
    return kernels, centering


def _kernels_and_centering(ds, sigma, phi, n, m, seed):
    """``(estimate_kernels(ds, sigma, phi, n, m, seed), centering)`` from one
    pass over the draws: the blocks are :func:`estimate_kernels`'s bit for
    bit, and the score is :func:`verify_centering`'s statistic on those
    same ``m`` columns (label "kernels", where it draws "centering")."""
    return _chunk_fold(ds, sigma, phi, n, m, seed, "kernels", gram=True, moments=True)


def _split(ds, joint, samples, exact=False):
    """The :class:`KernelSet` of a symmetric joint matrix over ``[X; Xhat]``."""
    nt = ds.n_train
    return KernelSet(joint[:nt, :nt], joint[:nt, nt:], joint[nt:, nt:], samples,
                     exact=exact)


def _arcsine(t):
    """``(2/pi) arcsin t`` on ``t`` clipped to [-1, 1]; exactly 1 at 1."""
    return np.arcsin(np.clip(t, -1.0, 1.0)) / (np.pi / 2)


def _cosines(C, s):
    """``sqrt(s_i s_j)`` and ``cos theta_ij = c_ij / sqrt(s_i s_j)``, clipped
    to [-1, 1], 0 beside a zero row and exactly 1 on the diagonal of a
    nonzero one (``arcsin`` turns an ulp below 1 into 1e-8)."""
    r = np.sqrt(s)
    rr = np.outer(r, r)
    t = np.clip(np.divide(C, rr, out=np.zeros_like(C), where=rr > 0), -1.0, 1.0)
    np.fill_diagonal(t, s > 0)
    return rr, t


def _erf_kernel(C, s):
    # 2c / sqrt((1 + 2 s_i)(1 + 2 s_j)), with no factor that can overflow
    p = np.sqrt(0.5 + s)
    return _arcsine(C / np.outer(p, p))


def _relu_kernel(C, s):
    rr, t = _cosines(C, s)
    return rr * (np.sqrt(1.0 - t * t) + (np.pi - np.arccos(t)) * t) / (2 * np.pi)


def _sin_kernel(C, s):
    # e^{-(s_i + s_j)/2} sinh c_ij, as a difference of two factors <= 1:
    # h_ij -+ c_ij = ||x_i -+ x_j||^2 / 2 >= 0, and h_ii - c_ii = 0 exactly
    h = s[:, None] / 2 + s / 2
    return 0.5 * (np.exp(C - h) - np.exp(-(h + C)))


# E[sigma(u) sigma(v)] for (u, v) ~ N(0, [[s_i, c_ij], [c_ij, s_j]]), from the
# Gram matrix C and its diagonal s
_CLOSED_FORMS = {
    "identity": lambda C, s: C,
    "erf": _erf_kernel,
    "sign": lambda C, s: _arcsine(_cosines(C, s)[1]),
    "relu": _relu_kernel,
    "sin": _sin_kernel,
}


def _has_closed_form(sigma, phi):
    """Whether :func:`exact_kernels` takes ``sigma`` and ``phi``."""
    return phi.kind == "identity" and sigma.kind in _CLOSED_FORMS


def exact_kernels(ds, sigma, phi, n, *, samples=1):
    """The kernel blocks in closed form, for a built-in ``sigma`` with
    ``phi`` = identity.

    The preactivations ``x_i . z`` of ``D = [X; Xhat]`` are then jointly
    Gaussian with covariance ``C = D D^T``, so each entry of ``E[u u^T]``
    is a function of ``(s_i, s_j, c_ij) = (C_ii, C_jj, C_ij)``, divided by
    ``n``: ``c`` for identity; the arcsine kernels
    ``(2/pi) arcsin(2c / sqrt((1 + 2 s_i)(1 + 2 s_j)))`` for erf and
    ``(2/pi) arcsin(c / sqrt(s_i s_j))`` for sign (Williams 1998); the
    arc-cosine kernel ``sqrt(s_i s_j) (sin theta + (pi - theta) cos theta)
    / (2 pi)`` with ``cos theta = c / sqrt(s_i s_j)`` for relu (Cho and
    Saul 2009); and ``e^{-(s_i + s_j)/2} sinh c`` for sin.  A zero row has
    a zero kernel row, the limit of ``sign(0) = relu(0) = 0``.  Returns a
    symmetrised :class:`KernelSet` with ``exact`` true and ``samples`` (the
    CLI's Monte Carlo budget), computed on one thread of numpy's OpenBLAS
    (it rounds ``D D^T`` by its thread count; the body is numpy only, so
    scipy's is left unloaded), so no block depends on the caller's count.

    ``ValueError`` is raised for a ``custom-table`` ``sigma`` or a ``phi``
    other than identity, for ``n < 1``, and where ``C`` or the kernel is
    not finite (``non-finite activation output``, as the draw would say),
    with no ``RuntimeWarning``.
    """
    if not _has_closed_form(sigma, phi):
        raise ValueError(f"no closed-form kernel for sigma {sigma.kind!r} "
                         f"with phi {phi.kind!r}")
    _check_count(n, "n")
    with _SINGLE_THREAD_NUMPY_BLAS, np.errstate(over="ignore", invalid="ignore"):
        C_ah = ds.X @ ds.Xhat.T
        C = np.block([[ds.X @ ds.X.T, C_ah], [C_ah.T, ds.Xhat @ ds.Xhat.T]])
        J = _CLOSED_FORMS[sigma.kind](C, C.diagonal().copy()) / n
        J = (J + J.T) / 2
    # a form can map inf entries of C to finite ones, so C is checked too
    if not (np.isfinite(C).all() and np.isfinite(J).all()):
        raise ValueError("non-finite activation output (the Gram matrix of "
                         "the design or its closed-form kernel overflows)")
    return _split(ds, J, samples, exact=True)


# not exported; perfbench imports this name from rfequiv.kernels
def analytic_identity_kernels(ds, n):
    """Exact kernels for sigma = phi = identity: blocks of [X; Xhat] [X; Xhat]^T / n,
    the identity branch of :func:`exact_kernels`."""
    return exact_kernels(ds, _IDENTITY, _IDENTITY, n)


def verify_centering(sigma, phi, ds, n, m, seed):
    """Centering diagnostic: ||mean column|| / RMS column norm over m draws.

    Values near zero support the zero-mean feature hypothesis; values near
    one indicate clearly non-centered features.  The columns are drawn in
    the chunks of :func:`estimate_kernels` under the label "centering", so
    the value is bit-identical for any worker count.  ``diagnose`` calls
    this only where its kernels are a closed form or a file; on the Monte
    Carlo route it takes the same statistic from the kernel draws
    themselves (label "kernels"), in the same pass as the blocks.
    """
    return _chunk_fold(ds, sigma, phi, n, m, seed, "centering", moments=True)[1]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def save_kernels(ks, path):
    """Write a KernelSet as canonical JSON (nested row arrays per block)."""
    report = {
        "n_train": ks.n_train,
        "n_test": ks.n_test,
        "samples": ks.samples,
        **({"exact": True} if ks.exact else {}),
        "K_aa": ks.K_aa,
        "K_ah": ks.K_ah,
        "K_hh": ks.K_hh,
    }
    write_json(path, report)


def _parse_json(path, data):
    """Parse the bytes ``data`` of the JSON file at ``path`` with orjson,
    whose floats are the correctly rounded values of their text, as the
    stdlib's are.  Where orjson refuses the text, the stdlib parses it: it
    also reads ``NaN``, ``Infinity`` and numbers that overflow to inf, which
    the checks after the parse then name.  Invalid UTF-8 and other parse
    faults raise :class:`MatrixFormatError` naming ``path``."""
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError:
        pass
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MatrixFormatError(f"{path}: malformed kernel JSON ({exc})") from exc


def load_kernels(path):
    """Read a KernelSet from JSON written by :func:`save_kernels`.

    Parse faults, a block that is not 2-D, an ``n_train``, ``n_test`` or
    ``samples`` that is not a JSON integer and an ``exact`` that is not a
    JSON boolean among them, raise :class:`MatrixFormatError`; a missing
    ``exact`` reads as false (Monte Carlo).  A header, or the ``K_ha`` of an older file,
    that disagrees with the blocks raises ``ValueError``.

    The last file accepted is kept, keyed by its bytes (never a name, size
    or mtime), until a call reads other bytes: the same bytes again, from any
    path, compare equal and return that same set unparsed and unchecked.  The
    memo holds those bytes, about 3x the size of the blocks, and a bad file
    is never kept.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    kept, kept_set = _last_file  # one read: another thread may replace the pair
    if data == kept:
        return kept_set
    # neither the kept bytes nor the kept set is held through another parse
    del kept, kept_set
    _last_file[:] = None, None
    raw = _parse_json(path, data)
    try:
        header = (raw["n_train"], raw["n_test"])
        # each parsed block is freed as its array is built: the lists of
        # floats are 4x the size of the array
        blocks = [np.array(raw.pop(name), dtype=float)
                  for name in ("K_aa", "K_ah", "K_hh")]
        for block in blocks:
            block.flags.writeable = False  # KernelSet keeps it without a copy
        K_ha = np.array(raw.pop("K_ha"), dtype=float) if "K_ha" in raw else None
        samples = raw["samples"]
        for name, count in zip(("n_train", "n_test", "samples"), (*header, samples)):
            if type(count) is not int:  # 2.7, true and "12" would convert
                raise TypeError(f"{name} must be a JSON integer, not {count!r}")
        exact = raw.get("exact", False)
        if type(exact) is not bool:
            raise TypeError(f"exact must be a JSON boolean, not {exact!r}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MatrixFormatError(f"{path}: malformed kernel JSON ({exc})") from exc
    for name, block in zip(("K_aa", "K_ah", "K_hh"), blocks):
        if block.ndim != 2:
            raise MatrixFormatError(f"{path}: malformed kernel JSON (block "
                                    f"{name} is {block.ndim}-D, not 2-D)")
    ks = KernelSet(*blocks, samples, exact=exact)
    if header != (ks.n_train, ks.n_test):
        raise ValueError(f"{path}: header {header} disagrees with the blocks")
    if K_ha is not None and not np.array_equal(K_ha, ks.K_ha):
        raise ValueError("K_ha must be the exact transpose of K_ah")
    _last_file[:] = data, ks  # in place: the module's binding never changes
    return ks
