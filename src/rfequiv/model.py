"""Domain types, seeding, activation registry, matrix I/O, and report plumbing.

Everything downstream (kernel estimation, fixed-point solvers, simulation,
CLI) builds on the types and helpers defined here.
"""

from __future__ import annotations

import cmath
import ctypes
import functools
import glob
import hashlib
import importlib.util
import json
import math
import numbers
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Activation",
    "Dataset",
    "MatrixFormatError",
    "NonConvergence",
    "RFConfig",
    "load_matrix",
    "synthetic_regression",
    "write_json",
    "write_matrix",
]


class MatrixFormatError(ValueError):
    """A matrix or kernel file could not be parsed (text that is not UTF-8,
    ragged rows, bad cell, bad header)."""


class NonConvergence(RuntimeError):
    """A fixed-point solve exhausted its step budget or could not proceed."""


def _check_ridge(delta, d=None, name="delta"):
    """Reject a width below 1 and a ridge that is not a positive finite real.

    A NaN ridge would pass a plain ``delta <= 0`` test and spin a solver
    through its whole iteration budget; an infinite one overflows.  The
    resolvent regularization ``tau`` is checked the same way.
    """
    if d is not None and d < 1:
        raise ValueError("d must be >= 1")
    if not (isinstance(delta, numbers.Real) and delta > 0
            and math.isfinite(delta)):
        raise ValueError(f"{name} must be a positive finite real")


def _check_seed(seed):
    """Reject a root seed outside the unsigned 64-bit range ``[0, 2^64)``."""
    if not 0 <= int(seed) < 2 ** 64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")


def _check_z(z, regularized=False):
    """``z`` as a complex: finite, and 0 or in the open upper half-plane, or
    with ``Im z >= 0`` for a solve ``regularized`` by ``i*tau*I``.  A NaN
    would pass a plain ``z.imag < 0`` test."""
    z = complex(z)
    if not (cmath.isfinite(z) and (z.imag > 0 or z == 0 or regularized and z.imag == 0)):
        raise ValueError("z must be finite with Im z >= 0" if regularized
                         else "z must be 0 or finite in the open upper half-plane")
    return z


def _check_heights(eta_list):
    """Heights of ``z = i*eta`` as floats: two or more, finite, positive and
    strictly increasing."""
    etas = [float(e) for e in eta_list]
    if not (len(etas) >= 2 and all(math.isfinite(e) for e in etas)
            and etas[0] > 0 and all(b > a for a, b in zip(etas, etas[1:]))):
        raise ValueError("eta_list needs at least two finite, positive, "
                         "strictly increasing heights")
    return etas


def _real(x, name):
    """``x`` as a float array.  A complex one is refused: the cast would
    drop its imaginary part with only a ``ComplexWarning``."""
    a = np.asarray(x)
    if np.iscomplexobj(a):
        raise ValueError(f"{name} is complex, not real")
    return np.asarray(a, dtype=float)


def _matrix(x, name, square=False):
    """``x`` as a finite 2-D float array with at least one row and one column,
    never reshaped; with ``square``, also square and symmetric to 1e-12
    relative in Frobenius norm, taken on ``b = x / max(1, max|x|)`` so that no
    norm overflows.  Faults name ``name``."""
    a = _real(x, name)
    if a.ndim != 2:
        raise ValueError(f"{name} is {a.ndim}-D, not 2-D")
    if not a.size:
        raise ValueError(f"{name} is empty (shape {a.shape})")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    if square:
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"{name} must be square, not {a.shape}")
        s = max(1.0, float(np.abs(a).max(initial=0.0)))
        b = a / s
        gap = float(np.linalg.norm(b - b.T))
        if gap > 1e-12 * max(1.0 / s, np.linalg.norm(b)):
            raise ValueError(f"{name} is not symmetric (asymmetry {gap * s:.3e})")
    return a


def _vector(x, name, n):
    """``x``, a 1-D array or a matrix of one row or one column, as a finite
    float vector of length ``n``.  Faults name ``name``."""
    a = _real(x, name)
    a = a.reshape(-1) if a.ndim == 2 and 1 in a.shape else a
    if a.ndim != 1:
        raise ValueError(f"{name} must be one row or one column, not shape {a.shape}")
    if a.shape[0] != n:
        raise ValueError(f"{name} has {a.shape[0]} entries, not {n}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _clamped_eigh(K, name="K_aa"):
    """Eigendecomposition of a symmetric PSD matrix with a tolerance for
    Monte Carlo round-off: eigenvalues in [-1e-8 * lam_max, 0) are clamped to
    zero, anything below that is an error.  ``name`` labels the messages."""
    K = _matrix(K, name, square=True)
    w, V = np.linalg.eigh((K + K.T) / 2)
    floor = -1e-8 * max(float(w[-1]), 0.0)
    if float(w[0]) < floor:
        raise ValueError(
            f"{name} is not PSD: negative eigenvalue {w[0]:.6e} below the "
            f"clamp floor {floor:.6e}"
        )
    return np.clip(w, 0.0, None), V


def _positive_definite(A):
    """Whether the Hermitian ``A`` has a Cholesky factor, the standard test
    of definiteness (Higham 2002, ch. 10)."""
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return False
    return True


def _ridge_solve(gram, ridge, y):
    """``(gram + ridge I)^{-1} y`` for a symmetric PSD ``gram`` and a positive
    ridge, by Cholesky of the symmetrized matrix; no inverse is formed."""
    from scipy.linalg import cho_factor, cho_solve  # only the ridge solves pay for it
    G = gram + ridge * np.eye(gram.shape[0])
    return cho_solve(cho_factor((G + G.T) / 2, lower=True), y)


# ---------------------------------------------------------------------------
# Randomness
# ---------------------------------------------------------------------------

def substream(seed, label, counter=0):
    """Independent generator for the triple (seed, label, counter).

    The triple is hashed into a Philox key, so substreams are counter-based
    and order-independent: any subset can be drawn in any order, on any
    thread, without affecting the others.

    Parameters
    ----------
    seed : int
        Root seed (64-bit unsigned).
    label : str
        Purpose of the stream, e.g. ``"replicate"`` or ``"kernels"``.
    counter : int, optional
        Index within the labelled family (chunk index, replicate index, ...).

    Returns
    -------
    numpy.random.Generator
    """
    key = _digest(seed, label, counter, 16)
    return np.random.Generator(np.random.Philox(key=key))


def derive_seed(seed, label, counter=0):
    """Collapse (seed, label, counter) into a fresh 64-bit root seed."""
    return _digest(seed, label, counter, 8)


def _digest(seed, label, counter, size):
    """BLAKE2b of ``"seed:label:counter"`` as a ``size``-byte little-endian int."""
    msg = f"{int(seed)}:{label}:{int(counter)}".encode()
    return int.from_bytes(hashlib.blake2b(msg, digest_size=size).digest(), "little")


def worker_count():
    """Worker cap for internal thread pools; RF_EQUIV_THREADS overrides."""
    env = os.environ.get("RF_EQUIV_THREADS")
    if not env:
        return os.cpu_count() or 1
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"RF_EQUIV_THREADS must be a positive integer, got {env!r}")
    return value


# package -> (library file prefix, thread-count symbol with {} for get/set)
_OPENBLAS_BUILDS = {
    "numpy": ("libscipy_openblas64_", "scipy_openblas_{}_num_threads64_"),
    "scipy": ("libscipy_openblas-", "scipy_openblas_{}_num_threads"),
}


@functools.cache
def _blas_control(package):
    """``(get, set)`` thread-count functions of the OpenBLAS in ``<package>.libs/``
    (the package is located, never imported), through ``ctypes``; None where its
    library or symbols are missing (a numpy linked to another BLAS)."""
    prefix, symbol = _OPENBLAS_BUILDS[package]
    root = os.path.dirname(os.path.dirname(importlib.util.find_spec(package).origin))
    for path in sorted(glob.glob(os.path.join(root, package + ".libs", prefix + "*"))):
        try:
            lib = ctypes.CDLL(path)
            get, set_ = (getattr(lib, symbol.format(op)) for op in ("get", "set"))
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def _blas_controls(packages=tuple(_OPENBLAS_BUILDS)):
    """The controls of :func:`_blas_control` that ``packages`` have, in order."""
    return tuple(c for c in map(_blas_control, packages) if c)


class _SingleThreadBlas:
    """Holds the OpenBLAS of each of ``packages`` at one thread while any
    holder is inside; the last exit restores the count that the first entry
    found.  The count is process-wide, so all pins share one holder count
    per build, under one lock, whatever thread or pin holds it."""

    _lock = threading.Lock()
    _held = {}  # id of a set function -> [holders, count the first one found]

    def __init__(self, packages=tuple(_OPENBLAS_BUILDS)):
        self._packages = packages

    def __enter__(self):
        with self._lock:
            for get, set_ in _blas_controls(self._packages):
                held = self._held.setdefault(id(set_), [0, None])
                if not held[0]:
                    held[1] = get()
                    set_(1)
                held[0] += 1

    def __exit__(self, *exc):
        with self._lock:
            for _, set_ in _blas_controls(self._packages):
                held = self._held[id(set_)]
                held[0] -= 1
                if not held[0]:
                    set_(held[1])


_SINGLE_THREAD_BLAS = _SingleThreadBlas()
_SINGLE_THREAD_NUMPY_BLAS = _SingleThreadBlas(("numpy",))  # scipy's costs ~10 ms to load


def _parallel_map(fn, count, workers=None):
    """Yield ``fn(i)`` for ``i`` in ``range(count)`` in index order, on at
    most ``workers`` threads (default :func:`worker_count`; one runs inline).
    Results stream, so a fold never holds them all, and index order keeps
    every fold bit-stable for any worker count.

    While the map runs, from its first result until it is exhausted,
    closed or raises, numpy's and scipy's OpenBLAS run on one thread; the
    counts found at the start are then restored.  The pool is the one
    level of parallelism: a multithreaded BLAS inside every worker
    oversubscribed the cores and made the benchmark sweep about four times
    slower (README, "Determinism and threads").  The pin holds on the
    inline path too, so a result depends neither on ``workers`` or
    ``RF_EQUIV_THREADS`` nor on the count the caller left set, although
    OpenBLAS rounds differently with its thread count.  Calls outside a
    map keep the caller's count, which ``OPENBLAS_NUM_THREADS`` sets.
    Where a build lacks the thread-count symbols (a BLAS other than the
    bundled OpenBLAS) the pin is a no-op for it.

    The pin uses ``scipy_openblas_set_num_threads*``, never
    ``openblas_set_num_threads_local``: in OpenBLAS 0.3.31 the latter,
    called from a worker, changes the count that every thread reads, so
    pinning and restoring inside the workers would race with the caller.
    """
    if workers is None:
        workers = worker_count()
    workers = max(1, min(int(workers), count))
    with _SINGLE_THREAD_BLAS:
        if workers == 1:
            yield from map(fn, range(count))
            return
        with ThreadPoolExecutor(max_workers=workers) as ex:
            yield from ex.map(fn, range(count))


def _grouped_map(fn, count):
    """Yield ``fn(i)`` for ``i`` in ``range(count)`` in index order, as
    :func:`_parallel_map` does, with one contiguous run of indices per pool
    task: at most 64 tasks, split by ``count`` alone, so the split and
    every fold over the results are the same for any worker count.  It is
    for calls of microseconds, where one task per index spends more time
    handing work between threads than doing it."""
    tasks = max(1, min(64, count))
    bounds = [count * g // tasks for g in range(tasks + 1)]
    for batch in _parallel_map(
            lambda g: [fn(i) for i in range(bounds[g], bounds[g + 1])], tasks):
        yield from batch


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

ACTIVATION_KINDS = ("identity", "erf", "sign", "sin", "relu", "custom-table")


@dataclass(frozen=True)
class Activation:
    """Entrywise scalar function applied to pre-activations.

    Only kind ``"custom-table"`` takes ``params``, all finite: k strictly
    increasing abscissae followed by their k ordinates; evaluation is linear
    interpolation and inputs outside the grid raise.
    """

    kind: str
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in ACTIVATION_KINDS:
            raise ValueError(f"unknown activation kind {self.kind!r}")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.params and self.kind != "custom-table":
            raise ValueError(f"activation {self.kind!r} takes no parameters")
        if not all(math.isfinite(p) for p in self.params):
            raise ValueError("activation parameters must be finite")
        if self.kind == "custom-table":
            p = self.params
            if len(p) < 4 or len(p) % 2:
                raise ValueError(
                    "custom-table needs k >= 2 abscissae followed by k ordinates"
                )
            xs = p[: len(p) // 2]
            if any(b <= a for a, b in zip(xs, xs[1:])):
                raise ValueError("custom-table abscissae must be strictly increasing")


def apply_activation(a, M):
    """Apply activation ``a`` entrywise; the result has the shape of ``M``."""
    x = np.asarray(M, dtype=float)
    if a.kind == "identity":
        return x.copy()
    if a.kind == "erf":
        from scipy import special  # only erf pays for the import
        return special.erf(x)
    if a.kind == "sign":
        return np.sign(x)  # sign(0) = 0
    if a.kind == "sin":
        return np.sin(x)
    if a.kind == "relu":
        return np.maximum(x, 0.0)
    k = len(a.params) // 2
    xs = np.asarray(a.params[:k])
    ys = np.asarray(a.params[k:])
    if x.size and (x.min() < xs[0] or x.max() > xs[-1]):
        raise ValueError("custom-table input outside the abscissa grid")
    return np.interp(x, xs, ys)


def _features(designs, sigma, phi, n, k, rng):
    """``n^{-1/2} sigma(D phi(Z))`` for each design block ``D``, as a tuple,
    with ``Z`` (n0 x k) one standard normal draw from ``rng``: the one
    feature map of kernel chunks and sampled draws.  Each block is its own
    product (``vstack([X, Xhat]) @ W`` rounds unlike ``X @ W``).  ``n`` or
    ``k`` below 1 raises ``ValueError`` before the draw, and a feature that
    is not finite after it, with no ``RuntimeWarning``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 1:
        raise ValueError("the feature count must be >= 1")
    scale = 1.0 / math.sqrt(n)
    with np.errstate(over="ignore", invalid="ignore"):
        W = apply_activation(phi, rng.standard_normal((designs[0].shape[1], k)))
        blocks = tuple(scale * apply_activation(sigma, D @ W) for D in designs)
    if not all(np.all(np.isfinite(U)) for U in blocks):
        raise ValueError("non-finite activation output")
    return blocks


# ---------------------------------------------------------------------------
# Domain configuration
# ---------------------------------------------------------------------------

@dataclass(eq=False)  # holds arrays: equal only to itself
class Dataset:
    """Train/test design matrices with their labels.

    Parameters
    ----------
    X, Xhat : ndarray
        Train (n_train x n0) and test (n_test x n0) inputs; the column
        counts must agree.
    y, yhat : ndarray
        Labels, one per row of the corresponding design matrix.
    """

    X: np.ndarray
    Xhat: np.ndarray
    y: np.ndarray
    yhat: np.ndarray

    def __post_init__(self):
        self.X = _matrix(self.X, "X")
        self.Xhat = _matrix(self.Xhat, "Xhat")
        if self.X.shape[1] != self.Xhat.shape[1]:
            raise ValueError(f"X and Xhat must share a column count, got "
                             f"{self.X.shape[1]} and {self.Xhat.shape[1]}")
        self.y = _vector(self.y, "y", self.X.shape[0])
        self.yhat = _vector(self.yhat, "yhat", self.Xhat.shape[0])

    @property
    def n_train(self):
        return self.X.shape[0]

    @property
    def n_test(self):
        return self.Xhat.shape[0]

    @property
    def n0(self):
        return self.X.shape[1]


@dataclass(frozen=True)
class RFConfig:
    """Hidden width d, ridge delta, feature normalization n, and root seed."""

    d: int
    delta: float
    n: int
    seed: int

    def __post_init__(self):
        _check_ridge(self.delta, self.d)
        if self.n < 1:
            raise ValueError("n must be >= 1")
        _check_seed(self.seed)


def synthetic_regression(n_train, n_test, n0, noise_sd, seed):
    """Gaussian design with a unit-norm linear teacher and additive noise.

    Rows of ``X`` and ``Xhat`` are i.i.d. standard normal; a hidden
    coefficient vector ``w`` with unit Euclidean norm is drawn once and
    ``y = X w + noise``, ``yhat = Xhat w + noise``.  Deterministic
    given ``seed``.
    """
    if min(n_train, n_test, n0) < 1:
        raise ValueError("all dimensions must be >= 1")
    if not 0 <= noise_sd < math.inf:  # NaN fails both comparisons
        raise ValueError(f"noise_sd must be a finite real >= 0, not {noise_sd}")
    rng = substream(seed, "synthetic")
    X = rng.standard_normal((n_train, n0))
    Xhat = rng.standard_normal((n_test, n0))
    w = rng.standard_normal(n0)
    w /= np.linalg.norm(w)
    y = X @ w
    yhat = Xhat @ w
    if noise_sd > 0:
        y = y + noise_sd * rng.standard_normal(n_train)
        yhat = yhat + noise_sd * rng.standard_normal(n_test)
    return Dataset(X, Xhat, y, yhat)


# ---------------------------------------------------------------------------
# Matrix I/O
# ---------------------------------------------------------------------------

_RAW_HEADER = struct.Struct("<QQ")  # rows, cols as little-endian uint64


def load_matrix(path, layout="csv"):
    """Read a real matrix from ``path``.

    Layouts
    -------
    ``"csv"``
        Rows of numbers split at commas and ``str.isspace`` whitespace, no
        header row; an empty comma-separated cell (``1,,2``, ``1,2,``) is refused.
    ``"raw-f64-le"``
        16-byte header of (rows, cols) as little-endian uint64 followed by
        row-major little-endian float64 values.

    Raises
    ------
    MatrixFormatError
        On a CSV file that is not UTF-8 text, ragged rows, empty or
        non-numeric cells, or a header/body size mismatch.
    OSError
        On I/O failure.
    """
    if layout == "csv":
        return _load_csv(path)
    if layout == "raw-f64-le":
        return _load_raw(path)
    raise ValueError(f"unknown matrix layout {layout!r}")


def _load_csv(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"{path}: not UTF-8 text ({exc})") from exc
    rows = []
    for lineno, line in enumerate(lines, 1):
        tokens = line.replace(",", " ").split()
        # n commas bound n + 1 cells; fewer tokens means an empty one
        commas = line.count(",")
        if commas and len(tokens) <= commas:
            raise MatrixFormatError(f"{path}:{lineno}: empty cell")
        if not tokens:
            continue
        try:
            rows.append(list(map(float, tokens)))
        except ValueError as exc:
            raise MatrixFormatError(
                f"{path}:{lineno}: non-numeric cell"
            ) from exc
    if not rows:
        raise MatrixFormatError(f"{path}: no numeric rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise MatrixFormatError(f"{path}: ragged rows")
    return np.array(rows, dtype=float)


def _load_raw(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _RAW_HEADER.size:
        raise MatrixFormatError(f"{path}: missing 16-byte header")
    rows, cols = _RAW_HEADER.unpack_from(data)
    body = data[_RAW_HEADER.size:]
    if len(body) != 8 * rows * cols:
        raise MatrixFormatError(
            f"{path}: header promises {rows}x{cols} values, "
            f"body holds {len(body)} bytes"
        )
    return np.frombuffer(body, dtype="<f8").reshape(rows, cols).astype(float)


def write_matrix(path, M, layout="csv"):
    """Write a real matrix; the raw layout round-trips bit-exactly."""
    m = np.atleast_2d(np.asarray(M, dtype=float))
    if layout == "csv":
        _write_csv(path, m.tolist())
    elif layout == "raw-f64-le":
        with open(path, "wb") as fh:
            fh.write(_RAW_HEADER.pack(*m.shape))
            fh.write(m.astype("<f8").tobytes(order="C"))
    else:
        raise ValueError(f"unknown matrix layout {layout!r}")


def _row_texts(rows):
    """Yield each row of numbers as its values at 17 significant digits, the
    bytes of ``format(v, ".17g")``, joined by commas: one ``%`` call a row."""
    templates = {}
    for row in map(tuple, rows):
        if len(row) not in templates:
            templates[len(row)] = ",".join(["%.17g"] * len(row))
        yield templates[len(row)] % row


def _write_csv(path, rows, header=None):
    """Write comma-separated ``rows`` under an optional ``header`` of column
    names, each at 17 significant digits (an integer of magnitude <= 2^53 as itself)."""
    lines = [] if header is None else [",".join(header)]
    lines.extend(_row_texts(rows))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Canonical JSON reports
# ---------------------------------------------------------------------------

def to_json_text(obj):
    """Serialize a report to canonical JSON.

    Keys keep their insertion order, floats are printed with 17 significant
    digits (lossless for float64; a negative zero as ``-0.0``), and
    non-finite values are rejected, so a given report always produces
    identical bytes.
    """
    out = []
    _emit(obj, out)
    return "".join(out)


def _emit(obj, out):
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not math.isfinite(v):
            raise ValueError("non-finite value in JSON report")
        text = format(v, ".17g")
        out.append("-0.0" if text == "-0" else text)  # "-0" would read back as +0
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise TypeError("JSON report keys must be strings")
            if i:
                out.append(",")
            out.append(json.dumps(k))
            out.append(":")
            _emit(v, out)
        out.append("}")
    elif (isinstance(obj, np.ndarray) and obj.dtype == np.float64
          and obj.ndim in (1, 2) and obj.size):
        # the bytes of emitting obj.tolist(), with one % call a row
        if not np.isfinite(obj).all():
            raise ValueError("non-finite value in JSON report")
        rows = list(_row_texts(obj.tolist() if obj.ndim == 2 else [obj.tolist()]))
        if np.any(np.signbit(obj) & (obj == 0)):  # "-0" would read back as +0
            rows = [",".join("-0.0" if t == "-0" else t for t in r.split(","))
                    for r in rows]
        out.append(f"[[{'],['.join(rows)}]]" if obj.ndim == 2 else f"[{rows[0]}]")
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), out)
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _emit(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} in a JSON report")


def write_json(path, obj):
    """Write ``obj`` as canonical JSON plus a trailing newline."""
    text = to_json_text(obj) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
