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
import importlib
import json
import math
import numbers
import os
import re
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "ACTIVATION_KINDS",
    "Activation",
    "Dataset",
    "MatrixFormatError",
    "NonConvergence",
    "RFConfig",
    "apply_activation",
    "derive_seed",
    "load_matrix",
    "substream",
    "synthetic_regression",
    "to_json_text",
    "worker_count",
    "write_json",
    "write_matrix",
]


class MatrixFormatError(ValueError):
    """A matrix file could not be parsed (ragged rows, bad cell, bad header)."""


class NonConvergence(RuntimeError):
    """A fixed-point iteration exhausted its iteration budget."""


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


def _check_symmetric(K, name, rel=1e-12):
    if not np.all(np.isfinite(K)):
        raise ValueError(f"{name} contains non-finite entries")
    gap = np.linalg.norm(K - K.T)
    if gap > rel * max(1.0, np.linalg.norm(K)):
        raise ValueError(f"{name} is not symmetric (asymmetry {gap:.3e})")


def _clamped_eigh(K, name="K_aa"):
    """Eigendecomposition of a symmetric PSD matrix with a tolerance for
    Monte Carlo round-off: eigenvalues in [-1e-8 * lam_max, 0) are clamped to
    zero, anything below that is an error.  ``name`` labels the messages."""
    K = np.atleast_2d(np.asarray(K, dtype=float))
    if K.shape[0] != K.shape[1]:
        raise ValueError(f"{name} must be square")
    _check_symmetric(K, name)
    w, V = np.linalg.eigh((K + K.T) / 2)
    floor = -1e-8 * max(float(w[-1]), 0.0)
    if float(w[0]) < floor:
        raise ValueError(
            f"{name} is not PSD: negative eigenvalue {w[0]:.6e} below the "
            f"clamp floor {floor:.6e}"
        )
    return np.clip(w, 0.0, None), V


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


# (package, library file prefix, thread-count symbol with {} for get/set)
_OPENBLAS_BUILDS = (
    ("numpy", "libscipy_openblas64_", "scipy_openblas_{}_num_threads64_"),
    ("scipy", "libscipy_openblas-", "scipy_openblas_{}_num_threads"),
)


@functools.cache
def _blas_controls():
    """``(get, set)`` thread-count functions of each OpenBLAS that numpy and
    scipy bundle in ``numpy.libs/`` and ``scipy.libs/``, reached through
    ``ctypes``.  A build whose library or symbols are missing, such as a
    numpy linked to another BLAS, is left out, so the pin that uses these
    is then a no-op for it."""
    controls = []
    for package, prefix, symbol in _OPENBLAS_BUILDS:
        root = os.path.dirname(os.path.dirname(importlib.import_module(package).__file__))
        for path in sorted(glob.glob(os.path.join(root, package + ".libs", prefix + "*"))):
            try:
                lib = ctypes.CDLL(path)
                get, set_ = (getattr(lib, symbol.format(op)) for op in ("get", "set"))
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((get, set_))
            break
    return tuple(controls)


class _SingleThreadBlas:
    """Holds every OpenBLAS of :func:`_blas_controls` at one thread while
    any holder is inside; the outermost exit restores the counts that the
    first entry found.  The count is process-wide, so holders in several
    threads share one reference count under a lock."""

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = ()

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = tuple((set_, get()) for get, set_ in _blas_controls())
                for set_, _ in self._saved:
                    set_(1)
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for set_, count in self._saved:
                    set_(count)


_SINGLE_THREAD_BLAS = _SingleThreadBlas()


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


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

ACTIVATION_KINDS = ("identity", "erf", "sign", "sin", "relu", "custom-table")


@dataclass(frozen=True)
class Activation:
    """Entrywise scalar function applied to pre-activations.

    ``params`` is ignored except for kind ``"custom-table"``, where it holds
    k strictly increasing abscissae followed by their k ordinates; evaluation
    is linear interpolation and inputs outside the grid raise.
    """

    kind: str
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in ACTIVATION_KINDS:
            raise ValueError(f"unknown activation kind {self.kind!r}")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
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


# ---------------------------------------------------------------------------
# Domain configuration
# ---------------------------------------------------------------------------

@dataclass
class Dataset:
    """Train/test design matrices with their labels.

    Parameters
    ----------
    X, Xhat : ndarray
        Train (n_train x n0) and test (n_test x n0) inputs; the column
        counts must agree.
    y, yhat : ndarray
        Labels, one per row of the corresponding design matrix.
    w_star : ndarray, optional
        Hidden teacher coefficients when the data are synthetic.
    """

    X: np.ndarray
    Xhat: np.ndarray
    y: np.ndarray
    yhat: np.ndarray
    w_star: np.ndarray | None = None

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        self.Xhat = np.atleast_2d(np.asarray(self.Xhat, dtype=float))
        self.y = np.asarray(self.y, dtype=float).ravel()
        self.yhat = np.asarray(self.yhat, dtype=float).ravel()
        if self.X.shape[1] != self.Xhat.shape[1]:
            raise ValueError(
                f"X and Xhat must share a column count, got {self.X.shape[1]} "
                f"and {self.Xhat.shape[1]}"
            )
        if self.y.shape[0] != self.X.shape[0]:
            raise ValueError("y length must equal the row count of X")
        if self.yhat.shape[0] != self.Xhat.shape[0]:
            raise ValueError("yhat length must equal the row count of Xhat")
        for name in ("X", "Xhat", "y", "yhat"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite entries")

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
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")


def synthetic_regression(n_train, n_test, n0, noise_sd, seed):
    """Gaussian design with a unit-norm linear teacher and additive noise.

    Rows of ``X`` and ``Xhat`` are i.i.d. standard normal; a hidden
    coefficient vector ``w_star`` with unit Euclidean norm is drawn once and
    ``y = X w_star + noise``, ``yhat = Xhat w_star + noise``.  Deterministic
    given ``seed``.
    """
    if min(n_train, n_test, n0) < 1:
        raise ValueError("all dimensions must be >= 1")
    if noise_sd < 0:
        raise ValueError("noise_sd must be >= 0")
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
    return Dataset(X, Xhat, y, yhat, w_star=w)


# ---------------------------------------------------------------------------
# Matrix I/O
# ---------------------------------------------------------------------------

_RAW_HEADER = struct.Struct("<QQ")  # rows, cols as little-endian uint64


def load_matrix(path, layout="csv"):
    """Read a real matrix from ``path``.

    Layouts
    -------
    ``"csv"``
        Rows of comma- or whitespace-separated numbers, no header row.
    ``"raw-f64-le"``
        16-byte header of (rows, cols) as little-endian uint64 followed by
        row-major little-endian float64 values.

    Raises
    ------
    MatrixFormatError
        On ragged rows, non-numeric cells, or a header/body size mismatch.
    OSError
        On I/O failure.
    """
    if layout == "csv":
        return _load_csv(path)
    if layout == "raw-f64-le":
        return _load_raw(path)
    raise ValueError(f"unknown matrix layout {layout!r}")


def _load_csv(path):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            tokens = [t for t in re.split(r"[,\s]+", line.strip()) if t]
            if not tokens:
                continue
            try:
                rows.append([float(t) for t in tokens])
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
        lines = [",".join(format(v, ".17g") for v in row) for row in m]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    elif layout == "raw-f64-le":
        with open(path, "wb") as fh:
            fh.write(_RAW_HEADER.pack(*m.shape))
            fh.write(m.astype("<f8").tobytes(order="C"))
    else:
        raise ValueError(f"unknown matrix layout {layout!r}")


# ---------------------------------------------------------------------------
# Canonical JSON reports
# ---------------------------------------------------------------------------

def to_json_text(obj):
    """Serialize a report to canonical JSON.

    Keys keep their insertion order, floats are printed with 17 significant
    digits (lossless for float64), and non-finite values are rejected, so a
    given report always produces identical bytes.
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
        out.append(format(v, ".17g"))
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
