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
import itertools
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
import orjson

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


def _check_count(value, name, least=1):
    """The one rule for a count (a size, a width, a number of draws,
    replicates or probes): an integer, never a bool, at least ``least``.
    Below ``least`` it raises ``ValueError("<name> must be >= <least>")``;
    a fraction, a bool or any other type raises ``ValueError("<name> must
    be an integer >= <least>, not <value>")`` rather than a numpy
    ``TypeError`` at the first draw."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer >= {least}, not {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


def _check_ridge(delta, d=None, name="delta"):
    """Reject a width ``d`` that is no count (:func:`_check_count`) and a
    ridge that is not a positive finite real.

    A NaN ridge would pass a plain ``delta <= 0`` test and spin a solver
    through its whole iteration budget; an infinite one overflows, and a
    bool is no ridge (``True`` would solve at 1).  The resolvent
    regularization ``tau`` is checked the same way.
    """
    if d is not None:
        _check_count(d, "d")
    if isinstance(delta, bool) or not (isinstance(delta, numbers.Real) and delta > 0
                                       and math.isfinite(delta)):
        raise ValueError(f"{name} must be a positive finite real")


def _check_seed(seed):
    """The one rule for a root seed: an integer, never a bool, in the
    unsigned 64-bit range ``[0, 2^64)``.  :func:`_digest` applies it, so
    every entry that hashes a seed refuses a bad one before its draw."""
    if isinstance(seed, bool) or not (isinstance(seed, (int, np.integer))
                                      and 0 <= seed < 2 ** 64):
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


def _positive_definite(A):
    """Whether the Hermitian ``A`` has a Cholesky factor, the standard test
    of definiteness (Higham 2002, ch. 10).  A factor with a non-finite
    pivot is none: OpenBLAS passes a NaN pivot, which an overflow inside
    the factorisation can make, without an error."""
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(L.diagonal()).all())


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
    thread, without affecting the others.  Every root seed, on every entry
    of the package, is an integer, never a bool, in ``[0, 2^64)``
    (:func:`_check_seed`, applied here), as every count is an integer and
    never a bool (:func:`_check_count`).

    Parameters
    ----------
    seed : int
        Root seed in ``[0, 2^64)``; any other raises ``ValueError`` ("seed
        must fit in an unsigned 64-bit integer") before a generator is made.
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
    """Collapse (seed, label, counter) into a fresh 64-bit root seed.

    The rules are :func:`substream`'s: ``seed``, as every root seed on
    every entry, is an integer, never a bool, in ``[0, 2^64)``, and so is
    the result; counts are integers and never bools."""
    return _digest(seed, label, counter, 8)


def _digest(seed, label, counter, size):
    """BLAKE2b of ``"seed:label:counter"`` as a ``size``-byte little-endian
    int, for a ``seed`` that :func:`_check_seed` accepts."""
    _check_seed(seed)
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

    The indices run as at most 64 tasks, each a contiguous run of them that
    ``count`` alone fixes: one index a task up to 64 tasks, so a call of
    microseconds does not spend more time being handed between threads
    than running.  Results stream a task at a time, so a fold holds at most
    one task's results, and index order keeps every fold bit-stable for
    any worker count.

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
    tasks = max(1, min(64, count))
    bounds = [count * g // tasks for g in range(tasks + 1)]

    def task(g):
        return [fn(i) for i in range(bounds[g], bounds[g + 1])]

    if workers is None:
        workers = worker_count()
    workers = max(1, min(int(workers), tasks))
    # a pool that is never handed a task starts no thread
    with _SINGLE_THREAD_BLAS, ThreadPoolExecutor(max_workers=workers) as ex:
        for batch in (map if workers == 1 else ex.map)(task, range(tasks)):
            yield from batch


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

ACTIVATION_KINDS = ("identity", "erf", "sign", "sin", "relu", "custom-table")
_ERF_SATURATED = 6.0  # float64 erf is exactly +-1 from here on


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
    """Apply activation ``a`` entrywise; the result has the shape of ``M``.

    erf equals ``scipy.special.erf`` bit for bit.  In float64 that is
    exactly ``copysign(1, x)`` for ``|x| >= 6`` (the first ``x`` with
    ``erf(x) == 1.0`` is 5.9216), so when at least half of ``M`` is there,
    as for the pre-activations of a wide design, erf runs only on the rest
    (NaN among it); else it runs on all of ``M``, where the count costs a
    few percent.
    """
    x = np.asarray(M, dtype=float)
    if a.kind == "identity":
        return x.copy()
    if a.kind == "erf":
        from scipy import special  # only erf pays for the import
        saturated = np.abs(x) >= _ERF_SATURATED
        if 2 * np.count_nonzero(saturated) < x.size:
            return special.erf(x)
        flat = x.ravel()
        out = np.copysign(1.0, flat)
        live = np.flatnonzero(~saturated)  # C order, as flat
        out[live] = special.erf(flat[live])
        return out.reshape(x.shape)
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
    product (``vstack([X, Xhat]) @ W`` rounds unlike ``X @ W``).  An ``n``
    or ``k`` that is not a count (:func:`_check_count`) raises
    ``ValueError`` before the draw, and a feature that is not finite after
    it, with no ``RuntimeWarning``."""
    _check_count(n, "n")
    _check_count(k, "the feature count")
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
        _check_count(self.n, "n")
        _check_seed(self.seed)


def synthetic_regression(n_train, n_test, n0, noise_sd, seed):
    """Gaussian design with a unit-norm linear teacher and additive noise.

    Rows of ``X`` and ``Xhat`` are i.i.d. standard normal; a hidden
    coefficient vector ``w`` with unit Euclidean norm is drawn once and
    ``y = X w + noise``, ``yhat = Xhat w + noise``.  Deterministic
    given ``seed``, an integer in ``[0, 2^64)``; each size is a count.
    """
    for name, size in (("n_train", n_train), ("n_test", n_test), ("n0", n0)):
        _check_count(size, name)
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
        A cell reads as ``float`` reads it, bit for bit.  One orjson parse
        of the whole text converts the cells of a file whose cells are
        separated by commas, with or without spaces or tabs around them
        (``write_matrix``'s files among them); ``float`` converts them line
        by line in a file whose cells are separated by whitespace alone, as
        numpy's ``savetxt`` writes by default, and where a cell is not a
        JSON number or is ``-0`` (``+3``, ``nan``, ...).
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
    """The CSV layout of :func:`load_matrix`: the file is read once as text,
    then one orjson parse converts every cell where :func:`_json_rows` can
    show that it reads what ``float`` reads, and :func:`_float_rows` converts
    each line's cells with ``float`` where it cannot, so the parse decides
    speed, never a value, the accepted text or a message."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"{path}: not UTF-8 text ({exc})") from exc
    rows = _json_rows(text)
    if rows is None:
        rows = _float_rows(path, text.split("\n"))
    del text  # not held while the array is built
    if not rows:
        raise MatrixFormatError(f"{path}: no numeric rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise MatrixFormatError(f"{path}: ragged rows")
    return np.array(rows, dtype=float)


def _json_rows(text):
    """The cells of each line that has any, as numbers, through one orjson
    parse of the text with each line made a JSON array; None where that
    parse could differ from :func:`_float_rows`.

    JSON's grammar takes what the cell rules take on a line of cells joined
    by commas with spaces or tabs around them, reads a blank line as an
    empty array, and refuses an empty cell or any other separator.  When
    the parse gives one list per line and every item is a number, no line
    held a bracket, so each list is its line's cells.  orjson reads a
    number with a fraction or an exponent as its correctly rounded double,
    which is ``float``'s, and one without as an ``int``, which converts to
    that same double, except ``-0``: read as 0, it would lose its sign."""
    try:
        rows = orjson.loads("[[" + text.replace("\n", "],[") + "]]")
    except orjson.JSONDecodeError:  # e.g. 1 2, 1,,2, +3, .5, nan, 1e999, Unicode digits
        return None
    if len(rows) != text.count("\n") + 1 or any(type(row) is not list for row in rows):
        return None
    kinds = set(map(type, itertools.chain.from_iterable(rows)))
    if not kinds <= {float, int}:  # true, null, "1", [1], {}
        return None
    # a -0 cell; an exponent's -0 that ends a number, as in 1e-0, takes the
    # reference pass too
    if int in kinds and re.search(r"-0(?![.\deE])", text):
        return None
    return [row for row in rows if row]


def _float_rows(path, lines):
    """The cells of each line that has any, through ``float``, line by line:
    the first line with an empty cell or a cell ``float`` refuses is named."""
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
    return rows


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
    """Write a real matrix, a 1-D array as one row; the raw layout
    round-trips bit-exactly.  A complex array or one of more than two axes
    raises ``ValueError`` before the file is opened."""
    m = np.atleast_2d(_real(M, "the matrix"))
    if m.ndim > 2:
        raise ValueError(f"the matrix is {m.ndim}-D, not 1-D or 2-D")
    if layout == "csv":
        _write_csv(path, m)
    elif layout == "raw-f64-le":
        with open(path, "wb") as fh:
            fh.write(_RAW_HEADER.pack(*m.shape))
            fh.write(m.astype("<f8").tobytes(order="C"))
    else:
        raise ValueError(f"unknown matrix layout {layout!r}")


# The float writer.  A finite double v = m * 2**q (m < 2**53) prints under
# "%.17g" as the 17-digit integer N = round(|v| * 10**k), k = 16 - E, E the
# decimal exponent of |v|, rounded half to even on the exact value, in
# fixed notation for -4 <= E < 17 and exponent notation otherwise, with the
# trailing zeros of the fraction dropped.  For 1e-11 <= |v| < 1e16, 5**k
# fits in 64 bits and m * 5**k in 128, so N is exact in uint64 arithmetic
# (Adams, "Ryu revisited: printf floating point conversion", OOPSLA 2019).
# Each value becomes 32 bytes, four little-endian words holding the
# separator, the sign, the "0.000" prefix of 1e-4 <= |v| < 1, the digits,
# the point and the "e-05" suffix, with NUL where a character is absent;
# deleting the NULs leaves the text.  Other values (-0, subnormals, the
# rest of the range and non-finite ones) take "%.17g" itself.

_E_LO, _E_HI = -11, 15  # the decimal exponents of the integer route
_EXPONENTS = range(_E_LO, _E_HI + 1)
_CHUNK = 1 << 12  # values a pass; its temporaries stay under 1 MB
_U64 = [np.uint64(i) for i in range(65)]  # shift counts and small constants
_POW5 = np.array([5 ** k for k in range(28)], dtype=np.uint64)
_POW10_FLOAT = np.array([float(f"1e{j}") for j in range(-330, 330)])  # [j + 330]
_BYTES = np.uint64(0x0101010101010101)


def _word(text, at):
    """The ASCII bytes of ``text`` from byte ``at`` of a little-endian word."""
    return sum(ord(c) << 8 * (at + i) for i, c in enumerate(text))


def _table(f):
    return np.array([f(e) for e in _EXPONENTS], dtype=np.uint64)


_PREFIX = _table(lambda e: _word("0." + "0" * (-e - 1) if -4 <= e < 0 else "", 2))
_SUFFIX = _table(lambda e: _word(f"e-{-e:02d}" if e < -4 else "", 1))
# the digits after the lead that stay even when zero (fixed notation's
# integer part), and how many digits after the lead the point follows (16:
# none here; fixed notation below 1 has it in the prefix)
_INT_DIGITS = np.array([e if e >= 0 else 0 for e in _EXPONENTS])
_POINT_AT = np.array([16 if -4 <= e < 0 else max(e, 0) for e in _EXPONENTS])
# the bytes of the two digit words below digit t (0 <= t <= 16), and the point at t
_BELOW_1 = np.array([(1 << 8 * min(t, 8)) - 1 for t in range(17)], dtype=np.uint64)
_BELOW_2 = np.array([(1 << 8 * max(t - 8, 0)) - 1 for t in range(17)], dtype=np.uint64)
_POINT_1 = np.array([46 << 8 * t if t < 8 else 0 for t in range(17)], dtype=np.uint64)
_POINT_2 = np.array([46 << 8 * (t - 8) if 8 <= t < 16 else 0 for t in range(17)],
                    dtype=np.uint64)
_ZEROS = np.array([0x30 * int(_BYTES) & (1 << 8 * min(j, 8)) - 1 for j in range(17)],
                  dtype=np.uint64)  # "0" in the lowest j bytes


def _scaled(m, q, k):
    """``floor(m * 2**q * 10**k)`` for ``m < 2**53``, ``0 <= k <= 27`` and
    ``-2 <= -(q + k) <= 63``, and whether rounding it half to even goes up:
    ``m * 5**k`` as the words ``hi, lo`` of a 128-bit product."""
    u = _U64
    p = _POW5[k]
    mh, ml = m >> u[32], m & np.uint64(0xFFFFFFFF)
    ph, pl = p >> u[32], p & np.uint64(0xFFFFFFFF)
    ll = ml * pl
    cross = mh * pl + ml * ph  # < 2**64 since mh < 2**21
    lo = ll + (cross << u[32])
    hi = mh * ph + (cross >> u[32])
    hi += lo < ll
    s = -(q + k)
    sr = np.clip(s, 1, 63).view(np.uint64)
    t = (hi << (u[64] - sr)) | (lo >> sr)
    rem = lo & ((u[1] << sr) - u[1])
    half = u[1] << (sr - u[1])
    up = (rem > half) | ((rem == half) & (t & u[1]).astype(bool))
    left = s < 1  # 2**52 <= |v| < 1e16, where k = 1: the product is exact
    if left.any():
        t = np.where(left, lo << np.clip(-s, 0, 2).view(np.uint64), t)
        up &= ~left
    return t, up


def _digit_bytes(x):
    """The eight decimal digits of each ``x < 10**8``, one a byte, the first
    in the lowest (SWAR halving: 4+4 digits, 2+2, 1+1)."""
    u = _U64
    v = x // np.uint64(10000)
    v |= (x - v * np.uint64(10000)) << u[32]
    d = ((v * np.uint64(10486)) >> u[20]) & np.uint64(0x0000007F0000007F)
    v = d | ((v - d * np.uint64(100)) << u[16])
    d = ((v * np.uint64(103)) >> u[10]) & np.uint64(0x000F000F000F000F)
    return d | ((v - d * u[10]) << u[8])


def _through_last_nonzero(w):
    """0x30 in each byte of ``w`` (bytes of at most 9) up to its highest
    nonzero byte, 0 above it."""
    u = _U64
    w = w | (w >> u[8])
    w |= w >> u[16]
    w |= w >> u[32]
    return (((w + _BYTES * np.uint64(0x7F)) & (_BYTES * np.uint64(0x80))) >> u[7]) \
        * np.uint64(0x30)


def _chunk_text(x, first, ncols, row_sep, neg_zero):
    """The text of the flat float64 values ``x``, those from index ``first``
    on of rows of ``ncols``, each after its separator: ``row_sep`` before a
    row's first value, "," before the others."""
    u = _U64
    bits = x.view(np.uint64)
    biased = (bits >> u[52]).astype(np.int64) & 0x7FF
    m = (bits & np.uint64((1 << 52) - 1)) | np.uint64(1 << 52)
    q = biased - 1075
    E = ((biased - 1023) * 78913) >> 18  # floor(log10 |v|) or one below
    E += np.abs(x) >= _POW10_FLOAT[E + 331]  # |v| >= 10**(E + 1)
    ok = (biased != 0) & (E >= _E_LO) & (E <= _E_HI)
    E[~ok] = 0
    T, up = _scaled(m, q, 16 - E)
    # E is still one off where |v| is within an ulp of a power of ten; the
    # truncated T tells, since a rounded one can carry up to 10**16
    wrong = ok & ((T < np.uint64(10 ** 16)) | (T >= np.uint64(10 ** 17)))
    if wrong.any():
        i = np.flatnonzero(wrong)
        Ei = E[i] + np.where(T[i] < np.uint64(10 ** 16), -1, 1)
        inside = (Ei >= _E_LO) & (Ei <= _E_HI)
        ok[i[~inside]] = False
        i, Ei = i[inside], Ei[inside]
        E[i] = Ei
        T[i], up[i] = _scaled(m[i], q[i], 16 - Ei)
    N = T + up
    carry = N == np.uint64(10 ** 17)
    N[carry] = np.uint64(10 ** 16)
    E[carry] += 1
    N[~ok] = 0  # +0 prints as its lead digit alone
    e = E - _E_LO
    lead = N // np.uint64(10 ** 16)
    rest = N - lead * np.uint64(10 ** 16)
    high = rest // np.uint64(10 ** 8)
    w1 = _digit_bytes(high)
    w2 = _digit_bytes(rest - high * np.uint64(10 ** 8))
    kept2 = _through_last_nonzero(w2)
    kept1 = np.where(kept2 != 0, _BYTES * np.uint64(0x30), _through_last_nonzero(w1))
    t = _POINT_AT[e]
    t[((kept1 & ~_BELOW_1[t]) | (kept2 & ~_BELOW_2[t])) == 0] = 16  # no fraction
    keep = _INT_DIGITS[e]
    w1 += kept1 | _ZEROS[keep]
    w2 += kept2 | _ZEROS[np.maximum(keep - 8, 0)]
    below1, below2 = _BELOW_1[t], _BELOW_2[t]
    out = np.empty((x.size, 4), dtype="<u8")
    out[:, 0] = (np.uint64(44) | (bits >> u[63]) * np.uint64(45 << 8) | _PREFIX[e]
                 | (lead + np.uint64(48)) << u[56])
    out[-first % ncols::ncols, 0] ^= np.uint64(44 ^ 10)
    out[:, 1] = (w1 & below1) | ((w1 & ~below1) << u[8]) | _POINT_1[t]
    out[:, 2] = ((w2 & below2) | ((w2 & ~below2) << u[8]) | (w1 & ~below1) >> u[56]
                 | _POINT_2[t])
    out[:, 3] = ((w2 & ~below2) >> u[56]) | _SUFFIX[e]
    other = np.flatnonzero(~ok & (bits != 0))
    if other.size:
        values = x[other].tolist()
        texts = np.array((",".join(["%.17g"] * len(values)) % tuple(values)).split(","),
                         dtype="S25")
        texts[texts == b"-0"] = neg_zero
        chars = out.view(np.uint8)
        chars[other, 1:] = 0
        chars[other, 1:26] = texts.view(np.uint8).reshape(-1, 25)
    text = out.tobytes().translate(None, b"\0").decode("ascii")
    return text if row_sep == "\n" else text.replace("\n", row_sep)


def _row_texts(m, row_sep="\n", neg_zero="-0"):
    """The text of the rows of the 2-D float array ``m``, in pieces: each
    value as ``format(v, ".17g")`` writes it (but a negative zero as
    ``neg_zero``), joined by commas, and the rows joined by ``row_sep``.
    The digits come from integer arithmetic, in passes of ``_CHUNK``
    values, and are byte for byte those of ``format``."""
    rows, ncols = m.shape
    if not m.size:
        return [row_sep.join([""] * rows)] if rows else []
    flat = np.ascontiguousarray(m, dtype=np.float64).reshape(-1)
    pieces = [_chunk_text(flat[i:i + _CHUNK], i, ncols, row_sep, neg_zero)
              for i in range(0, flat.size, _CHUNK)]
    pieces[0] = pieces[0][len(row_sep):]
    return pieces


def _write_csv(path, rows, header=None):
    """Write comma-separated ``rows`` (a 2-D array, or rows of numbers) under
    an optional ``header`` of column names, each at 17 significant digits
    (an integer of magnitude <= 2^53 as itself)."""
    m = np.asarray(rows if isinstance(rows, np.ndarray) else list(rows), dtype=float)
    pieces = _row_texts(m.reshape(len(m), -1 if m.size else 0))
    if header is not None:
        pieces = [",".join(header), "\n" if pieces else "", *pieces]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(pieces)
        fh.write("\n")


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
        # the bytes of emitting obj.tolist()
        if not np.isfinite(obj).all():
            raise ValueError("non-finite value in JSON report")
        two = obj.ndim == 2
        out.append("[[" if two else "[")
        # "-0" would read back as +0
        out.extend(_row_texts(obj if two else obj[None], "],[", "-0.0"))
        out.append("]]" if two else "]")
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
    """Write ``obj`` as canonical JSON plus a trailing newline.  The text is
    written piece by piece, never joined: a 2000/2000 kernel file is 281 MB
    of it."""
    out = []
    _emit(obj, out)
    out.append("\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(out)
