"""Domain types, seeding, activation registry, matrix I/O, and report plumbing.

Everything downstream (kernel estimation, fixed-point solvers, simulation,
CLI) builds on the types and helpers defined here.
"""

from __future__ import annotations

import cmath
import collections
import ctypes
import functools
import glob
import hashlib
import importlib.util
import itertools
import math
import numbers
import os
import re
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
    ragged rows, bad cell, bad header, a ``.npy`` file that holds no 2-D
    float64 array)."""


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
    than running.  At most ``2 * workers`` tasks are submitted ahead of the
    one whose results the caller is taking, in index order, so a slow
    caller makes the pool wait instead of holding every finished result:
    the pool holds at most that window of tasks' results beside the
    caller's.  Index order keeps every fold bit-stable for any worker count.

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
    window = 2 * workers
    # a pool that is never handed a task starts no thread
    with _SINGLE_THREAD_BLAS, ThreadPoolExecutor(max_workers=workers) as ex:
        if workers == 1:
            for g in range(tasks):
                yield from task(g)
            return
        ahead = collections.deque(ex.submit(task, g) for g in range(min(window, tasks)))
        try:
            for g in range(window, tasks + window):
                batch = ahead.popleft().result()
                if g < tasks:
                    ahead.append(ex.submit(task, g))
                yield from batch
        finally:  # a raise or a close starts none of the tasks still queued
            ex.shutdown(cancel_futures=True)


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
    given ``seed``, an integer in ``[0, 2^64)``; each size is a count, and
    ``noise_sd`` a finite real >= 0 that is not a bool.
    """
    for name, size in (("n_train", n_train), ("n_test", n_test), ("n0", n0)):
        _check_count(size, name)
    # NaN fails both comparisons; a bool is no noise level (True drew SD 1)
    if isinstance(noise_sd, bool) or not (isinstance(noise_sd, numbers.Real)
                                          and 0 <= noise_sd < math.inf):
        raise ValueError(f"noise_sd must be a finite real >= 0, not {noise_sd!r}")
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

_NUMPY = orjson.OPT_SERIALIZE_NUMPY
_CSV_CELLS = 1 << 16  # cells of a CSV file that one orjson call writes, or one row


def load_matrix(path):
    """Read a real matrix from ``path``; the file name picks the container.

    Containers
    ----------
    a name ending in ``.npy``
        numpy's own format (NEP 1), read by numpy's reader with pickles
        refused.  The file holds one 2-D float64 array, of either byte
        order and either order flag, and nothing after it.  The matrix is
        returned C-contiguous in native byte order, bit for bit.
    any other name
        CSV: rows of numbers split at commas and ``str.isspace`` whitespace,
        no header row; an empty comma-separated cell (``1,,2``, ``1,2,``) is
        refused.  A cell reads as ``float`` reads it, bit for bit.  One
        orjson parse of the whole text converts the cells of a file whose
        cells are separated by commas, with or without spaces or tabs around
        them (``write_matrix``'s files among them); ``float`` converts them
        line by line in a file whose cells are separated by whitespace
        alone, as numpy's ``savetxt`` writes by default, and where a cell is
        not a JSON number or is ``-0`` (``+3``, ``nan``, ...).

    Raises
    ------
    MatrixFormatError
        Naming the file: on a CSV file that is not UTF-8 text, ragged rows,
        empty or non-numeric cells; on a ``.npy`` file that numpy's reader
        refuses (bad magic, a short header or body, an object array, a
        size it cannot allocate), with bytes after the array, or holding
        another dtype or number of axes.
    OSError
        On I/O failure.
    """
    if _is_npy(path):
        return _load_npy(path)
    return _load_csv(path)


def _is_npy(path):
    """Whether the name ``path`` (text, bytes or a path object) ends in ``.npy``."""
    return os.fsdecode(path).endswith(".npy")


def _load_csv(path):
    """The CSV container of :func:`load_matrix`: the file is read once as text,
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


def _load_npy(path):
    """The ``.npy`` container of :func:`load_matrix`."""
    with open(path, "rb") as fh:
        try:
            m = np.lib.format.read_array(fh, allow_pickle=False)
        except (ValueError, MemoryError) as exc:  # a header may promise any size
            raise MatrixFormatError(f"{path}: not a readable .npy file ({exc})") from exc
        if fh.read(1):
            raise MatrixFormatError(f"{path}: bytes after the array")
    if m.ndim != 2 or m.dtype not in (np.dtype("<f8"), np.dtype(">f8")):
        raise MatrixFormatError(
            f"{path}: holds a {m.ndim}-D {m.dtype} array, not a 2-D float64 one")
    return np.ascontiguousarray(m, dtype=np.float64)


def write_matrix(path, M):
    """Write a real matrix, a 1-D array as one row, in the container that
    the name ``path`` picks (:func:`load_matrix`): a ``.npy`` file holds
    the float64 array and round-trips bit-exactly, any other name is CSV.
    A complex array or one of more than two axes raises ``ValueError``
    before the file is opened."""
    m = np.atleast_2d(_real(M, "the matrix"))
    if m.ndim > 2:
        raise ValueError(f"the matrix is {m.ndim}-D, not 1-D or 2-D")
    if _is_npy(path):
        with open(path, "wb") as fh:
            np.lib.format.write_array(fh, m, allow_pickle=False)
    else:
        _write_csv(path, m)


def _write_csv(path, rows, header=None):
    """Write comma-separated ``rows`` (a 2-D array, or rows of numbers) under
    an optional ``header`` of column names.  A float is written as the
    shortest text that reads back as it, with ``repr``'s digits, a
    non-finite one as ``repr`` writes it (``nan``, ``inf``, ``-inf``), and
    an ``int`` cell of a row of numbers as itself.  The rows are written
    in blocks of at most ``_CSV_CELLS`` cells, or of one row where a row has
    more (:func:`_write_csv_rows`), so the text of one block, not of the
    file, is held."""
    if isinstance(rows, np.ndarray):
        cells = np.ascontiguousarray(rows, dtype=np.float64)
    else:
        cells = [[int(v) if isinstance(v, (int, np.integer)) else float(v) for v in row]
                 for row in rows]
    with open(path, "wb") as fh:
        if header is not None:
            fh.write(",".join(header).encode() + b"\n" * bool(len(cells)))
        width = max(len(cells[0]), 1) if len(cells) else 1
        step = max(1, _CSV_CELLS // width)
        for a in range(0, max(len(cells), 1), step):  # no rows: one newline
            _write_csv_rows(fh, cells[a:a + step])


def _write_csv_rows(fh, cells):
    """Write the rows ``cells`` as lines, each ended by a newline.  The text
    is orjson's of the rows with ``[[`` and ``]]`` stripped and each ``],[``
    a newline, the reverse of :func:`_json_rows`; orjson writes ``null``
    exactly where a non-finite value sits, and each of those, in C order,
    is put back as its ``repr``."""
    if isinstance(cells, np.ndarray):
        bad = cells[~np.isfinite(cells)].tolist()
    else:
        bad = [v for row in cells for v in row if not math.isfinite(v)]
    text = orjson.dumps(cells, option=_NUMPY)
    if bad:
        pieces = text.split(b"null")
        text = pieces[0] + b"".join(repr(v).encode() + p for v, p in zip(bad, pieces[1:]))
    text = text.replace(b"],[", b"\n")
    fh.write(memoryview(text)[2:-2])
    fh.write(b"\n")


# ---------------------------------------------------------------------------
# Canonical JSON reports
# ---------------------------------------------------------------------------


def to_json_text(obj):
    """Serialize a report to canonical JSON.

    Keys keep their insertion order, each float is the shortest text that
    reads back as the same double (orjson's, with ``repr``'s digits; a
    negative zero as ``-0.0``), strings are UTF-8, and non-finite values
    are refused, so a given report always produces identical bytes.
    """
    return orjson.dumps(_reportable(obj), option=_NUMPY).decode()


def _reportable(obj):
    """``obj`` as orjson writes it, with the package's rules checked first:
    a non-finite float raises ``ValueError``, where orjson would write
    ``null``; a key that is no string, an unsupported type (a ``set``, a
    ``complex``), an integer outside 64 bits and a string with a lone
    surrogate raise before any text is written.  A numpy bool is written as
    a JSON boolean, as a Python one is.  A float64 array of at least one
    axis goes to orjson's numpy route, C-contiguous; any other array as its
    ``tolist()``, so a float32 one is written as its float64 values
    (``0.10000000149011612``), not as float32 text."""
    if obj is None or isinstance(obj, bool):
        return obj
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        v = int(obj)
        if not -2 ** 63 <= v < 2 ** 64:
            raise TypeError("cannot serialize an integer outside 64 bits in a JSON report")
        return v
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not math.isfinite(v):
            raise ValueError("non-finite value in JSON report")
        return v
    if isinstance(obj, str):
        obj.encode()  # a lone surrogate raises UnicodeEncodeError, a ValueError
        return obj
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError("JSON report keys must be strings")
            out[_reportable(key)] = _reportable(value)
        return out
    if isinstance(obj, np.ndarray):
        if obj.dtype != np.float64 or not obj.ndim:
            return _reportable(obj.tolist())
        if not np.isfinite(obj).all():
            raise ValueError("non-finite value in JSON report")
        return np.ascontiguousarray(obj)
    if isinstance(obj, (list, tuple)):
        return [_reportable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__} in a JSON report")


def write_json(path, obj):
    """Write ``obj`` as :func:`to_json_text` does, plus a trailing newline,
    after checking all of it.  A dict is written one value at a time, so a
    2000/2000 kernel file is never one bytes object."""
    obj = _reportable(obj)
    with open(path, "wb") as fh:
        if not isinstance(obj, dict):
            fh.write(orjson.dumps(obj, option=_NUMPY | orjson.OPT_APPEND_NEWLINE))
            return
        fh.write(b"{")
        for i, (key, value) in enumerate(obj.items()):
            fh.write(b"," * bool(i) + orjson.dumps(key) + b":")
            fh.write(orjson.dumps(value, option=_NUMPY))
        fh.write(b"}\n")
