"""Domain types, seeding, activation registry, matrix I/O, and report plumbing.

Everything downstream (kernel estimation, fixed-point solvers, simulation,
CLI) builds on the types and helpers defined here.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import struct
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
    through its whole iteration budget; an infinite one overflows.
    """
    if d is not None and d < 1:
        raise ValueError("d must be >= 1")
    if not (delta > 0 and math.isfinite(delta)):
        raise ValueError(f"{name} must be a positive finite real")


def _check_symmetric(K, name, rel=1e-12):
    gap = np.linalg.norm(K - K.T)
    if gap > rel * max(1.0, np.linalg.norm(K)):
        raise ValueError(f"{name} is not symmetric (asymmetry {gap:.3e})")


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
    msg = f"{int(seed)}:{label}:{int(counter)}".encode()
    key = int.from_bytes(hashlib.blake2b(msg, digest_size=16).digest(), "little")
    return np.random.Generator(np.random.Philox(key=key))


def derive_seed(seed, label, counter=0):
    """Collapse (seed, label, counter) into a fresh 64-bit root seed."""
    msg = f"{int(seed)}:{label}:{int(counter)}".encode()
    return int.from_bytes(hashlib.blake2b(msg, digest_size=8).digest(), "little")


def worker_count():
    """Worker cap for internal thread pools; RF_EQUIV_THREADS overrides."""
    env = os.environ.get("RF_EQUIV_THREADS")
    if env:
        try:
            value = int(env)
        except ValueError as exc:
            raise ValueError(
                f"RF_EQUIV_THREADS must be a positive integer, got {env!r}"
            ) from exc
        if value < 1:
            raise ValueError(
                f"RF_EQUIV_THREADS must be a positive integer, got {env!r}"
            )
        return value
    return os.cpu_count() or 1


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
