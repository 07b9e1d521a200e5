"""Monte Carlo estimation of the covariance blocks of feature columns.

A feature column pair is ``u = n^{-1/2} sigma([X; Xhat] phi(z))`` with
``z ~ N(0, I_{n0})``; the four blocks of ``E[u u^T]`` drive every prediction
downstream.  The identity-activation case has an exact closed form that
serves as the estimator's oracle.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import (
    MatrixFormatError,
    _check_symmetric,
    apply_activation,
    substream,
    worker_count,
    write_json,
    write_matrix,
    load_matrix,
)

__all__ = [
    "KernelSet",
    "analytic_identity_kernels",
    "default_samples",
    "estimate_kernels",
    "load_kernels",
    "load_kernels_raw",
    "save_kernels",
    "save_kernels_raw",
    "verify_centering",
]

_CHUNK = 512  # Monte Carlo draws per reduction chunk (fixed, worker-independent)

_BLOCK_NAMES = ("K_aa", "K_ah", "K_ha", "K_hh")


def default_samples(n_train, n_test):
    """Default Monte Carlo sample count: max(20 * (n_train + n_test), 10^4)."""
    return max(20 * (n_train + n_test), 10_000)


@dataclass
class KernelSet:
    """Second-moment blocks of the stacked feature column (a_j, ahat_j).

    ``K_aa = E[a a^T]`` (n_train x n_train), ``K_ah = E[a ahat^T]``,
    ``K_ha = K_ah^T`` exactly, ``K_hh = E[ahat ahat^T]``; ``samples`` is the
    number of Monte Carlo draws behind the estimate.
    """

    K_aa: np.ndarray
    K_ah: np.ndarray
    K_ha: np.ndarray
    K_hh: np.ndarray
    samples: int

    def __post_init__(self):
        self.K_aa = np.atleast_2d(np.asarray(self.K_aa, dtype=float))
        self.K_ah = np.atleast_2d(np.asarray(self.K_ah, dtype=float))
        self.K_ha = np.atleast_2d(np.asarray(self.K_ha, dtype=float))
        self.K_hh = np.atleast_2d(np.asarray(self.K_hh, dtype=float))
        self.samples = int(self.samples)
        n, t = self.K_ah.shape
        if self.K_aa.shape != (n, n) or self.K_hh.shape != (t, t):
            raise ValueError("kernel block shapes are inconsistent")
        if self.K_ha.shape != (t, n):
            raise ValueError("K_ha must have the transposed shape of K_ah")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        for name in _BLOCK_NAMES:
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite entries")
        _check_symmetric(self.K_aa, "K_aa")
        _check_symmetric(self.K_hh, "K_hh")
        if not np.array_equal(self.K_ha, self.K_ah.T):
            raise ValueError("K_ha must be the exact transpose of K_ah")
        w = np.linalg.eigvalsh(self.joint())
        lam_max = max(float(w[-1]), 0.0)
        if float(w[0]) < -1e-10 * lam_max - 1e-300:
            raise ValueError(
                f"joint kernel block matrix is not PSD (min eig {w[0]:.3e})"
            )

    @property
    def n_train(self):
        return self.K_aa.shape[0]

    @property
    def n_test(self):
        return self.K_hh.shape[0]

    def joint(self):
        """The full (n_train + n_test) block matrix [[K_aa, K_ah], [K_ha, K_hh]]."""
        return np.block([[self.K_aa, self.K_ah], [self.K_ha, self.K_hh]])


def _chunk_sizes(m):
    sizes = [_CHUNK] * (m // _CHUNK)
    if m % _CHUNK:
        sizes.append(m % _CHUNK)
    return sizes


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
        Root seed; the estimator is deterministic given it.

    Returns
    -------
    KernelSet
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    stacked = np.vstack([ds.X, ds.Xhat])
    scale = 1.0 / np.sqrt(n)
    sizes = _chunk_sizes(m)

    def one_chunk(c):
        rng = substream(seed, "kernels", c)
        Z = rng.standard_normal((ds.n0, sizes[c]))
        U = apply_activation(sigma, stacked @ apply_activation(phi, Z)) * scale
        if not np.all(np.isfinite(U)):
            raise ValueError("non-finite activation output")
        return U @ U.T

    k = stacked.shape[0]
    total = np.zeros((k, k))
    comp = np.zeros((k, k))
    with ThreadPoolExecutor(max_workers=worker_count()) as ex:
        for part in ex.map(one_chunk, range(len(sizes))):
            # Kahan step: comp carries the low-order bits lost by total += part
            y = part - comp
            t = total + y
            comp = (t - total) - y
            total = t
    joint = total / m
    joint = (joint + joint.T) / 2
    nt = ds.n_train
    K_aa = joint[:nt, :nt].copy()
    K_ah = joint[:nt, nt:].copy()
    K_hh = joint[nt:, nt:].copy()
    return KernelSet(K_aa, K_ah, K_ah.T.copy(), K_hh, m)


def analytic_identity_kernels(ds, n):
    """Exact kernels for sigma = phi = identity: blocks of [X; Xhat] [X; Xhat]^T / n."""
    K_aa = ds.X @ ds.X.T / n
    K_ah = ds.X @ ds.Xhat.T / n
    K_hh = ds.Xhat @ ds.Xhat.T / n
    K_aa = (K_aa + K_aa.T) / 2
    K_hh = (K_hh + K_hh.T) / 2
    return KernelSet(K_aa, K_ah, K_ah.T.copy(), K_hh, 1)


def verify_centering(sigma, phi, ds, n, m, seed):
    """Centering diagnostic: ||mean column|| / RMS column norm over m draws.

    Values near zero support the zero-mean feature hypothesis; values near
    one indicate clearly non-centered features.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    stacked = np.vstack([ds.X, ds.Xhat])
    scale = 1.0 / np.sqrt(n)
    sizes = _chunk_sizes(m)
    mean_acc = np.zeros(stacked.shape[0])
    sq_acc = 0.0
    for c, size in enumerate(sizes):
        rng = substream(seed, "centering", c)
        Z = rng.standard_normal((ds.n0, size))
        U = apply_activation(sigma, stacked @ apply_activation(phi, Z)) * scale
        mean_acc += U.sum(axis=1)
        sq_acc += float(np.sum(U * U))
    rms = np.sqrt(sq_acc / m)
    if rms == 0.0:
        return 0.0
    return float(np.linalg.norm(mean_acc / m) / rms)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def save_kernels(ks, path):
    """Write a KernelSet as canonical JSON (nested row arrays per block)."""
    report = {
        "n_train": ks.n_train,
        "n_test": ks.n_test,
        "samples": ks.samples,
        "K_aa": ks.K_aa,
        "K_ah": ks.K_ah,
        "K_ha": ks.K_ha,
        "K_hh": ks.K_hh,
    }
    write_json(path, report)


def load_kernels(path):
    """Read a KernelSet from JSON written by :func:`save_kernels`."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    try:
        return KernelSet(
            np.array(raw["K_aa"], dtype=float),
            np.array(raw["K_ah"], dtype=float),
            np.array(raw["K_ha"], dtype=float),
            np.array(raw["K_hh"], dtype=float),
            int(raw["samples"]),
        )
    except (KeyError, TypeError) as exc:
        raise MatrixFormatError(f"{path}: malformed kernel JSON ({exc})") from exc


def save_kernels_raw(ks, dirpath):
    """Write each block as raw-f64-le plus a small meta.json."""
    os.makedirs(dirpath, exist_ok=True)
    for name in _BLOCK_NAMES:
        write_matrix(os.path.join(dirpath, name + ".raw"), getattr(ks, name),
                     layout="raw-f64-le")
    write_json(os.path.join(dirpath, "meta.json"),
               {"n_train": ks.n_train, "n_test": ks.n_test, "samples": ks.samples})


def load_kernels_raw(dirpath):
    """Read a KernelSet written by :func:`save_kernels_raw`."""
    with open(os.path.join(dirpath, "meta.json"), "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    blocks = [load_matrix(os.path.join(dirpath, name + ".raw"), "raw-f64-le")
              for name in _BLOCK_NAMES]
    return KernelSet(*blocks, int(meta["samples"]))
