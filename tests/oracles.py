"""Oracles that no verb runs: the tests' references for what the package
computes, kept out of it so that the package holds only what a verb runs.

``gaussian_surrogate_run`` draws replicates with jointly Gaussian features
of the kernel set's covariance, through ``joint_root``, the symmetric PSD
square root of the joint kernel matrix.  Both read the package's private
pieces (the replicate loop, ``_psd_eigh`` and the one-thread BLAS pin), so
a surrogate run is bit for bit what it was inside the package.
"""

import numpy as np

from rfequiv.kernels import _psd_eigh
from rfequiv.model import _SINGLE_THREAD_NUMPY_BLAS, _check_count, substream
from rfequiv.sim import _replicates


def joint_root(K):
    """``V diag(sqrt(lam)) V^T`` of ``J = V diag(lam) V^T`` of the set ``K``
    (symmetric bit for bit, as the set holds it) by ``_psd_eigh``, which
    averages nothing, the symmetric PSD square root that surrogate features
    are drawn with, made on one numpy BLAS thread as
    ``KernelSet._eigenbasis`` is, since OpenBLAS rounds ``eigh`` by its
    thread count."""
    with _SINGLE_THREAD_NUMPY_BLAS:
        w, V = _psd_eigh(K.joint())
        return (V * np.sqrt(w)) @ V.T


def gaussian_surrogate_run(K, y, yhat, cfg, reps):
    """Replicate run with surrogate features of matching covariance.

    Columns ``(a_j; ahat_j)`` are drawn jointly Gaussian with the joint
    kernel block matrix as covariance, through :func:`joint_root`, made up
    front on one BLAS thread; replicate ``i`` uses the substream
    (cfg.seed, "surrogate", i).  So the replicate errors, like every pooled
    result, do not depend on the caller's BLAS thread count.  The report
    carries the same predicted value as the true-features run on the same
    kernels.  A bad ``reps`` is refused before the root is made.
    """
    _check_count(reps, "reps")
    sqrtC = joint_root(K)
    nt = K.n_train

    def draw(cfg, i):
        rng = substream(cfg.seed, "surrogate", i)
        C = sqrtC @ rng.standard_normal((nt + K.n_test, cfg.d))
        return C[:nt], C[nt:]

    config = {"surrogate": True, "n_train": K.n_train, "n_test": K.n_test}
    return _replicates(draw, K, y, yhat, [cfg], reps, config)[0]
