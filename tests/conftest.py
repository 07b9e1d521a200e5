"""Shared builders for the test suite."""

from contextlib import contextmanager

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from rfequiv import Dataset, KernelSet
from rfequiv.model import _blas_controls


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
        K_ha=np.zeros((1, 2)),
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
        K_ha=joint[:n, n:].T.copy(),
        K_hh=joint[n:, n:],
        samples=1,
    )


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


def rf_zeroth_products(K, dims):
    """Expectation products of the random-features pencil for the generic
    ``zeroth_moment_check`` on ``rf_linearization(K, dims, delta)``.

    The random block ``B`` couples the two test slots (the complement) to
    the train and width slots (the mask); its only nonzero entries are the
    test features, so ``E[B] = 0``, ``E[Q]`` holds the ``-I`` test
    couplings, and ``E[B B^T]`` carries ``d * K_hh`` on the second test slot.
    """
    n, d, t = dims
    EQ = np.zeros((2 * t, 2 * t))
    EQ[:t, t:] = -np.eye(t)
    EQ[t:, :t] = -np.eye(t)
    EBBt = np.zeros((2 * t, 2 * t))
    EBBt[t:, t:] = d * K.K_hh
    return {"EB": np.zeros((2 * t, n + d)), "EQ": EQ, "EBBt": EBBt}


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
