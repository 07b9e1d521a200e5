"""Fixed-point solver for the regularized self-consistent matrix equation."""

import types

import numpy as np
import pytest

from rfequiv import (
    Activation,
    NonConvergence,
    estimate_kernels,
    exact_kernels,
    rdel,
    rf_solution_matrix,
    synthetic_regression,
    zeroth_moment_check,
)
from rfequiv.rdel import (LinearizationSpec, rf_linearization, solve_rdel,
                          spectral_norm)
from rfequiv.sim import _pencil_rows

from conftest import (equiv_alpha, generic_zeroth_moment, m_infinity,
                      zeroth_products)

DIMS = (40, 60, 10)  # (n_train, d, n_test); pencil size 40 + 60 + 2*10 = 120
DELTA = 0.3


@pytest.fixture(scope="module")
def rf_spec():
    ds = synthetic_regression(40, 10, 30, 0.5, seed=11)
    identity = Activation("identity")
    K = exact_kernels(ds, identity, identity, 40)
    return K, rf_linearization(K, DIMS, DELTA)


def semicircle_spec():
    return LinearizationSpec(np.zeros((1, 1)), np.array([1]),
                             lambda M: M.copy())


# ---------------------------------------------------------------------------
# spectral_norm
# ---------------------------------------------------------------------------

def _unitary(rng, n, complex_):
    g = rng.standard_normal((n, n))
    if complex_:
        g = g + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("shape, s", [
    ((1, 1), [2.5]),
    ((3, 3), [3.0, 1.0, 0.5]),
    ((17, 17), np.linspace(4.0, 0.1, 17)),
    ((12, 5), [2.0, 1.5, 1.0, 0.5, 0.25]),
    ((5, 12), [2.0, 1.5, 1.0, 0.5, 0.25]),
    ((20, 20), [3.0, 2.0, 1.0] + [0.0] * 17),
    ((30, 30), [1.0, 1.0 - 1e-4] + list(np.linspace(0.5, 0.01, 28))),
], ids=["1x1", "3x3", "17x17", "tall", "wide", "rank3", "gap1e-4"])
def test_spectral_norm_is_the_known_top_singular_value(shape, s, complex_):
    # U diag(s) V^H with random unitaries: the singular values are s by
    # construction, so the oracle is max(s), not another norm routine.
    m, n = shape
    rng = np.random.default_rng(m * 100 + n + 7 * complex_)
    S = np.zeros(shape)
    S[np.diag_indices(min(shape))] = s
    x = _unitary(rng, m, complex_) @ S @ _unitary(rng, n, complex_).conj().T
    assert abs(spectral_norm(x) - max(s)) <= 1e-12 * max(s)


def test_spectral_norm_rejects_non_finite_input():
    x = np.eye(3)
    x[1, 2] = np.nan
    with pytest.raises(RuntimeError, match="non-finite"):
        spectral_norm(x)


def test_spectral_norm_zero_matrix():
    assert spectral_norm(np.zeros((4, 4))) == 0.0


# ---------------------------------------------------------------------------
# LinearizationSpec construction probes
# ---------------------------------------------------------------------------

def test_spec_rejects_nonlinear_superop():
    with pytest.raises(ValueError):
        LinearizationSpec(np.zeros((2, 2)), np.array([1, 0]),
                          lambda M: M * M)


def test_spec_rejects_positivity_breaking_superop():
    with pytest.raises(ValueError):
        LinearizationSpec(np.zeros((2, 2)), np.array([1, 0]),
                          lambda M: -M)


def test_spec_rejects_asymmetric_expectation():
    e = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        LinearizationSpec(e, np.array([1, 0]), lambda M: M.copy())


def test_spec_rejects_bad_mask():
    with pytest.raises(ValueError):
        LinearizationSpec(np.zeros((2, 2)), np.array([2, 0]),
                          lambda M: M.copy())
    with pytest.raises(ValueError):
        LinearizationSpec(np.zeros((2, 2)), np.array([0, 0]),
                          lambda M: M.copy())


def test_spec_index_helpers():
    s = LinearizationSpec(np.zeros((3, 3)), np.array([1, 1, 0]),
                          lambda M: M.copy())
    assert s.ell == 3
    assert list(s.lambda_indices()) == [0, 1]


# ---------------------------------------------------------------------------
# solve_rdel
# ---------------------------------------------------------------------------

def test_no_self_energy_solves_in_one_inversion():
    e = np.diag([0.4, -0.2, 0.0])
    spec = LinearizationSpec(e, np.array([1, 1, 1]), lambda M: 0.0 * M)
    z, tau = 0.3 + 0.7j, 0.05
    sol = solve_rdel(spec, z, tau)
    want = np.linalg.inv(e - (z + 1j * tau) * np.eye(3))
    assert sol.iterations == 1
    assert np.allclose(sol.M, want, atol=1e-12)


def test_semicircle_root():
    z = 2j
    sol = solve_rdel(semicircle_spec(), z, 1e-8)
    roots = np.roots([1.0, z, 1.0])  # m^2 + z m + 1 = 0
    root = roots[np.argmax(roots.imag)]
    assert abs(sol.M[0, 0] - root) <= 1e-6


def test_rf_norm_bound_at_unit_tau(rf_spec):
    _, spec = rf_spec
    sol = solve_rdel(spec, 3j, 1.0)
    assert spectral_norm(sol.M) <= 1.0 + 1e-8


def test_apriori_bounds_off_axis(rf_spec):
    _, spec = rf_spec
    for z, tau in ((1j, 0.1), (0.5 + 1j, 1.0)):
        sol = solve_rdel(spec, z, tau)
        npd = DIMS[0] + DIMS[1]
        assert spectral_norm(sol.M) <= 1 / tau + 1e-8
        assert spectral_norm(sol.M[:npd, :npd]) <= 1 / z.imag + 1e-8
        herm = (sol.M - sol.M.conj().T) / 2j
        assert np.linalg.eigvalsh(herm).min() >= -1e-8


def test_residual_history_tail_is_monotone(rf_spec):
    _, spec = rf_spec
    sol = solve_rdel(spec, 1j, 0.1)
    h = sol.residual_history
    tail = h[-max(2, len(h) // 4):]
    assert np.all(np.diff(tail) <= 0)
    assert sol.residual <= 1e-10


def test_rdel_nonconvergence_raises(rf_spec, monkeypatch):
    _, spec = rf_spec
    monkeypatch.setattr(rdel, "_MAX_STEPS", 2)
    with pytest.raises(NonConvergence):
        solve_rdel(spec, 1j, 0.1)


def test_tau_continuity_gaps_shrink(rf_spec):
    _, spec = rf_spec
    ms = [solve_rdel(spec, 1j, tau).M for tau in (1e-2, 1e-3, 1e-4)]
    assert spectral_norm(ms[1] - ms[2]) < spectral_norm(ms[0] - ms[1])


# ---------------------------------------------------------------------------
# the zeroth-moment table and its generic oracle
# ---------------------------------------------------------------------------

def identity_q_spec(p=1, q=2):
    e = np.zeros((p + q, p + q))
    e[p:, p:] = np.eye(q)
    mask = np.array([1] * p + [0] * q)
    return LinearizationSpec(e, mask, lambda M: 0.0 * M)


def test_m_infinity_identity_q_tau_zero():
    m = m_infinity(identity_q_spec(), 0.0)
    assert np.allclose(m[1:, 1:], np.eye(2), atol=1e-14)
    assert np.count_nonzero(m[:1, :]) == 0


def test_m_infinity_identity_q_unit_tau():
    # (1 - i)^{-1} = (1 + i)/2; the + sign also keeps Im[M] >= 0
    m = m_infinity(identity_q_spec(), 1.0)
    assert np.allclose(m[1:, 1:], (1 + 1j) / 2 * np.eye(2), atol=1e-14)


def test_m_infinity_singular_q_block_rejected():
    e = np.zeros((2, 2))
    spec = LinearizationSpec(e, np.array([1, 0]), lambda M: 0.0 * M)
    with pytest.raises(RuntimeError):
        m_infinity(spec, 0.0)


def test_rf_resolvent_approaches_m_infinity_like_inverse_eta(rf_spec):
    _, spec = rf_spec
    tau = 1e-8
    minf = m_infinity(spec, tau)
    etas = np.array([100.0, 300.0, 1000.0])
    gaps = np.array([
        spectral_norm(solve_rdel(spec, 1j * h, tau).M - minf) for h in etas
    ])
    slope, intercept = np.polyfit(np.log(etas), np.log(gaps), 1)
    assert -1.3 <= slope <= -0.7
    assert gaps[-1] <= 1.5 * np.exp(intercept) / etas[-1]


def test_zeroth_moment_free_resolvent_bound():
    # no self-energy, no off-diagonal coupling, unit Q block: the large-eta
    # expansion leaves a remainder below 2/eta once eta >= 10
    rng = np.random.default_rng(9)
    g = rng.standard_normal((3, 3))
    ep = (g + g.T) / 2
    ep *= 0.9 / np.linalg.norm(ep, 2)
    e = np.zeros((5, 5))
    e[:3, :3] = ep
    e[3:, 3:] = np.eye(2)
    spec = LinearizationSpec(e, np.array([1, 1, 1, 0, 0]), lambda M: 0.0 * M)
    rep = generic_zeroth_moment(spec, [10.0, 100.0, 1000.0])
    assert np.all(rep.deltas <= 2.0 / rep.etas)


def test_zeroth_moment_semicircle_scalar():
    rep = generic_zeroth_moment(semicircle_spec(), [10.0, 100.0])
    assert rep.deltas[0] < 0.02
    # exact scalar value from the quadratic equation at z = 10i
    roots = np.roots([1.0, 10j, 1.0])
    m = roots[np.argmax(roots.imag)]
    assert rep.deltas[0] == pytest.approx(abs(-10j * m - 1.0), abs=1e-4)
    assert rep.monotone


def test_zeroth_moment_rf_is_monotone(rf_spec):
    K, spec = rf_spec
    rep = generic_zeroth_moment(spec, [100.0, 1000.0])
    assert rep.deltas[1] < rep.deltas[0]
    assert rep.monotone
    assert list(rep.to_report()) == ["etas", "deltas", "monotone", "slope"]


def diagnose_shaped(seed):
    """The diagnose benchmark's shape at a fifth of its size: sign features,
    sin weight map, d = n_train = 2 n_test, delta = 0.1."""
    ds = synthetic_regression(40, 20, 40, 0.5, seed=seed)
    sign, sin = Activation("sign"), Activation("sin")
    return estimate_kernels(ds, sign, sin, 40, 10_000, seed=seed), (40, 40, 20)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rf_zeroth_moment_matches_the_generic_route(seed):
    K, dims = diagnose_shaped(seed)
    etas = [100.0, 1000.0, 10_000.0]
    got = zeroth_moment_check(K, dims, 0.1, etas)
    want = generic_zeroth_moment(rf_linearization(K, dims, 0.1), etas)
    assert np.all(np.abs(got.deltas / want.deltas - 1.0) <= 1e-7)
    assert got.monotone == want.monotone
    assert abs(got.slope - want.slope) <= 1e-7


def test_rf_zeroth_moment_is_the_tau_zero_limit_of_the_generic_route(rf_spec):
    # the generic route solves at tau > 0; on this instance its deltas sit
    # 3e-7 (relative) from the structured tau = 0 ones at tau = 1e-8, and
    # the gap falls with tau
    K, spec = rf_spec
    etas = [100.0, 1000.0]
    got = zeroth_moment_check(K, DIMS, DELTA, etas).deltas
    gaps = {}
    for tau in (1e-8, 1e-10):
        want = generic_zeroth_moment(spec, etas, tau).deltas
        gaps[tau] = np.max(np.abs(got / want - 1.0))
    assert gaps[1e-10] <= 1e-7
    assert gaps[1e-10] < gaps[1e-8] / 10


def test_rf_zeroth_moment_refuses_a_perturbed_solution(rf_spec, monkeypatch):
    K, _ = rf_spec
    exact = rdel.rf_solution_matrix

    def perturbed(*args, **kwargs):
        M = exact(*args, **kwargs)
        M[0, 0] += 1e-6
        return M

    monkeypatch.setattr(rdel, "rf_solution_matrix", perturbed)
    with pytest.raises(RuntimeError, match="pencil defect"):
        zeroth_moment_check(K, DIMS, DELTA, [100.0, 1000.0])


# The bound checks are certified by a Cholesky factor and fall back to the
# exact spectrum where none exists.  The tests below pass the pencil defect
# check by hand, so that a solution edited past a bound reaches them.

def _solution_edited(monkeypatch, edit):
    """Let ``zeroth_moment_check`` see ``edit(M, eta)`` of each solution,
    with the pencil defect check passed."""
    exact = rdel.rf_solution_matrix

    def edited(K, dims, delta, z):
        M = exact(K, dims, delta, z)
        edit(M, z.imag)
        return M

    monkeypatch.setattr(rdel, "rf_solution_matrix", edited)
    monkeypatch.setattr(rdel, "_pencil_defect", lambda *args: 0.0)


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_rf_zeroth_moment_certifies_a_good_solution_without_a_spectrum(
        rf_spec, monkeypatch):
    # one SVD a height, that of the reported mismatch; no eigvalsh
    K, _ = rf_spec
    norms = _count_calls(monkeypatch, rdel, "spectral_norm")
    eigs = _count_calls(monkeypatch, np.linalg, "eigvalsh")
    zeroth_moment_check(K, DIMS, DELTA, [1.0, 100.0, 10_000.0])
    assert len(norms) == 3 and not eigs


@pytest.mark.parametrize("where", ["train block", "width scalar"])
def test_rf_zeroth_moment_refuses_a_mask_block_past_one_over_eta(
        rf_spec, monkeypatch, where):
    K, _ = rf_spec
    n = DIMS[0]

    def scale(M, eta):  # to (1 + 1e-6) / eta, by a positive factor
        if where == "train block":
            M[:n, :n] *= (1 + 1e-6) / (eta * spectral_norm(M[:n, :n]))
        else:
            M[n, n] *= (1 + 1e-6) / (eta * abs(M[n, n]))

    _solution_edited(monkeypatch, scale)
    with pytest.raises(RuntimeError) as err:
        zeroth_moment_check(K, DIMS, DELTA, [100.0, 1000.0])
    assert str(err.value) == "mask block 1.000001e-02 > 1/eta at z=100j"


def _diagonal_solution(value):
    """An edit to the diagonal ``M = (i / (2 eta)) I``, save for the first
    test-slot entry, ``i * value``: its Im block has the eigenvalue
    ``value`` exactly, and every other bound holds with room."""
    n, d, _ = DIMS

    def edit(M, eta):
        M[:] = 0.0
        np.fill_diagonal(M, 0.5j / eta)
        M[n + d, n + d] = 1j * value
    return edit


def test_rf_zeroth_moment_refuses_an_im_eigenvalue_below_the_floor(
        rf_spec, monkeypatch):
    K, _ = rf_spec
    _solution_edited(monkeypatch, _diagonal_solution(-2e-8))
    with pytest.raises(RuntimeError) as err:
        zeroth_moment_check(K, DIMS, DELTA, [100.0, 1000.0])
    assert str(err.value) == ("left the half-plane at z=100j (Im eig "
                              "-2.000e-08, Im nu 5.000e-03)")


def test_rf_zeroth_moment_accepts_an_im_eigenvalue_on_the_floor(
        rf_spec, monkeypatch):
    # Im block + 1e-8 I is singular, so no Cholesky factor exists; the
    # spectrum then shows the eigenvalue -1e-8 exactly, which the rule keeps
    K, _ = rf_spec
    _solution_edited(monkeypatch, _diagonal_solution(-1e-8))
    eigs = _count_calls(monkeypatch, np.linalg, "eigvalsh")
    report = zeroth_moment_check(K, DIMS, DELTA, [100.0, 1000.0])
    assert len(eigs) == 2 and len(report.deltas) == 2


# ---------------------------------------------------------------------------
# the random-features linearization
# ---------------------------------------------------------------------------

def test_rf_expectation_and_mask_layout(rf_spec):
    K, spec = rf_spec
    n, d, t = DIMS
    ell = n + d + 2 * t
    want = np.zeros((ell, ell))
    want[:n, :n] = DELTA * np.eye(n)
    want[n:n + d, n:n + d] = -np.eye(d)
    want[n + d:n + d + t, n + d + t:] = -np.eye(t)
    want[n + d + t:, n + d:n + d + t] = -np.eye(t)
    assert np.array_equal(spec.expectation, want)
    assert np.array_equal(spec.lambda_mask,
                          np.array([1] * (n + d) + [0] * (2 * t)))


def test_rf_zeroth_products_layout(rf_spec):
    # the products the generic oracle derives from the spec, against the
    # ones written by hand: the random block B couples the two test slots
    # (the complement) to the train and width slots (the mask); its only
    # nonzero entries are the test features, so E[B] = 0, E[Q] holds the -I
    # test couplings, and E[B B^T] carries d * K_hh on the second test slot
    K, spec = rf_spec
    n, d, t = DIMS
    eq = np.zeros((2 * t, 2 * t))
    eq[:t, t:] = -np.eye(t)
    eq[t:, :t] = -np.eye(t)
    bbt = np.zeros((2 * t, 2 * t))
    bbt[t:, t:] = d * K.K_hh
    want = (np.zeros((2 * t, n + d)), eq, bbt)
    for got, hand in zip(zeroth_products(spec), want):
        assert got.shape == hand.shape
        assert np.array_equal(got, hand)


def test_rf_superoperator_on_identity(rf_spec):
    K, spec = rf_spec
    n, d, t = DIMS
    out = spec.superop(np.eye(n + d + 2 * t))
    assert np.allclose(out[:n, :n], d * K.K_aa, atol=1e-12)
    # rho(I) = tr(K_aa) + tr(K_hh) fills the middle diagonal block
    rho = np.trace(K.K_aa) + np.trace(K.K_hh)
    assert np.allclose(out[n:n + d, n:n + d], rho * np.eye(d), atol=1e-12)


def test_rf_superoperator_annihilates_uncontracted_blocks(rf_spec):
    _, spec = rf_spec
    n, d, t = DIMS
    ell = n + d + 2 * t
    m = np.zeros((ell, ell))
    m[:n, n:n + d] = 1.0  # off-diagonal slots the contraction never reads
    m[n + d:n + d + t, n + d + t:] = -2.0
    out = spec.superop(m)
    assert np.count_nonzero(out) == 0


def test_rf_superoperator_preserves_psd(rf_spec):
    _, spec = rf_spec
    n, d, t = DIMS
    ell = n + d + 2 * t
    rng = np.random.default_rng(4)
    g = rng.standard_normal((ell, ell)) + 1j * rng.standard_normal((ell, ell))
    p = g @ g.conj().T
    p /= np.linalg.norm(p, 2)
    out = spec.superop(p)
    herm = (out + out.conj().T) / 2
    assert np.linalg.eigvalsh(herm).min() >= -1e-10


def dense_defect(spec, z, m):
    """``||(E - S(M) - z*Lambda)M - I||_F`` with the dense spec."""
    lam = np.diag(spec.lambda_mask.astype(float))
    pencil = spec.expectation - spec.superop(m) - z * lam
    return np.linalg.norm(pencil @ m - np.eye(spec.ell))


def test_rf_solution_matrix_satisfies_the_equation(rf_spec):
    K, spec = rf_spec
    for z in (1j, 0.2 + 0.8j, 100j, 1000j, 10_000j):
        m = rf_solution_matrix(K, DIMS, DELTA, z)
        assert dense_defect(spec, z, m) <= 1e-10


def test_rf_blockwise_defect_equals_the_dense_defect(rf_spec):
    K, spec = rf_spec
    rng = np.random.default_rng(3)
    for z in (1j, 0.2 + 0.8j, 0.0):
        m = rng.standard_normal((spec.ell,) * 2) + 1j * rng.standard_normal(
            (spec.ell,) * 2)
        want = dense_defect(spec, z, m)
        rows = rdel._rf_rows(K, DELTA, z, *rdel._rf_contractions(K, m, DIMS))
        assert abs(rdel._pencil_defect(DIMS, rows, m) - want) <= 1e-12 * want


def _block_rows(dims, rows, X):
    """Each block row of ``P X`` for the pencil ``P`` of a table, one product
    a term, summed from zero in the table's order."""
    slots = rdel._rf_slices(dims)
    out = []
    for row in rows:
        R = np.zeros((), np.result_type(X, *(c for _, c, _ in row)))
        for j, c, B in row:
            R = R + c * (X[slots[j]] if B is None else B @ X[slots[j]])
        out.append(R)
    return out


@pytest.mark.parametrize("height", [1, 7, 64, max(DIMS) + 1])
def test_row_ranges_are_the_block_rows_bit_for_bit(monkeypatch, height):
    # BLAS may sum a range's dot products in another order than its block
    # row's (OpenBLAS's edge micro-kernels do), so every matrix here holds
    # small integers: each product is exact in any order, and array_equal
    # holds the ranges' rows, slots and coefficients to the last bit
    monkeypatch.setattr(rdel, "_TILE", height)
    rng = np.random.default_rng(12)

    def ints(*shape):
        return rng.integers(-4, 5, shape).astype(float)

    n, d, t = DIMS
    ell = n + d + 2 * t
    K = types.SimpleNamespace(K_aa=ints(n, n), K_ah=ints(n, t), K_ha=ints(t, n),
                              K_hh=ints(t, t))
    tables = [(rdel._rf_rows(K, 0.25, 0.0, 1.5, -2.0), ints(ell, ell)),
              (_pencil_rows(ints(n, d), ints(t, d), 0.3, 1j),
               ints(ell, ell) + 1j * ints(ell, ell))]
    for rows, X in tables:
        ranges = list(rdel._pencil_times(DIMS, rows, X))
        edges = [0] + [s.stop for s, _ in ranges]
        assert [s.start for s, _ in ranges] == edges[:-1] and edges[-1] == ell
        for s, R in ranges:
            assert R.shape == (s.stop - s.start, ell) and R.shape[0] <= height
            assert any(b.start <= s.start and s.stop <= b.stop
                       for b in rdel._rf_slices(DIMS))
        got = np.vstack([R for _, R in ranges])
        want = np.vstack(_block_rows(DIMS, rows, X))
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_rf_solution_matrix_at_zero_matches_scalar_route(rf_spec):
    K, _ = rf_spec
    n, d, t = DIMS
    m = rf_solution_matrix(K, DIMS, DELTA, 0.0)
    alpha = equiv_alpha(K.K_aa, d, DELTA).alpha
    M11 = np.linalg.inv(DELTA * np.eye(n) - d * alpha * K.K_aa)
    assert np.allclose(m[:n, :n], M11, atol=1e-8)
    assert np.allclose(m[n:n + d, n:n + d], alpha * np.eye(d), atol=1e-8)
    assert np.allclose(m[:n, n + d:n + d + t], -d * alpha * M11 @ K.K_ah,
                       atol=1e-8)


def test_rf_dims_must_match_kernels(rf_spec):
    K, _ = rf_spec
    with pytest.raises(ValueError):
        rf_linearization(K, (41, 60, 10), DELTA)
