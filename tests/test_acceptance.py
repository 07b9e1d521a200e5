"""Acceptance harness: one verdict line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines
on stdout; each criterion is also an ordinary assertion, so plain ``pytest``
enforces the same gate.
"""

import time

import numpy as np

from rfequiv import (
    Activation,
    KernelSet,
    RFConfig,
    build_equiv,
    build_pseudoresolvent,
    estimate_delta_gaussianity,
    estimate_kernels,
    exact_kernels,
    gaussian_surrogate_run,
    kernel_ridge_error,
    rf_solution_matrix,
    run_replicates,
    sample_features,
    solve_subdel,
    synthetic_regression,
    zeroth_moment_check,
    anisotropic_gap,
)
from rfequiv.model import substream
from rfequiv.rdel import rf_linearization, solve_rdel, spectral_norm

from conftest import (dense_pencil, dense_subdel, equiv_alpha,
                      generic_zeroth_moment, rand_kernelset, rational_alpha)

IDENTITY = Activation("identity")
ERF = Activation("erf")
SIGN = Activation("sign")


def _verdict(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}: {name} — {detail}")
    return ok


def test_01_alpha_quadratic_oracle():
    t0 = time.perf_counter()
    ks = KernelSet(np.eye(2), np.zeros((2, 1)), np.eye(1), 1)
    eq = build_equiv(ks, np.array([1.0, 0.0]), np.array([2.0]), 2, 1.0)
    gap_root = abs(eq.alpha - (-0.5))
    want = rational_alpha(np.eye(2), 2, 1.0)
    gap_bisect = abs(eq.alpha - want) / abs(want)
    gap_beta = abs(eq.beta - 1 / 3)
    gap_pred = abs(eq.predicted_error - (1 / 6 + 4.0))
    dt = time.perf_counter() - t0
    ok = (gap_root <= 1e-10 and gap_bisect <= 1e-13 and gap_beta <= 1e-9
          and gap_pred <= 1e-9 and dt < 1.0)
    assert _verdict(
        "criterion-01 alpha-oracle",
        ok,
        f"|alpha+0.5|={gap_root:.2e} |alpha-bisect|/|alpha|={gap_bisect:.2e} "
        f"|beta-1/3|={gap_beta:.2e} |pred-(1/6+4)|={gap_pred:.2e} "
        f"time={dt:.3f}s",
    )


def test_02_route_equivalence_on_random_kernels():
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    worst = 0.0
    alphas_ok = True
    denoms_ok = True
    for _ in range(20):
        n = int(rng.integers(3, 51))
        g = rng.standard_normal((n, n + 2))
        K = g @ g.T / (n + 2)
        d = int(rng.integers(2, 65))
        delta = float(rng.uniform(0.05, 5.0))
        a = equiv_alpha(K, d, delta)
        alphas_ok &= -1.0 <= a.alpha < 0.0
        denoms_ok &= a.denom > 0
        N11, nu = solve_subdel(K, d, delta, 0.0)
        N11_o, nu_o = dense_subdel(K, d, delta, 0.0)
        M11 = np.linalg.inv(delta * np.eye(n) - d * a.alpha * K)
        worst = max(worst, abs(nu - nu_o), abs(a.alpha - nu_o),
                    float(np.linalg.norm(N11 - N11_o, 2)),
                    float(np.linalg.norm(M11 - N11_o, 2)))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and alphas_ok and denoms_ok and dt < 30.0
    assert _verdict(
        "criterion-02 route-equivalence",
        ok,
        f"20 kernels, worst route gap={worst:.2e} alphas-in-range={alphas_ok} "
        f"denominators-positive={denoms_ok} time={dt:.1f}s",
    )


def _rf_instance():
    ds = synthetic_regression(40, 10, 30, 0.5, seed=11)
    K = exact_kernels(ds, IDENTITY, IDENTITY, 40)
    dims = (40, 60, 10)
    return K, dims, rf_linearization(K, dims, 0.3)


def test_03_apriori_bound_suite():
    K, dims, spec = _rf_instance()
    npd = dims[0] + dims[1]
    worst_full = worst_block = worst_eig = -np.inf
    for z in (1j, 0.5 + 1j, 3j):
        for tau in (1.0, 0.1):
            sol = solve_rdel(spec, z, tau)
            worst_full = max(worst_full,
                             spectral_norm(sol.M) - (1 / tau + 1e-8))
            worst_block = max(
                worst_block,
                spectral_norm(sol.M[:npd, :npd]) - (1 / z.imag + 1e-8))
            herm = (sol.M - sol.M.conj().T) / 2j
            worst_eig = max(worst_eig, -np.linalg.eigvalsh(herm).min() - 1e-8)
    ok = worst_full <= 0 and worst_block <= 0 and worst_eig <= 0
    assert _verdict(
        "criterion-03 apriori-bounds",
        ok,
        f"6 (z,tau) pairs; slack: full-norm={-worst_full:.2e} "
        f"masked-block={-worst_block:.2e} min-imag-eig={-worst_eig:.2e}",
    )


def test_04_zeroth_moment_decay():
    # the same criterion on the structured route (the one diagnose runs) and
    # on the generic Picard route of the test oracle
    K, dims, spec = _rf_instance()
    etas = [1e2, 1e3, 1e4]
    reports = {
        "structured": zeroth_moment_check(K, dims, 0.3, etas),
        "generic": generic_zeroth_moment(spec, etas),
    }
    ok = all(bool(np.all(np.diff(rep.deltas) < 0)) and -1.3 <= rep.slope <= -0.7
             for rep in reports.values())
    assert _verdict(
        "criterion-04 zeroth-moment-decay",
        ok,
        "; ".join(f"{name} deltas={np.array2string(rep.deltas, precision=3)} "
                  f"slope={rep.slope:.3f}" for name, rep in reports.items())
        + " (want strict decrease, slope in [-1.3,-0.7])",
    )


def test_05_identity_kernel_oracle():
    ds = synthetic_regression(30, 10, 5, 0.5, seed=6)
    ref = exact_kernels(ds, IDENTITY, IDENTITY, 30)
    den = np.linalg.norm(ref.K_aa)
    ms = [100, 1000, 10_000]
    rels = [
        float(np.linalg.norm(
            estimate_kernels(ds, IDENTITY, IDENTITY, 30, m, seed=3).K_aa
            - ref.K_aa) / den)
        for m in ms
    ]
    slope = float(np.polyfit(np.log(ms), np.log(rels), 1)[0])
    ok = rels[-1] <= 3 / np.sqrt(10_000) and -0.65 <= slope <= -0.35
    assert _verdict(
        "criterion-05 identity-kernel-oracle",
        ok,
        f"rel@m=1e4: {rels[-1]:.4f} (bound 0.03) slope={slope:.3f} "
        f"(want [-0.65,-0.35])",
    )


def _figure_grid_dataset():
    return synthetic_regression(200, 200, 200, 0.5, seed=1)


def test_06_desk_scale_error_grid():
    t0 = time.perf_counter()
    ds = _figure_grid_dataset()
    worst = {}
    ok = True
    for act in (ERF, SIGN):
        K = exact_kernels(ds, act, IDENTITY, 200)
        gaps = []
        for d in (100, 200, 400):
            for delta in (1e-3, 1e-1, 10.0):
                cfg = RFConfig(d=d, delta=delta, n=200, seed=1)
                rep = run_replicates(ds, act, IDENTITY, cfg, reps=30,
                                     kernels=K)
                gaps.append(rep.rel_gap)
                ok &= rep.rel_gap < 0.05
        worst[act.kind] = max(gaps)
    dt = time.perf_counter() - t0
    ok = ok and dt < 600.0
    assert _verdict(
        "criterion-06 error-grid-3x3x2",
        ok,
        f"rel_gap<0.05 on 18 cells; worst erf={worst['erf']:.4f} "
        f"sign={worst['sign']:.4f} time={dt:.0f}s",
    )


def test_07_gaussian_equivalence():
    ds = _figure_grid_dataset()
    K = exact_kernels(ds, ERF, IDENTITY, 200)
    ok = True
    details = []
    for d, delta in ((100, 1e-3), (200, 1e-1), (400, 10.0)):
        cfg = RFConfig(d=d, delta=delta, n=200, seed=2)
        rf_rep = run_replicates(ds, ERF, IDENTITY, cfg, reps=30, kernels=K)
        surr = gaussian_surrogate_run(K, ds.y, ds.yhat, cfg, reps=30)
        gap = abs(rf_rep.mean - surr.mean)
        limit = (2 * (rf_rep.std + surr.std) / np.sqrt(30)
                 + 0.05 * rf_rep.predicted)
        ok &= gap <= limit
        details.append(f"(d={d},delta={delta}): {gap:.2f}<={limit:.2f}")
    assert _verdict("criterion-07 gaussian-equivalence", ok,
                    "; ".join(details))


def test_08_gaussianity_diagnostic_identity_floor():
    ds = synthetic_regression(60, 30, 40, 0.5, seed=3)
    cfg = RFConfig(d=50, delta=0.2, n=60, seed=7)
    dg = estimate_delta_gaussianity(ds, IDENTITY, IDENTITY, cfg, 1j, 0.1, reps=50)
    ok = dg.value <= 3 * dg.standard_error
    assert _verdict(
        "criterion-08 gaussianity-identity",
        ok,
        f"value={dg.value:.3f} se={dg.standard_error:.3f} "
        f"ratio={dg.value / dg.standard_error:.2f} (want <= 3)",
    )


def test_09_pseudoresolvent_consistency():
    rng = np.random.default_rng(31)
    worst_block = 0.0
    ftau_ok = True
    for _ in range(10):
        n, t = int(rng.integers(3, 30)), int(rng.integers(3, 30))
        int(rng.integers(3, 30))  # keep the draw sequence of the frozen rng
        d = int(rng.integers(2, 40))
        A = rng.standard_normal((n, d)) / np.sqrt(n)
        Ahat = rng.standard_normal((t, d)) / np.sqrt(n)
        delta = float(rng.uniform(0.05, 2.0))
        G = build_pseudoresolvent(A, Ahat, delta, 0.0)
        want = Ahat @ A.T @ np.linalg.inv(A @ A.T + delta * np.eye(n))
        got = G[n + d:n + d + t, :n]
        worst_block = max(worst_block, float(np.linalg.norm(got - want, 2)))
        Gi = build_pseudoresolvent(A, Ahat, delta, 1j)
        ell = Gi.shape[0]
        base = dense_pencil(A, Ahat, delta, 1j)
        norm_sq = np.linalg.norm(Gi, 2) ** 2
        for tau in (1e-1, 1e-3):
            shifted = np.linalg.inv(base - 1j * tau * np.eye(ell))
            gap = np.linalg.norm(shifted - Gi, 2)
            ftau_ok &= gap <= tau * norm_sq * (1 + 1e-10)
    ok = worst_block <= 1e-8 and ftau_ok
    assert _verdict(
        "criterion-09 pseudoresolvent-consistency",
        ok,
        f"10 instances; worst block-(3,1) gap={worst_block:.2e} "
        f"regularized-distance bound held={ftau_ok}",
    )


def test_10_implicit_regularization():
    rng = np.random.default_rng(77)
    worst_rel = 0.0
    ridge_ok = True
    for _ in range(5):
        n = int(rng.integers(2, 20))
        t = int(rng.integers(1, 12))
        ks = rand_kernelset(rng, n, t)
        y = rng.standard_normal(n)
        yhat = rng.standard_normal(t)
        d = int(rng.integers(2, 30))
        delta = float(rng.uniform(0.05, 2.0))
        sol = build_equiv(ks, y, yhat, d, delta)
        krr = kernel_ridge_error(ks, y, yhat, d, -delta / sol.alpha)
        worst_rel = max(worst_rel,
                        abs(krr - sol.term_bias) / max(sol.term_bias, 1e-300))
        ridge_ok &= sol.effective_ridge >= delta
    ok = worst_rel <= 1e-9 and ridge_ok
    assert _verdict(
        "criterion-10 implicit-regularization",
        ok,
        f"5 instances; worst |krr-bias|/bias={worst_rel:.2e} "
        f"effective_ridge>=delta={ridge_ok}",
    )


def test_11_anisotropic_law_trend():
    delta, z = 0.3, 1j
    medians = {}
    for n in (100, 400):
        d, t = n // 2, n
        ds = synthetic_regression(n, t, n, 0.0, seed=5)
        K = exact_kernels(ds, IDENTITY, IDENTITY, n)
        dims = (n, d, t)
        M = rf_solution_matrix(K, dims, delta, z)
        ell = n + d + 2 * t
        probes = []
        for p in range(5):
            rng = substream(0, f"trend-{n}", p)
            u = rng.standard_normal(ell) + 1j * rng.standard_normal(ell)
            v = rng.standard_normal(ell) + 1j * rng.standard_normal(ell)
            probes.append(np.outer(u / np.linalg.norm(u),
                                   v.conj() / np.linalg.norm(v)))
        gaps = np.empty((20, 5))
        for s in range(20):
            A, Ahat = sample_features(ds, IDENTITY, IDENTITY, d, n,
                                      seed=100 + s)
            G = build_pseudoresolvent(A, Ahat, delta, z)
            for p, U in enumerate(probes):
                gaps[s, p] = anisotropic_gap(G, M, U)
        medians[n] = np.median(gaps, axis=0)
    ok = bool(np.all(medians[400] < medians[100]))
    assert _verdict(
        "criterion-11 anisotropic-trend",
        ok,
        f"medians n=100 {np.array2string(medians[100], precision=4)} -> "
        f"n=400 {np.array2string(medians[400], precision=4)} "
        f"(strict decrease on all 5 probes)",
    )
