"""Command-line front door: verbs, report files, exit codes."""

import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import rfequiv
from rfequiv import equiv, rdel
from rfequiv.cli import _parse_complex, main

from conftest import caller_blas_threads


@pytest.fixture
def toy_files(tmp_path):
    """Kernel JSON with K_aa = I_2, no coupling, K_hh = I_1, plus labels."""
    kern = tmp_path / "toy.json"
    kern.write_text(json.dumps({
        "n_train": 2, "n_test": 1, "samples": 1,
        "K_aa": [[1.0, 0.0], [0.0, 1.0]],
        "K_ah": [[0.0], [0.0]],
        "K_ha": [[0.0, 0.0]],
        "K_hh": [[1.0]],
    }))
    y = tmp_path / "y.csv"
    y.write_text("1\n0\n")
    yhat = tmp_path / "yhat.csv"
    yhat.write_text("0.7\n")
    return kern, y, yhat


def test_cli_import_does_not_load_scipy_optimize():
    # scipy.optimize would add ~0.17 s to every verb's start-up; the alpha
    # solve is a hand-rolled Newton loop for that reason
    code = "import sys, rfequiv.cli; print('scipy.optimize' in sys.modules)"
    src = Path(rfequiv.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code], cwd=src,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert proc.stdout.strip() == "False"


def test_estimate_kernels_writes_valid_report(tmp_path):
    out = tmp_path / "k.json"
    code = main(["estimate-kernels", "--synthetic", "12,6,8", "--noise-sd",
                 "0.3", "--sigma", "erf", "--samples", "800", "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["n_train"] == 12 and rep["n_test"] == 6
    assert rep["samples"] == 800
    assert np.asarray(rep["K_aa"]).shape == (12, 12)


def test_estimate_kernels_rerun_is_byte_identical(tmp_path):
    args = ["estimate-kernels", "--synthetic", "8,4,5", "--noise-sd", "0.2",
            "--samples", "300", "--seed", "1"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_predict_toy_instance(tmp_path, toy_files):
    kern, y, yhat = toy_files
    out = tmp_path / "p.json"
    code = main(["predict", "--kernels", str(kern), "--y", str(y), "--yhat",
                 str(yhat), "--d", "2", "--delta", "1", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert -1.0 <= rep["alpha"] < 0.0
    assert rep["alpha"] == pytest.approx(-0.5, abs=1e-9)
    assert rep["predicted_error"] == pytest.approx(1 / 6 + 0.49, abs=1e-9)
    assert list(rep) == ["alpha", "beta", "denom", "effective_ridge",
                         "predicted_error", "term_variance", "term_bias",
                         "iterations", "residual"]


def test_predict_rerun_is_byte_identical(tmp_path, toy_files):
    kern, y, yhat = toy_files
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["predict", "--kernels", str(kern), "--y", str(y), "--yhat",
            str(yhat), "--d", "2", "--delta", "1"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def write_design(tmp_path):
    x = tmp_path / "X.csv"
    np.savetxt(x, np.sqrt(2) * np.eye(2), delimiter=",")
    xh = tmp_path / "Xhat.csv"
    np.savetxt(xh, np.array([[0.0, np.sqrt(2)]]), delimiter=",")
    return x, xh


def test_simulate_writes_json_and_csv(tmp_path, toy_files):
    _, y, yhat = toy_files
    x, xh = write_design(tmp_path)
    out = tmp_path / "s.json"
    code = main(["simulate", "--x", str(x), "--xhat", str(xh), "--y", str(y),
                 "--yhat", str(yhat), "--d", "2", "--delta", "1", "--reps",
                 "3", "--samples", "400", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert list(rep) == ["config", "replicates", "mean", "std", "predicted",
                         "rel_gap"]
    assert len(rep["replicates"]) == 3
    csv_lines = (tmp_path / "s.csv").read_text().splitlines()
    assert csv_lines[0] == "replicate,error"
    assert len(csv_lines) == 4


def test_simulate_honors_explicit_csv_path(tmp_path, toy_files):
    _, y, yhat = toy_files
    x, xh = write_design(tmp_path)
    out = tmp_path / "s.json"
    csv = tmp_path / "elsewhere.csv"
    code = main(["simulate", "--x", str(x), "--xhat", str(xh), "--y", str(y),
                 "--yhat", str(yhat), "--d", "2", "--delta", "1", "--reps",
                 "2", "--samples", "400", "--out", str(out), "--csv",
                 str(csv)])
    assert code == 0
    assert csv.exists()


def test_simulate_bytes_ignore_caller_blas_and_pool_threads(tmp_path,
                                                            monkeypatch):
    # at n_train=200, d=400 OpenBLAS splits the replicate products over its
    # threads and rounds differently for each thread count; the pool pins
    # it to one thread, so the count the caller left set does not matter
    out = tmp_path / "s.json"
    argv = ["simulate", "--synthetic", "200,50,30", "--d", "400",
            "--delta", "0.1", "--reps", "3", "--samples", "2000",
            "--out", str(out)]
    reports = set()
    for blas in (1, 2):
        for threads in ("1", "2"):
            monkeypatch.setenv("RF_EQUIV_THREADS", threads)
            with caller_blas_threads(blas):
                assert main(argv) == 0
            reports.add(out.read_bytes())
    assert len(reports) == 1


def test_predict_bytes_ignore_caller_blas_threads(tmp_path):
    # predict runs no pool: its BLAS work, the eigendecomposition of K_aa and
    # the rotation V^T K_ah, runs at the thread count the caller left set
    kern, y, yhat = (tmp_path / name for name in ("k.json", "y.csv", "yhat.csv"))
    assert main(["estimate-kernels", "--synthetic", "200,200,30", "--samples",
                 "2000", "--out", str(kern)]) == 0
    rng = np.random.default_rng(4)
    np.savetxt(y, rng.standard_normal(200))
    np.savetxt(yhat, rng.standard_normal(200))
    out = tmp_path / "p.json"
    reports = set()
    for blas in (1, 2):
        with caller_blas_threads(blas):
            assert main(["predict", "--kernels", str(kern), "--y", str(y),
                         "--yhat", str(yhat), "--d", "800", "--delta", "0.1",
                         "--out", str(out)]) == 0
        reports.add(out.read_bytes())
    assert len(reports) == 1


def test_compare_reports_toy_prediction(tmp_path, toy_files):
    kern, y, yhat = toy_files
    x, xh = write_design(tmp_path)
    out = tmp_path / "c.json"
    code = main(["compare", "--x", str(x), "--xhat", str(xh), "--y", str(y),
                 "--yhat", str(yhat), "--kernels", str(kern), "--d", "2",
                 "--delta", "1", "--reps", "3", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert list(rep) == ["empirical_mean", "empirical_std", "predicted",
                         "rel_gap"]
    assert rep["predicted"] == pytest.approx(1 / 6 + 0.49, abs=1e-9)


def test_sweep_grid_is_sorted_cartesian_product(tmp_path):
    out = tmp_path / "g.csv"
    code = main(["sweep", "--synthetic", "16,8,10", "--noise-sd", "0.2",
                 "--d-list", "8,4", "--delta-list", "1.0,0.5", "--reps", "2",
                 "--samples", "300", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "d,delta,predicted,empirical_mean,rel_gap"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [(int(r[0]), float(r[1])) for r in rows] == [
        (4, 0.5), (4, 1.0), (8, 0.5), (8, 1.0)]


def test_diagnose_report_fields(tmp_path, monkeypatch):
    out = tmp_path / "d.json"
    argv = ["diagnose", "--synthetic", "16,8,10", "--noise-sd", "0.2",
            "--d", "8", "--delta", "0.5", "--reps", "6", "--samples", "300",
            "--eta-list", "100,1000", "--out", str(out)]
    code = main(argv)
    assert code == 0
    # the Gaussianity draws and pairs run in a thread pool; the report
    # bytes must not depend on its size
    first = out.read_bytes()
    for threads in ("1", "2"):
        monkeypatch.setenv("RF_EQUIV_THREADS", threads)
        assert main(argv) == 0
        assert out.read_bytes() == first
    rep = json.loads(first)
    assert list(rep) == ["delta_gaussianity", "anisotropic_gap",
                         "zeroth_moment", "centering"]
    assert list(rep["delta_gaussianity"]) == ["value", "standard_error",
                                              "pairs"]
    assert rep["delta_gaussianity"]["pairs"] == 3
    assert len(rep["anisotropic_gap"]) == 5
    assert len(rep["zeroth_moment"]["etas"]) == 2
    assert rep["zeroth_moment"]["deltas"][1] < rep["zeroth_moment"]["deltas"][0]


def test_diagnose_runs_without_the_generic_solver(tmp_path, monkeypatch):
    # the zeroth-moment table comes from the structured solution alone
    def forbidden(*args, **kwargs):
        raise AssertionError("diagnose reached the generic solver")

    monkeypatch.setattr(rdel, "solve_rdel", forbidden)
    monkeypatch.setattr(rdel, "LinearizationSpec", forbidden)
    out = tmp_path / "d.json"
    assert main(["diagnose", "--synthetic", "16,8,10", "--d", "8",
                 "--delta", "0.5", "--reps", "4", "--samples", "300",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["zeroth_moment"]["monotone"] is True


@pytest.mark.parametrize("text, want", [
    ("1i", 1j), (" 0.3+0.2I ", 0.3 + 0.2j), ("0", 0j), ("2J", 2j),
    ("infj", complex(0, float("inf"))), ("1+infj", complex(1, float("inf"))),
])
def test_parse_complex_reads_a_trailing_i_as_the_imaginary_unit(text, want):
    assert _parse_complex(text) == want


def test_exit_2_on_oversize_pencil(tmp_path):
    out = tmp_path / "x.json"
    code = main(["diagnose", "--synthetic", "900,700,5", "--d", "600",
                 "--delta", "0.5", "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_exit_2_on_missing_required_option(tmp_path):
    code = main(["predict", "--y", "y.csv", "--yhat", "yh.csv", "--d", "2",
                 "--delta", "1", "--out", str(tmp_path / "x.json")])
    assert code == 2


def test_exit_2_on_unknown_verb():
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize("delta", ["nan", "inf"])
def test_exit_2_on_non_finite_ridge_before_any_iteration(tmp_path, toy_files,
                                                         monkeypatch, delta):
    calls = []
    solve = equiv._solve_nu
    monkeypatch.setattr(equiv, "_solve_nu",
                        lambda *a: calls.append(a) or solve(*a))
    kern, y, yhat = toy_files
    out = tmp_path / "x.json"
    code = main(["predict", "--kernels", str(kern), "--y", str(y), "--yhat",
                 str(yhat), "--d", "2", "--delta", delta, "--out", str(out)])
    assert code == 2
    assert calls == []
    assert not out.exists()


def test_exit_2_names_non_finite_kernel_block(tmp_path, toy_files, capsys):
    _, y, yhat = toy_files
    kern = tmp_path / "nan.json"
    kern.write_text(json.dumps({
        "n_train": 2, "n_test": 1, "samples": 1,
        "K_aa": [[1.0, 0.0], [0.0, 1.0]],
        "K_ah": [[0.0], [0.0]],
        "K_ha": [[0.0, 0.0]],
        "K_hh": [[float("nan")]],
    }))
    code = main(["predict", "--kernels", str(kern), "--y", str(y), "--yhat",
                 str(yhat), "--d", "2", "--delta", "1", "--out",
                 str(tmp_path / "x.json")])
    assert code == 2
    assert "K_hh contains non-finite entries" in capsys.readouterr().err


def test_exit_3_on_missing_input(tmp_path, toy_files):
    _, y, yhat = toy_files
    code = main(["predict", "--kernels", str(tmp_path / "absent.json"),
                 "--y", str(y), "--yhat", str(yhat), "--d", "2", "--delta",
                 "1", "--out", str(tmp_path / "x.json")])
    assert code == 3


def _old_format_files(tmp_path):
    """A kernel file from estimate-kernels, the same file with the K_ha block
    that files written before it was derived still carry, and labels."""
    new = tmp_path / "new.json"
    assert main(["estimate-kernels", "--synthetic", "8,4,5", "--sigma", "erf",
                 "--samples", "600", "--seed", "2", "--out", str(new)]) == 0
    raw = json.loads(new.read_text())
    raw["K_ha"] = np.asarray(raw["K_ah"]).T.tolist()
    y, yhat = tmp_path / "y.csv", tmp_path / "yhat.csv"
    y.write_text("\n".join(str(v) for v in np.linspace(-1.0, 1.0, 8)))
    yhat.write_text("0.3\n-0.2\n0.9\n0.1\n")
    return new, raw, y, yhat


def _predict(kern, y, yhat, out):
    return main(["predict", "--kernels", str(kern), "--y", str(y), "--yhat",
                 str(yhat), "--d", "6", "--delta", "0.2", "--out", str(out)])


def test_old_format_kernel_file_predicts_the_same_bytes(tmp_path):
    new, raw, y, yhat = _old_format_files(tmp_path)
    old = tmp_path / "old.json"
    old.write_text(json.dumps(raw))
    reports = []
    for kern in (new, old):
        out = tmp_path / f"p-{kern.stem}.json"
        assert _predict(kern, y, yhat, out) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_exit_2_when_k_ha_is_not_the_exact_transpose(tmp_path, capsys):
    _, raw, y, yhat = _old_format_files(tmp_path)
    raw["K_ha"][0][1] = float(np.nextafter(raw["K_ha"][0][1], np.inf))
    old = tmp_path / "old.json"
    old.write_text(json.dumps(raw))
    out = tmp_path / "p.json"
    assert _predict(old, y, yhat, out) == 2
    err = capsys.readouterr().err
    assert "K_ha must be the exact transpose of K_ah" in err
    assert not out.exists()


def test_exit_3_on_malformed_kernel_json(tmp_path, toy_files):
    _, y, yhat = toy_files
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["predict", "--kernels", str(bad), "--y", str(y), "--yhat",
                 str(yhat), "--d", "2", "--delta", "1", "--out",
                 str(tmp_path / "x.json")])
    assert code == 3


def test_exit_4_on_numerically_singular_pencil_without_warnings(tmp_path):
    out = tmp_path / "sing.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["diagnose", "--synthetic", "12,6,4", "--d", "4",
                     "--reps", "4", "--samples", "10000", "--eta-list",
                     "100,1000", "--z", "0", "--delta", "1e-300", "--out",
                     str(out)])
    assert [str(w.message) for w in caught] == []
    assert code == 4
    rep = json.loads(out.read_text())
    assert rep["error"] == "RuntimeError"
    assert "numerically singular" in rep["message"]


def test_exit_4_writes_failure_name_to_report(tmp_path):
    kern = tmp_path / "deg.json"
    kern.write_text(json.dumps({
        "n_train": 4, "n_test": 1, "samples": 1,
        "K_aa": np.eye(4).tolist(),
        "K_ah": [[0.0]] * 4,
        "K_ha": [[0.0] * 4],
        "K_hh": [[1.0]],
    }))
    y = tmp_path / "y.csv"
    y.write_text("1\n1\n1\n1\n")
    yhat = tmp_path / "yh.csv"
    yhat.write_text("0\n")
    out = tmp_path / "fail.json"
    code = main(["predict", "--kernels", str(kern), "--y", str(y), "--yhat",
                 str(yhat), "--d", "4", "--delta", "1e-18", "--out",
                 str(out)])
    assert code == 4
    rep = json.loads(out.read_text())
    assert rep["error"] == "DenominatorDegenerate"
    assert "message" in rep
