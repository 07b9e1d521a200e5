"""Command-line front door: verbs, report files, exit codes."""

import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rfequiv
from rfequiv import cli, equiv, kernels, model, rdel, sim
from rfequiv.cli import _parse_complex, main
from rfequiv.model import _parallel_map

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


SRC = Path(rfequiv.__file__).resolve().parents[1]
PRINT_SCIPY = ("import sys; print(' '.join(sorted(m for m in sys.modules "
               "if m == 'scipy' or m.startswith('scipy.'))))")


def _fresh_python(code):
    """stdout of a new interpreter that runs ``code`` in the source tree."""
    proc = subprocess.run([sys.executable, "-c", code], cwd=SRC,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return proc.stdout


def _fresh_cli(argv, **env):
    """Exit code of ``rfequiv argv`` in a new interpreter, with ``env`` added."""
    return subprocess.run([sys.executable, "-m", "rfequiv.cli", *argv], cwd=SRC,
                          env={**os.environ, **env}, capture_output=True,
                          timeout=120).returncode


@pytest.mark.parametrize("module", ["rfequiv", "rfequiv.cli"])
def test_import_loads_no_scipy(module):
    # scipy.special and scipy.linalg cost ~0.25 s of start-up; only the erf
    # activation and the ridge solves import them, when they run.
    # scipy.optimize would add ~0.4 s more (it pulls in both); the alpha
    # solve is a hand-rolled Newton loop for that reason
    assert _fresh_python(f"import {module}; {PRINT_SCIPY}").strip() == ""


def test_predict_loads_no_scipy(tmp_path, toy_files):
    # nor scipy's OpenBLAS: build_equiv pins numpy's alone, and loading the
    # other library costs a predict process about 10 ms
    kern, y, yhat = toy_files
    out = tmp_path / "p.json"
    argv = ["predict", "--kernels", str(kern), "--y", str(y), "--yhat",
            str(yhat), "--d", "2", "--delta", "1", "--out", str(out)]
    code = (f"from rfequiv.cli import main; assert main({argv!r}) == 0; {PRINT_SCIPY}; "
            "from rfequiv.model import _blas_control as c; "
            "assert c.cache_info().currsize == 1, 'scipy OpenBLAS loaded'")
    assert _fresh_python(code).strip() == ""
    assert out.exists()


def test_sign_sin_diagnose_loads_neither_special_nor_linalg(tmp_path):
    # the BLAS pin of the pool locates scipy.libs/ without importing scipy
    argv = ["diagnose", "--synthetic", "12,6,4", "--sigma", "sign", "--phi",
            "sin", "--d", "4", "--delta", "0.1", "--samples", "600",
            "--reps", "4", "--probes", "1", "--out", str(tmp_path / "d.json")]
    code = f"from rfequiv.cli import main; assert main({argv!r}) == 0; {PRINT_SCIPY}"
    loaded = _fresh_python(code).split()
    assert "scipy.special" not in loaded and "scipy.linalg" not in loaded


def test_default_estimate_kernels_loads_neither_special_nor_linalg(tmp_path):
    # erf with phi = identity is a closed form: no draw, so no erf call, and
    # no scipy OpenBLAS either, since the closed form pins numpy's alone
    out = tmp_path / "k.json"
    argv = ["estimate-kernels", "--synthetic", "12,6,4", "--out", str(out)]
    code = (f"from rfequiv.cli import main; assert main({argv!r}) == 0; {PRINT_SCIPY}; "
            "from rfequiv.model import _blas_control as c; "
            "assert c.cache_info().currsize == 1, 'scipy OpenBLAS loaded'")
    loaded = _fresh_python(code).split()
    assert "scipy.special" not in loaded and "scipy.linalg" not in loaded
    assert json.loads(out.read_text())["exact"] is True


def test_first_erf_import_in_pool_workers_keeps_the_bytes(tmp_path):
    # 2048 draws are four chunks, so at two workers the first erf call, and
    # with it the import of scipy.special, happens in both pool threads;
    # --phi sign has no closed form, so the draws are taken
    argv = ["estimate-kernels", "--synthetic", "10,6,5", "--sigma", "erf",
            "--phi", "sign", "--samples", "2048", "--seed", "5", "--out"]
    for threads in ("1", "2"):
        assert _fresh_cli(argv + [str(tmp_path / f"k{threads}.json")],
                          RF_EQUIV_THREADS=threads) == 0
    assert main(argv + [str(tmp_path / "k.json")]) == 0
    want = (tmp_path / "k.json").read_bytes()
    assert (tmp_path / "k1.json").read_bytes() == want
    assert (tmp_path / "k2.json").read_bytes() == want


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
            "--phi", "sign", "--samples", "300", "--seed", "1"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("kind", ["erf", "sign", "relu", "sin", "identity"])
def test_estimate_kernels_takes_the_closed_form_where_one_exists(tmp_path, kind):
    # a built-in sigma with phi = identity is computed, not drawn; the file
    # records the draw budget it was given, or the default, and "exact": true
    ds = rfequiv.synthetic_regression(12, 6, 4, 0.2, 4)
    ks = rfequiv.exact_kernels(ds, rfequiv.Activation(kind),
                               rfequiv.Activation("identity"), 12)
    for samples, budget in (([], rfequiv.kernels.default_samples(12, 6)),
                            (["--samples", "300"], 300)):
        out = tmp_path / f"{kind}.json"
        assert main(["estimate-kernels", "--synthetic", "12,6,4", "--noise-sd",
                     "0.2", "--sigma", kind, "--seed", "4", *samples,
                     "--out", str(out)]) == 0
        rfequiv.save_kernels(replace(ks, samples=budget), tmp_path / "lib.json")
        assert out.read_bytes() == (tmp_path / "lib.json").read_bytes()


def test_estimate_kernels_keeps_monte_carlo_without_a_closed_form(tmp_path):
    # phi other than identity: the draws, and a file with no "exact" key
    out = tmp_path / "k.json"
    assert main(["estimate-kernels", "--synthetic", "10,5,4", "--phi", "sign",
                 "--samples", "900", "--seed", "6", "--out", str(out)]) == 0
    ds = rfequiv.synthetic_regression(10, 5, 4, 0.0, 6)
    K = rfequiv.estimate_kernels(ds, rfequiv.Activation("erf"),
                                 rfequiv.Activation("sign"), 10, 900, 6)
    rfequiv.save_kernels(K, tmp_path / "lib.json")
    assert out.read_bytes() == (tmp_path / "lib.json").read_bytes()
    assert "exact" not in json.loads(out.read_text())


def test_exact_estimate_kernels_bytes_ignore_caller_blas_threads(tmp_path):
    # at 600 x 300 OpenBLAS splits the Gram matrix of the design over its
    # threads and rounds differently for each count; the verb pins it to one
    out = tmp_path / "k.json"
    reports = set()
    for blas in (1, 2):
        with caller_blas_threads(blas):
            assert main(["estimate-kernels", "--synthetic", "300,300,300",
                         "--out", str(out)]) == 0
        reports.add(out.read_bytes())
    assert len(reports) == 1


@pytest.mark.parametrize("kind", ["identity", "erf"])
def test_library_exact_kernels_bytes_equal_the_verb_under_caller_blas_threads(
        tmp_path, kind):
    # the closed form pins OpenBLAS itself, so at a size where two threads
    # split the Gram matrix the library and the verb still write one file
    ds = rfequiv.synthetic_regression(300, 300, 300, 0.5, 3)
    x, xhat = tmp_path / "X.csv", tmp_path / "Xhat.csv"
    rfequiv.write_matrix(x, ds.X)
    rfequiv.write_matrix(xhat, ds.Xhat)
    out, lib = tmp_path / "k.json", tmp_path / "lib.json"
    with caller_blas_threads(2):
        ks = rfequiv.exact_kernels(ds, rfequiv.Activation(kind),
                                   rfequiv.Activation("identity"), 300)
        assert main(["estimate-kernels", "--x", str(x), "--xhat", str(xhat),
                     "--sigma", kind, "--out", str(out)]) == 0
    budget = rfequiv.kernels.default_samples(300, 300)
    rfequiv.save_kernels(replace(ks, samples=budget), lib)
    assert out.read_bytes() == lib.read_bytes()


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
    for i, line in enumerate(csv_lines[1:]):
        index, error = line.split(",")
        assert int(index) == i and float(error) == rep["replicates"][i]


def test_simulate_refuses_a_bad_thread_count_without_a_report(
        tmp_path, toy_files, monkeypatch, capsys):
    _, y, yhat = toy_files
    x, xh = write_design(tmp_path)
    out = tmp_path / "s.json"
    monkeypatch.setenv("RF_EQUIV_THREADS", "0")
    code = main(["simulate", "--x", str(x), "--xhat", str(xh), "--y", str(y),
                 "--yhat", str(yhat), "--d", "2", "--delta", "1", "--reps",
                 "3", "--samples", "400", "--out", str(out)])
    assert code == 2
    assert "RF_EQUIV_THREADS must be a positive integer" in capsys.readouterr().err
    assert not out.exists()
    assert not out.with_suffix(".csv").exists()


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


@pytest.mark.parametrize("csv", [None, "./s.csv", "link.csv"])
def test_simulate_refuses_a_csv_path_that_is_its_report(
        tmp_path, toy_files, monkeypatch, capsys, csv):
    # --out s.csv derives the replicate CSV s.csv, which would replace the
    # report; so would an explicit --csv that names the same file
    def forbidden(*args, **kwargs):
        raise AssertionError("a feature was drawn")
    for module in (model, sim, kernels):
        monkeypatch.setattr(module, "_features", forbidden)
    _, y, yhat = toy_files
    x, xh = write_design(tmp_path)
    out = tmp_path / "s.csv"
    argv = ["simulate", "--x", str(x), "--xhat", str(xh), "--y", str(y),
            "--yhat", str(yhat), "--d", "2", "--delta", "1", "--reps", "3",
            "--samples", "400", "--out", str(out)]
    if csv == "link.csv":
        (tmp_path / csv).symlink_to(out)
    if csv:
        argv += ["--csv", os.path.join(str(tmp_path), csv)]  # keeps the "./"
    files = set(tmp_path.iterdir())
    assert main(argv) == 2
    assert "would overwrite the report" in capsys.readouterr().err
    assert set(tmp_path.iterdir()) == files


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


def test_predict_bytes_ignore_caller_blas_threads(tmp_path, monkeypatch):
    # at 400/400 OpenBLAS splits eigh(K_aa) and the products of build_equiv
    # over its threads and rounds differently for each count; build_equiv
    # pins it to one, so neither the count the caller left set nor a kernel
    # memo filled inside a pool changes a byte
    kern, y, yhat = (tmp_path / name for name in ("k.json", "y.csv", "yhat.csv"))
    assert main(["estimate-kernels", "--synthetic", "400,400,30", "--out",
                 str(kern)]) == 0
    rng = np.random.default_rng(4)
    np.savetxt(y, rng.standard_normal(400))
    np.savetxt(yhat, rng.standard_normal(400))
    out = tmp_path / "p.json"
    argv = ["predict", "--kernels", str(kern), "--y", str(y), "--yhat", str(yhat),
            "--d", "800", "--delta", "0.1", "--out", str(out)]
    reports = set()
    for blas in (1, 2):
        for pooled in (False, True):
            monkeypatch.setattr(rfequiv.kernels, "_last_file", [None, None])
            with caller_blas_threads(blas):
                if pooled:  # parse and factorise inside a pool, reuse outside
                    assert list(_parallel_map(lambda _: main(argv), 1)) == [0]
                    reports.add(out.read_bytes())
                assert main(argv) == 0
            reports.add(out.read_bytes())
    assert len(reports) == 1


def test_exact_route_builds_its_kernel_set_once(tmp_path, monkeypatch):
    built = []
    post_init = rfequiv.KernelSet.__post_init__
    monkeypatch.setattr(rfequiv.KernelSet, "__post_init__",
                        lambda self: built.append(post_init(self)))
    out = tmp_path / "k.json"
    assert main(["estimate-kernels", "--synthetic", "12,6,4", "--samples", "300",
                 "--out", str(out)]) == 0
    assert len(built) == 1
    assert json.loads(out.read_text())["samples"] == 300


def test_a_reused_parser_keeps_each_verbs_defaults(tmp_path, capsys):
    common = ["--synthetic", "12,6,4", "--samples", "300", "--delta", "0.5"]
    assert main(["sweep", *common[:4], "--d-list", "4", "--delta-list", "0.5",
                 "--reps", "5", "--out", str(tmp_path / "s.csv")]) == 0
    out = tmp_path / "sim.json"
    assert main(["simulate", *common, "--d", "4", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["reps"] == 30
    capsys.readouterr()
    assert main(["predict", "--kernels"]) == 2
    assert "expected one argument" in capsys.readouterr().err


def test_npy_and_csv_inputs_give_the_same_bytes(tmp_path):
    """The file name picks each matrix's container; estimate-kernels and
    predict write the same bytes from .npy files, from CSV files and from a
    mix of the two."""
    ds = rfequiv.synthetic_regression(12, 6, 5, 0.3, seed=4)
    reports = []
    for tag, suffixes in (("npy", [".npy"] * 4), ("csv", [".csv"] * 4),
                          ("mixed", [".npy", ".csv", ".csv", ".npy"])):
        paths = {name: tmp_path / f"{name}-{tag}{suffix}"
                 for name, suffix in zip(("X", "Xhat", "y", "yhat"), suffixes)}
        for name, path in paths.items():
            value = getattr(ds, name)
            rfequiv.write_matrix(path, value.reshape(len(value), -1))
        kern, pred = tmp_path / f"k-{tag}.json", tmp_path / f"p-{tag}.json"
        assert main(["estimate-kernels", "--x", str(paths["X"]), "--xhat",
                     str(paths["Xhat"]), "--samples", "700", "--seed", "3",
                     "--out", str(kern)]) == 0
        assert main(["predict", "--kernels", str(kern), "--y", str(paths["y"]),
                     "--yhat", str(paths["yhat"]), "--d", "9", "--delta", "0.2",
                     "--out", str(pred)]) == 0
        reports.append((kern.read_bytes(), pred.read_bytes()))
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("argv", [
    ["estimate-kernels", "--synthetic", "4,2,3"],
    ["predict", "--kernels", "k.json", "--y", "y.csv", "--yhat", "yhat.csv",
     "--d", "2", "--delta", "1"],
    *[[verb, "--synthetic", "4,2,3", "--d", "2", "--delta", "0.1"]
      for verb in ("simulate", "compare", "diagnose")],
    ["sweep", "--synthetic", "4,2,3", "--d-list", "2", "--delta-list", "0.1"],
], ids=lambda argv: argv[0])
def test_every_verb_refuses_layout(argv, tmp_path, capsys):
    """The file name picks a matrix's container; no verb takes --layout."""
    out = tmp_path / "out.json"
    assert main(argv + ["--layout", "csv", "--out", str(out)]) == 2
    assert "unrecognized arguments: --layout csv" in capsys.readouterr().err
    assert not out.exists()


def test_sigma_params_reach_the_estimator(tmp_path):
    # a piecewise-linear sigma on a grid wide enough for every pre-activation
    params = (-50.0, -1.0, 0.5, 50.0, -40.0, -1.5, 0.25, 60.0)
    out = tmp_path / "k.json"
    assert main(["estimate-kernels", "--synthetic", "10,5,4", "--noise-sd", "0.1",
                 "--sigma", "custom-table",
                 "--sigma-params=" + ",".join(map(repr, params)),
                 "--samples", "900", "--seed", "6", "--out", str(out)]) == 0
    ds = rfequiv.synthetic_regression(10, 5, 4, 0.1, 6)
    K = rfequiv.estimate_kernels(ds, rfequiv.Activation("custom-table", params),
                                 rfequiv.Activation("identity"), 10, 900, 6)
    rfequiv.save_kernels(K, tmp_path / "lib.json")
    assert out.read_bytes() == (tmp_path / "lib.json").read_bytes()


def test_exit_2_when_phi_grid_misses_the_gaussian_draws(tmp_path, capsys):
    out = tmp_path / "k.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["estimate-kernels", "--synthetic", "6,3,4", "--phi",
                     "custom-table", "--phi-params=-0.5,0.5,-1,1", "--samples",
                     "300", "--out", str(out)])
    assert code == 2
    assert "outside the abscissa grid" in capsys.readouterr().err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert not out.exists()


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


def test_sweep_rows_are_their_cells_run_alone(tmp_path, monkeypatch):
    # a row recomputed through run_replicates with the cell's seed gives
    # the same mean bit for bit, whatever the pool size; n0 = 200 makes
    # most pre-activations saturate erf, as in a benchmark-sized sweep
    kern, out = tmp_path / "k.json", tmp_path / "s.csv"
    synthetic = ["--synthetic", "24,10,200", "--noise-sd", "0.3", "--seed", "9"]
    assert main(["estimate-kernels", *synthetic, "--out", str(kern)]) == 0
    argv = ["sweep", *synthetic, "--kernels", str(kern), "--d-list", "30,6",
            "--delta-list", "1,0.01", "--reps", "4", "--out", str(out)]
    csvs = set()
    for threads in ("1", "2"):
        monkeypatch.setenv("RF_EQUIV_THREADS", threads)
        assert main(argv) == 0
        csvs.add(out.read_bytes())
    assert len(csvs) == 1
    rows = [[float(v) for v in line.split(",")]
            for line in out.read_text().splitlines()[1:]]
    ds = rfequiv.synthetic_regression(24, 10, 200, 0.3, 9)
    K = rfequiv.load_kernels(kern)
    erf, identity = rfequiv.Activation("erf"), rfequiv.Activation("identity")
    for i, (d, delta, predicted, mean, rel_gap) in enumerate(rows):
        cfg = rfequiv.RFConfig(int(d), delta, 24, model.derive_seed(9, "sweep", i))
        rep = rfequiv.run_replicates(ds, erf, identity, cfg, 4, kernels=K, workers=1)
        assert (predicted, mean, rel_gap) == (rep.predicted, rep.mean, rep.rel_gap)


def test_sweep_refuses_an_overflowing_prediction_before_any_draw(
        tmp_path, monkeypatch, capsys):
    # only the last cell's prediction overflows; the other cells are not
    # drawn either, on one worker or two
    ds = rfequiv.synthetic_regression(8, 3, 5, 0.0, seed=1)
    K = rfequiv.exact_kernels(ds, rfequiv.Activation("erf"),
                              rfequiv.Activation("identity"), 8)
    scale = 2.8e154  # the prediction rises with the ridge here
    for delta, overflows in ((10.0, False), (1e3, True)):
        try:
            rfequiv.build_equiv(K, scale * ds.y, scale * ds.yhat, 16, delta)
        except ValueError:
            assert overflows
        else:
            assert not overflows
    paths = {name: tmp_path / f"{name}.csv" for name in ("X", "Xhat", "y", "yhat")}
    for name, path in paths.items():
        value = getattr(ds, name) * (scale if name.startswith("y") else 1.0)
        rfequiv.write_matrix(path, value.reshape(len(value), -1))
    kern = tmp_path / "k.json"
    rfequiv.save_kernels(K, kern)
    drawn = []
    monkeypatch.setattr(sim, "empirical_test_error",
                        lambda *args: drawn.append(args) or 1.0)
    for threads in ("1", "2"):
        monkeypatch.setenv("RF_EQUIV_THREADS", threads)
        code = main(["sweep", *[f"--{k.lower()}={p}" for k, p in paths.items()],
                     "--kernels", str(kern), "--d-list", "16",
                     "--delta-list", "10,1e3", "--reps", "3",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert "the predicted error overflows" in capsys.readouterr().err
    assert drawn == []


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


def test_diagnose_odd_reps_drops_the_last_draw(tmp_path):
    """Draws are paired, so ``--reps 5`` makes 2 pairs from draws 0-3 and
    writes the bytes of ``--reps 4``."""
    argv = ["diagnose", "--synthetic", "16,8,10", "--noise-sd", "0.2", "--d", "8",
            "--delta", "0.5", "--samples", "300", "--eta-list", "100,1000"]
    reports = []
    for reps in ("4", "5"):
        out = tmp_path / f"d{reps}.json"
        assert main(argv + ["--reps", reps, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[1] == reports[0]
    assert json.loads(reports[0])["delta_gaussianity"]["pairs"] == 2


def test_diagnose_reads_no_labels_but_checks_each_one_given(tmp_path, capsys):
    """No number of a diagnose report reads a label: a run without --y and
    --yhat exits 0 with the bytes of runs with the real and with zero
    labels, and a label file that is given is still loaded and checked."""
    ds = rfequiv.synthetic_regression(16, 8, 10, 0.2, seed=4)
    files = {}
    for name, value in (("X", ds.X), ("Xhat", ds.Xhat), ("y", ds.y), ("yhat", ds.yhat),
                        ("y0", 0 * ds.y), ("yhat0", 0 * ds.yhat)):
        files[name] = str(tmp_path / f"{name}.csv")
        rfequiv.write_matrix(files[name], value.reshape(len(value), -1))
    argv = ["diagnose", "--x", files["X"], "--xhat", files["Xhat"], "--d", "8",
            "--delta", "0.5", "--reps", "4", "--samples", "300",
            "--eta-list", "100,1000"]
    reports = []
    for labels in ([], ["--y", files["y"], "--yhat", files["yhat"]],
                   ["--y", files["y0"], "--yhat", files["yhat0"]]):
        out = tmp_path / f"d{len(reports)}.json"
        assert main(argv + labels + ["--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[1] == reports[0] == reports[2]
    assert main(argv + ["--y", files["yhat"], "--out", str(tmp_path / "bad.json")]) == 2
    assert "y has 8 entries, not 16" in capsys.readouterr().err


MC_DIAGNOSE = ["diagnose", "--synthetic", "16,8,10", "--noise-sd", "0.2",
               "--sigma", "sign", "--phi", "sin", "--d", "8", "--delta", "0.5",
               "--reps", "6", "--samples", "1300", "--seed", "3",
               "--eta-list", "100,1000"]


def _spy_chunk_passes(monkeypatch):
    """Record the label and the drawn chunks of every kernel-module pass."""
    passes = []
    original = kernels._feature_chunks

    def spy(ds, sigma, phi, n, m, seed, label, reduce):
        chunks = []
        passes.append((label, chunks))

        def keep(U):
            chunks.append(U.copy())  # list.append is atomic under the GIL
            return reduce(U)
        return original(ds, sigma, phi, n, m, seed, label, keep)

    monkeypatch.setattr(kernels, "_feature_chunks", spy)
    return passes


def test_diagnose_monte_carlo_route_bytes_ignore_worker_count(tmp_path,
                                                             monkeypatch):
    # a phi without a closed form: the kernels and the centering score come
    # from one pooled pass, whose fold must not depend on the pool's size
    out = tmp_path / "d.json"
    reports = []
    for threads in ("1", "2"):
        monkeypatch.setenv("RF_EQUIV_THREADS", threads)
        assert main(MC_DIAGNOSE + ["--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("route", ["monte-carlo", "exact"])
def test_diagnose_bytes_ignore_caller_blas_and_pool_threads(tmp_path,
                                                            monkeypatch, route):
    # at ell = 240 OpenBLAS splits the pseudo-resolvent's products over its
    # threads and rounds differently for each count, which moved
    # anisotropic_gap while they ran at the caller's count; both halves of
    # the verb now run inside one map, whose pin holds every BLAS call at
    # one thread, with RF_EQUIV_THREADS = 3 above the map's two tasks
    out = tmp_path / "d.json"
    argv = ["diagnose", "--synthetic", "60,30,60", "--noise-sd", "0.5",
            "--d", "60", "--delta", "0.1", "--seed", "77", "--out", str(out)]
    if route == "monte-carlo":
        argv += ["--sigma", "sign", "--phi", "sin"]
    reports = set()
    for blas in (1, 2):
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("RF_EQUIV_THREADS", threads)
            with caller_blas_threads(blas):
                assert main(argv) == 0
            reports.add(out.read_bytes())
    assert len(reports) == 1


def test_diagnose_monte_carlo_route_draws_its_columns_once(tmp_path,
                                                          monkeypatch):
    passes = _spy_chunk_passes(monkeypatch)
    seen = []
    check = cli.zeroth_moment_check

    def forbidden(*args, **kwargs):
        raise AssertionError("diagnose redrew the centering columns")

    def spy_check(K, *args, **kwargs):
        seen.append(K)
        return check(K, *args, **kwargs)

    monkeypatch.setattr(cli, "verify_centering", forbidden)
    monkeypatch.setattr(cli, "zeroth_moment_check", spy_check)
    out = tmp_path / "d.json"
    assert main(MC_DIAGNOSE + ["--out", str(out)]) == 0
    assert [label for label, _ in passes] == ["kernels"]
    monkeypatch.undo()  # the reference runs unobserved

    # the blocks diagnose used are estimate_kernels' own, bit for bit
    ds = model.synthetic_regression(16, 8, 10, 0.2, 3)
    sign, sin = model.Activation("sign"), model.Activation("sin")
    want = kernels.estimate_kernels(ds, sign, sin, 16, 1300, 3)
    (got,) = seen
    for name in ("K_aa", "K_ah", "K_hh"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert got.samples == 1300 and not got.exact

    # and the score is the centering ratio of those same 1300 columns
    U = np.hstack(passes[0][1])
    assert U.shape == (24, 1300)
    ratio = (np.linalg.norm(U.mean(axis=1))
             / np.sqrt(np.sum(U * U) / U.shape[1]))
    centering = json.loads(out.read_text())["centering"]
    assert abs(centering - ratio) <= 1e-12 * ratio


@pytest.mark.parametrize("route", ["exact", "kernel-file"])
def test_diagnose_keeps_its_own_centering_draw_off_the_monte_carlo_route(
        tmp_path, monkeypatch, route):
    # a closed form or a kernel file draws no kernel columns, so the score
    # comes from verify_centering's own "centering" draw, as it always has
    argv = ["diagnose", "--synthetic", "16,8,10", "--noise-sd", "0.2",
            "--d", "8", "--delta", "0.5", "--reps", "6", "--samples", "1300",
            "--seed", "3", "--eta-list", "100,1000"]
    if route == "exact":
        argv += ["--sigma", "erf"]
        sigma, phi = model.Activation("erf"), model.Activation("identity")
    else:
        kfile = tmp_path / "k.json"
        assert main(["estimate-kernels", "--synthetic", "16,8,10",
                     "--noise-sd", "0.2", "--sigma", "sign", "--phi", "sin",
                     "--samples", "700", "--seed", "3",
                     "--out", str(kfile)]) == 0
        argv += ["--sigma", "sign", "--phi", "sin", "--kernels", str(kfile)]
        sigma, phi = model.Activation("sign"), model.Activation("sin")

    def forbidden(*args, **kwargs):
        raise AssertionError("a closed form or a file took the one-pass route")

    passes = _spy_chunk_passes(monkeypatch)
    monkeypatch.setattr(cli, "_kernels_and_centering", forbidden)
    out = tmp_path / "d.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert [label for label, _ in passes] == ["centering"]
    monkeypatch.undo()
    ds = model.synthetic_regression(16, 8, 10, 0.2, 3)
    want = kernels.verify_centering(sigma, phi, ds, 16, 1300, 3)
    assert json.loads(out.read_text())["centering"] == want


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


@pytest.mark.parametrize("route", ["monte-carlo", "exact"])
def test_diagnose_factorises_k_aa_once(tmp_path, monkeypatch, route):
    # rf_solution_matrix and each zeroth-moment height read one spectrum,
    # the kernel set's own
    shapes = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))  # list.append is atomic under the GIL
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    argv = list(MC_DIAGNOSE)
    if route == "exact":  # erf with phi = identity is a closed form
        argv[argv.index("sign")], argv[argv.index("sin")] = "erf", "identity"
    assert main(argv + ["--out", str(tmp_path / "d.json")]) == 0
    assert shapes.count((16, 16)) == 1, shapes


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
