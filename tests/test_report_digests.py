"""The canonical report set, pinned byte for byte.

Eight verb runs at ``--synthetic 40,20,30`` write nine files:
``estimate-kernels`` on the exact erf and the Monte Carlo sign/sin routes,
``predict`` from the exact file, ``simulate`` (JSON and CSV), ``compare``,
``sweep``, and ``diagnose`` on both routes.  The set runs in process at
``RF_EQUIV_THREADS`` 1 and 2; the two runs must write the same bytes, and
each file's SHA-256 must equal the one in ``report_digests.json``.

The bytes follow the numpy/OpenBLAS builds and the CPU's kernels, so the
table records the host facts it was made on.  On a host whose facts differ,
the test compares each file's numbers instead, through a fingerprint (their
count and three sums) held to ``RTOL`` relative to the sum of their
magnitudes, and says so in a warning.  A different Newton step count on such
a host fails that comparison too; rewrite the table there.

A change that moves report bytes on purpose rewrites the table, and names
each moved file and the reason in CHANGES.md.  From the repository root:

    PYTHONPATH=src python tests/test_report_digests.py
"""

import csv
import hashlib
import json
import os
import platform
import warnings
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest
import scipy

from rfequiv import synthetic_regression, write_matrix
from rfequiv.cli import main

from conftest import caller_blas_threads

TABLE = Path(__file__).with_name("report_digests.json")
# the fingerprints' tolerance on another host, relative to the sum of the
# file's magnitudes: BLAS kernels move a sum's last bits, about 1e-16
RTOL = 1e-8
SYNTHETIC = ["--synthetic", "40,20,30", "--noise-sd", "0.5", "--seed", "11"]
MONTE_CARLO = ["--sigma", "sign", "--phi", "sin"]
MODEL = ["--d", "20", "--delta", "0.1"]


def _runs(root):
    """The argv of each run of the canonical set, in the order they run."""
    out = {name: str(root / name) for name in (
        "k_exact.json", "k_mc.json", "predict.json", "simulate.json",
        "simulate.csv", "compare.json", "sweep.csv", "diagnose_exact.json",
        "diagnose_mc.json", "y.csv", "yhat.csv")}
    return [
        ["estimate-kernels", *SYNTHETIC, "--out", out["k_exact.json"]],
        ["estimate-kernels", *SYNTHETIC, *MONTE_CARLO, "--out", out["k_mc.json"]],
        ["predict", "--kernels", out["k_exact.json"], "--y", out["y.csv"],
         "--yhat", out["yhat.csv"], *MODEL, "--out", out["predict.json"]],
        ["simulate", *SYNTHETIC, *MODEL, "--out", out["simulate.json"],
         "--csv", out["simulate.csv"]],
        ["compare", *SYNTHETIC, *MODEL, "--out", out["compare.json"]],
        ["sweep", *SYNTHETIC, *MONTE_CARLO, "--d-list", "10,20",
         "--delta-list", "0.1,1", "--out", out["sweep.csv"]],
        ["diagnose", *SYNTHETIC, *MODEL, "--out", out["diagnose_exact.json"]],
        ["diagnose", *SYNTHETIC, *MONTE_CARLO, *MODEL,
         "--out", out["diagnose_mc.json"]],
    ]


def report_files(root):
    """Run the canonical set in the new directory ``root`` and return the
    bytes of each report, by file name.  ``predict`` reads the labels of
    the synthetic set from CSV files; ``diagnose`` runs with the caller's
    BLAS at one thread, because its bytes follow that count (README)."""
    root.mkdir()
    ds = synthetic_regression(40, 20, 30, 0.5, seed=11)
    write_matrix(root / "y.csv", ds.y.reshape(-1, 1))
    write_matrix(root / "yhat.csv", ds.yhat.reshape(-1, 1))
    for argv in _runs(root):
        with caller_blas_threads(1) if argv[0] == "diagnose" else nullcontext():
            assert main(argv) == 0, argv
    return {path.name: path.read_bytes() for path in sorted(root.iterdir())
            if path.name not in ("y.csv", "yhat.csv")}


def host_facts():
    """What the report bytes follow: the CPU, whose kernels OpenBLAS picks
    at run time, and the numpy and scipy builds with their BLAS."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    facts = {"machine": platform.machine(), "cpu_model": cpu}
    for module in (np, scipy):
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts[module.__name__] = module.__version__
        facts[module.__name__ + "_blas"] = f"{blas.get('name')} {blas.get('version')}"
    return facts


def _numbers(name, data):
    """Every number of a report, in file order: the JSON values (booleans
    left out) or the CSV cells below the header."""
    if name.endswith(".csv"):
        return [float(cell) for row in list(csv.reader(data.decode().splitlines()))[1:]
                for cell in row]
    found = []

    def walk(value):
        if isinstance(value, dict):
            for item in value.values():
                walk(item)
        elif isinstance(value, list):
            for item in value:
                walk(item)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            found.append(float(value))
    walk(json.loads(data))
    return found


def fingerprint(name, data):
    """The count of a report's numbers, their sum, their sum with the fixed
    integer weights ``i mod 7 - 3``, and the sum of their magnitudes."""
    x = np.array(_numbers(name, data))
    w = np.arange(len(x)) % 7 - 3.0
    return [len(x), float(x.sum()), float(w @ x), float(np.abs(x).sum())]


def table(files):
    return {"host": host_facts(),
            "files": {name: {"sha256": hashlib.sha256(data).hexdigest(),
                             "fingerprint": fingerprint(name, data)}
                      for name, data in files.items()}}


def _close(got, want):
    """Whether two fingerprints agree: the same count, and each sum within
    ``RTOL`` times the table's sum of magnitudes."""
    return got[0] == want[0] and all(abs(a - b) <= RTOL * want[3]
                                     for a, b in zip(got[1:], want[1:]))


def _compare(files, committed):
    """Hold ``files`` to the table ``committed``: by their bytes on the
    table's host, else by their fingerprints alone, with a warning."""
    got = table(files)
    assert sorted(got["files"]) == sorted(committed["files"])
    assert [name for name, entry in committed["files"].items()
            if not _close(got["files"][name]["fingerprint"], entry["fingerprint"])] == []
    if got["host"] != committed["host"]:
        warnings.warn(f"report digests were made on {committed['host']}, not on "
                      f"{got['host']}: the reports' numbers were compared at "
                      f"{RTOL:g} relative instead of their bytes")
        return
    assert {name: entry["sha256"] for name, entry in got["files"].items()} == {
        name: entry["sha256"] for name, entry in committed["files"].items()}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The canonical set's files at RF_EQUIV_THREADS 1 and 2."""
    files = {}
    with pytest.MonkeyPatch.context() as patch:
        for threads in ("1", "2"):
            patch.setenv("RF_EQUIV_THREADS", threads)
            files[threads] = report_files(tmp_path_factory.mktemp("reports") / threads)
    return files


def test_verbs_write_the_committed_report_bytes(runs):
    assert len(runs["1"]) == 9
    assert runs["1"] == runs["2"], "the report bytes follow the worker count"
    _compare(runs["1"], json.loads(TABLE.read_text()))


def test_another_host_compares_the_numbers_and_says_so(runs):
    committed = json.loads(TABLE.read_text())
    committed["host"]["cpu_model"] += " (another)"
    with pytest.warns(UserWarning, match="compared at 1e-08 relative"):
        _compare(runs["1"], committed)
    committed["files"]["predict.json"]["fingerprint"][1] *= 1 + 1e-7
    with pytest.raises(AssertionError), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _compare(runs["1"], committed)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for threads in ("1", "2"):
            os.environ["RF_EQUIV_THREADS"] = threads
            files[threads] = report_files(Path(tmp) / threads)
    if files["1"] != files["2"]:
        raise SystemExit("the report bytes follow the worker count; table not written")
    old = json.loads(TABLE.read_text())["files"] if TABLE.exists() else {}
    new = table(files["1"])
    for name, entry in new["files"].items():
        was = old.get(name, {})
        print(f"{name}: bytes {'kept' if was.get('sha256') == entry['sha256'] else 'moved'}, "
              f"fingerprint {'kept' if was.get('fingerprint') == entry['fingerprint'] else 'moved'}")
    TABLE.write_text(json.dumps(new, indent=1) + "\n")
    print(f"wrote {TABLE}")
