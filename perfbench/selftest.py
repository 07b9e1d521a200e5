"""Self-tests of the benchmark harness (not of rfequiv).

    python3 perfbench/selftest.py

Checks that tracing leaves report bytes unchanged and puts back every
binding it replaced, that the seed reaches the generated inputs and
nothing else, and that the output checks reject a wrong report.  Exits
non-zero on the first failure.  Takes a few seconds.
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from rfequiv import cli  # noqa: E402
from rfequiv.kernels import analytic_identity_kernels, save_kernels  # noqa: E402
from rfequiv.equiv import build_equiv  # noqa: E402
from rfequiv.model import synthetic_regression, to_json_text, write_matrix  # noqa: E402


def _bindings():
    return {(name, attr): value for name, module in sys.modules.items()
            if name == "rfequiv" or name.startswith("rfequiv.")
            for attr, value in vars(module).items()}


def test_tracing_keeps_bytes_and_restores_bindings(tmp):
    ds = synthetic_regression(30, 20, 10, 0.5, seed=3)
    save_kernels(analytic_identity_kernels(ds, 30), f"{tmp}/k.json")
    write_matrix(f"{tmp}/y.csv", ds.y[:, None])
    write_matrix(f"{tmp}/yhat.csv", ds.yhat[:, None])

    def predict(out):
        argv = ["predict", "--kernels", f"{tmp}/k.json", "--y", f"{tmp}/y.csv",
                "--yhat", f"{tmp}/yhat.csv", "--d", "40", "--delta", "0.1",
                "--out", out]
        assert cli.main(argv) == 0
        return Path(out).read_bytes()

    before = _bindings()
    plain = predict(f"{tmp}/plain.json")
    tracer = spans.Tracer()
    with tracer:
        tracer.op = 1
        traced = predict(f"{tmp}/traced.json")
        tracer.op = None
    assert traced == plain, "tracing changed the report bytes"
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "equiv.build_equiv", "kernels.load_kernels",
            "model.load_matrix", "model.write_json"} <= names, names
    main = next(s for s in tracer.spans if s.name == "cli.main")
    assert all(s.parent == main.id for s in tracer.spans
               if s.name in ("equiv.build_equiv", "kernels.load_kernels"))
    assert all(s.op == 1 for s in tracer.spans)
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed, f"bindings not restored: {changed}"
    assert not spans.leftover_wrappers()


def test_library_ops_are_traced(tmp):
    class Small(workloads.ResolventProbe):
        N, D, T, DRAWS = 12, 6, 12, 2

    w = Small()
    w.setup(tmp, 5)
    (op,) = w.cycle()
    tracer = spans.Tracer()
    with tracer:
        tracer.op = 1
        report = op.run()
        tracer.op = None
    op.check(report)
    calls = {}
    for s in tracer.spans:
        calls[s.name] = calls.get(s.name, 0) + 1
    assert calls.get("rdel.rf_solution_matrix") == 1, calls
    assert calls.get("equiv.solve_subdel") == 1, calls
    assert calls.get("sim.sample_features") == 2, calls
    assert calls.get("sim.build_pseudoresolvent") == 2, calls
    assert calls.get("sim.anisotropic_gap") == 2 * w.PROBES, calls


def _inputs_digest(workdir):
    digest = hashlib.sha256()
    for path in sorted(Path(workdir).iterdir()):
        digest.update(path.name.encode() + path.read_bytes())
    return digest.hexdigest()


def _captured_argv(workload, workdir, seed):
    """Argv of every CLI op in one cycle, with the workdir and seed masked."""
    seen = []

    def fake_main(argv):
        seen.append([a.replace(workdir, "<dir>") for a in argv])
        raise StopIteration  # stop the op before it looks for its report

    real, workloads.cli.main = workloads.cli.main, fake_main
    try:
        for op in workload.cycle():
            try:
                op.run()
            except StopIteration:
                pass
    finally:
        workloads.cli.main = real
    seeds = {str(s) for s in getattr(workload, "seeds", [seed])}
    return [["<seed>" if a in seeds and prev == "--seed" else a
             for prev, a in zip([None, *argv], argv)] for argv in seen]


def test_seed_reaches_inputs_only(tmp):
    for name, cls in workloads.WORKLOADS.items():
        if name == "resolvent_probe":
            continue  # library calls, checked below
        digests, argvs, seeds = {}, {}, {}
        for seed, tag in ((11, "a"), (11, "b"), (12, "c")):
            workdir = os.path.join(tmp, f"{name}-{tag}")
            os.mkdir(workdir)
            w = cls()
            w.setup(workdir, seed)
            digests[tag] = _inputs_digest(workdir)
            argvs[tag] = _captured_argv(w, workdir, seed)
            seeds[tag] = getattr(w, "seeds", None)
        if name != "diagnose":  # diagnose draws its dataset inside the CLI
            assert digests["a"] == digests["b"], f"{name}: inputs not reproducible"
            assert digests["a"] != digests["c"], f"{name}: seed does not reach inputs"
        assert argvs["a"] == argvs["b"] == argvs["c"], f"{name}: ops depend on seed"
        if name == "diagnose":
            assert any("--synthetic" in argv for argv in argvs["a"])
            assert seeds["a"] == seeds["b"] and seeds["a"][0] == 11
            assert len(set(seeds["a"] + seeds["c"])) == 2 * w.DATASETS
    a, b = workloads.ResolventProbe(), workloads.ResolventProbe()
    a.setup(tmp, 11)
    b.setup(tmp, 12)
    assert not np.array_equal(a.ds.X, b.ds.X)
    assert not np.array_equal(a.probes[0], b.probes[0])
    assert (a.N, a.D, a.T, a.DELTA, a.Z, a.DRAWS) == (b.N, b.D, b.T, b.DELTA, b.Z, b.DRAWS)


def test_checks_reject_wrong_reports(tmp):
    w = workloads.TheoryCurve()
    w.ds = synthetic_regression(30, 20, 10, 0.5, seed=3)
    w.K = analytic_identity_kernels(w.ds, 30)
    w._lam = np.clip(np.linalg.eigvalsh(w.K.K_aa), 0.0, None)
    check = w._predict_checker(20, 0.01)
    report = build_equiv(w.K, w.ds.y, w.ds.yhat, 20, 0.01).to_report()
    check(to_json_text(report).encode())
    for key, factor in (("alpha", 1 + 1e-6), ("term_bias", 1 + 1e-6)):
        bad = dict(report, **{key: report[key] * factor})
        try:
            check(to_json_text(bad).encode())
        except workloads.CheckFailed:
            continue
        raise AssertionError(f"predict check accepted a perturbed {key}")

    w = workloads.Diagnose()
    good = {"delta_gaussianity": {}, "anisotropic_gap": [0.01, 0.02],
            "zeroth_moment": {"monotone": True, "slope": -0.99},
            "centering": 0.01}
    w._check(json.dumps(good).encode())
    for key, value in (("centering", 0.5),
                       ("zeroth_moment", {"monotone": False, "slope": -1.0}),
                       ("zeroth_moment", {"monotone": True, "slope": -0.5})):
        bad = dict(good, **{key: value})
        try:
            w._check(json.dumps(bad).encode())
        except workloads.CheckFailed:
            continue
        raise AssertionError(f"diagnose check accepted {key}={value}")


def main():
    tests = [test_tracing_keeps_bytes_and_restores_bindings,
             test_library_ops_are_traced,
             test_seed_reaches_inputs_only,
             test_checks_reject_wrong_reports]
    runs = ROOT / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    for test in tests:
        with tempfile.TemporaryDirectory(dir=runs) as tmp:
            test(tmp)
        print(f"ok {test.__name__}")


if __name__ == "__main__":
    main()
