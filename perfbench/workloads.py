"""The four benchmark workloads: inputs made from the seed, ops, and checks.

A workload makes its inputs in :meth:`setup` and then offers a *cycle*: the
list of ops a user would run once, in order.  Each op carries the name of
the latency it feeds (``predict_s``, ``sweep_s``, ...); the ops marked
``main`` are the workload's repeated user-facing call, whose percentiles
are the end-to-end latency.  Every op returns the bytes of the report it
wrote; the runner checks the first cycle's reports in full and requires
every later cycle to reproduce them byte for byte.

The seed reaches only the generated inputs: the dataset (through
``synthetic_regression``) and the ``--seed`` value each op is given.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# Ops reach the package through module attributes (cli.main, sim.*, rdel.*)
# so that the tracer's wrappers see them; set-up and checks are not traced.
from rfequiv import cli, rdel, sim
from rfequiv.equiv import build_equiv, kernel_ridge_error
from rfequiv.kernels import (analytic_identity_kernels, default_samples,
                             estimate_kernels, load_kernels, save_kernels)
from rfequiv.model import (Activation, RFConfig, derive_seed, substream,
                           synthetic_regression, to_json_text, write_matrix)

ERF = Activation("erf")
IDENTITY = Activation("identity")

# criterion-06 tolerance on |empirical mean - prediction| / prediction.  The
# 30-replicate mean has Monte Carlo error of its own (several percent at the
# interpolation peak d = n_train), so a cell also passes within three
# standard errors of that mean on top of the tolerance.
REL_GAP_TOL = 0.05
SE_MULT = 3.0


class CheckFailed(Exception):
    """An op's output did not pass its correctness check."""


class OpFailed(Exception):
    """An op exited non-zero."""


def _cli(argv):
    rc = cli.main(argv)
    if rc != 0:
        raise OpFailed(f"rfequiv {argv[0]} exited {rc}")


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _write_dataset(ds, workdir):
    paths = {}
    for name in ("X", "Xhat", "y", "yhat"):
        value = getattr(ds, name)
        paths[name] = os.path.join(workdir, f"{name}.csv")
        write_matrix(paths[name], value if value.ndim == 2 else value[:, None])
    return paths


def _file_args(paths):
    return ["--x", paths["X"], "--xhat", paths["Xhat"],
            "--y", paths["y"], "--yhat", paths["yhat"]]


def _gap_ok(mean, predicted, se):
    return abs(mean - predicted) <= REL_GAP_TOL * predicted + SE_MULT * se


class Op:
    """One timed call: ``run()`` does the work and returns the report bytes,
    ``check(report)`` validates a report and raises :class:`CheckFailed`."""

    def __init__(self, name, run, check, main=False):
        self.name = name
        self.run = run
        self.check = check
        self.main = main


# ---------------------------------------------------------------------------
# theory_curve
# ---------------------------------------------------------------------------

class TheoryCurve:
    name = "theory_curve"
    min_main_samples = 100  # for a p90 with ten samples beyond it
    D_GRID = (25, 50, 100, 150, 200, 300, 400, 800)
    DELTA_GRID = (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)

    def setup(self, workdir, seed):
        self.seed = seed
        self.workdir = workdir
        self.ds = synthetic_regression(200, 200, 200, 0.5, seed)
        self.paths = _write_dataset(self.ds, workdir)
        self.kernel_path = os.path.join(workdir, "kernels.json")
        self._lam = None

    def cycle(self):
        ops = [Op("estimate_kernels_s", self._estimate, self._check_kernels)]
        for d in self.D_GRID:
            for delta in self.DELTA_GRID:
                ops.append(Op("predict_s", self._predictor(d, delta),
                              self._predict_checker(d, delta), main=True))
        return ops

    def _estimate(self):
        _cli(["estimate-kernels", *_file_args(self.paths),
              "--sigma", "erf", "--phi", "identity", "--samples", "100000",
              "--seed", str(self.seed), "--out", self.kernel_path])
        return _read(self.kernel_path)

    def _check_kernels(self, report):
        raw = json.loads(report)
        _require(raw["samples"] == 100000, "kernel JSON has the wrong sample count")
        K_aa = np.array(raw["K_aa"])
        self._lam = np.clip(np.linalg.eigvalsh((K_aa + K_aa.T) / 2), 0.0, None)
        self.K = load_kernels(self.kernel_path)

    def _predictor(self, d, delta):
        out = os.path.join(self.workdir, f"predict-{d}-{delta:g}.json")

        def run():
            _cli(["predict", "--kernels", self.kernel_path,
                  "--y", self.paths["y"], "--yhat", self.paths["yhat"],
                  "--d", str(d), "--delta", repr(delta), "--out", out])
            return _read(out)
        return run

    def _predict_checker(self, d, delta):
        def check(report):
            rep = json.loads(report)
            alpha = rep["alpha"]
            t = -1.0 / (1.0 + float(np.sum(self._lam / (delta - d * alpha * self._lam))))
            _require(abs(alpha - t) <= 1e-10,
                     f"alpha misses its fixed point by {abs(alpha - t):.3e}")
            ref = kernel_ridge_error(self.K, self.ds.y, self.ds.yhat, d,
                                     rep["effective_ridge"])
            _require(abs(rep["term_bias"] - ref) <= 1e-8 * abs(ref),
                     f"term_bias {rep['term_bias']!r} != kernel ridge {ref!r}")
        return check


# ---------------------------------------------------------------------------
# replicate_sweep
# ---------------------------------------------------------------------------

class ReplicateSweep:
    name = "replicate_sweep"
    min_main_samples = 3  # sweep times swing +-10% under two-level threading
    D_LIST = (100, 200, 400)
    DELTA_LIST = (1e-3, 0.1, 10.0)
    REPS = 30

    def setup(self, workdir, seed):
        self.seed = seed
        self.workdir = workdir
        self.ds = synthetic_regression(200, 200, 200, 0.5, seed)
        self.paths = _write_dataset(self.ds, workdir)
        self.kernel_path = os.path.join(workdir, "kernels.json")
        # the CLI's default draw count; the ops only load the file
        self.K = estimate_kernels(self.ds, ERF, IDENTITY, 200,
                                  default_samples(200, 200), seed)
        save_kernels(self.K, self.kernel_path)

    def _common(self):
        return [*_file_args(self.paths), "--kernels", self.kernel_path,
                "--sigma", "erf", "--phi", "identity",
                "--reps", str(self.REPS), "--seed", str(self.seed)]

    def cycle(self):
        return [Op("sweep_s", self._sweep, self._check_sweep, main=True),
                Op("simulate_s", self._simulate, self._check_simulate)]

    def _sweep(self):
        out = os.path.join(self.workdir, "sweep.csv")
        _cli(["sweep", *self._common(),
              "--d-list", ",".join(map(str, self.D_LIST)),
              "--delta-list", ",".join(map(repr, self.DELTA_LIST)), "--out", out])
        return _read(out)

    def _check_sweep(self, report):
        lines = report.decode().splitlines()
        _require(lines[0] == "d,delta,predicted,empirical_mean,rel_gap",
                 "unexpected sweep header")
        rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        grid = [(d, delta) for d in self.D_LIST for delta in self.DELTA_LIST]
        _require([(r[0], r[1]) for r in rows] == [(float(d), x) for d, x in grid],
                 "sweep rows are not the 9 cells sorted by (d, delta)")
        for i, ((d, delta), (_, _, pred, mean, rel_gap)) in enumerate(zip(grid, rows)):
            ref = build_equiv(self.K, self.ds.y, self.ds.yhat, d, delta).predicted_error
            _require(abs(pred - ref) <= 1e-12 * ref,
                     f"sweep prediction at d={d} delta={delta} != build_equiv")
            _require(math.isfinite(mean) and abs(rel_gap - abs(mean - pred) / pred)
                     <= 1e-12, f"sweep row d={d} delta={delta} is inconsistent")
            if rel_gap < REL_GAP_TOL:
                continue
            # recompute the cell through the library for its spread
            cfg = RFConfig(d=d, delta=delta, n=200,
                           seed=derive_seed(self.seed, "sweep", i))
            rep = sim.run_replicates(self.ds, ERF, IDENTITY, cfg, reps=self.REPS,
                                     kernels=self.K, workers=1)
            _require(rep.mean == mean, f"sweep cell d={d} delta={delta} does not "
                                       "reproduce through the library")
            _require(_gap_ok(mean, pred, rep.std / math.sqrt(self.REPS)),
                     f"sweep cell d={d} delta={delta}: rel_gap {rel_gap:.4f} "
                     "beyond tolerance plus Monte Carlo error")

    def _simulate(self):
        out = os.path.join(self.workdir, "simulate.json")
        _cli(["simulate", *self._common(), "--d", "400", "--delta", "0.001",
              "--out", out, "--csv", os.path.join(self.workdir, "simulate.csv")])
        return _read(out)

    def _check_simulate(self, report):
        rep = json.loads(report)
        errors = np.array(rep["replicates"])
        _require(errors.shape == (self.REPS,) and np.all(np.isfinite(errors)),
                 "simulate replicates are missing or non-finite")
        ref = build_equiv(self.K, self.ds.y, self.ds.yhat, 400, 1e-3).predicted_error
        _require(abs(rep["predicted"] - ref) <= 1e-12 * ref,
                 "simulate prediction != build_equiv")
        _require(_gap_ok(rep["mean"], rep["predicted"],
                         rep["std"] / math.sqrt(self.REPS)),
                 f"simulate rel_gap {rep['rel_gap']:.4f} beyond tolerance "
                 "plus Monte Carlo error")


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------

class Diagnose:
    name = "diagnose"
    min_main_samples = 1
    # The op's cost depends on its dataset: power iteration in
    # rdel.spectral_norm took 14334 iterations at one seed and 17447 at
    # another.  A cycle diagnoses two datasets, so a run's time depends less
    # on which seed it drew.
    DATASETS = 2

    def setup(self, workdir, seed):
        # the CLI draws each dataset itself from --synthetic and --seed
        self.seeds = [seed, *(derive_seed(seed, "perfbench-diagnose", k)
                              for k in range(1, self.DATASETS))]
        self.workdir = workdir

    def cycle(self):
        return [Op("diagnose_s", self._diagnoser(k, seed), self._check, main=True)
                for k, seed in enumerate(self.seeds)]

    def _diagnoser(self, k, seed):
        out = os.path.join(self.workdir, f"diagnose-{k}.json")

        def run():
            _cli(["diagnose", "--synthetic", "200,100,200", "--noise-sd", "0.5",
                  "--sigma", "sign", "--phi", "sin", "--d", "200", "--delta", "0.1",
                  "--seed", str(seed), "--out", out])
            return _read(out)
        return run

    def _check(self, report):
        rep = json.loads(report)
        zm = rep["zeroth_moment"]
        _require(zm["monotone"] is True, "zeroth-moment table is not monotone")
        _require(abs(zm["slope"] + 1.0) <= 0.1,
                 f"zeroth-moment slope {zm['slope']:.4f} not within 0.1 of -1")
        _require(all(math.isfinite(g) for g in rep["anisotropic_gap"]),
                 "non-finite anisotropic gap")
        _require(rep["centering"] < 0.1, f"centering {rep['centering']:.4f} >= 0.1")


# ---------------------------------------------------------------------------
# resolvent_probe
# ---------------------------------------------------------------------------

class ResolventProbe:
    """One anisotropic-law check of the ``test_11`` shape, by library calls."""

    name = "resolvent_probe"
    min_main_samples = 1
    N, D, T = 300, 150, 300
    DELTA, Z = 0.3, 1j
    DRAWS, PROBES = 8, 5

    def setup(self, workdir, seed):
        n, t = self.N, self.T
        self.seed = seed
        self.ds = synthetic_regression(n, t, n, 0.0, seed)
        self.K = analytic_identity_kernels(self.ds, n)
        ell = n + self.D + 2 * t
        self.probes = []
        for p in range(self.PROBES):
            rng = substream(seed, "perfbench-probe", p)
            u = rng.standard_normal(ell) + 1j * rng.standard_normal(ell)
            v = rng.standard_normal(ell) + 1j * rng.standard_normal(ell)
            self.probes.append(np.outer(u / np.linalg.norm(u),
                                        v.conj() / np.linalg.norm(v)))

    def cycle(self):
        return [Op("resolvent_check_s", self._check_law, self._check, main=True)]

    def _check_law(self):
        # build_pseudoresolvent raises on a failed defect or block check
        M = rdel.rf_solution_matrix(self.K, (self.N, self.D, self.T), self.DELTA,
                                    self.Z)
        gaps = []
        for s in range(self.DRAWS):
            A, Ahat = sim.sample_features(
                self.ds, IDENTITY, IDENTITY, self.D, self.N,
                seed=derive_seed(self.seed, "perfbench-draw", s))
            pr = sim.build_pseudoresolvent(A, Ahat, self.DELTA, self.Z)
            gaps.append([sim.anisotropic_gap(pr, M, U) for U in self.probes])
        # to_json_text raises on a non-finite gap, which fails the op
        return to_json_text({"anisotropic_gap": gaps}).encode()

    def _check(self, report):
        gaps = json.loads(report)["anisotropic_gap"]
        _require(len(gaps) == self.DRAWS
                 and all(len(g) == self.PROBES for g in gaps),
                 "wrong number of anisotropic gaps")


WORKLOADS = {w.name: w for w in (TheoryCurve, ReplicateSweep, Diagnose,
                                 ResolventProbe)}
