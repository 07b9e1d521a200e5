"""rfequiv benchmark: one workload, one closed-loop client, one op in flight.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
The seed makes the inputs.  Set-up (import plus input generation) is timed,
then whole workload cycles run until ``--seconds`` have passed and the
workload's minimum number of main ops has been timed.  Every
op's output is checked.  Human-readable lines come first; the last line of
standard output is the JSON result.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced cycles, reports the per-layer metrics of the traced
ones (per cycle), the tracing overhead, and the serial ratios from a
single-threaded reference pass run in subprocesses.  Spans go to
``.perfbench_runs/<run>/trace.jsonl`` and the full result, with host facts,
to ``.perfbench_runs/<run>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 3
SERIAL_ENV = {"RF_EQUIV_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}

# (metric, unit, traced function, summary field); values are per cycle
LAYER_FIELDS = (
    ("kernels.estimate_kernels.wall_s", "s", "kernels.estimate_kernels", "wall_s"),
    ("kernels.estimate_kernels.cpu_s", "s", "kernels.estimate_kernels", "cpu_s"),
    ("kernels.estimate_kernels.draws", "count", "kernels.estimate_kernels", "facts"),
    ("kernels.load_kernels.wall_s", "s", "kernels.load_kernels", "wall_s"),
    ("kernels.verify_centering.wall_s", "s", "kernels.verify_centering", "wall_s"),
    ("model.apply_activation.busy_s", "s", "model.apply_activation", "busy_s"),
    ("model.apply_activation.calls", "count", "model.apply_activation", "calls"),
    ("model.load_matrix.wall_s", "s", "model.load_matrix", "wall_s"),
    ("model.write_json.wall_s", "s", "model.write_json", "wall_s"),
    ("equiv.build_equiv.wall_s", "s", "equiv.build_equiv", "wall_s"),
    ("equiv.build_equiv.calls", "count", "equiv.build_equiv", "calls"),
    ("equiv.alpha_iterations", "count", "equiv.build_equiv", "facts"),
    ("equiv.solve_subdel.wall_s", "s", "equiv.solve_subdel", "wall_s"),
    ("equiv.solve_subdel.calls", "count", "equiv.solve_subdel", "calls"),
    ("rdel.zeroth_moment_check.wall_s", "s", "rdel.zeroth_moment_check", "wall_s"),
    ("rdel.solve_rdel.wall_s", "s", "rdel.solve_rdel", "wall_s"),
    ("rdel.solve_rdel.calls", "count", "rdel.solve_rdel", "calls"),
    ("rdel.solve_rdel.iterations", "count", "rdel.solve_rdel", "facts"),
    ("rdel.spectral_norm.wall_s", "s", "rdel.spectral_norm", "wall_s"),
    ("rdel.spectral_norm.calls", "count", "rdel.spectral_norm", "calls"),
    ("rdel.rf_linearization.wall_s", "s", "rdel.rf_linearization", "wall_s"),
    ("rdel.rf_solution_matrix.wall_s", "s", "rdel.rf_solution_matrix", "wall_s"),
    ("sim.run_replicates.wall_s", "s", "sim.run_replicates", "wall_s"),
    ("sim.empirical_test_error.busy_s", "s", "sim.empirical_test_error", "busy_s"),
    ("sim.empirical_test_error.calls", "count", "sim.empirical_test_error", "calls"),
    ("sim.build_pseudoresolvent.wall_s", "s", "sim.build_pseudoresolvent", "wall_s"),
    ("sim.build_pseudoresolvent.calls", "count", "sim.build_pseudoresolvent", "calls"),
    ("sim.sample_features.wall_s", "s", "sim.sample_features", "wall_s"),
    ("sim.anisotropic_gap.wall_s", "s", "sim.anisotropic_gap", "wall_s"),
    ("sim.estimate_delta_gaussianity.wall_s", "s",
     "sim.estimate_delta_gaussianity", "wall_s"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def host_facts():
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "env": {k: os.environ.get(k) for k in
                ("RF_EQUIV_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


class Runner:
    """Closed-loop client: runs cycles of ops, times and checks every op."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = None  # report bytes of the first cycle, by op index
        self.times = {}  # op metric name -> durations
        self.attempted = 0
        self.failed = 0

    def run_cycle(self, tracer=None):
        """Run one cycle; returns its summed op time and its main-op times."""
        first = self.reference is None
        ops = self.workload.cycle()
        reports = []
        durations = []
        for op in ops:
            self.attempted += 1
            if tracer is not None:
                tracer.op = self.attempted
            report = None
            t0 = time.perf_counter()
            try:
                report = op.run()
            except Exception:  # an op that raises is a failure; keep the loop going
                traceback.print_exc()
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.op = None
            self.times.setdefault(op.name, []).append(dt)
            durations.append(dt)
            reports.append(report)
        # checks run after the cycle, so their solver and BLAS calls do not
        # disturb the timing of the op that follows
        for i, (op, report) in enumerate(zip(ops, reports)):
            if not self._verify(i, op, report, first):
                self.failed += 1
        if first:
            self.reference = reports
        return sum(durations), [dt for op, dt in zip(ops, durations) if op.main]

    def _verify(self, i, op, report, first):
        if report is None:
            return False
        if not first:
            if report == self.reference[i]:
                return True
            print(f"perfbench: {op.name} op {i} report differs from the first cycle",
                  file=sys.stderr)
            return False
        try:
            op.check(report)
        except Exception:  # a failed or crashing check both fail the op
            traceback.print_exc()
            return False
        return True

    def main_times(self):
        """Durations of the workload's main ops (its user-facing latency)."""
        names = {op.name for op in self.workload.cycle() if op.main}
        return [t for name in sorted(names) for t in self.times.get(name, [])]


def fresh_import_seconds():
    """Seconds to import rfequiv.cli in a new interpreter."""
    code = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
            "import rfequiv.cli; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=60, check=True)
    return float(proc.stdout)


def reference_pass(seed):
    """Serial ratios of the two pooled layers, from two fresh subprocesses."""
    walls = {}
    for label, extra in (("default", {}), ("serial", SERIAL_ENV)):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "reference.py"),
             "--seed", str(seed)],
            env={**os.environ, **extra}, cwd=ROOT, capture_output=True,
            text=True, timeout=150, check=True)
        walls[label] = json.loads(proc.stdout.splitlines()[-1])
    return {f"{layer}.serial_ratio": walls["default"][key] / walls["serial"][key]
            for layer, key in (("kernels.estimate_kernels", "estimate_kernels_s"),
                               ("sim.run_replicates", "run_replicates_s"))}


def main():
    args = parse_args()
    if not (ROOT / "src" / "rfequiv" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rfequiv package under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import rfequiv.cli  # noqa: F401  (timed: the import is part of set-up)
    import_s = statistics.median([time.perf_counter() - t0,
                                  *(fresh_import_seconds()
                                    for _ in range(SETUP_REPEATS - 1))])

    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    runs = ROOT / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    out_dir = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    out_dir.mkdir(exist_ok=True)
    host = host_facts()
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("host " + json.dumps(host))

    with tempfile.TemporaryDirectory(dir=runs) as tmp:
        setup_times = []
        for k in range(SETUP_REPEATS):
            workdir = Path(tmp) / f"setup{k}"
            workdir.mkdir()
            workload = WORKLOADS[args.workload]()
            t = time.perf_counter()
            workload.setup(str(workdir), args.seed)
            setup_times.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(setup_times)
        runner = Runner(workload)
        correct = True
        start = time.perf_counter()
        if args.trace:
            tracer = spans.Tracer()
            plain, traced = [], []  # main-op times
            traced_cycles = 0
            # pairs alternate which side runs first, so drift within the run
            # falls on both sides of the overhead ratio
            while True:
                order = (False, True) if traced_cycles % 2 == 0 else (True, False)
                for with_trace in order:
                    if not with_trace:
                        plain.extend(runner.run_cycle()[1])
                        continue
                    with tracer:
                        traced.extend(runner.run_cycle(tracer)[1])
                    traced_cycles += 1
                    leftovers = spans.leftover_wrappers()
                    if leftovers:
                        correct = False
                        print("perfbench: wrappers left after tracing: "
                              + ", ".join(leftovers), file=sys.stderr)
                if time.perf_counter() - start >= args.seconds:
                    break
            tracer.write(out_dir / "trace.jsonl")
            summary = spans.summarize(tracer.spans, traced_cycles)
            values = {name: summary.get(fn, {}).get(field, 0.0)
                      for name, _, fn, field in LAYER_FIELDS}
            units = {name: unit for name, unit, _, _ in LAYER_FIELDS}
            values.update(reference_pass(args.seed))
            values["cli.import_s"] = import_s
            values["trace_overhead"] = statistics.mean(traced) / statistics.mean(plain)
            units.update({"kernels.estimate_kernels.serial_ratio": "ratio",
                          "sim.run_replicates.serial_ratio": "ratio",
                          "cli.import_s": "s", "trace_overhead": "ratio"})
            print(f"traced cycles {traced_cycles}; "
                  "per-layer values are per traced cycle")
        else:
            cycles = []
            while True:
                cycles.append(runner.run_cycle()[0])
                if (time.perf_counter() - start >= args.seconds
                        and len(runner.main_times()) >= workload.min_main_samples):
                    break
            # means, not medians: the host alternates between a fast and a
            # slow phase lasting seconds, and a median of such a mixture
            # jumps between the two modes while a mean moves with the share
            # of time spent in each
            values = {
                "setup_s": setup_s,
                "op_s_mean": statistics.mean(runner.main_times()),
                "cycle_s": statistics.mean(cycles),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = {"setup_s": "s", "op_s_mean": "s", "cycle_s": "s",
                     "peak_rss_mb": "MB"}
            print(f"{args.workload} cycles {len(cycles)}; setup_s = import "
                  f"{import_s:.4f} s + median of {SETUP_REPEATS} input builds "
                  f"{setup_s - import_s:.4f} s")

    for name, times in runner.times.items():
        print(f"{args.workload} {name}_mean {statistics.mean(times)!r} s (n={len(times)})")
        print(f"{args.workload} {name}_p50 {statistics.median(times)!r} s (n={len(times)})")
        print(f"{args.workload} {name}_p90 {p90(times)!r} s (n={len(times)})")
    print(f"{args.workload} fail_ratio {runner.failed}/{runner.attempted} = "
          f"{runner.failed / runner.attempted:.4f}")
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']!r} {m['unit']}")
    result = {
        "correct": correct and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    with open(out_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "host": host,
                   "op_times_s": runner.times}, fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
