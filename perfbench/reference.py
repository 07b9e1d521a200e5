"""Reference pass: time the two pooled layers under the caller's thread settings.

Run as a subprocess by ``run.py --trace 1``, once with the environment as
given and once with ``RF_EQUIV_THREADS=1 OPENBLAS_NUM_THREADS=1``; the ratio
of the two times is each layer's ``serial_ratio``.  The problem is the
``theory_curve`` kernel estimate (k=400, erf, 10^5 draws) and the
``replicate_sweep`` simulate cell (d=400, delta=1e-3, 30 replicates), whose
time is the median of three runs because it swings most with threading.

    python3 perfbench/reference.py --seed N

prints one JSON line: ``{"estimate_kernels_s": ..., "run_replicates_s": ...}``.
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rfequiv.kernels import estimate_kernels  # noqa: E402
from rfequiv.model import Activation, RFConfig, synthetic_regression  # noqa: E402
from rfequiv.sim import run_replicates  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    seed = parser.parse_args().seed
    erf, identity = Activation("erf"), Activation("identity")
    ds = synthetic_regression(200, 200, 200, 0.5, seed)
    t0 = time.perf_counter()
    K = estimate_kernels(ds, erf, identity, 200, 100_000, seed)
    kernels_s = time.perf_counter() - t0
    cfg = RFConfig(d=400, delta=1e-3, n=200, seed=seed)
    replicates_s = []
    for _ in range(3):
        t0 = time.perf_counter()
        run_replicates(ds, erf, identity, cfg, reps=30, kernels=K)
        replicates_s.append(time.perf_counter() - t0)
    print(json.dumps({"estimate_kernels_s": kernels_s,
                      "run_replicates_s": statistics.median(replicates_s)}))


if __name__ == "__main__":
    main()
