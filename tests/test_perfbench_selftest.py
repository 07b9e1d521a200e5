"""The benchmark harness's own self-check passes against the package.

``perfbench/selftest.py`` checks that tracing keeps report bytes and puts
back every module binding it replaced, that the seed reaches the generated
inputs only, and that the output checks reject a wrong report.  A package
change can break it without touching ``perfbench/``: a module global that
is rebound at run time reads as a binding the tracer did not restore.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    run = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
