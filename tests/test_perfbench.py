"""The benchmark harness's own self-test, run as the benchmark runs it.

The harness traces the package from outside by reading which functions one
module calls in another, so a refactor inside ``src/`` can break it without
any package test noticing.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
