"""The benchmark harness's own self-test, run as the benchmark runs it.

The harness traces the package from outside by reading which functions one
module calls in another, so a refactor inside ``src/`` can break it without
any package test noticing.
"""

import importlib.util
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


def test_per_layer_kernels_stay_traced():
    # heads.forward_ms, heads.backward_ms and backbone.forward_ms read only
    # the functions the tracer finds called across modules; a refactor that
    # stops calling these by module attribute would silently zero them.
    spec = importlib.util.spec_from_file_location("tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    calls = tracing.cross_module_calls(os.path.join(ROOT, "src"))
    assert {("heads", "forward"), ("heads", "backward"), ("backbone", "forward_batch")} <= calls
