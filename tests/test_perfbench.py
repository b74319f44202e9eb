"""The benchmark harness's own self-test, run as the benchmark runs it.

The harness traces the package from outside by reading which functions one
module calls in another, so a refactor inside ``src/`` can break it without
any package test noticing.
"""

import importlib.util
import inspect
import math
import os
import subprocess
import sys

from oodlab import cli, trainer
from oodlab.config import load_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_harness_module(name):
    """A module of perfbench/, loaded from its file so the harness stays untouched."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(ROOT, "perfbench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


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
    # heads.forward_ms, heads.backward_ms, backbone.forward_ms and the
    # criteria.* metrics read only the functions the tracer finds called
    # across modules; a refactor that stops calling these by module attribute
    # would silently zero them.
    tracing = load_harness_module("tracing")
    calls = tracing.cross_module_calls(os.path.join(ROOT, "src"))
    kernels = {("heads", "forward"), ("heads", "backward"), ("backbone", "forward_batch")}
    assert kernels | {("criteria", "id_loss"), ("criteria", "ood_loss")} <= calls


TINY_INI = """
[data]
n = 300
n_hard = 60
[model]
hidden = 8
feature_dim = 4
[criterion]
kind = oe
[training]
epochs = 2
batch_in = 32
batch_out = 16
[shift]
steps = 3
n_in = 10
n_out = 5
"""


def test_workload_counts_bind_to_the_timed_calls(tmp_path, monkeypatch):
    # The worker rebinds cli.run_shift_sim and trainer.train, binds each
    # call's arguments by parameter name, and hands them to shift_work and
    # sgd_work; a renamed parameter would break only the benchmark run.
    workloads = load_harness_module("workloads")
    bound = {}

    def record(module, name):
        func = getattr(module, name)
        signature = inspect.signature(func)

        def recorder(*args, **kwargs):
            bound[name] = signature.bind(*args, **kwargs).arguments
            return func(*args, **kwargs)

        monkeypatch.setattr(module, name, recorder)

    record(cli, "run_shift_sim")
    record(trainer, "train")
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(TINY_INI)
    for command in ("simulate-shift", "train"):
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0
    n_in = len(cli.make_datasets(load_config(cfg))[0])
    steps = 2 * math.ceil(n_in / 32)
    assert workloads.shift_work(bound["run_shift_sim"]) == (3, 3 * (10 + 5))
    assert workloads.sgd_work(bound["train"]) == (steps, 2 * n_in + steps * 16)
