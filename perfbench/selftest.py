"""Self-test of the benchmark harness (not of oodlab itself).

    python3 perfbench/selftest.py

Covers the self-time arithmetic on a synthetic nested span set, the metric
names and units of BENCHMARK.json as the harness prints them, and the
correctness gate rejecting deliberately corrupted copies of real outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import sys
import tempfile
import unittest

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import make  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

TINY = {
    "data": {"mu": "3.0", "zeta": "0.006992780170465791", "n": "300", "seed": "1234", "n_hard": "150"},
    "criterion": {"kind": "plain"},
    "training": {"epochs": "2", "batch_in": "64", "batch_out": "64"},
    "model": {"hidden": "8,8", "feature_dim": "4"},
    "shift": {"steps": "4", "n_in": "30", "n_out": "20"},
}


def write_ini(path: str, sections: dict) -> None:
    with open(path, "w") as fh:
        for name, keys in sections.items():
            fh.write(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n")


def spans(rows: list[tuple[int, int, float, float, int]]) -> dict[str, np.ndarray]:
    """Span arrays from (function id, parent, start, end, rows) tuples."""
    cols = list(zip(*rows))
    return {
        "fn": np.array(cols[0]),
        "parent": np.array(cols[1]),
        "start": np.array(cols[2], dtype=float),
        "end": np.array(cols[3], dtype=float),
        "rows": np.array(cols[4]),
    }


class TestSelfTime(unittest.TestCase):
    NAMES = [
        ("cli", "main"),
        ("trainer", "train"),
        ("trainer", "batch_gradients"),
        ("backbone", "forward_batch"),
        ("criteria", "id_loss"),
        ("trainer", "score_samples"),
        ("trainer", "evaluate"),
    ]
    # cli.main [0, 10] > trainer.train [1, 9] > batch_gradients [1.5, 4] > forward [2, 2.5] (8 rows),
    # id_loss x2 [3, 3.25] [3.25, 3.5]; evaluate [5, 8] (12 rows) > score_samples [5, 7] > forward [5.5, 6.5] (30 rows).
    SPANS = [
        (0, -1, 0.0, 10.0, 0),
        (1, 0, 1.0, 9.0, 0),
        (2, 1, 1.5, 4.0, 0),
        (3, 2, 2.0, 2.5, 8),
        (4, 2, 3.0, 3.25, 1),
        (4, 2, 3.25, 3.5, 1),
        (6, 1, 5.0, 8.0, 12),
        (5, 6, 5.0, 7.0, 0),
        (3, 7, 5.5, 6.5, 30),
    ]

    def test_self_time_subtracts_direct_children_only(self):
        s = spans(self.SPANS)
        got = tracing.self_times(s["parent"], s["start"], s["end"])
        np.testing.assert_allclose(got, [2.0, 2.5, 1.5, 0.5, 0.25, 0.25, 1.0, 1.0, 1.0])
        self.assertAlmostEqual(got.sum(), 10.0)

    def test_layer_metrics_aggregate_by_module(self):
        out = tracing.layer_metrics(self.NAMES, spans(self.SPANS), {"trainer.checkpoint_bytes": 7})
        self.assertAlmostEqual(out["cli.self_ms"], 2000.0)
        self.assertAlmostEqual(out["trainer.self_ms"], 6000.0)
        self.assertAlmostEqual(out["trainer.score_ms"], 2000.0)
        self.assertAlmostEqual(out["backbone.forward_ms"], 1500.0)
        self.assertAlmostEqual(out["criteria.self_ms"], 500.0)
        self.assertEqual(out["criteria.calls"], 2.0)
        self.assertEqual(out["criteria.calls_per_row"], 1.0)
        self.assertEqual(out["backbone.rows"], 38.0)
        # Only the 30 rows forwarded under eval scoring count, per 12 rows evaluated.
        self.assertAlmostEqual(out["trainer.eval_forward_rows_per_row"], 2.5)
        self.assertEqual(out["trainer.checkpoint_bytes"], 7.0)
        self.assertEqual(out["trace.spans"], 9.0)
        self.assertAlmostEqual(sum(out[f"{layer}.self_ms"] for layer in tracing.LAYERS), 10000.0)

    def test_cross_module_calls_found_in_package_source(self):
        pairs = tracing.cross_module_calls(os.path.join(ROOT, "src"))
        for expected in (("criteria", "id_loss"), ("heads", "ice_confidence"), ("linalg", "tri_solve_lower"), ("config", "load_config")):
            self.assertIn(expected, pairs)

    def test_tail_has_ten_samples_beyond(self):
        pct, value = run.tail([float(i) for i in range(100)])
        self.assertEqual((pct, value), (90.0, 89.0))


class TestMetricNames(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            self.bench = json.load(fh)

    def test_names_and_units_are_well_formed(self):
        names = [m["name"] for m in self.bench["end_to_end"] + self.bench["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in self.bench["end_to_end"] + self.bench["per_layer"]:
            self.assertTrue(NAME.fullmatch(m["name"]), m["name"])
            self.assertTrue(UNIT.fullmatch(m["unit"]), m["unit"])

    def test_every_metric_printed_with_its_unit(self):
        fake = gate.Gate()
        fake.record("ok", True)
        for kind in ("end_to_end", "per_layer"):
            declared = self.bench[kind]
            values = {m["name"]: 1.5 for m in declared}
            lines = run.render(declared, values, fake, {"quality": {}})
            for m, line in zip(declared, lines):
                self.assertEqual(line.split(), [m["name"], "1.5", m["unit"]])
            result = json.loads(lines[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, {m["name"]: m["unit"] for m in declared})

    def test_tracer_covers_every_per_layer_metric(self):
        measured = set(tracing.layer_metrics(TestSelfTime.NAMES, spans(TestSelfTime.SPANS), {}))
        measured |= {"cli.bytes_written", "trainer.steps", "trace.overhead_s"}  # added in run.per_layer
        self.assertLessEqual({m["name"] for m in self.bench["per_layer"]}, measured)


class TestGate(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from oodlab import cli

        os.makedirs(run.WORK_ROOT, exist_ok=True)
        cls.tmp = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_ROOT)
        os.makedirs(os.path.join(cls.tmp, "configs"))
        write_ini(os.path.join(cls.tmp, "configs", "train_plain.ini"), TINY)
        for name, kind in (("shift_ice.ini", "ice"), ("shift_oe.ini", "oe")):
            write_ini(os.path.join(cls.tmp, "configs", name), dict(TINY, criterion={"kind": kind}))
        cls.train = make("train_plain", cls.tmp, os.path.join(cls.tmp, "train"), 5)
        cls.shift = make("shift", cls.tmp, os.path.join(cls.tmp, "shift"), 5)
        for wl in (cls.train, cls.shift):
            wl.prepare()
            for argv in wl.commands():
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(argv) == 0, argv

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def corrupted_copy(self, wl, rel: str, old: str, new: str):
        """A copy of the workload's outputs with the first ``old`` in ``rel`` replaced by ``new``."""
        work = wl.work + "-corrupt"
        shutil.rmtree(work, ignore_errors=True)
        shutil.copytree(wl.work, work)
        path = os.path.join(work, rel)
        with open(path) as fh:
            text = fh.read()
        self.assertIn(old, text)
        with open(path, "w") as fh:
            fh.write(text.replace(old, new, 1))
        return make(wl.name, wl.root, work, wl.seed)

    def test_gate_passes_real_outputs(self):
        for wl, check in ((self.train, gate.check_train), (self.shift, gate.check_shift)):
            g = gate.Gate()
            check(g, wl)
            self.assertEqual(g.failures, [])
            self.assertGreater(g.attempted, 3)

    def test_gate_rejects_corrupted_metrics_csv(self):
        with open(os.path.join(self.train.out("train"), "metrics.csv")) as fh:
            auroc = fh.read().splitlines()[1].split(",")[0]
        bad = self.corrupted_copy(self.train, "train/metrics.csv", auroc + ",", repr(float(auroc) * 0.5 + 0.01) + ",")
        g = gate.Gate()
        gate.check_train(g, bad)
        self.assertTrue(any(f.startswith("metrics.csv equals the final epochs.jsonl record") for f in g.failures), g.failures)
        self.assertTrue(any(f.startswith("brute-force AUROC/AUPR/FPR95") for f in g.failures), g.failures)

    def test_gate_rejects_corrupted_stats_csv(self):
        with open(os.path.join(self.shift.out("shift_oe"), "stats.csv")) as fh:
            cell = fh.read().splitlines()[-1].split(",")[1]
        bad = self.corrupted_copy(self.shift, "shift_oe/stats.csv", "," + cell, "," + repr(float(cell) + 1e-6))
        g = gate.Gate()
        gate.check_shift(g, bad)
        self.assertEqual(len(g.failures), 1, g.failures)
        self.assertIn("shift_oe stats.csv equals shift_stats", g.failures[0])

    def test_byte_digest_sees_a_changed_output(self):
        before = gate.digest(self.train.out_dirs())
        bad = self.corrupted_copy(self.train, "export/features.csv", "0,in,", "0,in,1")
        after = gate.digest(bad.out_dirs())
        self.assertEqual(len(before), len(after))
        changed = [p for p in after if after[p] != before[p.replace(bad.work, self.train.work)]]
        self.assertEqual([os.path.relpath(p, bad.work) for p in changed], ["export/features.csv"])


if __name__ == "__main__":
    unittest.main()
