"""Numeric output files against csv.writer over repr(float(v)) cells, byte for byte."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oodlab import cli, floatrows, gda, shiftsim, trainer
from oodlab.config import load_config
from oracles import csv_writer_text, float_cells

# Values whose shortest repr is easy to get wrong: signed zero, the smallest
# subnormal, the largest magnitudes and integral floats.
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 2.0, -3.0, 1e16, 0.1]
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
pools = st.lists(floats, min_size=1, max_size=24)
SETTINGS = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def float_blocks(min_rows=0, max_rows=7):
    shapes = st.tuples(st.integers(min_rows, max_rows), st.integers(1, 3))
    return shapes.flatmap(lambda shape: hnp.arrays(np.float64, shape, elements=floats))


@pytest.fixture
def small_blocks(monkeypatch):
    """Make every multi-row test cross write_csv_rows' block boundary."""
    monkeypatch.setattr(floatrows, "BLOCK_ROWS", 3)


class TestTrajectoryCsv:
    @given(st.data())
    @SETTINGS
    def test_matches_csv_writer(self, tmp_path, small_blocks, data):
        snapshots = data.draw(
            st.tuples(st.integers(1, 4), st.integers(0, 6), st.integers(1, 3)).flatmap(
                lambda shape: hnp.arrays(np.float64, shape, elements=floats)
            )
        )
        n = snapshots.shape[1]
        domain = np.array(data.draw(st.lists(st.sampled_from(["in", "out"]), min_size=n, max_size=n)), dtype=str)
        traj = shiftsim.ShiftTrajectory(snapshots=snapshots, domain=domain, stats=[])
        path = tmp_path / "trajectory.csv"
        shiftsim.trajectory_to_csv(traj, path)
        rows = [["step", "idx", "domain"] + [f"x{j}" for j in range(snapshots.shape[2])]]
        for step in range(snapshots.shape[0]):
            for idx in range(n):
                rows.append([step, idx, domain[idx]] + float_cells(snapshots[step, idx]))
        assert path.read_bytes() == csv_writer_text(rows).encode()

    def test_memory_stays_per_snapshot(self, tmp_path):
        # A whole-trajectory .tolist() peaks near 5 MB here; one snapshot at a
        # time stays near 0.2 MB.
        rng = np.random.default_rng(0)
        domain = np.where(np.arange(400) % 2 == 0, "in", "out")
        traj = shiftsim.ShiftTrajectory(snapshots=rng.standard_normal((101, 400, 2)), domain=domain, stats=[])
        tracemalloc.start()
        try:
            shiftsim.trajectory_to_csv(traj, tmp_path / "trajectory.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestStatsCsv:
    @given(st.lists(st.lists(st.one_of(floats, st.just(math.nan)), min_size=4, max_size=4), max_size=6))
    @SETTINGS
    @example([[math.nan, math.nan, 0.5, 0.0], [-0.0, 5e-324, 1e308, 1.0]])
    def test_matches_csv_writer(self, tmp_path, stats):
        traj = shiftsim.ShiftTrajectory(
            snapshots=np.zeros((len(stats), 0, 2)),
            domain=np.zeros(0, dtype=str),
            stats=[shiftsim.ShiftStats(*row) for row in stats],
        )
        path = tmp_path / "stats.csv"
        shiftsim.stats_to_csv(traj, path)
        rows = [["step", "mean_norm_out", "mean_nearest_center_out", "mean_own_center_in", "mixed_fraction"]]
        for step, row in enumerate(stats):
            rows.append([step] + ["NaN" if math.isnan(v) else float_cells([v])[0] for v in row])
        assert path.read_bytes() == csv_writer_text(rows).encode()


class TestLabeledSetCsv:
    @given(float_blocks(), st.data())
    @SETTINGS
    def test_matches_csv_writer(self, tmp_path, small_blocks, features, data):
        n = features.shape[0]
        is_in = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        labels = np.where(is_in, np.arange(n) % 3, gda.NO_LABEL)
        domain = np.where(is_in, gda.DOMAIN_IN, gda.DOMAIN_OUT)
        path = tmp_path / "set.csv"
        gda.LabeledSet(features, labels).to_csv(path)
        rows = [[f"x{j}" for j in range(features.shape[1])] + ["label", "domain"]]
        for row, label, tag in zip(features, labels, domain):
            rows.append(float_cells(row) + [str(label) if tag == gda.DOMAIN_IN else "", tag])
        assert path.read_bytes() == csv_writer_text(rows).encode()


def small_config(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[data]\nn = 120\nn_hard = 40\n\n[model]\nhidden = 8\nfeature_dim = 3\n")
    return str(path)


class TestExportFeaturesCsv:
    def expected(self, config, model):
        _, _, eval_in, eval_out = cli.make_datasets(config)
        rows = [["idx", "domain"] + [f"z{j}" for j in range(model.backbone.out_dim)]]
        for data, tag in ((eval_in, "in"), (eval_out, "out")):
            for row in trainer.features_batch(model, data.features):
                rows.append([len(rows) - 1, tag] + float_cells(row))
        return csv_writer_text(rows).encode()

    def export(self, tmp_path, cfg, model):
        ckpt = tmp_path / "ckpt.txt"
        trainer.save_checkpoint(model, ckpt)
        out = tmp_path / "out"
        assert cli.main(["export-features", "--config", cfg, "--out", str(out), "--checkpoint", str(ckpt)]) == 0
        return (out / "features.csv").read_bytes(), trainer.load_checkpoint(ckpt)

    def test_matches_csv_writer(self, tmp_path):
        cfg = small_config(tmp_path)
        config = load_config(cfg)
        train_in, _, _, _ = cli.make_datasets(config)
        written, model = self.export(tmp_path, cfg, trainer.build_model(config.train, train_in))
        assert written == self.expected(config, model)

    @given(pools)
    @SETTINGS
    def test_arbitrary_feature_values(self, tmp_path, monkeypatch, small_blocks, pool):
        cfg = small_config(tmp_path)
        config = load_config(cfg)
        train_in, _, _, _ = cli.make_datasets(config)
        model = trainer.build_model(config.train, train_in)
        dim = model.backbone.out_dim
        monkeypatch.setattr(trainer, "features_batch", lambda m, x: np.resize(np.array(pool), (len(x), dim)))
        written, _ = self.export(tmp_path, cfg, model)
        assert written == self.expected(config, model)


class TestCheckpointLines:
    @given(pools)
    @SETTINGS
    @example([-0.0, 5e-324, 1e308, 2.0])
    def test_value_lines_match_per_cell_repr(self, tmp_path, pool):
        config = load_config(small_config(tmp_path))
        train_in, _, _, _ = cli.make_datasets(config)
        model = trainer.build_model(config.train, train_in)
        items = trainer.param_items(model)
        for _, arr in items:
            arr[...] = np.resize(np.array(pool), arr.shape)
        path = tmp_path / "ckpt.txt"
        trainer.save_checkpoint(model, path)
        text = path.read_text()
        assert text.endswith("\n")
        assert text.splitlines()[3:] == [name + "=" + " ".join(float_cells(arr)) for name, arr in items]

    def test_empty_tensor_line(self):
        assert floatrows.float_rows(np.empty((1, 0)), sep=" ") == [""]


class TestCells:
    @given(st.lists(st.text(alphabet='ab ,"\r\n.-0', max_size=4), min_size=1, max_size=4), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_same_as_csv_writer_or_raises(self, cells, lead):
        # Fixed cells always sit beside at least one float cell.
        if any(c in cell for cell in cells for c in ',"\r\n'):
            with pytest.raises(ValueError):
                floatrows.join_cells(cells)
            return
        joined = floatrows.join_cells(cells)
        line = joined + ",1.5" if lead else "1.5," + joined
        row = cells + ["1.5"] if lead else ["1.5"] + cells
        assert line + floatrows.CSV_END == csv_writer_text([row])

    def test_quoting_tag_raises(self, tmp_path):
        with open(tmp_path / "x.csv", "w", newline="") as fh, pytest.raises(ValueError):
            floatrows.write_csv_rows(fh, np.ones((1, 2)), lead=[floatrows.join_cells([0, 'a,"b'])])

    @pytest.mark.parametrize("shape", [(3,), (2, 0)])
    def test_rejects_blocks_without_float_cells(self, tmp_path, shape):
        with open(tmp_path / "x.csv", "w", newline="") as fh, pytest.raises(ValueError):
            floatrows.write_csv_rows(fh, np.ones(shape))

    def test_rejects_row_count_mismatch(self, tmp_path):
        with open(tmp_path / "x.csv", "w", newline="") as fh, pytest.raises(ValueError):
            floatrows.write_csv_rows(fh, np.ones((2, 2)), tail=["a"])

    @pytest.mark.parametrize("x,text", [(float("nan"), "NaN"), (np.float64(0.25), "0.25"), (3, "3.0"), (-0.0, "-0.0")])
    def test_format_cell(self, x, text):
        assert floatrows.format_cell(x) == text
