import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodlab import metrics
from oracles import pairwise_auroc, sweep_aupr, sweep_fpr_at_tpr


def random_instance(rng, allow_ties=True):
    n_in = int(rng.integers(1, 101))
    n_out = int(rng.integers(1, 101))
    if allow_ties and rng.random() < 0.5:
        # engineered ties: draw from a small grid so collisions are common
        pool = np.round(rng.random(8), 2)
        in_scores = rng.choice(pool, size=n_in)
        out_scores = rng.choice(pool, size=n_out)
    else:
        in_scores = rng.standard_normal(n_in)
        out_scores = rng.standard_normal(n_out)
    return in_scores, out_scores


class TestAuroc:
    def test_perfect_separation(self):
        assert metrics.auroc([0.9, 0.8], [0.2, 0.1]) == 1.0

    def test_pairwise_example(self):
        assert metrics.auroc([0.8, 0.4], [0.6, 0.2]) == pytest.approx(0.75)

    def test_tie_convention(self):
        assert metrics.auroc([0.5], [0.5]) == pytest.approx(0.5)

    def test_missing_domain(self):
        with pytest.raises(metrics.MissingDomain):
            metrics.auroc([0.5], [])

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(150):
            in_s, out_s = random_instance(rng)
            fast = metrics.auroc(in_s, out_s)
            assert abs(fast - pairwise_auroc(in_s, out_s)) <= 1e-12

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        in_s = rng.standard_normal(12)
        out_s = rng.standard_normal(9)
        base = metrics.auroc(in_s, out_s)
        transformed = metrics.auroc(np.exp(0.5 * in_s), np.exp(0.5 * out_s))
        assert transformed == pytest.approx(base, abs=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_domain_swap_complement(self, seed):
        rng = np.random.default_rng(seed)
        in_s = rng.standard_normal(10)
        out_s = rng.standard_normal(7)
        forward = metrics.auroc(in_s, out_s)
        swapped = metrics.auroc(out_s, in_s)
        assert swapped == pytest.approx(1.0 - forward, abs=1e-12)


class TestAupr:
    def test_perfect_separation(self):
        assert metrics.aupr([0.9, 0.8], [0.2, 0.1], positive="in") == pytest.approx(1.0)
        assert metrics.aupr([0.9, 0.8], [0.2, 0.1], positive="out") == pytest.approx(1.0)

    def test_step_wise_example(self):
        # descending thresholds: P=1 at R=1/2, then P=2/3 at R=1 -> 1/2 + 1/2 * 2/3
        value = metrics.aupr([0.8, 0.4], [0.6, 0.2], positive="in")
        assert value == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_single_top_positive(self):
        assert metrics.aupr([0.9], [0.5, 0.4], positive="in") == pytest.approx(1.0)

    def test_bad_positive_argument(self):
        with pytest.raises(ValueError):
            metrics.aupr([1.0], [0.0], positive="neither")

    @pytest.mark.parametrize("positive", ["in", "out"])
    def test_matches_sweep_oracle(self, positive):
        rng = np.random.default_rng(1)
        for _ in range(150):
            in_s, out_s = random_instance(rng)
            fast = metrics.aupr(in_s, out_s, positive=positive)
            assert abs(fast - sweep_aupr(in_s, out_s, positive)) <= 1e-12


class TestFprAtTpr:
    def test_perfect_separation(self):
        assert metrics.fpr_at_tpr([0.9, 0.8], [0.2, 0.1]) == 0.0

    def test_threshold_example(self):
        assert metrics.fpr_at_tpr([0.9, 0.8, 0.7, 0.6], [0.65, 0.1], 0.95) == pytest.approx(0.5)

    def test_all_equal_degenerate(self):
        assert metrics.fpr_at_tpr([0.5, 0.5], [0.5, 0.5], 0.95) == 1.0

    def test_matches_sweep_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(150):
            in_s, out_s = random_instance(rng)
            target = float(rng.choice([0.5, 0.8, 0.9, 0.95, 0.99, 1.0]))
            fast = metrics.fpr_at_tpr(in_s, out_s, target)
            assert abs(fast - sweep_fpr_at_tpr(in_s, out_s, target)) <= 1e-12

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_target(self, seed):
        rng = np.random.default_rng(seed)
        in_s, out_s = rng.standard_normal(20), rng.standard_normal(15)
        values = [metrics.fpr_at_tpr(in_s, out_s, t) for t in (0.0, 0.25, 0.5, 0.75, 0.9, 1.0)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


class TestComputeReport:
    def test_fields_and_counts(self):
        report = metrics.compute_report([0.9, 0.8], [0.2], aupr_positive="out")
        assert report.n_in == 2 and report.n_out == 1
        assert report.auroc == 1.0 and report.fpr95 == 0.0


class TestHistogram:
    def test_boundary_goes_up(self):
        hist = metrics.histogram([0.5], bins=2, value_range=(0.0, 1.0))
        np.testing.assert_array_equal(hist.counts, [0, 1])
        assert hist.clamped == 0

    def test_empty(self):
        hist = metrics.histogram([], bins=3, value_range=(0.0, 1.0))
        np.testing.assert_array_equal(hist.counts, [0, 0, 0])

    def test_conservation(self):
        rng = np.random.default_rng(3)
        scores = rng.random(1000)
        hist = metrics.histogram(scores, bins=10, value_range=(0.0, 1.0))
        assert hist.counts.sum() == 1000

    def test_clamping(self):
        hist = metrics.histogram([-1.0, 0.25, 2.0, 1.0], bins=4, value_range=(0.0, 1.0))
        assert hist.clamped == 2
        np.testing.assert_array_equal(hist.counts, [1, 1, 0, 2])  # ends absorb the clamps, final bin right-closed

    @given(st.lists(st.floats(-2.0, 3.0, allow_nan=False), max_size=50), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_counts_sum_to_length(self, scores, bins):
        hist = metrics.histogram(scores, bins=bins, value_range=(0.0, 1.0))
        assert hist.counts.sum() == len(scores)


METRIC_FUNCTIONS = [metrics.auroc, metrics.aupr, metrics.fpr_at_tpr, metrics.compute_report]


class TestInputChecks:
    @pytest.mark.parametrize("metric", METRIC_FUNCTIONS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("side", ["in", "out"])
    def test_non_finite_score_rejected(self, metric, bad, side):
        s_in, s_out = [0.9, 0.4, 0.2], [0.6, 0.1]
        if side == "in":
            s_in[1] = bad
        else:
            s_out[0] = bad
        with pytest.raises(ValueError, match="finite"):
            metric(np.array(s_in), np.array(s_out))

    @pytest.mark.parametrize("metric", METRIC_FUNCTIONS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("side", ["in", "out"])
    def test_empty_side_is_missing_domain(self, metric, side):
        s_in, s_out = ([], [0.5, 0.1]) if side == "in" else ([0.5, 0.1], [])
        with pytest.raises(metrics.MissingDomain):
            metric(np.array(s_in), np.array(s_out))
