import json

import numpy as np
import pytest

from fairkit.dataset import dataset_from_columns, factorize, make_grid
from fairkit.metrics import (
    MetricError,
    ScoreSet,
    demographic_parity_gap,
    equalized_odds_gaps,
    full_report,
    general_fairness_gap,
    loss_general_fairness_gap,
    predictive_parity_gap,
    strong_demographic_parity,
)
from fairkit.transport import TransportError, geodesic_repair

from oracles import cell_metric_double_loop


def binary_grid(y, s):
    data = dataset_from_columns(
        {"s": np.asarray(s, float), "y": np.asarray(y, float)},
        {"s": "sensitive", "y": "outcome"},
        outcome_kind="classification",
    )
    return make_grid(data, 2, 2)


class TestDemographicParity:
    def test_quarter_gap(self):
        # group 0 predicts (1,1,0,0), group 1 predicts (1,0,0,0)
        scores = ScoreSet(
            scores=np.array([0.9, 0.8, 0.1, 0.2, 0.7, 0.3, 0.2, 0.1]),
            group=np.repeat([0, 1], 4),
            threshold=0.5,
        )
        assert demographic_parity_gap(scores) == pytest.approx(0.25)

    def test_identical_multisets(self):
        scores = ScoreSet(
            scores=np.array([0.1, 0.6, 0.9, 0.1, 0.6, 0.9]),
            group=np.repeat([0, 1], 3),
            threshold=0.4,
        )
        assert demographic_parity_gap(scores) == 0.0

    def test_extreme_gap(self):
        scores = ScoreSet(
            scores=np.array([1.0, 1.0, 0.0, 0.0]),
            group=np.array([0, 0, 1, 1]),
            threshold=0.5,
        )
        assert demographic_parity_gap(scores) == 1.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        raw = rng.uniform(size=40)
        group = rng.integers(0, 2, size=40)
        tau = 0.5
        before = demographic_parity_gap(ScoreSet(raw, group, threshold=tau))
        after = demographic_parity_gap(
            ScoreSet(np.exp(raw), group, threshold=float(np.exp(tau)))
        )
        assert before == after

    def test_group_relabel_invariance(self):
        rng = np.random.default_rng(1)
        raw = rng.uniform(size=30)
        group = rng.integers(0, 3, size=30)
        a = demographic_parity_gap(ScoreSet(raw, group, threshold=0.5))
        b = demographic_parity_gap(ScoreSet(raw, 2 - group, threshold=0.5))
        assert a == pytest.approx(b)

    def test_needs_threshold(self):
        with pytest.raises(MetricError):
            demographic_parity_gap(ScoreSet(np.array([0.5]), np.array([0])))


class TestGroupTable:
    def test_rates_equal_per_group_mask_means(self):
        # the count table must give the same bits as the 0/1 means over masks it replaced
        rng = np.random.default_rng(11)
        group = rng.choice(["c", "a", "b", "d"], size=500, p=[0.4, 0.3, 0.2, 0.1])
        y = rng.choice([-1.0, 0.0, 1.0], size=500)
        scores = ScoreSet(rng.uniform(size=500), group, y, threshold=0.4)
        pred = scores.predictions
        labels = list(dict.fromkeys(group.tolist()))
        masks = [group == label for label in labels]

        def gap(rates):
            return max(abs(a - b) for i, a in enumerate(rates) for b in rates[i + 1:])

        assert demographic_parity_gap(scores) == gap([pred[m].mean() for m in masks])
        odds = equalized_odds_gaps(scores)
        assert odds.fpr_gap == gap([pred[m & (y < 0)].mean() for m in masks])
        assert odds.fnr_gap == gap([1.0 - pred[m & (y > 0)].mean() for m in masks])
        assert predictive_parity_gap(scores).gap == gap(
            [(y[m & (pred > 0)] > 0).mean() for m in masks])

    @pytest.mark.parametrize("group", [[np.nan, 0.0, 1.0, np.nan], [0.0, np.nan, 1.0, 1.0]])
    def test_nan_group_labels_rejected(self, group):
        with pytest.raises(MetricError, match="NaN"):
            ScoreSet(np.array([0.1, 0.9, 0.4, 0.6]), np.array(group), threshold=0.5)


class TestStrongDemographicParity:
    def test_identical_groups(self):
        scores = ScoreSet(np.array([0.1, 0.5, 0.1, 0.5]), np.repeat([0, 1], 2))
        result = strong_demographic_parity(scores, bins=2)
        assert result.d_pair == 0.0
        assert result.max_w1 == 0.0

    def test_point_masses(self):
        scores = ScoreSet(np.array([0.0, 0.0, 1.0, 1.0]), np.repeat([0, 1], 2))
        assert strong_demographic_parity(scores, bins=2).max_w1 == pytest.approx(1.0)

    def test_shifted_pair(self):
        scores = ScoreSet(np.array([0.2, 0.4, 0.3, 0.5]), np.repeat([0, 1], 2))
        assert strong_demographic_parity(scores, bins=2).max_w1 == pytest.approx(0.1)

    def test_zero_strong_dp_implies_zero_dp_at_all_thresholds(self):
        rng = np.random.default_rng(2)
        base = rng.uniform(size=25)
        scores = ScoreSet(np.concatenate([base, base]), np.repeat([0, 1], 25))
        assert strong_demographic_parity(scores, bins=25).max_w1 == 0.0
        for tau in np.linspace(0.05, 0.95, 19):
            s = ScoreSet(scores.scores, scores.group, threshold=float(tau))
            assert demographic_parity_gap(s) == 0.0


class TestEqualizedOdds:
    def test_perfect_predictor(self):
        rng = np.random.default_rng(3)
        y = rng.choice([-1.0, 1.0], size=40)
        scores = ScoreSet(np.where(y > 0, 0.9, 0.1), rng.integers(0, 2, 40), y, threshold=0.5)
        result = equalized_odds_gaps(scores)
        assert result.fpr_gap == 0.0 and result.fnr_gap == 0.0

    def test_hand_built_table(self):
        # group 0: negatives (FP, TN) -> FPR 0.5, positives (TP, TP) -> FNR 0
        # group 1: negatives (FP, TN, TN, TN) -> FPR 0.25, positives (TP, FN) -> FNR 0.5
        y = np.array([-1, -1, 1, 1, -1, -1, -1, -1, 1, 1], dtype=float)
        pred = np.array([1, 0, 1, 1, 1, 0, 0, 0, 1, 0], dtype=float)
        scores = ScoreSet(np.where(pred > 0, 0.9, 0.1), np.repeat([0, 1], [4, 6]), y, threshold=0.5)
        result = equalized_odds_gaps(scores)
        assert result.fpr_gap == pytest.approx(0.25)
        assert result.fnr_gap == pytest.approx(0.5)

    def test_symmetric_confusion_tables(self):
        y = np.array([-1, -1, 1, 1] * 2, dtype=float)
        s = np.array([0.9, 0.1, 0.9, 0.1] * 2)
        scores = ScoreSet(s, np.repeat([0, 1], 4), y, threshold=0.5)
        result = equalized_odds_gaps(scores)
        assert result.fpr_gap == 0.0 and result.fnr_gap == 0.0

    def test_group_missing_class_is_excluded(self):
        y = np.array([1, 1, -1, 1], dtype=float)
        scores = ScoreSet(np.array([0.9, 0.2, 0.1, 0.8]), np.array([0, 0, 1, 1]), y, threshold=0.5)
        result = equalized_odds_gaps(scores)
        assert result.excluded == (0,)


class TestPredictiveParity:
    def test_identical_multisets(self):
        s = np.array([0.9, 0.8, 0.2, 0.9, 0.8, 0.2])
        y = np.array([1, -1, 1, 1, -1, 1], dtype=float)
        scores = ScoreSet(s, np.repeat([0, 1], 3), y, threshold=0.5)
        assert predictive_parity_gap(scores).gap == 0.0

    def test_constructed_precision_gap(self):
        # group 0: 5 positive predictions, 4 correct; group 1: 5 and 3
        s = np.array([0.9] * 10 + [0.1, 0.1])
        y = np.array([1, 1, 1, 1, -1] + [1, 1, 1, -1, -1] + [1, 1], dtype=float)
        scores = ScoreSet(s, np.array([0] * 5 + [1] * 5 + [0, 1]), y, threshold=0.5)
        assert predictive_parity_gap(scores).gap == pytest.approx(0.2)

    def test_single_group_is_zero(self):
        scores = ScoreSet(np.array([0.9, 0.1]), np.array([0, 0]), np.array([1.0, -1.0]), threshold=0.5)
        assert predictive_parity_gap(scores).gap == 0.0

    def test_no_positive_predictions_excluded(self):
        s = np.array([0.9, 0.9, 0.1, 0.1])
        y = np.array([1, -1, 1, -1], dtype=float)
        scores = ScoreSet(s, np.array([0, 0, 1, 1]), y, threshold=0.5)
        assert predictive_parity_gap(scores).excluded == (1,)


def random_binary_instance(rng, n=120):
    """Scores inside (-1.5, 1.5) with every (k, q) cell occupied."""
    while True:
        y = rng.choice([-1.0, 1.0], size=n)
        g = rng.integers(0, 2, size=n).astype(float)
        ok = all(((y == yy) & (g == gg)).any() for yy in (-1, 1) for gg in (0, 1))
        if ok:
            break
    f = rng.uniform(-1.2, 1.2, size=n)
    return f, g, y


class TestGeneralFairness:
    def test_perfect_binary_model_is_fair(self):
        y = np.array([1, -1, 1, -1], dtype=float)
        g = np.array([0, 0, 1, 1], dtype=float)
        scores = ScoreSet(np.where(y > 0, 1.0, -1.0), g, y)
        result = general_fairness_gap(scores, binary_grid(y, g))
        assert result.value == 0.0
        np.testing.assert_allclose(result.table, 1.0)

    def test_equals_mean_of_odds_gaps(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            f, g, y = random_binary_instance(rng)
            scores = ScoreSet(f, g, y, threshold=0.0)
            value = general_fairness_gap(scores, binary_grid(y, g)).value
            odds = equalized_odds_gaps(scores)
            assert value == pytest.approx((odds.fpr_gap + odds.fnr_gap) / 2.0, abs=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(6)
        y = rng.normal(size=200)
        g = rng.normal(size=200)
        f = rng.normal(size=200)
        data = dataset_from_columns(
            {"s": g, "y": y}, {"s": "sensitive", "y": "outcome"}, outcome_kind="regression"
        )
        grid = make_grid(data, 3, 3)
        scores = ScoreSet(f, g, y)
        mine = general_fairness_gap(scores, grid)
        oracle_value, oracle_table, _ = cell_metric_double_loop(
            f, g, y, grid.y_edges, grid.s_edges, "accuracy"
        )
        assert mine.value == pytest.approx(oracle_value, abs=1e-12)
        np.testing.assert_allclose(mine.table, oracle_table, atol=1e-12)

    def test_empty_cells_skipped_and_flagged(self):
        y = np.array([1, 1, -1, -1], dtype=float)
        g = np.array([0, 0, 0, 1], dtype=float)  # no (y=+1, g=1) cell
        scores = ScoreSet(np.array([0.5, 0.5, -0.5, -0.5]), g, y)
        result = general_fairness_gap(scores, binary_grid(y, g))
        assert (1, 1) in result.skipped_cells
        assert result.included_pairs == 2  # only the y=-1 row has a pair


class TestLossGeneralFairness:
    def test_hard_loss_identical_to_accuracy_version(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            f, g, y = random_binary_instance(rng, n=60)
            scores = ScoreSet(f, g, y)
            grid = binary_grid(y, g)
            hard = loss_general_fairness_gap(scores, grid, loss="hard")
            base = general_fairness_gap(scores, grid)
            assert hard.value == base.value  # bitwise
            np.testing.assert_allclose(hard.table, 1.0 - base.table)

    def test_linear_loss_group_symmetric_is_zero(self):
        y = np.array([1, -1, 1, -1], dtype=float)
        g = np.array([0, 0, 1, 1], dtype=float)
        scores = ScoreSet(np.array([0.4, -0.2, 0.4, -0.2]), g, y)
        result = loss_general_fairness_gap(scores, binary_grid(y, g), loss="linear")
        assert result.value == pytest.approx(0.0, abs=1e-15)

    def test_regression_single_bin_equals_mean_residual_gap(self):
        rng = np.random.default_rng(8)
        y = rng.normal(size=80)
        g = rng.integers(0, 2, size=80).astype(float)
        f = rng.normal(size=80)
        data = dataset_from_columns(
            {"s": g, "y": y}, {"s": "sensitive", "y": "outcome"}, outcome_kind="regression"
        )
        grid = make_grid(data, 1, 2)
        result = loss_general_fairness_gap(
            ScoreSet(f, g, y), grid, loss="linear", outcome_kind="regression"
        )
        resid = f - y
        direct = abs(resid[g == 0].mean() - resid[g == 1].mean())
        assert result.value == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("call, error, message", [
    (lambda s, grid: geodesic_repair(s.scores, s.group, 0.5, weights="bogus"),
     TransportError, "unknown weight scheme 'bogus'"),
    (lambda s, grid: loss_general_fairness_gap(s, grid, loss="cubic"), MetricError, "unknown loss kind 'cubic'"),
    (lambda s, grid: loss_general_fairness_gap(s, grid, loss="linear", outcome_kind="ordinal"),
     MetricError, "unknown outcome kind 'ordinal'"),
], ids=["repair-weights", "loss", "outcome-kind"])
def test_unknown_scheme_is_refused(call, error, message):
    y, g = np.array([1.0, -1.0, 1.0, -1.0]), np.array([0.0, 0.0, 1.0, 1.0])
    with pytest.raises(error) as exc:
        call(ScoreSet(np.array([0.4, 0.2, 0.6, 0.1]), g, y), binary_grid(y, g))
    assert str(exc.value) == message


class TestFullReport:
    def test_group_symmetric_inputs_have_zero_gaps(self):
        base_s = np.array([0.9, 0.4, 0.1])
        base_y = np.array([1.0, -1.0, -1.0])
        scores = ScoreSet(
            np.concatenate([base_s, base_s]),
            np.repeat([0.0, 1.0], 3),
            np.concatenate([base_y, base_y]),
            threshold=0.5,
        )
        grid = binary_grid(scores.outcome, scores.group)
        report = full_report(scores, grid=grid, bins=3)
        for entry in report.values():
            assert entry["value"] == pytest.approx(0.0, abs=1e-12)

    def test_group_encoding_is_reused_as_float_codes(self):
        # a score set over an encoding reports what one over its float codes reports
        rng = np.random.default_rng(12)
        labels = rng.choice(["c", "a", "b"], size=300)
        y = rng.choice([-1.0, 1.0], size=300)
        y[labels == "b"] = 1.0  # "b" has no negatives, so its code is excluded
        f = rng.uniform(size=300)
        enc = factorize(labels)
        given = ScoreSet(f, enc, y, threshold=0.5)
        codes = ScoreSet(f, enc.codes.astype(float), y, threshold=0.5)
        np.testing.assert_array_equal(given.group, codes.group)
        grid = binary_grid(y, codes.group)
        # the dumps tell the label 2.0 from 2
        report = json.dumps(full_report(given, grid=grid, bins=10))
        assert report == json.dumps(full_report(codes, grid=grid, bins=10))
        assert f'"skipped_cells": [{float(enc.labels.index("b"))}]' in report
        with pytest.raises(MetricError, match="NaN"):
            ScoreSet(f[:2], factorize([np.nan, 0.0]))

    def test_json_round_trip(self):
        import json

        rng = np.random.default_rng(9)
        f, g, y = random_binary_instance(rng, n=40)
        scores = ScoreSet(f, g, y, threshold=0.0)
        report = full_report(scores, grid=binary_grid(y, g), bins=5)
        doc = json.dumps(report, sort_keys=True)
        assert json.loads(doc)["general_fairness"]["value"] >= 0.0
