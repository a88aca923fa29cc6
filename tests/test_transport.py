from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from fairkit.dataset import factorize
from fairkit.transport import (
    EmpiricalDistribution,
    TransportError,
    barycenter,
    expected_prediction_changes,
    geodesic_repair,
    pairwise_wasserstein,
    sorted_by_group,
    wasserstein,
)

from oracles import brute_force_w1_couplings, grid_search_barycenter_objective, sup_quantile


def dist(values, bins):
    return EmpiricalDistribution.from_samples(values, bins=bins)


class TestQuantile:
    def test_two_point_support(self):
        # sup over s of {F(s) <= (i-1)/B}: for i=2 the set is (-inf, 1.0)
        d = dist([0.0, 1.0], 2)
        assert d.quantiles.tolist() == [0.0, 1.0]

    def test_constant_samples(self):
        d = dist([3.5] * 7, 4)
        assert d.quantiles.tolist() == [3.5] * 4

    def test_uniform_grid_matches_order_statistics(self):
        values = np.arange(1, 11) / 10.0
        d = dist(values, 10)
        np.testing.assert_allclose(d.quantiles, np.arange(1, 11) / 10.0)

    def test_matches_sup_oracle_with_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = rng.integers(1, 40)
            values = rng.integers(0, 6, size=n) / 3.0  # plenty of ties
            bins = int(rng.integers(1, 12))
            d = dist(values, bins)
            assert d.quantiles.tolist() == [sup_quantile(values, bins, i) for i in range(1, bins + 1)]

    def test_empty_distribution(self):
        with pytest.raises(TransportError):
            EmpiricalDistribution.from_samples([])


class TestBinLookup:
    """``RepairPlan.map_scores`` looks a score up in the largest bin whose quantile does not exceed it,
    floored at bin 1; at t=0 a one-group plan returns that bin's quantile."""

    @staticmethod
    def lookup(values, bins, scores):
        _, plan = geodesic_repair(values, np.zeros(len(values)), t=0.0, bins=bins)
        return plan.map_scores(0.0, scores).tolist()

    def test_max_sample_maps_to_top_bin(self):
        assert self.lookup([0.1, 0.5, 0.9], 3, [0.9]) == [0.9]

    def test_below_min_floors_at_one(self):
        assert self.lookup([0.1, 0.5, 0.9], 3, [-5.0]) == [0.1]

    def test_three_point_enumeration(self):
        # q(1..3) = (0.2, 0.4, 0.6); entries <= 0.5 are the first two
        assert self.lookup([0.2, 0.4, 0.6], 3, [0.5]) == [0.4]

    def test_band_consistency(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            values = rng.normal(size=rng.integers(2, 50))
            d = dist(values, int(rng.integers(1, 20)))
            assert self.lookup(values, d.bins, d.quantiles) == d.quantiles.tolist()


class TestWasserstein:
    def test_identical_distributions(self):
        d = dist([0.3, 0.6, 0.8], 3)
        assert wasserstein(d, d, 1) == 0.0
        assert wasserstein(d, d, 2) == 0.0

    def test_point_mass_translation(self):
        assert wasserstein(dist([0.0], 1), dist([1.0], 1), 1) == 1.0

    def test_two_point_example_and_coupling_oracle(self):
        a, b = [0.2, 0.4], [0.3, 0.5]
        assert wasserstein(dist(a, 2), dist(b, 2), 1) == pytest.approx(0.1)
        assert brute_force_w1_couplings(a, b) == pytest.approx(0.1)

    def test_sorted_coupling_is_optimal(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.normal(size=5)
            b = rng.normal(size=5)
            mine = wasserstein(dist(a, 5), dist(b, 5), 1)
            assert mine == pytest.approx(brute_force_w1_couplings(a, b), abs=1e-12)

    def test_matches_scipy_on_full_resolution(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=64)
        b = rng.normal(1.0, 2.0, size=64)
        mine = wasserstein(dist(a, 64), dist(b, 64), 1)
        assert mine == pytest.approx(stats.wasserstein_distance(a, b), abs=1e-12)

    def test_bin_mismatch(self):
        with pytest.raises(TransportError):
            wasserstein(dist([1.0, 2.0], 2), dist([1.0, 2.0], 1), 1)


class TestBarycenter:
    def test_idempotent_on_self(self):
        d = dist([0.1, 0.4, 0.7], 3)
        b = barycenter([d, d], [0.5, 0.5], order=2)
        np.testing.assert_allclose(b.quantiles, d.quantiles)

    def test_point_mass_midpoint(self):
        b = barycenter([dist([0.0], 1), dist([1.0], 1)], [0.5, 0.5], order=2)
        assert b.quantiles[0] == pytest.approx(0.5)

    def test_mean_minimizes_grid_search(self):
        rng = np.random.default_rng(13)
        dists = [dist(rng.uniform(size=12), 4) for _ in range(3)]
        w = np.array([0.5, 0.3, 0.2])
        b = barycenter(dists, w, order=2)
        mine = sum(wi * wasserstein(d, b, 2) for wi, d in zip(w, dists))
        tables = [d.quantiles for d in dists]
        grid = np.linspace(0.0, 1.0, 2001)
        best = grid_search_barycenter_objective(tables, w, 2, grid)
        assert mine <= best + 1e-6

    def test_median_minimizes_grid_search_order_one(self):
        rng = np.random.default_rng(17)
        dists = [dist(rng.uniform(size=12), 4) for _ in range(3)]
        w = np.array([0.2, 0.5, 0.3])
        b = barycenter(dists, w, order=1)
        mine = sum(wi * wasserstein(d, b, 1) for wi, d in zip(w, dists))
        tables = [d.quantiles for d in dists]
        grid = np.linspace(0.0, 1.0, 2001)
        best = grid_search_barycenter_objective(tables, w, 1, grid)
        assert mine <= best + 1e-6

    def test_weight_permutation_invariance(self):
        rng = np.random.default_rng(19)
        d1, d2 = dist(rng.uniform(size=8), 4), dist(rng.uniform(size=8), 4)
        a = barycenter([d1, d2], [0.3, 0.7], order=2)
        b = barycenter([d2, d1], [0.7, 0.3], order=2)
        np.testing.assert_allclose(a.quantiles, b.quantiles)

    def test_bad_weights(self):
        d = dist([0.5], 1)
        with pytest.raises(TransportError):
            barycenter([d, d], [0.7, 0.7], order=2)


class TestGeodesicRepair:
    def test_hand_example_full_repair(self):
        # group tables (0,1) and (0.4,0.6); equal-weight order-2 barycenter
        # quantiles are (0.2, 0.8) and both groups land on them at t=1
        values = np.array([0.0, 1.0, 0.4, 0.6])
        groups = np.array(["a", "a", "b", "b"])
        repaired, plan = geodesic_repair(values, groups, t=1.0, bins=2, order=2)
        np.testing.assert_allclose(plan.barycenter_table, [0.2, 0.8])
        np.testing.assert_allclose(repaired, [0.2, 0.8, 0.2, 0.8])

    def test_zero_tradeoff_is_identity(self):
        rng = np.random.default_rng(23)
        values = rng.uniform(size=30)
        groups = np.repeat(["a", "b"], 15)
        repaired, _ = geodesic_repair(values, groups, t=0.0, bins=15)
        np.testing.assert_allclose(repaired, values)

    def test_full_repair_matches_barycenter(self):
        rng = np.random.default_rng(29)
        values = np.concatenate([rng.normal(0, 1, 400), rng.normal(2, 0.5, 400)])
        groups = np.repeat([0, 1], 400)
        repaired, plan = geodesic_repair(values, groups, t=1.0, bins=100)
        bary = plan.barycenter_distribution()
        for code in (0, 1):
            after = EmpiricalDistribution.from_samples(repaired[groups == code], bins=100)
            assert wasserstein(after, bary, 1) <= 2.0 / 100

    def test_pairwise_gap_non_increasing_in_t(self):
        rng = np.random.default_rng(31)
        values = np.concatenate([rng.normal(0, 1, 300), rng.normal(1.5, 1.2, 300)])
        groups = np.repeat([0, 1], 300)
        gaps = []
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            repaired, _ = geodesic_repair(values, groups, t=t, bins=50)
            d0 = EmpiricalDistribution.from_samples(repaired[groups == 0], bins=50)
            d1 = EmpiricalDistribution.from_samples(repaired[groups == 1], bins=50)
            gaps.append(wasserstein(d0, d1, 1))
        assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))

    def test_geodesic_scaling(self):
        rng = np.random.default_rng(37)
        values = np.concatenate([rng.normal(0.3, 0.1, 500), rng.normal(0.7, 0.15, 500)])
        groups = np.repeat(["u", "v"], 500)
        bins = 100
        _, plan0 = geodesic_repair(values, groups, t=0.0, bins=bins)
        bary = plan0.barycenter_distribution()
        base = {
            c: wasserstein(EmpiricalDistribution.from_samples(values[groups == c], bins=bins), bary, 2)
            for c in ("u", "v")
        }
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            repaired, _ = geodesic_repair(values, groups, t=t, bins=bins)
            for c in ("u", "v"):
                after = EmpiricalDistribution.from_samples(repaired[groups == c], bins=bins)
                got = wasserstein(after, bary, 2)
                assert got == pytest.approx((1 - t) ** 2 * base[c], abs=4.0 / bins)

    def test_rank_preservation_within_group(self):
        rng = np.random.default_rng(41)
        values = np.concatenate([rng.uniform(size=80), rng.uniform(0.2, 1.4, 80)])
        groups = np.repeat([0, 1], 80)
        repaired, _ = geodesic_repair(values, groups, t=0.6, bins=20)
        for code in (0, 1):
            v = values[groups == code]
            r = repaired[groups == code]
            order = np.argsort(v, kind="stable")
            assert np.all(np.diff(r[order]) >= -1e-12)

    def test_invalid_tradeoff(self):
        with pytest.raises(TransportError):
            geodesic_repair([0.1, 0.2], [0, 1], t=1.5, bins=1)

    def test_nan_group_labels_rejected(self):
        with pytest.raises(TransportError, match="NaN"):
            geodesic_repair([0.1, 0.2, 0.3, 0.4], [np.nan, 0.0, np.nan, 0.0], t=1.0, bins=1)

    def test_group_encoding_is_used_as_given(self):
        rng = np.random.default_rng(45)
        values = rng.uniform(size=200)
        groups = rng.choice(["u", "v", "w"], size=200)
        enc = factorize(groups)
        repaired, plan = geodesic_repair(values, enc, t=0.5, bins=20)
        want, want_plan = geodesic_repair(values, groups, t=0.5, bins=20)
        np.testing.assert_array_equal(repaired, want)
        assert plan.group_codes == want_plan.group_codes == enc.labels
        with pytest.raises(TransportError, match="NaN"):
            geodesic_repair(values[:4], factorize([np.nan, 0.0, np.nan, 0.0]), t=1.0, bins=1)

    def test_replaced_trade_off_matches_a_fresh_repair(self):
        # a sweep re-interpolates one plan; every t must give a fresh repair's bits
        rng = np.random.default_rng(44)
        values = rng.uniform(size=300)
        groups = rng.choice(["u", "v", "w"], size=300)
        _, plan = geodesic_repair(values, groups, t=1.0, bins=20, order=1)
        for t in (0.0, 0.3, 0.5, 1.0):
            fresh, _ = geodesic_repair(values, groups, t=t, bins=20, order=1)
            swept = replace(plan, trade_off=t)
            for code in plan.group_codes:
                mask = groups == code
                np.testing.assert_array_equal(swept.map_scores(code, values[mask]), fresh[mask])
        with pytest.raises(TransportError, match=r"trade-off t=1\.5 outside \[0, 1\]"):
            replace(plan, trade_off=1.5)

    def test_monotone_interpolated_tables(self):
        rng = np.random.default_rng(43)
        values = np.concatenate([rng.normal(size=60), rng.normal(1, 2, 60)])
        groups = np.repeat([0, 1], 60)
        for t in (0.25, 0.5, 0.75):
            _, plan = geodesic_repair(values, groups, t=t, bins=30)
            for code in (0, 1):
                assert np.all(np.diff(plan.interpolated_table(code)) >= -1e-12)

    @pytest.mark.parametrize("method", ["interpolated_table", "repaired_distribution", "map_scores"])
    def test_unknown_group_code_is_transport_error(self, method):
        _, plan = geodesic_repair([0.0, 1.0, 0.4, 0.6], ["a", "a", "b", "b"], t=0.5, bins=2)
        args = ([0.5],) if method == "map_scores" else ()
        with pytest.raises(TransportError, match=r"^unknown group code 'zz'$"):
            getattr(plan, method)("zz", *args)


# tie-heavy scores (both zeros among them) or any moderate float, and group labels of which
# some are likely to hold one record
SCORES = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 0.25, 0.5, 1.0, 3.0]),
                   st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False))
GROUPED = st.integers(1, 30).flatmap(lambda n: st.tuples(
    st.lists(SCORES, min_size=n, max_size=n), st.lists(st.integers(0, 5), min_size=n, max_size=n)))


class TestSortedByGroup:
    """One lexsort gives every group's segment and table, equal to sorting the group on its own."""

    @settings(max_examples=200, deadline=None)
    @given(GROUPED, st.integers(1, 40))
    def test_segments_equal_per_group_distributions(self, grouped, bins):
        values, groups = map(np.array, grouped)
        enc = factorize(groups)
        members, dists = sorted_by_group(values, enc, bins)
        assert len(members) == len(dists) == len(enc.labels)
        for g, (label, idx, d) in enumerate(zip(enc.labels, members, dists)):
            own = values[groups == label]
            want = EmpiricalDistribution.from_samples(own, bins=bins)
            # bins above and below the group's size alike
            np.testing.assert_array_equal(d.samples, want.samples)
            np.testing.assert_array_equal(d.quantiles, want.quantiles)
            assert d.bins == bins and d.quantiles.tolist() == [sup_quantile(own, bins, i) for i in range(1, bins + 1)]
            # the segment holds the group's record indices, in the order of their scores
            np.testing.assert_array_equal(np.sort(idx), np.flatnonzero(enc.codes == g))
            np.testing.assert_array_equal(values[idx], d.samples)

    @settings(max_examples=150, deadline=None)
    @given(GROUPED, st.integers(1, 40), st.sampled_from([0.0, 0.3, 0.5, 1.0]), st.sampled_from([1, 2]),
           st.sampled_from(["empirical", "uniform"]))
    def test_repaired_tables_equal_those_of_the_repaired_scores(self, grouped, bins, t, order, weights):
        # what a repair report and its sweep compute from B-entry tables, recomputed from all scores
        values, groups = map(np.array, grouped)
        repaired, plan = geodesic_repair(values, groups, t=t, bins=bins, order=order, weights=weights)
        bary = plan.barycenter_distribution()
        for code in plan.group_codes:
            full = EmpiricalDistribution.from_samples(repaired[groups == code], bins=bins)
            table = plan.repaired_distribution(code)
            np.testing.assert_array_equal(table.quantiles, full.quantiles)
            assert wasserstein(table, bary, order) == wasserstein(full, bary, order)
        for s in (0.0, 0.25, 1.0):
            swept = replace(plan, trade_off=s)
            full = [EmpiricalDistribution.from_samples(swept.map_scores(c, values[groups == c]), bins=bins)
                    for c in plan.group_codes]
            tables = [swept.repaired_distribution(c) for c in plan.group_codes]
            assert pairwise_wasserstein(tables, 1) == pairwise_wasserstein(full, 1)

    def test_finiteness_and_bins_are_checked(self):
        enc = factorize(["a", "b", "a"])
        with pytest.raises(TransportError, match="samples must be finite"):
            sorted_by_group([0.1, np.inf, 0.3], enc)
        with pytest.raises(TransportError, match="bins must be >= 1"):
            sorted_by_group([0.1, 0.2, 0.3], enc, 0)


class TestExpectedPredictionChanges:
    def test_identity_map(self):
        d = dist([0.2, 0.5, 0.9], 3)
        assert expected_prediction_changes(d, lambda x: x) == 0.0

    def test_single_score_interval_length(self):
        d = dist([0.3], 1)
        assert expected_prediction_changes(d, lambda x: np.full_like(x, 0.7)) == pytest.approx(0.4)

    def test_equals_w1_for_full_repair(self):
        rng = np.random.default_rng(47)
        values = np.concatenate([
            np.clip(rng.normal(0.4, 0.1, 50), 0, 1),
            np.clip(rng.normal(0.6, 0.1, 50), 0, 1),
        ])
        groups = np.repeat([0, 1], 50)
        bins = 50
        _, plan = geodesic_repair(values, groups, t=1.0, bins=bins)
        bary = plan.barycenter_distribution()
        for code in (0, 1):
            source = EmpiricalDistribution.from_samples(values[groups == code], bins=bins)
            changes = expected_prediction_changes(source, lambda x: plan.map_scores(code, x))
            assert changes == pytest.approx(wasserstein(source, bary, 1), abs=2.0 / bins)

    def test_range_validation(self):
        d = dist([0.5, 1.2], 2)
        with pytest.raises(TransportError):
            expected_prediction_changes(d, lambda x: x)


TWO_BINS, THREE_BINS = dist([0.0, 1.0], 2), dist([0.0, 0.5, 1.0], 3)

# each raise of the public API a caller can reach, with its message
PUBLIC_RAISES = {
    "non_finite_samples": (lambda: EmpiricalDistribution.from_samples([0.5, np.nan]), "samples must be finite"),
    "no_bins": (lambda: EmpiricalDistribution.from_samples([0.5], bins=0), "bins must be >= 1"),
    "wasserstein_order": (lambda: wasserstein(TWO_BINS, TWO_BINS, order=3), "order must be 1 or 2"),
    "barycenter_order": (lambda: barycenter([TWO_BINS], [1.0], order=3), "order must be 1 or 2"),
    "no_distributions": (lambda: barycenter([], []), "need at least one distribution"),
    "negative_weight": (lambda: barycenter([TWO_BINS], [-1.0]), "weights must be non-negative, one per distribution"),
    "bin_counts_differ": (lambda: barycenter([TWO_BINS, THREE_BINS], [0.5, 0.5]),
                          "all distributions must share the bin count"),
    "groups_misaligned": (lambda: geodesic_repair([0.1, 0.2], [0], t=0.5), "values and groups must align"),
    "no_scores": (lambda: geodesic_repair([], [], t=0.5), "no scores to repair"),
    "map_changes_shape": (lambda: expected_prediction_changes(TWO_BINS, lambda x: x[:1]),
                          "transport map must preserve the sample shape"),
}


@pytest.mark.parametrize("name", PUBLIC_RAISES)
def test_public_raise(name):
    call, message = PUBLIC_RAISES[name]
    with pytest.raises(TransportError) as caught:
        call()
    assert str(caught.value) == message
