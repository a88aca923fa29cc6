import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from fairkit import causal, dataset
from fairkit.causal import (
    CausalError,
    Equation,
    LinearSEM,
    PathSelection,
    abduct,
    all_unfair_paths,
    counterfactual,
    counterfactual_inputs,
    fit,
    path_specific_effect,
    path_specific_effect_mc,
    reconstruct,
    scenario,
    simulate,
    write_sample,
)
from fairkit.transport import EmpiricalDistribution, wasserstein

from oracles import column_stack_fit, full_array_pse_mc, full_array_simulate
from test_ferm import traced_peak


def college(noise=1.0, t_q=1.0, t_d=3.0, t_ya=2.0, t_yq=1.0, t_yd=0.5):
    return LinearSEM(
        sensitive="A",
        pi=0.5,
        equations=(
            Equation("Q", 0.0, ("A",), (t_q,), noise),
            Equation("D", 0.0, ("A",), (t_d,), noise),
            Equation("Y", 0.0, ("A", "Q", "D"), (t_ya, t_yq, t_yd), noise),
        ),
        outcome="Y",
        edge_labels={
            ("A", "Q"): "fair",
            ("A", "D"): "unfair",
            ("A", "Y"): "unfair",
            ("Q", "Y"): "fair",
            ("D", "Y"): "fair",
        },
    )


DIRECT = PathSelection((("A", "Y"),))
BOTH_UNFAIR = PathSelection((("A", "Y"), ("A", "D", "Y")))


class TestSampling:
    def test_near_zero_noise_limit(self):
        sem = college(noise=1e-12)
        cols = simulate(sem, 200, seed=0)
        np.testing.assert_allclose(cols["Q"], 1.0 * cols["A"], atol=1e-9)

    def test_degenerate_bernoulli(self):
        sem = college()
        cols = simulate(
            LinearSEM(
                sensitive=sem.sensitive,
                pi=1.0,
                equations=sem.equations,
                outcome="Y",
                edge_labels=dict(sem.edge_labels),
            ),
            100,
            seed=1,
        )
        assert np.all(cols["A"] == 1.0)

    def test_conditional_mean_concentration(self):
        sem = college()
        cols = simulate(sem, 100_000, seed=2)
        ones = cols["A"] == 1.0
        se = cols["Q"][ones].std() / np.sqrt(ones.sum())
        assert abs(cols["Q"][ones].mean() - 1.0) <= 4 * se

    def test_written_sample_columns(self, tmp_path):
        # the sensitive variable, then the observed ones in equation order
        for sem, header in ((college(), "A,Q,D,Y"), (scenario("music"), "S,X,Y")):
            write_sample(sem, 5, tmp_path / "s.csv", seed=3)
            assert (tmp_path / "s.csv").read_text().splitlines()[0] == header

    def test_deterministic_per_seed(self):
        a = simulate(college(), 20, seed=4)
        b = simulate(college(), 20, seed=4)
        np.testing.assert_array_equal(a["Y"], b["Y"])


class TestFit:
    def test_recovers_coefficients_on_synthetic_data(self):
        sem = college()
        cols = simulate(sem, 100_000, seed=5)
        fitted = fit(cols, sem)
        for eq, ref in zip(fitted.equations, sem.equations):
            np.testing.assert_allclose(eq.coeffs, ref.coeffs, rtol=0.01)
            assert eq.noise_std == pytest.approx(ref.noise_std, rel=0.02)
        assert fitted.pi == pytest.approx(0.5, abs=0.01)

    def test_noiseless_outcome_equation_is_interpolated(self):
        # parents need their own noise to vary independently; the outcome
        # equation itself is deterministic, so the fit interpolates it
        sem = LinearSEM(
            sensitive="A",
            pi=0.5,
            equations=(
                Equation("Q", 0.0, ("A",), (1.0,), 1.0),
                Equation("D", 0.0, ("A",), (3.0,), 1.0),
                Equation("Y", 0.25, ("A", "Q", "D"), (2.0, 1.0, 0.5), 0.0),
            ),
            outcome="Y",
        )
        cols = simulate(sem, 500, seed=6)
        fitted = fit(cols, sem)
        np.testing.assert_allclose(fitted.equation("Y").coeffs, (2.0, 1.0, 0.5), atol=1e-9)
        assert fitted.equation("Y").intercept == pytest.approx(0.25, abs=1e-9)
        assert fitted.equation("Y").noise_std == pytest.approx(0.0, abs=1e-9)

    def test_rank_deficient_design(self):
        sem = LinearSEM(
            sensitive="A",
            pi=0.5,
            equations=(
                Equation("Q", 0.0, ("A",), (1.0,), 1.0),
                Equation("D", 0.0, ("A", "Q"), (1.0, 1.0), 1.0),
            ),
            outcome="D",
        )
        cols = {"A": np.ones(50), "Q": np.ones(50), "D": np.ones(50)}
        with pytest.raises(CausalError, match="rank"):
            fit(cols, sem)

    def test_columns_of_other_lengths_rejected(self):
        sem = college()
        cols = simulate(sem, 50, seed=5)
        cols["Q"] = np.concatenate([cols["Q"], [0.0]])
        with pytest.raises(CausalError, match="one-dimensional and of one length"):
            fit(cols, sem)

    def test_working_set_is_below_one_column(self):
        sem, n = college(), 200_000
        cols = simulate(sem, n, seed=5)
        fit(cols, sem)  # numpy's first-call allocations
        _, peak = traced_peak(fit, cols, sem)
        # a block of rows under R and its copy inside qr, and the sensitive
        # check's three boolean columns; a whole design column would be 8n
        assert peak < 8 * n


class TestPathSpecificEffect:
    def test_direct_path_closed_form(self):
        assert path_specific_effect(college(), DIRECT, 0.0, 1.0) == pytest.approx(2.0)

    def test_both_unfair_paths_closed_form(self):
        # direct 2.0 plus 0.5 * 3.0 through the department branch
        assert path_specific_effect(college(), BOTH_UNFAIR, 0.0, 1.0) == pytest.approx(3.5)

    def test_empty_selection(self):
        assert path_specific_effect(college(), PathSelection(()), 0.0, 1.0) == 0.0

    def test_additive_over_edge_disjoint_paths(self):
        sem = college()
        p1 = PathSelection((("A", "Y"),))
        p2 = PathSelection((("A", "D", "Y"),))
        both = PathSelection((("A", "Y"), ("A", "D", "Y")))
        assert path_specific_effect(sem, both, 0.0, 1.0) == pytest.approx(
            path_specific_effect(sem, p1, 0.0, 1.0) + path_specific_effect(sem, p2, 0.0, 1.0)
        )

    def test_missing_edge_rejected(self):
        with pytest.raises(CausalError, match="edge"):
            path_specific_effect(college(), PathSelection((("A", "Z", "Y"),)), 0.0, 1.0)

    def test_selection_carrying_an_unselected_path_rejected(self):
        # the union of A>Q>D>Y and A>D>Z>Y also carries A>D>Y and A>Q>D>Z>Y: the
        # closed form would give 2.0 and a replay of the union 4.0
        sem = LinearSEM("A", 0.5, (
            Equation("Q", 0.0, ("A",), (1.0,), 0.0),
            Equation("D", 0.0, ("A", "Q"), (1.0, 1.0), 0.0),
            Equation("Z", 0.0, ("D",), (1.0,), 0.0),
            Equation("Y", 0.0, ("D", "Z"), (1.0, 1.0), 0.0),
        ), "Y")
        selection = PathSelection.parse("A>Q>D>Y,A>D>Z>Y")
        for effect in (
            lambda: path_specific_effect(sem, selection, 0.0, 1.0),
            lambda: path_specific_effect_mc(sem, selection, 0.0, 1.0, n=2),
            lambda: counterfactual(sem, dict.fromkeys(sem.variables, 0.0), selection, 1.0),
        ):
            with pytest.raises(CausalError, match=r"also form A>Q>D>Z>Y, which is not selected"):
                effect()
        closed = PathSelection.parse("A>Q>D>Y,A>D>Z>Y,A>D>Y,A>Q>D>Z>Y")
        assert path_specific_effect(sem, closed, 0.0, 1.0) == 4.0
        assert path_specific_effect_mc(sem, closed, 0.0, 1.0, n=2) == 4.0

    def test_path_selected_twice_rejected(self):
        # "A>D" extends to A>D>Y, so the closed form would count that path twice
        with pytest.raises(CausalError, match="A>D>Y is selected twice"):
            path_specific_effect(college(), PathSelection.parse("A>D>Y,A>D"), 0.0, 1.0)

    def test_path_prefix_extends_uniquely(self):
        # "A>D" continues to the outcome through the only outgoing edge
        value = path_specific_effect(college(), PathSelection.parse("A>D"), 0.0, 1.0)
        assert value == pytest.approx(1.5)


class TestPathSpecificEffectMC:
    def test_zero_noise_exact(self):
        sem = college(noise=1e-15)
        mc = path_specific_effect_mc(sem, BOTH_UNFAIR, 0.0, 1.0, n=500, seed=7)
        assert mc == pytest.approx(3.5, abs=1e-9)

    def test_within_clt_band(self):
        sem = college()
        closed = path_specific_effect(sem, BOTH_UNFAIR, 0.0, 1.0)
        n = 100_000
        mc = path_specific_effect_mc(sem, BOTH_UNFAIR, 0.0, 1.0, n=n, seed=8)
        cols = simulate(sem, n, seed=8)
        band = 4 * cols["Y"].std() / np.sqrt(n)
        assert abs(mc - closed) <= band + 1e-12

    def test_null_intervention(self):
        assert path_specific_effect_mc(college(), DIRECT, 1.0, 1.0, n=100, seed=9) == 0.0

    def test_too_few_samples(self):
        with pytest.raises(CausalError):
            path_specific_effect_mc(college(), DIRECT, 0.0, 1.0, n=1)

    def test_working_set_is_a_few_blocks(self):
        sem, n = college(), 1_000_000
        path_specific_effect_mc(sem, BOTH_UNFAIR, 0.0, 1.0, n=1000)  # numpy's first-call allocations
        _, peak = traced_peak(path_specific_effect_mc, sem, BOTH_UNFAIR, 0.0, 1.0, n)
        # a leaf of each world (the root and every variable), of each
        # equation's noise, the skip buffer, a product temporary and a block
        # of slack, whatever n is; one outcome column of 10^6 samples would
        # add 7.6 MiB
        blocks = 2 * (len(sem.equations) + 1) + len(sem.equations) + 3
        assert peak <= blocks * 8 * causal._MC_BLOCK + 2**18


class TestWorkingSetLimit:
    """A sample whose returned float64 columns exceed the cap is refused before any draw;
    the blocked commands hold a few blocks whatever n is, and refuse none."""

    def test_limit_is_exact(self, monkeypatch, tmp_path):
        sem = college()  # 4 variables, one column each
        monkeypatch.setattr(dataset, "MAX_FEATURE_BYTES", 4 * 8 * 100)
        simulate(sem, 100)
        with pytest.raises(CausalError, match="sample of 101 records needs"):
            simulate(sem, 101)
        path_specific_effect_mc(sem, DIRECT, 0.0, 1.0, n=1000)
        write_sample(sem, 1000, tmp_path / "s.csv")

    def test_oversized_counts_are_refused(self):
        with pytest.raises(CausalError, match=r"^sample of 3000000000 records needs 89\.4 GiB, above the 1 GiB limit$"):
            simulate(college(), 3_000_000_000)


class TestAbduction:
    def test_recovers_known_noise(self):
        sem = college()
        rng = np.random.default_rng(10)
        eps = {"Q": 0.3, "D": -1.2, "Y": 0.75}
        a = 1.0
        record = {"A": a}
        record["Q"] = 1.0 * a + eps["Q"]
        record["D"] = 3.0 * a + eps["D"]
        record["Y"] = 2.0 * a + 1.0 * record["Q"] + 0.5 * record["D"] + eps["Y"]
        noise = abduct(sem, record)
        for name, value in eps.items():
            assert noise[name] == pytest.approx(value, abs=1e-12)

    def test_on_surface_residuals_are_zero(self):
        sem = college()
        record = {"A": 0.0, "Q": 0.0, "D": 0.0, "Y": 0.0}
        noise = abduct(sem, record)
        assert all(v == 0.0 for v in noise.values())

    def test_round_trip(self):
        sem = college()
        cols = simulate(sem, 25, seed=11)
        for i in range(25):
            record = {k: float(v[i]) for k, v in cols.items()}
            noise = abduct(sem, record)
            rebuilt = reconstruct(sem, record["A"], noise)
            for name in sem.variables:
                assert rebuilt[name] == pytest.approx(record[name], abs=1e-12)

    def test_missing_variable(self):
        with pytest.raises(CausalError, match="lacks"):
            abduct(college(), {"A": 0.0, "Q": 1.0, "D": 2.0})


class TestCounterfactual:
    def test_direct_path_shift(self):
        record = {"A": 0.0, "Q": 0.4, "D": 1.1, "Y": 5.0}
        # only the direct coefficient (2.0) moves the outcome
        assert counterfactual(college(), record, DIRECT, 1.0) == pytest.approx(7.0)

    def test_both_paths_shift(self):
        record = {"A": 0.0, "Q": 0.4, "D": 1.1, "Y": 5.0}
        assert counterfactual(college(), record, BOTH_UNFAIR, 1.0) == pytest.approx(8.5)

    def test_identity_when_value_unchanged(self):
        record = {"A": 1.0, "Q": 0.4, "D": 1.1, "Y": 5.0}
        assert counterfactual(college(), record, BOTH_UNFAIR, 1.0) == pytest.approx(5.0)


def corrected_scores(sem, model, cols, paths, a_bar):
    """The model's scores on ``cols`` with the counterfactual inputs in place."""
    return model({**cols, **counterfactual_inputs(sem, cols, paths, a_bar)})


class TestCorrectScores:
    def test_returns_only_the_inputs_that_move(self):
        sem = college()
        cols = simulate(sem, 10, seed=12)
        assert counterfactual_inputs(sem, cols, PathSelection(()), 1.0) == {}
        moved = counterfactual_inputs(sem, cols, DIRECT, 1.0)
        assert list(moved) == ["A"]
        np.testing.assert_array_equal(moved["A"], np.ones(10))
        assert sorted(counterfactual_inputs(sem, cols, BOTH_UNFAIR, 1.0)) == ["A", "D"]

    def test_model_ignoring_intervened_variables(self):
        sem = college()
        cols = simulate(sem, 40, seed=13)
        original = 2.0 * cols["Q"]
        corrected = corrected_scores(sem, lambda c: 2.0 * c["Q"], cols, BOTH_UNFAIR, 1.0)
        np.testing.assert_allclose(corrected, original, atol=1e-12)

    def test_linear_model_zero_noise(self):
        sem = college(noise=1e-15)
        cols = simulate(sem, 30, seed=14)

        def model(c):
            return 1.0 * c["A"] + 2.0 * c["Q"] + 3.0 * c["D"]

        corrected = corrected_scores(sem, model, cols, BOTH_UNFAIR, 1.0)
        # A -> 1, D -> coefficient 3.0 evaluated at a_bar, Q observed
        d_cf = 3.0 * 1.0  # structural D at A=1, zero noise
        expected = 1.0 * 1.0 + 2.0 * cols["Q"] + 3.0 * d_cf
        np.testing.assert_allclose(corrected, expected, atol=1e-9)

    def test_reduces_group_gap_on_unfair_model(self):
        sem = college()
        cols = simulate(sem, 4000, seed=15)

        def model(c):
            return 2.0 * c["A"] + 1.0 * c["Q"] + 0.5 * c["D"]

        original = model(cols)
        corrected = corrected_scores(sem, model, cols, BOTH_UNFAIR, 1.0)
        a = cols["A"]

        def gap(values):
            d0 = EmpiricalDistribution.from_samples(values[a == 0], bins=50)
            d1 = EmpiricalDistribution.from_samples(values[a == 1], bins=50)
            return wasserstein(d0, d1, 1)

        assert gap(corrected) < gap(original)


class TestScenarios:
    def test_music_structure(self):
        sem = scenario("music")
        assert sem.variables == ("S", "M", "X", "Y")
        assert "M" in sem.unobserved
        assert sem.edge_labels[("S", "X")] == "unfair"
        assert sem.sensitive_values == (-1.0, 1.0)

    def test_college_has_three_paths(self):
        sem = scenario("college")
        paths = all_unfair_paths(sem).paths
        assert set(paths) == {("A", "Y"), ("A", "D", "Y")}
        # three causal paths in total: direct plus two indirect
        children = {}
        for u, v in sem.edges:
            children.setdefault(u, []).append(v)
        assert sorted(children["A"]) == ["D", "Q", "Y"]

    def test_police_variants(self):
        assert ("A", "Y") not in scenario("police_a").edges
        for name in ("police_b", "police_c"):
            sem = scenario(name)
            assert sem.edge_labels[("A", "Y")] == "unfair"

    @pytest.mark.parametrize("fields, message", [
        ({"unobserved": frozenset({"M"})}, r"unobserved \['M'\] are not variables"),
        ({"sensitive_values": (0.0,)}, "two distinct finite numbers"),
        ({"sensitive_values": (1.0, 1.0)}, "two distinct finite numbers"),
        ({"sensitive_values": (0.0, float("nan"))}, "each sensitive value must be a finite number, got nan"),
        ({"sensitive_values": ("a", "b")}, "each sensitive value must be a finite number, got 'a'"),
    ])
    def test_invalid_sem_rejected(self, fields, message):
        sem = college()
        with pytest.raises(CausalError, match=message):
            LinearSEM(sem.sensitive, sem.pi, sem.equations, sem.outcome, sem.edge_labels,
                      **{"sensitive_values": sem.sensitive_values, "unobserved": sem.unobserved, **fields})

    def test_unknown_scenario(self):
        with pytest.raises(CausalError):
            scenario("casino")


@st.composite
def small_sems(draw, noise=True, dense=False):
    """Linear SEMs with 1-4 equations, each over a random subset of the earlier variables.

    ``dense`` draws 3-4 equations, each reading an earlier variable with
    probability 4/5, so that many paths share edges.
    """
    names = ["A"] + [f"V{i}" for i in range(draw(st.integers(3 if dense else 1, 4)))]
    number = st.floats(-2.0, 2.0)
    equations, labels = [], {}
    for i, name in enumerate(names[1:], start=1):
        parents = tuple(p for p in names[:i] if (draw(st.integers(0, 4)) > 0 if dense else draw(st.booleans())))
        coeffs = tuple(draw(number) for _ in parents)
        noise_std = draw(st.floats(0.0, 2.0)) if noise else 0.0
        equations.append(Equation(name, draw(number), parents, coeffs, noise_std))
        labels.update({(p, name): draw(st.sampled_from(["fair", "unfair"])) for p in parents})
    values = draw(st.sampled_from([(0.0, 1.0), (-1.0, 1.0)]))
    return LinearSEM("A", 0.5, tuple(equations), names[-1], labels, values)


def all_paths(sem):
    """Every directed path from the sensitive variable to the outcome."""
    found, stack = [], [(sem.sensitive,)]
    while stack:
        path = stack.pop()
        if path[-1] == sem.outcome:
            found.append(path)
        stack.extend(path + (v,) for u, v in sem.edges if u == path[-1])
    return found


class TestDocstringInvariants:
    """The abduction, correction and effect invariants the module docstring states, on random small SEMs."""

    @settings(max_examples=200, deadline=None)
    @given(sem=small_sems(), data=st.data())
    def test_reconstruct_inverts_abduct(self, sem, data):
        record = {name: data.draw(st.floats(-10.0, 10.0)) for name in sem.variables}
        record[sem.sensitive] = data.draw(st.sampled_from(sem.sensitive_values))
        rebuilt = reconstruct(sem, record[sem.sensitive], abduct(sem, record))
        for name in sem.variables:
            assert abs(rebuilt[name] - record[name]) <= 1e-12, name

    @settings(max_examples=100, deadline=None)
    @given(sem=small_sems(), seed=st.integers(0, 2**32 - 1))
    def test_empty_selection_changes_nothing(self, sem, seed):
        cols = simulate(sem, 20, seed=seed)
        weights = dict(zip(sem.variables[:-1], np.random.default_rng(seed).normal(size=len(sem.variables))))

        def model(c):
            return sum(w * np.asarray(c[k]) for k, w in weights.items())

        v0, v1 = sem.sensitive_values
        none = PathSelection(())
        np.testing.assert_array_equal(corrected_scores(sem, model, cols, none, v1), model(cols))
        for i in range(3):
            record = {k: float(v[i]) for k, v in cols.items()}
            a_bar = v0 if record[sem.sensitive] == v1 else v1
            assert counterfactual(sem, record, none, a_bar) == pytest.approx(record[sem.outcome], abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(sem=st.one_of(small_sems(noise=False), small_sems(noise=False, dense=True)), data=st.data(),
           a=st.floats(-2.0, 2.0), a_bar=st.floats(-2.0, 2.0))
    def test_zero_noise_monte_carlo_is_closed_form(self, sem, data, a, a_bar):
        paths = all_paths(sem)
        chosen = data.draw(st.lists(st.sampled_from(paths), unique=True) if paths else st.just([]))
        selection = PathSelection(tuple(chosen))
        union = {e for p in chosen for e in zip(p, p[1:])}
        carried = [p for p in paths if set(zip(p, p[1:])) <= union]
        if set(carried) - set(chosen):
            with pytest.raises(CausalError, match="not selected"):
                selection.resolved(sem)
            return
        mc = path_specific_effect_mc(sem, selection, a, a_bar, n=5, seed=len(chosen))
        assert mc == pytest.approx(path_specific_effect(sem, selection, a, a_bar), rel=1e-9, abs=1e-12)
        # selecting every path is always accepted
        PathSelection(tuple(paths)).resolved(sem)


class TestBlockedMonteCarlo:
    """The effect replayed and summed over the leaves of numpy's pairwise tree equals the replay over all samples
    at once and ``np.mean``, bit for bit.

    With ``_MC_BLOCK`` = 7 a leaf holds at most 128 rows, the pairwise sum's
    own leaf size, so every n above 128 splits the tree.
    """

    @settings(max_examples=200, deadline=None)
    @given(sem=small_sems(), mask=st.integers(0, 2**8 - 1), a=st.floats(-2.0, 2.0), a_bar=st.floats(-2.0, 2.0),
           n=st.integers(2, 2000), seed=st.integers(0, 2**32 - 1))
    @example(sem=college(), mask=2**8 - 1, a=0.0, a_bar=1.0, n=2 * 7 + 3, seed=11)  # two skip blocks and 3 rows
    @example(sem=college(), mask=2**8 - 1, a=0.0, a_bar=1.0, n=129, seed=14)  # leaves of 64 and 65 rows
    @example(sem=college(), mask=1, a=0.0, a_bar=1.0, n=1003, seed=15)  # 9 leaves, the last two of 64 and 67 rows
    # equations with no noise still draw theirs: X and Y in music, and V0
    # before the noisy V1, whose stream starts past V0's draws
    @example(sem=scenario("music"), mask=0, a=-1.0, a_bar=1.0, n=2 * 7 + 3, seed=12)
    @example(sem=LinearSEM("A", 0.5, (Equation("V0", 0.0, ("A",), (1.0,), 0.0),
                                      Equation("V1", 0.0, ("A", "V0"), (1.0, 1.0), 1.0)), "V1"),
             mask=2**8 - 1, a=0.0, a_bar=1.0, n=2 * 7 + 3, seed=13)
    def test_blocks_equal_full_arrays(self, sem, mask, a, a_bar, n, seed):
        # bit i of mask selects path i; small_sems have at most 8 paths
        selection = PathSelection(tuple(p for i, p in enumerate(all_paths(sem)) if mask >> i & 1))
        try:
            active = selection.edge_set(sem)
        except CausalError:  # carries a path it does not select
            assume(False)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(causal, "_MC_BLOCK", 7)
            got = path_specific_effect_mc(sem, selection, a, a_bar, n=n, seed=seed)
        want = full_array_pse_mc(sem, active, a, a_bar, n, seed)
        assert got == want
        assert np.signbit(got) == np.signbit(want)


class TestBlockedSample:
    """A sample drawn and replayed in blocks equals ancestral sampling over all records at once, bit for bit."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sem=st.one_of(st.sampled_from([scenario("college"), scenario("music")]), small_sems()),
           n=st.integers(1, 300).filter(lambda n: n % 7), seed=st.integers(0, 2**32 - 1))
    @example(sem=scenario("music"), n=7 * 5 + 3, seed=1)  # M is drawn and replayed but not written
    def test_blocks_equal_full_arrays(self, tmp_path, sem, n, seed):
        want = full_array_simulate(sem, n, seed)
        names = [name for name in sem.variables if name not in sem.unobserved]
        dataset.write_table(tmp_path / "want.csv", names, [want[name] for name in names], whole_as_int=True)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(causal, "_MC_BLOCK", 7)
            write_sample(sem, n, tmp_path / "got.csv", seed=seed)
            got = simulate(sem, n, seed)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert got.keys() == want.keys()
        for name in sem.variables:
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_written_sample_holds_a_few_blocks(self, tmp_path):
        sem, n = college(), 100_000
        write_sample(sem, 10, tmp_path / "warm.csv")  # numpy's first-call allocations
        _, peak = traced_peak(write_sample, sem, n, tmp_path / "s.csv")
        # a block of the root, of each equation's noise and value, the skip
        # buffer and a product temporary, and the cells of one block of rows
        # being written, at most 160 bytes each, whatever n is; the sample
        # held in full would add 3.1 MiB
        blocks = 2 * len(sem.equations) + 3
        cells = 160 * dataset._BLOCK_ROWS * len(sem.variables)
        assert peak <= blocks * 8 * causal._MC_BLOCK + cells + 2**18


class TestFitAgainstReference:
    """``fit``'s blocked QR agrees with ``lstsq`` on a design stacked per equation, to the rounding both leave.

    Two backward-stable least-squares solves differ by at most the forward
    error bound of the problem (Higham, *Accuracy and Stability of Numerical
    Algorithms*, Thm. 20.1): of order eps x cond x (|coef| + cond x |resid| /
    |design|) for the coefficients and eps x cond x |value| for the residual
    norm.  The norms are max-abs ones bounding the 2-norms, since squares
    underflow on subnormal-scale draws.  The constant grows as sqrt(n), as
    rounding over n rows does, and with the number of blocks, each of which is
    one more Householder pass over R; a floor of one subnormal spacing per
    unit of cond covers values too small to carry eps-relative precision.
    """

    @settings(max_examples=150, deadline=None)
    @given(sem=small_sems(), n=st.integers(1, 2000), seed=st.integers(0, 2**32 - 1),
           block=st.sampled_from([causal._FIT_BLOCK, 7]))
    @example(sem=LinearSEM("A", 0.5, (Equation("V0", 0.5, (), (), 1.0),
                                      Equation("V1", 0.0, ("A", "V0"), (1.0, -1.0), 0.5)), "V1"),
             n=300, seed=3, block=causal._FIT_BLOCK)  # V0 has no parents
    @example(sem=scenario("college"), n=7 * 40 + 3, seed=4, block=7)  # a last block of 3 rows
    def test_agrees_with_column_stack_reference(self, sem, n, seed, block):
        cols = simulate(sem, n, seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(causal, "_FIT_BLOCK", block)
            try:
                pi, equations = column_stack_fit(cols, sem)
            except ValueError as exc:
                with pytest.raises(CausalError) as refused:
                    fit(cols, sem)
                assert str(refused.value) == str(exc)
                return
            fitted = fit(cols, sem)
        assert float.hex(fitted.pi) == float.hex(pi)
        eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
        c = 4 * (np.sqrt(n) + -(-n // block))
        for eq, (intercept, coeffs, noise_std) in zip(fitted.equations, equations, strict=True):
            d = len(eq.parents) + 1
            design = np.column_stack([np.ones(n)] + [cols[p] for p in eq.parents])
            coef, y = np.array([intercept, *coeffs]), cols[eq.name]
            kappa = np.linalg.cond(design)
            resid = np.max(np.abs(y - design @ coef))
            tol = c * kappa * (eps * (np.sqrt(d) * np.max(np.abs(coef)) + (kappa + 1) * np.sqrt(n) * resid
                                      / np.max(np.abs(design))) + tiny)
            assert np.all(np.abs(np.array([eq.intercept, *eq.coeffs]) - coef) <= tol), eq.name
            dof = max(n - d, 1)
            # the reference's sum of squares loses up to one subnormal spacing per record
            floor = np.sqrt(n * tiny / dof)
            tol = c * eps * (1 + 2 * kappa) * np.sqrt(n / dof) * np.max(np.abs(y)) + floor
            assert abs(eq.noise_std - noise_std) <= tol, eq.name
            if n == d:
                assert eq.noise_std == 0.0, eq.name

    def test_as_many_records_as_coefficients_leaves_no_noise(self):
        sem = scenario("college")  # Y has an intercept and three parents
        cols = simulate(sem, 4, seed=2)
        assert 0 < cols["A"].sum() < 4
        fitted = fit(cols, sem)
        y = fitted.equation("Y")
        assert y.noise_std == 0.0
        _, equations = column_stack_fit(cols, sem)
        assert equations[-1][2] > 0.0  # lstsq's residual keeps its rounding
        design = np.column_stack([np.ones(4), cols["A"], cols["Q"], cols["D"]])
        np.testing.assert_allclose(design @ (y.intercept, *y.coeffs), cols["Y"], rtol=0, atol=1e-12)


# each raise of the public API a caller can reach, with its message
PUBLIC_RAISES = {
    "outcome_not_a_variable": (lambda: LinearSEM(sensitive="A", pi=0.5, equations=(), outcome="Y"),
                               "outcome 'Y' is not a variable"),
    "no_equation": (lambda: college().equation("Z"), "no equation for 'Z'"),
}


@pytest.mark.parametrize("name", PUBLIC_RAISES)
def test_public_raise(name):
    call, message = PUBLIC_RAISES[name]
    with pytest.raises(CausalError) as caught:
        call()
    assert str(caught.value) == message
