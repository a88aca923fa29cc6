import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fairkit.multitask import (
    MtlError,
    MultiTaskDataset,
    Task,
    conditional_mean_gap,
    train_common_mean,
    train_representation,
    train_sensitive_predictor,
    transfer,
)

from oracles import common_mean_objective, mtl_objective, reference_common_mean


def synthetic_tasks(rng, T=3, d=10, n=200, gap_direction=None, gap_scale=2.0, noise=0.1):
    """Tasks whose group feature means differ along a fixed direction."""
    if gap_direction is None:
        gap_direction = np.zeros(d)
        gap_direction[0] = 1.0
    tasks = []
    for _ in range(T):
        s = rng.integers(0, 2, size=n).astype(float)
        X = rng.normal(size=(n, d)) + np.outer(s, gap_scale * gap_direction)
        w = rng.normal(size=d)
        y = X @ w + noise * rng.standard_normal(n)
        tasks.append(Task(s, X, y))
    return MultiTaskDataset(tuple(tasks))


class TestConditionalMeanGap:
    def test_two_point_case(self):
        task = Task(np.array([0.0, 1.0]), np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))
        np.testing.assert_allclose(conditional_mean_gap(task), [1.0, -1.0])

    def test_identical_means_vanish(self):
        X = np.tile(np.array([[0.5, 2.0]]), (6, 1))
        task = Task(np.repeat([0.0, 1.0], 3), X, np.zeros(6))
        np.testing.assert_allclose(conditional_mean_gap(task), 0.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        s = rng.integers(0, 2, size=30).astype(float)
        X = rng.normal(size=(30, 4))
        task = Task(s, X, np.zeros(30))
        brute = np.array(
            [X[s == 0, j].mean() - X[s == 1, j].mean() for j in range(4)]
        )
        np.testing.assert_allclose(conditional_mean_gap(task), brute, atol=1e-12)

    def test_single_group_errors(self):
        with pytest.raises(MtlError):
            conditional_mean_gap(Task(np.zeros(4), np.zeros((4, 2)), np.zeros(4)))


class TestTrainRepresentation:
    def test_zero_gaps_match_unconstrained(self):
        rng = np.random.default_rng(1)
        # mirror records across groups so every gap vector is exactly zero
        tasks = []
        for _ in range(2):
            X = rng.normal(size=(20, 4))
            y = rng.normal(size=20)
            tasks.append(
                Task(np.repeat([0.0, 1.0], 20), np.vstack([X, X]), np.concatenate([y, y]))
            )
        data = MultiTaskDataset(tuple(tasks))
        constrained = train_representation(data, r=2, lam=0.5, constraint="equality", seed=3)
        free = train_representation(data, r=2, lam=0.5, constraint="none", seed=3)
        for t, task in enumerate(data.tasks):
            np.testing.assert_allclose(
                task.features @ constrained.A @ constrained.B[:, t],
                task.features @ free.A @ free.B[:, t],
                atol=1e-6,
            )

    def test_single_task_full_rank_equals_ridge(self):
        rng = np.random.default_rng(2)
        d, n = 4, 60
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        data = MultiTaskDataset((Task(rng.integers(0, 2, n).astype(float), X, y),))
        lam = 0.3
        model = train_representation(data, r=d, lam=lam, constraint="none", seed=0, max_iter=500)
        # with r = d and no constraint the factorization spans plain ridge;
        # compare against the ridge fit with the same effective penalty at
        # the model's implied weight vector
        w = model.task_weights[:, 0]
        ridge = np.linalg.solve(X.T @ X / n + lam * np.eye(d), X.T @ y / n)
        resid_model = y - X @ w
        resid_ridge = y - X @ ridge
        # factorized ridge penalizes ||A||^2 + ||B||^2 >= 2||W||_* so its fit
        # cannot beat ridge by much; predictions should be close
        assert resid_model @ resid_model <= resid_ridge @ resid_ridge * 1.5 + 1e-6

    def test_equality_mode_feasible_and_monotone(self):
        rng = np.random.default_rng(3)
        data = synthetic_tasks(rng)
        model = train_representation(data, r=3, lam=0.1, constraint="equality", seed=1)
        assert model.max_gap_alignment() <= 1e-8
        history = np.array(model.objective_history)
        assert np.all(np.diff(history) <= 1e-9 * (1 + np.abs(history[:-1])))
        # downstream task weights inherit the first-moment fairness
        W = model.task_weights
        for t, task in enumerate(data.tasks):
            assert abs(W[:, t] @ conditional_mean_gap(task)) <= 1e-8

    def test_equality_beats_project_after_training(self):
        rng = np.random.default_rng(4)
        data = synthetic_tasks(rng)
        model = train_representation(data, r=3, lam=0.1, constraint="equality", seed=1)
        free = train_representation(data, r=3, lam=0.1, constraint="none", seed=1)
        # baseline: project the unconstrained A onto the gap complement,
        # then refit B once
        C = np.column_stack([conditional_mean_gap(t) for t in data.tasks])
        u, s, _ = np.linalg.svd(C, full_matrices=True)
        basis = u[:, (s > 1e-10).sum():]
        A_proj = basis @ basis.T @ free.A
        from fairkit.multitask import _b_step, _task_stats  # noqa: PLC0415

        B_proj = _b_step(_task_stats(data.tasks), A_proj, 0.1)
        pairs = [(t.features, t.outcome) for t in data.tasks]
        assert mtl_objective(pairs, model.A, model.B, 0.1) <= mtl_objective(
            pairs, A_proj, B_proj, 0.1
        ) + 1e-9

    def test_objective_matches_oracle(self):
        rng = np.random.default_rng(5)
        data = synthetic_tasks(rng, T=2, n=50)
        model = train_representation(data, r=2, lam=0.2, constraint="equality", seed=2)
        pairs = [(t.features, t.outcome) for t in data.tasks]
        assert model.objective_history[-1] == pytest.approx(
            mtl_objective(pairs, model.A, model.B, 0.2), abs=1e-10
        )

    def test_relaxed_mode_penalty_sweep(self):
        rng = np.random.default_rng(6)
        data = synthetic_tasks(rng, T=3, n=100)
        residuals = []
        for penalty in (0.1, 1.0, 10.0, 100.0):
            model = train_representation(
                data, r=3, lam=0.1, constraint="relaxed", penalty=penalty, seed=4
            )
            residuals.append(model.max_gap_alignment())
        assert all(a >= b - 1e-9 for a, b in zip(residuals, residuals[1:]))

    def test_relaxed_mode_with_target_tolerance(self):
        rng = np.random.default_rng(21)
        data = synthetic_tasks(rng, T=3, n=100)
        epsilon = 1e-4
        model = train_representation(
            data, r=3, lam=0.1, constraint="relaxed", epsilon=epsilon, seed=4
        )
        mean_sq = float(np.mean([np.sum((model.A.T @ c) ** 2) for c in model.gap_vectors]))
        assert mean_sq <= epsilon

    @settings(max_examples=200, deadline=None)
    @given(
        T=st.integers(1, 4), d=st.integers(2, 6), r_frac=st.floats(0.0, 1.0),
        sizes=st.lists(st.integers(2, 12), min_size=4, max_size=4),
        mode=st.sampled_from(["equality", "relaxed", "none"]),
        lam=st.floats(1e-3, 1.0), penalty=st.floats(1e-2, 100.0),
        noise=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
    )
    def test_objective_and_monotone_history_property(self, T, d, r_frac, sizes, mode, lam, penalty, noise, seed):
        # sizes from 2 rows (fewer than d) upwards; both groups in every task
        assume(mode != "equality" or T < d)
        rng = np.random.default_rng(seed)
        tasks = []
        for n in sizes[:T]:
            s = np.concatenate([[0.0, 1.0], rng.integers(0, 2, n - 2)])
            X = rng.normal(size=(n, d)) + np.outer(s, rng.normal(size=d))
            tasks.append(Task(s, X, X @ rng.normal(size=d) + noise * rng.standard_normal(n)))
        data = MultiTaskDataset(tuple(tasks))
        r = 1 + int(r_frac * (d - 1))
        model = train_representation(data, r=r, lam=lam, constraint=mode, penalty=penalty, seed=seed)
        want = mtl_objective([(t.features, t.outcome) for t in tasks], model.A, model.B, lam)
        if mode == "relaxed":
            want += penalty / T * sum(float(np.sum((model.A.T @ c) ** 2)) for c in model.gap_vectors)
        assert model.objective_history[-1] == pytest.approx(want, rel=1e-10)
        assert np.all(np.diff(model.objective_history) <= 0.0)
        assert model.penalty == (penalty if mode == "relaxed" else None)

    def test_rise_within_rounding_keeps_previous_iterate(self):
        # the last exact A half-step lowers the objective by less than its
        # rounding error, and the expanded residual reports a rise of 1e-15
        rng = np.random.default_rng(2667)
        s = np.concatenate([[0.0, 1.0], rng.integers(0, 2, 2)])
        X = rng.normal(size=(4, 2)) * 0.10220066413326939 + np.outer(s, rng.normal(size=2))
        data = MultiTaskDataset((Task(s, X, X @ rng.normal(size=2)),))
        model = train_representation(data, r=2, lam=0.295014108428684, constraint="equality", seed=2667)
        assert np.all(np.diff(model.objective_history) <= 0.0)
        assert model.solver["stop_reason"] == "converged"

    def test_solver_trace(self):
        data = synthetic_tasks(np.random.default_rng(22), T=2, n=60)
        done = train_representation(data, r=2, lam=0.1, constraint="equality", seed=1)
        iterations = (len(done.objective_history) - 1) // 2
        assert done.solver == {"iterations": iterations, "stop_reason": "converged"}
        cut = train_representation(data, r=2, lam=0.1, constraint="equality", seed=1, max_iter=1)
        assert cut.solver == {"iterations": 1, "stop_reason": "max_iter"}
        np.testing.assert_array_equal(cut.objective_history, done.objective_history[:3])

    def test_escalation_equals_direct_fit_at_final_penalty(self):
        data = synthetic_tasks(np.random.default_rng(21), T=3, n=100)
        escalated = train_representation(
            data, r=3, lam=0.1, constraint="relaxed", penalty=0.5, epsilon=1e-4, seed=4
        )
        assert escalated.penalty == 500.0  # 0.5, 5 and 50 miss the tolerance
        direct = train_representation(
            data, r=3, lam=0.1, constraint="relaxed", penalty=escalated.penalty, seed=4
        )
        np.testing.assert_array_equal(escalated.A, direct.A)
        np.testing.assert_array_equal(escalated.B, direct.B)
        assert escalated.objective_history == direct.objective_history
        assert escalated.solver == direct.solver

    def test_full_span_needs_relaxed_mode(self):
        rng = np.random.default_rng(7)
        tasks = []
        for direction in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
            s = rng.integers(0, 2, size=40).astype(float)
            X = rng.normal(size=(40, 2)) + np.outer(s, 3.0 * direction)
            tasks.append(Task(s, X, rng.normal(size=40)))
        data = MultiTaskDataset(tuple(tasks))
        with pytest.raises(MtlError, match="relaxed"):
            train_representation(data, r=1, lam=0.1, constraint="equality")

    def test_missing_group_task_rejected(self):
        rng = np.random.default_rng(8)
        bad = Task(np.zeros(10), rng.normal(size=(10, 3)), rng.normal(size=10))
        data = MultiTaskDataset((bad,))
        with pytest.raises(MtlError, match="lack"):
            train_representation(data, r=1, lam=0.1, constraint="equality")


class TestTransfer:
    def test_recovers_matching_task(self):
        rng = np.random.default_rng(9)
        d, n = 6, 300
        w_true = rng.normal(size=d)
        X = rng.normal(size=(n, d))
        task = Task(rng.integers(0, 2, n).astype(float), X, X @ w_true)
        data = MultiTaskDataset((task,))
        model = train_representation(data, r=d, lam=1e-6, constraint="none", seed=0)
        fresh = Task(task.sensitive, X, X @ w_true)
        result = transfer(model, fresh, lam=1e-8)
        cos = result.weights @ w_true / (np.linalg.norm(result.weights) * np.linalg.norm(w_true))
        assert cos > 0.99

    def test_diagnostic_small_when_representation_orthogonal(self):
        rng = np.random.default_rng(10)
        direction = np.zeros(8)
        direction[0] = 1.0
        data = synthetic_tasks(rng, T=4, d=8, n=400, gap_direction=direction, gap_scale=4.0)
        model = train_representation(data, r=3, lam=0.1, constraint="equality", seed=5)
        fresh = synthetic_tasks(rng, T=10, d=8, n=400, gap_direction=direction, gap_scale=4.0)
        diags = [transfer(model, t, lam=0.1).fairness_diagnostic for t in fresh.tasks]
        free = train_representation(data, r=3, lam=0.1, constraint="none", seed=5)
        free_diags = [transfer(free, t, lam=0.1).fairness_diagnostic for t in fresh.tasks]
        assert np.mean(diags) <= 0.1 * np.mean(free_diags)

    def test_zero_variance_task_rejected(self):
        rng = np.random.default_rng(11)
        data = synthetic_tasks(rng, T=1, d=3, n=20)
        model = train_representation(data, r=2, lam=0.1, constraint="none", seed=0)
        flat = Task(np.repeat([0.0, 1.0], 5), np.ones((10, 3)), np.zeros(10))
        with pytest.raises(MtlError, match="variance"):
            transfer(model, flat, lam=0.1)


def common_mean_task(rng, n=200, d=4, k=2, group_shift=1.0):
    s = rng.integers(0, k, size=n).astype(float)
    X = rng.normal(size=(n, d))
    X[:, 0] += group_shift * s
    # recenter the logit per group so both classes appear in every group
    logits = X[:, 0] - group_shift * s - 0.3 * s
    y = np.where(logits + 0.5 * rng.standard_normal(n) > 0, 1.0, -1.0)
    for code in range(k):
        for sign in (1.0, -1.0):
            if not (((s == code) & (y == sign)).any()):
                return common_mean_task(rng, n, d, k, group_shift)
    return Task(s, X, y)


class TestCommonMean:
    def test_single_group_reduces_to_plain_erm(self):
        # with one group, theta=0, and no constraints the optimal split of
        # w = w0 + v under lam*||w0||^2 + (1-lam)*||v||^2 costs
        # lam*(1-lam)*||w||^2, so the group weight solves plain ridge
        rng = np.random.default_rng(12)
        task = common_mean_task(rng, k=1)
        theta, lam, rho = 0.0, 0.5, 1.3
        model = train_common_mean(task, theta=theta, lam=lam, rho=rho, constraint_classes=())
        assert model.constraint_residuals == ()
        X, y = task.features, task.outcome
        n = X.shape[0]
        lam_eff = rho * lam * (1.0 - lam)
        ridge = np.linalg.solve(X.T @ X / n + lam_eff * np.eye(X.shape[1]), X.T @ y / n)
        np.testing.assert_allclose(model.group_weights(0.0), ridge, atol=1e-8)

    def test_constraint_residuals_tiny(self):
        rng = np.random.default_rng(13)
        task = common_mean_task(rng, n=300, k=3)
        model = train_common_mean(task, theta=0.5, lam=0.5, rho=0.7)
        assert max(model.constraint_residuals) <= 1e-8

    def test_deviations_shrink_along_rho_at_lam_zero(self):
        rng = np.random.default_rng(14)
        task = common_mean_task(rng, n=250)
        norms = []
        for rho in (0.1, 1.0, 10.0, 100.0, 1000.0):
            model = train_common_mean(task, theta=0.5, lam=0.0, rho=rho, constraint_classes=())
            norms.append(max(np.linalg.norm(v) for v in model.deviations.values()))
        assert all(a >= b - 1e-9 for a, b in zip(norms, norms[1:]))
        assert norms[-1] <= 1e-2 * norms[0]

    def test_constraints_cost_objective(self):
        rng = np.random.default_rng(15)
        task = common_mean_task(rng, n=300)
        constrained = train_common_mean(task, theta=0.5, lam=0.5, rho=1.0)
        free = train_common_mean(task, theta=0.5, lam=0.5, rho=1.0, constraint_classes=())
        def objective(model):
            return common_mean_objective(
                task.features, task.outcome, task.sensitive, model.classes,
                model.shared, model.deviations, 0.5, 0.5, 1.0,
            )
        assert objective(free) <= objective(constrained) + 1e-9

    def test_predicted_sensitive_mode(self):
        rng = np.random.default_rng(16)
        task = common_mean_task(rng, n=400, group_shift=4.0)  # separable groups
        model = train_common_mean(task, theta=0.5, lam=0.5, rho=1.0, use_predicted_sensitive=True)
        assert model.predictor is not None
        assert model.predictor.holdout_accuracy >= 0.9
        preds = model.predict(task.features, model.predictor.predict(task.features))
        assert preds.shape == (task.n,)

    def test_linear_loss_mode(self):
        rng = np.random.default_rng(17)
        task = common_mean_task(rng, n=200)
        model = train_common_mean(task, theta=0.5, lam=0.5, rho=2.0, loss="linear")
        assert max(model.constraint_residuals) <= 1e-8

    @pytest.mark.parametrize("theta, lam, duplicate", [(1.0, 1.0, False), (0.5, 0.0, True)],
                             ids=["theta1-lam1", "lam0-duplicated-column"])
    def test_matches_kkt_oracle_where_the_objective_is_flat(self, theta, lam, duplicate):
        # theta = lam = 1 leaves every deviation out of the objective; lam = 0
        # with a duplicated column leaves w0 free along their difference: the
        # fit is the least-norm minimizer, as the KKT least-squares solution
        rng = np.random.default_rng(19)
        task = common_mean_task(rng, n=300, k=3)
        if duplicate:
            task = Task(task.sensitive, np.column_stack([task.features, task.features[:, 1]]), task.outcome)
        model = train_common_mean(task, theta=theta, lam=lam, rho=0.8)
        w0, devs = reference_common_mean(task.features, task.outcome, task.sensitive, theta, lam, 0.8)
        np.testing.assert_allclose(model.shared, w0, atol=1e-10)
        for code in model.classes:
            np.testing.assert_allclose(model.deviations[code], devs[code], atol=1e-10)
        assert max(model.constraint_residuals) <= 1e-12
        if duplicate:
            assert model.shared[1] == pytest.approx(model.shared[-1], abs=1e-12)

    def test_predict_rejects_unknown_group_labels(self):
        rng = np.random.default_rng(20)
        task = common_mean_task(rng, n=200)
        model = train_common_mean(task)
        np.testing.assert_allclose(
            model.predict(task.features[:2], [1.0, 0.0]),
            [task.features[0] @ model.group_weights(1.0), task.features[1] @ model.group_weights(0.0)],
            rtol=1e-14, atol=1e-12)
        with pytest.raises(MtlError, match=r"group labels \[2\.0, 7\.0\] are not among"):
            model.predict(task.features[:3], [0.0, 2.0, 7.0])

    def test_empty_constraint_cell_rejected(self):
        task = Task(
            np.array([0.0, 0.0, 1.0, 1.0]),
            np.arange(8.0).reshape(4, 2),
            np.array([1.0, 1.0, 1.0, -1.0]),
        )
        with pytest.raises(MtlError, match="no records"):
            train_common_mean(task, constraint_classes=("-",))


class TestSensitivePredictor:
    def test_separable_groups(self):
        rng = np.random.default_rng(18)
        s = rng.integers(0, 2, size=1000).astype(float)
        X = rng.normal(size=(1000, 3)) + np.outer(s, [5.0, 0.0, 0.0])
        predictor = train_sensitive_predictor(Task(s, X, np.zeros(1000)), lam=1.0, seed=0)
        assert predictor.holdout_accuracy >= 0.95

    def test_independent_features_near_majority(self):
        rng = np.random.default_rng(19)
        s = (rng.random(1000) < 0.7).astype(float)
        X = rng.normal(size=(1000, 3))
        predictor = train_sensitive_predictor(Task(s, X, np.zeros(1000)), lam=1.0, seed=0)
        majority = max(s.mean(), 1 - s.mean())
        assert abs(predictor.holdout_accuracy - majority) <= 0.08

    def test_constant_features_exact_majority(self):
        rng = np.random.default_rng(20)
        s = (rng.random(400) < 0.65).astype(float)
        X = np.ones((400, 2))
        predictor = train_sensitive_predictor(Task(s, X, np.zeros(400)), lam=1.0, seed=1)
        holdout = np.random.default_rng(1).permutation(400)[:100]
        majority_label = 1.0 if s.mean() > 0.5 else 0.0
        expected = float(np.mean(s[holdout] == majority_label))
        assert predictor.holdout_accuracy == pytest.approx(expected)

    def test_single_group_rejected(self):
        with pytest.raises(MtlError):
            train_sensitive_predictor(Task(np.zeros(10), np.ones((10, 2)), np.zeros(10)))
