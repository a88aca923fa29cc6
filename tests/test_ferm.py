import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fairkit import ferm
from fairkit.dataset import DiscretizationGrid, dataset_from_columns, make_grid
from fairkit.ferm import (
    FairERMProblem,
    FermError,
    KernelModel,
    KernelSpec,
    SolverError,
    binary_positive_constraint,
    build_constraints,
    design_matrix,
    fair_linear_transform,
    kernel_matrix,
    train_ferm_binary,
    train_gferm,
)
from fairkit.ferm import (  # white-box solver checks
    _minimize_on,
    _null_basis,
    _Objective,
    _qp_l1,
    _solve_constrained,
    _solve_kernel_squared,
)
from fairkit.metrics import ScoreSet, loss_general_fairness_gap

from oracles import (
    dense_constraint_matrix,
    dense_weight_grid_search,
    reference_constrained_erm,
    reference_equality_qp,
    reference_kernel_null_space,
    reference_qp_l1,
    two_matrix_rbf_kernel,
)


def classification_dataset(rng, n=80, d=4, shift=1.5):
    """Binary task with a planted group shift in the last feature."""
    s = rng.integers(0, 2, size=n).astype(float)
    y = np.where(rng.random(n) < 0.35 + 0.3 * s, 1.0, -1.0)
    X = rng.normal(size=(n, d))
    X[:, 0] += y  # signal
    X[:, -1] += shift * s  # group-revealing direction
    cols = {"s": s, "y": y}
    roles = {"s": "sensitive", "y": "outcome"}
    for j in range(d):
        cols[f"x{j}"] = X[:, j]
        roles[f"x{j}"] = "feature"
    data = dataset_from_columns(cols, roles, outcome_kind="classification")
    # make sure every (k, q) cell is populated
    assert build_constraints(data, make_grid(data, 2, 2)).n_constraints == 2
    return data


def benchmark_classification(seed, n=20_000):
    """The classification table of the benchmark's fair_train workload.

    Group 1 is shifted along four of the five features, so the two per-bin
    constraint columns are nearly parallel.
    """
    rng = np.random.default_rng([seed, 2])
    s = (rng.random(n) < 0.4).astype(int)
    X = rng.standard_normal((n, 5)) + s[:, None] * np.array([0.8, -0.5, 0.3, 0.0, 0.6])
    w = rng.uniform(-1.0, 1.0, 5)
    y = np.where(X @ w + 0.5 * s + 0.5 * rng.standard_normal(n) > 0, 1.0, -1.0)
    cols = {"s": s.astype(float), "y": y, **{f"x{j}": X[:, j] for j in range(5)}}
    roles = {"s": "sensitive", "y": "outcome", **{f"x{j}": "feature" for j in range(5)}}
    return dataset_from_columns(cols, roles, outcome_kind="classification")


def squared_value(X, y, lam, w):
    return float(np.sum((X @ w - y) ** 2) + lam * w @ w)


def feasible_reference(X, y, lam, A, epsilon):
    """The SLSQP reference, scaled into the budget it may overshoot slightly."""
    w, _ = reference_constrained_erm(X, y, lam, A, epsilon, loss="squared")
    l1 = np.abs(A.T @ w).sum()
    return w * (epsilon / l1) if l1 > epsilon else w


class TestConstraintConstruction:
    def test_pair_count_two_by_three(self):
        rng = np.random.default_rng(0)
        y = np.repeat([-1.0, 1.0], 30)
        s = np.tile([0.0, 1.0, 2.0], 20)
        data = dataset_from_columns(
            {"s": s, "y": y, "x": rng.normal(size=60)},
            {"s": "sensitive", "y": "outcome", "x": "feature"},
            outcome_kind="classification",
        )
        cs = build_constraints(data, make_grid(data, 2, 3))
        assert cs.n_constraints == 6
        assert not cs.degenerate

    def test_single_group_degenerates(self):
        rng = np.random.default_rng(1)
        data = dataset_from_columns(
            {"s": np.zeros(10), "y": rng.normal(size=10), "x": rng.normal(size=10)},
            {"s": "sensitive", "y": "outcome", "x": "feature"},
        )
        cs = build_constraints(data, make_grid(data, 2, 1))
        assert cs.degenerate and cs.n_constraints == 0

    def test_cell_weights_reproduce_mean_differences(self):
        rng = np.random.default_rng(2)
        data = classification_dataset(rng)
        grid = make_grid(data, 2, 2)
        cs = build_constraints(data, grid)
        X = data.features
        A = cs.mean_differences(X)
        y, s = data.outcome, data.sensitive
        for j, (k, p, q) in enumerate(cs.pairs):
            y_mask = (y > 0) if k == 1 else (y < 0)
            up = X[y_mask & (s == p)].mean(axis=0)
            uq = X[y_mask & (s == q)].mean(axis=0)
            np.testing.assert_allclose(A[:, j], up - uq, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 120),
        k_bins=st.integers(1, 5),
        q_bins=st.integers(1, 5),
        p=st.integers(1, 6),
    )
    def test_mean_differences_match_dense_matrix(self, seed, n, k_bins, q_bins, p):
        # few distinct group values on random edges leave some cells empty; m may exceed p
        rng = np.random.default_rng(seed)
        y = rng.uniform(-1.0, 1.0, n)
        s = rng.integers(0, 4, n).astype(float)
        X = rng.normal(size=(n, p))
        data = dataset_from_columns(
            {"s": s, "y": y, **{f"x{j}": X[:, j] for j in range(p)}},
            {"s": "sensitive", "y": "outcome", **{f"x{j}": "feature" for j in range(p)}},
        )
        y_edges = np.concatenate(([-1.0], np.sort(rng.uniform(-1.0, 1.0, k_bins - 1)), [1.0]))
        s_edges = np.concatenate(([-0.5], np.sort(rng.uniform(-0.5, 3.5, q_bins - 1)), [3.5]))
        cs = build_constraints(data, DiscretizationGrid(y_edges, s_edges))
        C, pairs = dense_constraint_matrix(y, s, y_edges, s_edges)
        assert list(cs.pairs) == pairs
        assert cs.degenerate == (not pairs)
        np.testing.assert_array_equal(cs.cell_weights, np.abs(C).max(axis=1, initial=0.0))
        np.testing.assert_array_equal(cs.matrix(), C)
        np.testing.assert_allclose(cs.mean_differences(X), X.T @ C, rtol=0, atol=1e-12)
        K = X @ X.T
        np.testing.assert_allclose(cs.mean_differences(K), K @ C, rtol=0, atol=1e-12 * np.abs(K).max())

    def test_binary_positive_constraint(self):
        rng = np.random.default_rng(3)
        data = classification_dataset(rng)
        X = data.features
        u = binary_positive_constraint(data).mean_differences(X).ravel()
        y, s = data.outcome, data.sensitive
        direct = X[(y > 0) & (s == 0)].mean(axis=0) - X[(y > 0) & (s == 1)].mean(axis=0)
        np.testing.assert_allclose(u, direct, atol=1e-12)


class TestQpL1:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(1, 4),
        m=st.integers(1, 4),
        near_parallel=st.booleans(),
        budget=st.floats(1e-6, 1.0),
        lam=st.floats(1e-3, 10.0),
    )
    def test_feasible_and_not_above_reference(self, seed, p, m, near_parallel, budget, lam):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(3 * p + 2, p))
        y = rng.normal(size=X.shape[0])
        A = rng.normal(size=(p, m))
        if near_parallel and m > 1:
            A[:, 1] = A[:, 0] + 1e-3 * rng.normal(size=p)
        P, q = X.T @ X + lam * np.eye(p), X.T @ y
        epsilon = budget * np.abs(A.T @ np.linalg.solve(P, q)).sum()
        beta = _qp_l1(P, q, A, epsilon)
        assert np.abs(A.T @ beta).sum() <= epsilon + 1e-9
        ref = squared_value(X, y, lam, feasible_reference(X, y, lam, A, epsilon))
        assert squared_value(X, y, lam, beta) <= ref + 1e-9 * (1.0 + ref)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(2, 4),
        m=st.integers(1, 3),
        flat=st.integers(9, 12),
        epsilon=st.floats(1e-3, 1.0),
    )
    # cancellation in the first step once left the active facets 1e-4 off eps and
    # ended on a vertex 1.8 eps from the origin
    @example(seed=3, p=2, m=3, flat=12, epsilon=1e-3)
    def test_feasible_when_the_unconstrained_minimizer_is_far(self, seed, p, m, flat, epsilon):
        # P = X^T X has one eigenvalue 10**-flat and q = X^T y an O(1) part along its
        # eigenvector, so the unconstrained minimizer lies about 10**flat away
        rng = np.random.default_rng(seed)
        V = np.linalg.qr(rng.normal(size=(p, p)))[0]
        sv = np.sqrt(np.append(10.0 ** -flat, rng.uniform(1.0, 30.0, p - 1)))
        X = sv[:, None] * V.T
        y = rng.normal(size=p) / sv
        A = rng.normal(size=(p, m))
        P, q = X.T @ X, X.T @ y
        beta = _qp_l1(P, q, A, epsilon)
        assert np.abs(A.T @ beta).sum() <= epsilon * (1.0 + 1e-9)
        ref = reference_qp_l1(P, q, A, epsilon)
        value, ref_value = (0.5 * b @ P @ b - q @ b for b in (beta, ref))
        assert value <= ref_value + 1e-9 * (1.0 + abs(ref_value))


def well_separated(values, top):
    """No value between 1e-12 and 1e-6 of ``top``: each is rounding or clearly real."""
    return not np.any((values > 1e-12 * top) & (values < 1e-6 * top))


class TestUnconstrainedAndEquality:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(1, 8),
        rank_cut=st.integers(1, 8),
        m=st.integers(0, 4),
        repeat_column=st.booleans(),
    )
    # the restricted matrix has an eigenvalue of 7.9e-17, above the reduced
    # matrix's own rounding level but below that of P, from which it was formed
    @example(seed=3217869111, p=4, rank_cut=3, m=2, repeat_column=True)
    def test_minimize_on_is_the_least_norm_feasible_minimizer(self, seed, p, rank_cut, m, repeat_column):
        # P = L L^T of rank below p; q = P z + E w keeps the problem bounded on {E^T x = 0}
        rng = np.random.default_rng(seed)
        L = rng.normal(size=(p, max(p - rank_cut, 0)))
        P = L @ L.T
        E = rng.normal(size=(p, m))
        if repeat_column and m:
            E = np.column_stack([E, E[:, :1]])
        q = P @ rng.normal(size=p) + E @ rng.normal(size=E.shape[1])
        # the feasible set and the least-norm point on it are numerically defined
        # where E's singular values and P's curvature on that set part clearly
        # into rounding-level and real ones
        N = _null_basis(E)
        singular = np.linalg.svd(E, compute_uv=False)
        assume(well_separated(singular, np.max(singular, initial=0.0)))
        assume(well_separated(np.linalg.eigvalsh(N.T @ P @ N), np.max(np.diag(P))))
        x = _minimize_on(P, q, N)
        ref = reference_equality_qp(P, q, E)
        scale = 1.0 + np.linalg.norm(ref)
        assert np.linalg.norm(E.T @ x) <= 1e-10 * scale * (1.0 + np.linalg.norm(E))
        np.testing.assert_allclose(x, ref, atol=1e-8 * scale)

    def test_unconstrained_matches_ridge(self):
        rng = np.random.default_rng(5)
        data = classification_dataset(rng)
        grid = make_grid(data, 2, 2)
        model = train_gferm(FairERMProblem(lam=0.7, epsilon=None), data, grid)
        X, y = data.features, data.outcome
        ridge = np.linalg.solve(X.T @ X + 0.7 * np.eye(X.shape[1]), X.T @ y)
        np.testing.assert_allclose(model.coef, ridge, atol=1e-8)

    def test_two_point_kkt_closed_form(self):
        # records (1,0)->+1 and (0,1)->-1, lam=1, constraint <w,(1,1)> = 0:
        # eliminating w2 = -w1 gives 2(w1-1)^2 + 2 w1^2, minimized at 1/2
        data = dataset_from_columns(
            {"s": np.array([0.0, 1.0]), "y": np.array([1.0, -1.0]),
             "x0": np.array([1.0, 0.0]), "x1": np.array([0.0, 1.0])},
            {"s": "sensitive", "y": "outcome", "x0": "feature", "x1": "feature"},
            outcome_kind="classification",
        )
        X, y = data.features, data.outcome
        M = np.array([[1.0], [1.0]])
        beta, _ = _solve_constrained(X, y, np.eye(2), M, "squared", 0.0)
        np.testing.assert_allclose(beta, [0.5, -0.5], atol=1e-10)

    def test_equality_mode_residual(self):
        rng = np.random.default_rng(6)
        data = classification_dataset(rng, n=120)
        grid = make_grid(data, 2, 2)
        model = train_gferm(FairERMProblem(lam=0.5, epsilon=0.0), data, grid)
        assert model.constraint_report["achieved_l1"] <= 1e-8

    def test_representer_consistency(self):
        # the linear-kernel dual route must reproduce primal predictions
        rng = np.random.default_rng(7)
        data = classification_dataset(rng, n=40)
        grid = make_grid(data, 2, 2)
        cs = build_constraints(data, grid)
        X, y = data.features, data.outcome
        lam = 0.3
        w, _ = _solve_constrained(X, y, lam * np.eye(X.shape[1]), cs.mean_differences(X),
                                  "squared", 0.0)
        # K = X X^T has rank 4 of 40
        alpha, _, _ = _solve_kernel_squared(KernelSpec("linear"), X, y, lam, cs, 0.0)
        X_new = rng.normal(size=(15, X.shape[1]))
        np.testing.assert_allclose(X_new @ w, (X_new @ X.T) @ alpha, atol=1e-8)


def kernel_problem(seed, n, d, groups, bins, degenerate=False):
    """Regression records with `groups` sensitive values on `bins` outcome bins.

    Three or more groups in a bin make some of its pairs redundant; one
    sensitive bin (``degenerate``) leaves no pair at all.
    """
    rng = np.random.default_rng(seed)
    y = rng.uniform(-1.0, 1.0, n)
    s = rng.integers(0, groups, n).astype(float)
    X = rng.normal(size=(n, d))
    data = dataset_from_columns(
        {"s": s, "y": y, **{f"x{j}": X[:, j] for j in range(d)}},
        {"s": "sensitive", "y": "outcome", **{f"x{j}": "feature" for j in range(d)}},
    )
    y_edges = np.linspace(-1.0, 1.0, bins + 1)
    s_edges = np.array([-0.5, groups - 0.5]) if degenerate else np.arange(groups + 1) - 0.5
    return data, DiscretizationGrid(y_edges, s_edges), dense_constraint_matrix(y, s, y_edges, s_edges)[0]


class TestKernelSquared:
    """The rbf squared loss at a zero budget, solved on K + lambda I."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 60),
        d=st.integers(1, 4),
        groups=st.integers(2, 4),
        bins=st.integers(1, 3),
        gamma=st.sampled_from([0.05, 0.5, 5.0]),
        lam=st.sampled_from([1e-3, 0.1, 1.0, 10.0]),
        degenerate=st.booleans(),
    )
    def test_feasible_and_not_above_null_space_oracle(self, seed, n, d, groups, bins, gamma, lam,
                                                      degenerate):
        data, grid, C = kernel_problem(seed, n, d, groups, bins, degenerate)
        spec = KernelSpec("rbf", gamma=gamma)
        model = train_gferm(FairERMProblem(lam=lam, epsilon=0.0, kernel=spec), data, grid)
        beta, y = model.dual_coef, data.outcome
        K = kernel_matrix(spec, data.features)
        M = K @ C
        assert model.constraint_report["achieved_l1"] <= 1e-12 * np.abs(M).sum() * np.abs(beta).max()

        def objective(b):
            r = K @ b - y
            return float(r @ r + lam * b @ K @ b)

        def rounding(b):
            # error bound of `objective` in floating point; it matters only
            # where a near-singular K gives b entries far above 1
            f = np.abs(K) @ np.abs(b) + np.abs(y)
            return n * np.finfo(float).eps * float(f @ f + lam * np.abs(b) @ np.abs(K) @ np.abs(b))

        sv = np.linalg.svd(M, compute_uv=False)
        kept = sv[sv > sv[0] * max(M.shape) * np.finfo(float).eps] if sv.size else sv
        if kept.size and kept[-1] < 1e-8 * sv[0]:
            return  # the oracle's null basis is itself uncertain here
        ref_beta = reference_kernel_null_space(K, y, lam, M)
        ref = objective(ref_beta)
        assert objective(beta) <= ref + 1e-9 * abs(ref) + rounding(beta) + rounding(ref_beta)

    def test_dual_coef_determined_under_one_ulp_change(self, monkeypatch):
        # 60 points in 2-D at gamma 0.1: K is singular to working precision,
        # where a solve with K^2 + lambda K left beta free to move by 100%
        rng = np.random.default_rng(5)
        n = 60
        s = rng.integers(0, 2, n).astype(float)
        X = rng.normal(size=(n, 2)) + 0.5 * s[:, None]
        y = np.where(X[:, 0] + 0.3 * rng.normal(size=n) > 0, 1.0, -1.0)
        data = dataset_from_columns(
            {"s": s, "y": y, "x0": X[:, 0], "x1": X[:, 1]},
            {"s": "sensitive", "y": "outcome", "x0": "feature", "x1": "feature"},
            outcome_kind="classification",
        )
        grid = make_grid(data, 2, 2)
        problem = FairERMProblem(lam=1.0, epsilon=0.0, kernel=KernelSpec("rbf", gamma=0.1))
        base = train_gferm(problem, data, grid).dual_coef
        exact = ferm.kernel_matrix
        monkeypatch.setattr(ferm, "kernel_matrix",
                            lambda spec, A, B=None: np.nextafter(exact(spec, A, B), np.inf))
        moved = train_gferm(problem, data, grid).dual_coef
        assert np.linalg.norm(moved - base) < 1e-8 * np.linalg.norm(base)

    def test_unconstrained_is_kernel_ridge(self):
        data, grid, _ = kernel_problem(3, 30, 2, 2, 2, degenerate=True)
        spec = KernelSpec("rbf", gamma=0.5)
        model = train_gferm(FairERMProblem(lam=0.1, epsilon=0.0, kernel=spec), data, grid)
        assert model.constraint_report["degenerate"]
        K = kernel_matrix(spec, data.features)
        np.testing.assert_allclose((K + 0.1 * np.eye(30)) @ model.dual_coef, data.outcome, atol=1e-10)


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes that numpy and Python allocated during the call."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestKernelWorkingSet:
    """The rbf squared path holds K's lower block triangle, factored in place, and blocks of kernel or factor rows."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 400),
        blocks=st.integers(0, 3),
        d=st.integers(1, 5),
        gamma=st.sampled_from([1e-3, 0.1, 2.0]),
        same=st.booleans(),
    )
    @example(seed=0, m=300, blocks=0, d=2, gamma=0.1, same=True)  # blocks of 218 and 82 rows
    def test_kernel_matrix_equals_two_matrix_formula(self, seed, m, blocks, d, gamma, same):
        # X is Z has m rows; otherwise X takes `blocks` full row blocks and a part of one
        step = ferm._KERNEL_BLOCK // m  # rows per block, at least 163 here
        rng = np.random.default_rng(seed)
        n = m if same else blocks * step + int(rng.integers(1, step))
        Z = rng.normal(size=(m, d)) * rng.choice([0.1, 1.0, 30.0])
        Z[rng.integers(0, m, m // 3)] = Z[0]  # repeated rows meet the clamp at 0
        X = Z if same else rng.normal(size=(n, d))
        spec = KernelSpec("rbf", gamma=gamma)
        got = kernel_matrix(spec, X) if same else kernel_matrix(spec, X, Z)
        np.testing.assert_array_equal(got, two_matrix_rbf_kernel(gamma, X, X if same else Z))

    @pytest.mark.parametrize("same", [True, False])
    def test_kernel_matrix_holds_one_matrix_and_a_block(self, same):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(700, 3))
        Z = X if same else rng.normal(size=(450, 3))
        K, peak = traced_peak(kernel_matrix, KernelSpec("rbf", gamma=0.5), X, Z)
        # 2**18 bytes cover the norm vectors and the two 8192-element buffers of numpy's
        # broadcast add
        assert peak <= K.nbytes + 8 * ferm._KERNEL_BLOCK + 2**18

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        block=st.integers(1, 5),
        data=st.data(),
        rhs=st.integers(1, 4),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    @example(seed=0, block=3, data=None, rhs=1, scale=1.0)
    def test_blocked_cholesky_solves_spd_systems(self, seed, block, data, rhs, scale):
        # n below, at and one past the block size, up to three blocks and one column
        n = 3 if data is None else data.draw(st.integers(1, 3 * block + 1), label="n")
        rng = np.random.default_rng(seed)
        G = rng.normal(size=(n, n))
        A = scale * (G @ G.T + 0.1 * n * np.eye(n))
        B = rng.normal(size=(n, rhs))

        def block_rows(S):
            return [S[r0:min(r0 + block, n), :min(r0 + block, n)].copy() for r0 in range(0, n, block)]

        L = block_rows(A)
        ferm._cholesky_rows(L)
        X = ferm._cholesky_rows_solve(L, B)
        scrambled = A.copy()
        upper = np.triu_indices(n, 1)
        scrambled[upper] = rng.normal(size=upper[0].size) * 1e6
        scrambled = block_rows(scrambled)
        ferm._cholesky_rows(scrambled)
        for got, want in zip(scrambled, L, strict=True):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(ferm._cholesky_rows_solve(scrambled, B), X)
        np.testing.assert_allclose(ferm._cholesky_rows_solve(L, B[:, 0]), X[:, 0],
                                   rtol=1e-12, atol=1e-12 * np.abs(X).max())
        eps = np.finfo(float).eps
        assert np.linalg.norm(A @ X - B) <= 10 * n * eps * np.linalg.norm(A) * np.linalg.norm(X)
        np.testing.assert_allclose(X, np.linalg.solve(A, B), rtol=1e-9, atol=1e-9 * np.abs(X).max())

    @pytest.mark.parametrize("epsilon", [0.0, None])
    def test_linalg_operands_and_peak_within_k_and_blocks(self, monkeypatch, epsilon):
        n, block = 600, 16
        data, grid, _ = kernel_problem(9, n, 3, 2, 2, degenerate=epsilon is None)
        monkeypatch.setattr(ferm, "_SOLVE_BLOCK", block)
        monkeypatch.setattr(ferm, "_KERNEL_BLOCK", 1 << 12)
        largest = {}

        def recorded(name, fn):
            def call(*args, **kwargs):
                size = max([np.size(a) for a in args if isinstance(a, np.ndarray)], default=0)
                largest[name] = max(largest.get(name, 0), size)
                return fn(*args, **kwargs)
            return call

        for name in ("cholesky", "solve", "lstsq", "eigh", "svd", "qr", "inv", "pinv"):
            monkeypatch.setattr(np.linalg, name, recorded(name, getattr(np.linalg, name)))
        problem = FairERMProblem(lam=0.1, epsilon=0.0, kernel=KernelSpec("rbf", gamma=0.5))
        model, peak = traced_peak(train_gferm, problem, data, grid)
        assert {"cholesky", "solve"} <= largest.keys()
        assert max(largest.values()) <= block * n
        # K's lower block triangle, a few blocks of kernel or factor rows,
        # kernel_matrix's norm-sum block and O(n) vectors: below one K
        assert peak <= 8 * (n * (n + block) // 2 + 4 * block * n + ferm._KERNEL_BLOCK) + 2**16
        K = kernel_matrix(problem.kernel, data.features)
        beta, y = model.dual_coef, data.outcome
        f = K @ beta
        assert model.objective_value == pytest.approx(float(np.sum((f - y) ** 2) + 0.1 * beta @ f), rel=1e-12)
        if epsilon is None:
            np.testing.assert_allclose((K + 0.1 * np.eye(n)) @ beta, y, atol=1e-8)
        else:
            M = build_constraints(data, grid).mean_differences(K)
            assert np.abs(M.T @ beta).sum() <= 1e-10 * np.abs(M).sum() * np.abs(beta).max()

    @pytest.mark.parametrize("epsilon", [0.0, None])
    def test_non_positive_definite_shift_raises(self, monkeypatch, epsilon):
        data, grid, _ = kernel_problem(10, 20, 2, 2, 2)
        cs = build_constraints(data, grid)
        Z, exact = data.features, ferm.kernel_matrix

        def indefinite(spec, X, W=None):
            K = exact(spec, X, W)
            K[(X == Z[3]).all(axis=1), 3] = -0.5  # the pivot of row 3 of K + 0.5 I is at most 0
            return K

        monkeypatch.setattr(ferm, "kernel_matrix", indefinite)
        monkeypatch.setattr(ferm, "_SOLVE_BLOCK", 2)  # row 3 is in the second block row
        message = r"^K \+ lambda I is not positive definite \(a pivot in rows 2 to 3 .*--lambda"
        with pytest.raises(SolverError, match=message):
            _solve_kernel_squared(KernelSpec("rbf", gamma=0.5), Z, data.outcome, 0.5, cs, epsilon)

    def test_newton_copies_no_absolute_value_of_a_non_negative_kernel(self):
        n = 300
        data = classification_dataset(np.random.default_rng(3), n=n, d=3)
        problem = FairERMProblem(loss="logistic", lam=0.1, epsilon=0.05, kernel=KernelSpec("rbf", gamma=0.5))
        model, peak = traced_peak(train_gferm, problem, data, make_grid(data, 2, 2))
        assert model.solver["iterations"] > 0
        # K and lam K, the Hessian, and eigh's copy of it, its eigenvectors and the
        # whitened basis: six n x n matrices, where copies of |K| and |lam K| make eight
        assert peak <= 7 * 8 * n * n

    def test_decision_function_holds_a_block_of_kernel_rows(self):
        rng = np.random.default_rng(12)
        Z, new = rng.normal(size=(300, 3)), rng.normal(size=(3000, 3))
        spec = KernelSpec("rbf", gamma=0.5)
        model = KernelModel(spec, False, None, rng.normal(size=300), Z, {}, 0.0)
        scores, peak = traced_peak(model.decision_function, new)
        want = kernel_matrix(spec, new, Z) @ model.dual_coef
        np.testing.assert_allclose(scores, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        # the scores, two blocks of kernel rows and kernel_matrix's norm-sum block,
        # against 7.2 MB for the 3000 x 300 kernel
        assert peak <= 8 * (3000 + 2 * ferm._SOLVE_BLOCK * 300 + ferm._KERNEL_BLOCK) + 2**16


class TestBudgetedSolver:
    @pytest.mark.parametrize("epsilon", [0.05, 0.2, 0.6])
    def test_squared_loss_matches_reference(self, epsilon):
        rng = np.random.default_rng(8)
        data = classification_dataset(rng, n=60)
        grid = make_grid(data, 2, 2)
        model = train_gferm(FairERMProblem(lam=0.4, epsilon=epsilon), data, grid)
        assert model.constraint_report["achieved_l1"] <= epsilon + 1e-6
        cs = build_constraints(data, grid)
        X, y = data.features, data.outcome
        A = cs.mean_differences(X)
        _, ref_obj = reference_constrained_erm(X, y, 0.4, A, epsilon, loss="squared")
        assert model.objective_value <= ref_obj * (1 + 1e-6) + 1e-9

    def test_hinge_loss_feasible_and_near_reference(self):
        rng = np.random.default_rng(9)
        data = classification_dataset(rng, n=50)
        grid = make_grid(data, 2, 2)
        model = train_gferm(
            FairERMProblem(loss="hinge", lam=0.5, epsilon=0.1), data, grid, max_iter=20_000
        )
        assert model.constraint_report["achieved_l1"] <= 0.1 + 1e-6
        cs = build_constraints(data, grid)
        X, y = data.features, data.outcome
        A = cs.mean_differences(X)
        _, ref_obj = reference_constrained_erm(X, y, 0.5, A, 0.1, loss="hinge")
        assert model.objective_value <= ref_obj + 1e-3 * (1 + abs(ref_obj))

    def test_logistic_loss_runs_and_is_feasible(self):
        rng = np.random.default_rng(10)
        data = classification_dataset(rng, n=50)
        grid = make_grid(data, 2, 2)
        model = train_gferm(
            FairERMProblem(loss="logistic", lam=0.5, epsilon=0.1), data, grid, max_iter=5000
        )
        assert model.constraint_report["achieved_l1"] <= 0.1 + 1e-6

    def test_wide_grid_more_constraints_than_features(self):
        # a 10 x 10 grid over 4 features: 450 constraint columns, m > p
        rng = np.random.default_rng(0)
        n = 2000
        s = rng.standard_normal(n)
        X = rng.standard_normal((n, 4)) + s[:, None] * np.array([0.4, -0.3, 0.2, 0.0])
        y = X @ rng.uniform(-1.0, 1.0, 4) + 0.3 * s + rng.standard_normal(n)
        data = dataset_from_columns(
            {"s": s, "y": y, **{f"x{j}": X[:, j] for j in range(4)}},
            {"s": "sensitive", "y": "outcome", **{f"x{j}": "feature" for j in range(4)}},
        )
        grid = make_grid(data, 10, 10)
        A = build_constraints(data, grid).mean_differences(X)
        assert A.shape == (4, 450)
        # the 450 equalities leave only beta = 0 at a zero budget
        previous = train_gferm(FairERMProblem(lam=1.0, epsilon=0.0), data, grid).objective_value
        for epsilon in (0.05, 0.5, 5.0):
            model = train_gferm(FairERMProblem(lam=1.0, epsilon=epsilon), data, grid)
            assert model.constraint_report["achieved_l1"] <= epsilon + 1e-9
            assert model.objective_value <= previous
            previous = model.objective_value
        ref = squared_value(X, y, 1.0, feasible_reference(X, y, 1.0, A, 5.0))
        assert model.objective_value <= ref + 1e-9 * ref

    def test_benchmark_geometry_not_above_feasible_points(self):
        data = benchmark_classification(137)
        grid = make_grid(data, 2, 2)
        X, y = data.features, data.outcome
        A = build_constraints(data, grid).mean_differences(X)
        cosine = A[:, 0] @ A[:, 1] / np.linalg.norm(A, axis=0).prod()
        assert abs(cosine) > 0.99
        sq0 = train_gferm(FairERMProblem(lam=1.0, epsilon=0.0), data, grid).coef
        for loss in ("hinge", "logistic"):
            model = train_gferm(FairERMProblem(loss=loss, lam=1.0, epsilon=0.05), data, grid)
            assert model.constraint_report["achieved_l1"] <= 0.05 + 1e-9
            obj = _Objective(X, y, np.eye(X.shape[1]), loss)
            assert model.objective_value <= obj.value(np.zeros(X.shape[1]))
            assert model.objective_value <= obj.value(sq0)

    @pytest.mark.parametrize("loss", ["hinge", "logistic"])
    def test_newton_step_cap_raises(self, loss):
        rng = np.random.default_rng(10)
        data = classification_dataset(rng, n=50)
        grid = make_grid(data, 2, 2)
        with pytest.raises(SolverError, match="did not converge within max_iter=1"):
            train_gferm(FairERMProblem(loss=loss, lam=0.5, epsilon=0.1), data, grid, max_iter=1)

    @pytest.mark.parametrize("epsilon", [0.1, 0.0, None])
    def test_vanishing_ridge_hinge_reaches_reference(self, epsilon):
        # no record inside the finer smoothing bands: the Newton model is
        # flat but for the 1e-300 ridge, and its curvature is floored
        rng = np.random.default_rng(9)
        data = classification_dataset(rng, n=50)
        grid = make_grid(data, 2, 2)
        model = train_gferm(FairERMProblem(loss="hinge", lam=1e-300, epsilon=epsilon), data, grid)
        assert np.all(np.isfinite(model.coef))
        X, y = data.features, data.outcome
        A = build_constraints(data, grid).mean_differences(X) if epsilon is not None else None
        _, ref_obj = reference_constrained_erm(X, y, 1e-300, A, epsilon, loss="hinge")
        # the smoothed hinge lies at most n * 1e-6 / 2 below the hinge
        assert model.objective_value <= ref_obj + 50 * 1e-6 / 2 + 1e-9 * ref_obj

    def test_solver_trace(self):
        rng = np.random.default_rng(10)
        data = classification_dataset(rng, n=50)
        grid = make_grid(data, 2, 2)
        for epsilon in (0.0, 0.1, None):
            model = train_gferm(FairERMProblem(lam=0.5, epsilon=epsilon), data, grid)
            assert model.solver == {"iterations": 0, "stop_reason": "closed_form"}
            for loss in ("hinge", "logistic"):
                problem = FairERMProblem(loss=loss, lam=0.5, epsilon=epsilon)
                model = train_gferm(problem, data, grid)
                assert model.solver["stop_reason"] == "converged"
                assert 0 < model.solver["iterations"] <= 200
                assert train_gferm(problem, data, grid).solver == model.solver

    def test_risk_non_increasing_in_budget(self):
        rng = np.random.default_rng(11)
        data = classification_dataset(rng, n=60)
        grid = make_grid(data, 2, 2)
        X, y = data.features, data.outcome
        risks = []
        for eps in (0.0, 0.05, 0.2, 0.5, None):
            model = train_gferm(FairERMProblem(lam=0.4, epsilon=eps), data, grid)
            r = X @ model.coef - y
            risks.append(float(r @ r))
        assert all(a >= b - 1e-7 for a, b in zip(risks, risks[1:]))

    def test_stored_objective_reproducible(self):
        rng = np.random.default_rng(22)
        data = classification_dataset(rng, n=50)
        grid = make_grid(data, 2, 2)
        for spec in (KernelSpec(), KernelSpec("rbf", gamma=0.3)):
            model = train_gferm(FairERMProblem(lam=0.4, epsilon=0.1, kernel=spec), data, grid)
            f = model.predict_dataset(data)
            data_term = float(np.sum((f - data.outcome) ** 2))
            if spec.kind == "linear":
                reg = 0.4 * float(model.coef @ model.coef)
            else:
                K = kernel_matrix(spec, model.training_inputs)
                reg = 0.4 * float(model.dual_coef @ K @ model.dual_coef)
            assert data_term + reg == pytest.approx(model.objective_value, rel=1e-9)

    def test_rbf_kernel_feasibility(self):
        rng = np.random.default_rng(12)
        data = classification_dataset(rng, n=40)
        grid = make_grid(data, 2, 2)
        model = train_gferm(
            FairERMProblem(lam=0.5, epsilon=0.0, kernel=KernelSpec("rbf", gamma=0.5)),
            data,
            grid,
        )
        assert model.constraint_report["achieved_l1"] <= 1e-8
        preds = model.predict_dataset(data)
        assert preds.shape == (40,)

    def test_convexity_witness(self):
        rng = np.random.default_rng(13)
        data = classification_dataset(rng, n=30)
        X, y = data.features, data.outcome
        for loss in ("squared", "hinge", "logistic"):
            obj = _Objective(X, y, 0.5 * np.eye(X.shape[1]), loss)
            for _ in range(20):
                w1 = rng.normal(size=X.shape[1])
                w2 = rng.normal(size=X.shape[1])
                mid = obj.value((w1 + w2) / 2)
                assert mid <= (obj.value(w1) + obj.value(w2)) / 2 + 1e-9


class TestLinearFairTransform:
    def test_zero_component_case(self):
        transformed, fmap = fair_linear_transform(np.array([[3.0, 5.0]]), np.array([0.0, 2.0]))
        assert fmap.pivot == 1
        np.testing.assert_allclose(transformed, [[3.0]])

    def test_tie_breaks_to_lowest_index(self):
        transformed, fmap = fair_linear_transform(np.array([[2.0, 4.0]]), np.array([1.0, 1.0]))
        assert fmap.pivot == 0
        np.testing.assert_allclose(transformed, [[2.0]])

    def test_transformed_group_means_agree(self):
        rng = np.random.default_rng(14)
        data = classification_dataset(rng, n=100)
        X, y, s = data.features, data.outcome, data.sensitive
        u = X[(y > 0) & (s == 0)].mean(axis=0) - X[(y > 0) & (s == 1)].mean(axis=0)
        transformed, _ = fair_linear_transform(X, u)
        m0 = transformed[(y > 0) & (s == 0)].mean(axis=0)
        m1 = transformed[(y > 0) & (s == 1)].mean(axis=0)
        np.testing.assert_allclose(m0 - m1, 0.0, atol=1e-12)

    def test_zero_vector_identity(self):
        X = np.arange(6.0).reshape(2, 3)
        transformed, fmap = fair_linear_transform(X, np.zeros(3))
        assert fmap.identity
        np.testing.assert_array_equal(transformed, X)


class TestBinaryTraining:
    def test_symmetric_groups_already_fair(self):
        rng = np.random.default_rng(15)
        X0 = rng.normal(size=(30, 3))
        y0 = np.sign(X0[:, 0] + 1e-9)
        data = dataset_from_columns(
            {"s": np.repeat([0.0, 1.0], 30), "y": np.concatenate([y0, y0]),
             **{f"x{j}": np.concatenate([X0[:, j], X0[:, j]]) for j in range(3)}},
            {"s": "sensitive", "y": "outcome", **{f"x{j}": "feature" for j in range(3)}},
            outcome_kind="classification",
        )
        unconstrained = train_ferm_binary(data, lam=0.5, epsilon=None)
        assert abs(unconstrained.constraint_report["constraint_values"][0]) <= 1e-10

    def test_epsilon_zero_matches_transform_pipeline_at_small_lam(self):
        rng = np.random.default_rng(16)
        data = classification_dataset(rng, n=200, d=5)
        lam = 1e-8
        model = train_ferm_binary(data, lam=lam, epsilon=0.0)
        X, y, s = data.features, data.outcome, data.sensitive
        u = X[(y > 0) & (s == 0)].mean(axis=0) - X[(y > 0) & (s == 1)].mean(axis=0)
        transformed, fmap = fair_linear_transform(X, u)
        w_t = np.linalg.solve(
            transformed.T @ transformed + lam * np.eye(transformed.shape[1]),
            transformed.T @ y,
        )
        X_new = rng.normal(size=(50, 5))
        np.testing.assert_allclose(
            X_new @ model.coef, fmap.apply(X_new) @ w_t, atol=1e-6
        )

    def test_small_instance_against_grid_search(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(8, 2))
        y = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0])
        s = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0])
        data = dataset_from_columns(
            {"s": s, "y": y, "x0": X[:, 0], "x1": X[:, 1]},
            {"s": "sensitive", "y": "outcome", "x0": "feature", "x1": "feature"},
            outcome_kind="classification",
        )
        epsilon = 0.1
        model = train_ferm_binary(data, lam=1.0, epsilon=epsilon)
        u = binary_positive_constraint(data).mean_differences(X).ravel()
        unconstrained = train_ferm_binary(data, lam=1.0, epsilon=None)
        assert model.objective_value >= unconstrained.objective_value - 1e-9
        _, grid_obj = dense_weight_grid_search(X, y, 1.0, u, epsilon)
        assert model.objective_value <= grid_obj + 1e-3

    def test_group_without_positives(self):
        data = dataset_from_columns(
            {"s": np.array([0.0, 0.0, 1.0, 1.0]), "y": np.array([1.0, -1.0, -1.0, -1.0]),
             "x0": np.array([0.1, 0.2, 0.3, 0.4])},
            {"s": "sensitive", "y": "outcome", "x0": "feature"},
            outcome_kind="classification",
        )
        with pytest.raises(FermError, match="positive"):
            train_ferm_binary(data, lam=1.0, epsilon=0.0)


class TestSurrogateGap:
    def test_constrained_model_shrinks_gap_components(self):
        rng = np.random.default_rng(20)
        data = classification_dataset(rng, n=150)
        grid = make_grid(data, 2, 2)
        fair = train_gferm(FairERMProblem(lam=0.5, epsilon=0.0), data, grid)
        scores = ScoreSet(fair.predict_dataset(data), data.sensitive, data.outcome)
        linear = loss_general_fairness_gap(scores, grid, loss="linear")
        assert linear.value <= 1e-8  # the linear-loss gaps are constrained away


class TestValidation:
    def test_bad_loss(self):
        with pytest.raises(FermError):
            FairERMProblem(loss="cubic")

    def test_bad_lambda(self):
        with pytest.raises(FermError):
            FairERMProblem(lam=0.0)

    def test_rbf_needs_gamma(self):
        with pytest.raises(FermError):
            KernelSpec("rbf")

    @pytest.mark.parametrize("build", [
        lambda: FairERMProblem(lam=float("nan")),
        lambda: FairERMProblem(lam=float("inf")),
        lambda: FairERMProblem(epsilon=float("nan")),
        lambda: FairERMProblem(epsilon=float("inf")),
        lambda: KernelSpec(gamma=float("nan")),
        lambda: KernelSpec("rbf", gamma=float("inf")),
    ])
    def test_non_finite_value_rejected(self, build):
        with pytest.raises(FermError, match="finite"):
            build()

    @pytest.mark.parametrize("lam", [0.0, -1.0, float("nan")])
    def test_binary_training_validates_lambda(self, lam):
        data = classification_dataset(np.random.default_rng(22))
        with pytest.raises(FermError, match="lam must be finite and > 0"):
            train_ferm_binary(data, lam=lam)

    def test_kernel_matrix_linear(self):
        X = np.array([[1.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(kernel_matrix(KernelSpec(), X), X @ X.T)

    def test_design_matrix_sensitive_prefix(self):
        rng = np.random.default_rng(21)
        data = classification_dataset(rng, n=10)
        Z = design_matrix(data, include_sensitive=True)
        np.testing.assert_array_equal(Z[:, 0], data.sensitive)
