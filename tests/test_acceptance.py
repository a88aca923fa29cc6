"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them).  Tolerances are fixed here and
nowhere else."""

import csv
import json
import time

import numpy as np


from fairkit.causal import (
    PathSelection,
    abduct,
    path_specific_effect,
    path_specific_effect_mc,
    reconstruct,
    scenario,
    simulate,
)
from fairkit.cli import main
from fairkit.dataset import dataset_from_columns, make_grid
from fairkit.ferm import (
    FairERMProblem,
    build_constraints,
    fair_linear_transform,
    train_ferm_binary,
    train_gferm,
)
from fairkit.metrics import ScoreSet, equalized_odds_gaps, general_fairness_gap, loss_general_fairness_gap
from fairkit.multitask import MultiTaskDataset, Task, train_representation, transfer
from fairkit.transport import (
    EmpiricalDistribution,
    expected_prediction_changes,
    geodesic_repair,
    wasserstein,
)


def report(name: str, ok: bool, detail: str):
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def two_group_scores(seed: int, n: int = 2000):
    rng = np.random.default_rng(seed)
    a = np.clip(rng.normal(0.35, 0.10, n), 0.0, 1.0)
    b = np.clip(rng.normal(0.62, 0.14, n), 0.0, 1.0)
    values = np.concatenate([a, b])
    groups = np.repeat(["a", "b"], n)
    return values, groups


def test_ac01_full_repair_equalizes_groups(tmp_path):
    bins = 100
    values, groups = two_group_scores(seed=0)
    scores_csv = tmp_path / "scores.csv"
    with open(scores_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "group", "score"])
        for i, (g, v) in enumerate(zip(groups, values)):
            writer.writerow([i, g, repr(float(v))])
    out_csv = tmp_path / "repaired.csv"
    start = time.perf_counter()
    code = main([
        "repair", "--input", str(scores_csv), "--t", "1.0", "--bins", str(bins),
        "--scores-output", str(out_csv), "--output", str(tmp_path / "r.json"),
    ])
    elapsed = time.perf_counter() - start
    assert code == 0
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    repaired = np.array([float(r["repaired_score"]) for r in rows])
    out_groups = np.array([r["group"] for r in rows])
    dists = {
        g: EmpiricalDistribution.from_samples(repaired[out_groups == g], bins=bins)
        for g in ("a", "b")
    }
    gap = wasserstein(dists["a"], dists["b"], order=1)
    report(
        "AC1",
        gap <= 2.0 / bins and elapsed < 1.0,
        f"max pairwise W1 after t=1 repair = {gap:.6f} (<= {2.0 / bins}), runtime {elapsed:.3f}s",
    )


def test_ac02_prediction_change_oracle():
    bins = 100
    worst = 0.0
    for seed in range(20):
        values, groups = two_group_scores(seed=seed)
        _, plan = geodesic_repair(values, groups, t=1.0, bins=bins, order=2)
        bary = plan.barycenter_distribution()
        for g in ("a", "b"):
            source = EmpiricalDistribution.from_samples(values[groups == g], bins=bins)
            changes = expected_prediction_changes(source, lambda x: plan.map_scores(g, x))
            w1 = wasserstein(source, bary, order=1)
            worst = max(worst, abs(changes - w1))
    report(
        "AC2",
        worst <= 2.0 / bins,
        f"|expected prediction changes - W1| <= {worst:.6f} over 20 seeds (tol {2.0 / bins})",
    )


def test_ac03_geodesic_scaling():
    bins = 100
    values, groups = two_group_scores(seed=1)
    _, plan0 = geodesic_repair(values, groups, t=0.0, bins=bins, order=2)
    bary = plan0.barycenter_distribution()
    base = {
        g: wasserstein(EmpiricalDistribution.from_samples(values[groups == g], bins=bins), bary, 2)
        for g in ("a", "b")
    }
    worst = 0.0
    for t in (0.25, 0.5, 0.75):
        repaired, _ = geodesic_repair(values, groups, t=t, bins=bins, order=2)
        for g in ("a", "b"):
            after = EmpiricalDistribution.from_samples(repaired[groups == g], bins=bins)
            ratio = wasserstein(after, bary, 2) / base[g]
            worst = max(worst, abs(ratio - (1 - t) ** 2))
    report("AC3", worst <= 0.05, f"max |W2 ratio - (1-t)^2| = {worst:.6f} (tol 0.05)")


def binary_task(rng, n, d=5):
    s = (rng.random(n) < 0.5).astype(float)
    y = np.where(rng.random(n) < 0.3 + 0.4 * s, 1.0, -1.0)
    X = rng.normal(size=(n, d))
    X[:, 0] += y
    X[:, 1] += 1.5 * s
    cols = {"s": s, "y": y}
    roles = {"s": "sensitive", "y": "outcome"}
    for j in range(d):
        cols[f"x{j}"] = X[:, j]
        roles[f"x{j}"] = "feature"
    return dataset_from_columns(cols, roles, outcome_kind="classification")


def test_ac04_transform_equivalence():
    rng = np.random.default_rng(2)
    data = binary_task(rng, n=500, d=5)
    lam = 1e-8  # the change-of-representation equivalence is exact as the
    # ridge penalty vanishes; at this scale the residual metric mismatch
    # between raw and transformed coordinates is far below tolerance
    model = train_ferm_binary(data, loss="squared", lam=lam, epsilon=0.0)
    X, y, s = data.features, data.outcome, data.sensitive
    u = X[(y > 0) & (s == 0)].mean(axis=0) - X[(y > 0) & (s == 1)].mean(axis=0)
    transformed, fmap = fair_linear_transform(X, u)
    w_t = np.linalg.solve(
        transformed.T @ transformed + lam * np.eye(transformed.shape[1]),
        transformed.T @ y,
    )
    holdout = np.random.default_rng(3).normal(size=(100, 5))
    gap = float(np.max(np.abs(holdout @ model.coef - fmap.apply(holdout) @ w_t)))
    u_t = transformed[(y > 0) & (s == 0)].mean(axis=0) - transformed[(y > 0) & (s == 1)].mean(axis=0)
    u_gap = float(np.max(np.abs(u_t)))
    report(
        "AC4",
        gap <= 1e-6 and u_gap <= 1e-12,
        f"held-out prediction gap {gap:.2e} (tol 1e-6), transformed mean gap {u_gap:.2e} (tol 1e-12)",
    )


def planted_unfair_dataset(rng, n):
    s = (rng.random(n) < 0.5).astype(float)
    y = np.where(rng.random(n) < 0.2 + 0.6 * s, 1.0, -1.0)
    cols = {
        "s": s,
        "y": y,
        "x1": y + rng.standard_normal(n),
        "x2": 2.0 * s + 0.5 * rng.standard_normal(n),
        "x3": rng.standard_normal(n),
    }
    roles = {"s": "sensitive", "y": "outcome", "x1": "feature", "x2": "feature", "x3": "feature"}
    return dataset_from_columns(cols, roles, outcome_kind="classification")


def test_ac05_feasibility_and_fairness_trend():
    wins = 0
    worst_violation = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        train = planted_unfair_dataset(rng, 400)
        test = planted_unfair_dataset(rng, 2000)
        grid = make_grid(train.outcome, train.sensitive, 2, 2)
        for epsilon in (0.0, 0.05, 0.3):
            model = train_gferm(FairERMProblem(lam=1.0, epsilon=epsilon), train, grid)
            worst_violation = max(
                worst_violation, model.constraint_report["achieved_l1"] - epsilon
            )
        fair = train_gferm(FairERMProblem(lam=1.0, epsilon=0.0), train, grid)
        free = train_gferm(FairERMProblem(lam=1.0, epsilon=None), train, grid)
        test_grid = make_grid(test.outcome, test.sensitive, 2, 2)

        def cell_metric(model):
            scores = ScoreSet(model.predict_dataset(test), test.sensitive, test.outcome)
            return general_fairness_gap(scores, test_grid).value

        if cell_metric(fair) < cell_metric(free):
            wins += 1
    report(
        "AC5",
        worst_violation <= 1e-6 and wins >= 18,
        f"max constraint violation {worst_violation:.2e} (tol 1e-6); "
        f"constrained model fairer in {wins}/20 seeded runs (need >= 18)",
    )


def test_ac06_causal_closed_forms():
    sem = scenario("college")
    direct = PathSelection((("A", "Y"),))
    both = PathSelection((("A", "Y"), ("A", "D", "Y")))
    exact_direct = path_specific_effect(sem, direct, 0.0, 1.0)
    exact_both = path_specific_effect(sem, both, 0.0, 1.0)
    ok_closed = exact_direct == 1.0 and exact_both == 2.0  # unit coefficients

    n = 100_000
    mc = path_specific_effect_mc(sem, both, 0.0, 1.0, n=n, seed=4)
    sigma = simulate(sem, n, seed=4)["Y"].std()
    ok_mc = abs(mc - exact_both) <= 4 * sigma / np.sqrt(n)

    cols = simulate(sem, 200, seed=5)
    worst = 0.0
    for i in range(200):
        record = {k: float(v[i]) for k, v in cols.items()}
        rebuilt = reconstruct(sem, record["A"], abduct(sem, record))
        worst = max(worst, max(abs(rebuilt[k] - record[k]) for k in sem.variables))
    report(
        "AC6",
        ok_closed and ok_mc and worst <= 1e-12,
        f"closed-form effects exact; |MC - exact| = {abs(mc - exact_both):.2e} "
        f"(band {4 * sigma / np.sqrt(n):.2e}); round-trip error {worst:.2e} (tol 1e-12)",
    )


def test_ac07_music_degree_regression():
    start = time.perf_counter()
    sem = scenario("music")
    n = 1_000_000
    cols = simulate(sem, n, seed=6)
    X = np.column_stack([cols["X"], cols["S"]])
    theta_xs = np.linalg.lstsq(X, cols["Y"], rcond=None)[0]
    theta_x_only = np.linalg.lstsq(cols["X"][:, None], cols["Y"], rcond=None)[0][0]
    elapsed = time.perf_counter() - start
    ok = (
        abs(theta_xs[0] - 1.0) <= 0.01
        and abs(theta_xs[1] + 1.0) <= 0.01
        and abs(theta_x_only - 0.5) <= 0.005
        and elapsed < 10.0
    )
    report(
        "AC7",
        ok,
        f"(theta_X, theta_S) = ({theta_xs[0]:.4f}, {theta_xs[1]:.4f}) vs (1, -1); "
        f"X-only theta = {theta_x_only:.4f} vs 0.5; runtime {elapsed:.2f}s",
    )


def meta_task(rng, d=10, n=200, shift=6.0, feat_std=0.5):
    direction = np.zeros(d)
    direction[0] = 1.0
    s = rng.integers(0, 2, size=n).astype(float)
    X = feat_std * rng.normal(size=(n, d)) + np.outer(s, shift * direction)
    w = rng.normal(size=d)
    y = X @ w + 0.1 * rng.standard_normal(n)
    return Task(s, X, y)


def test_ac08_fair_representation_transfer():
    rng = np.random.default_rng(7)
    train = MultiTaskDataset(tuple(meta_task(rng) for _ in range(3)))
    model = train_representation(train, r=3, lam=0.1, constraint="equality", seed=0)
    gap = model.max_gap_alignment()
    history = np.array(model.objective_history)
    monotone = bool(np.all(np.diff(history) <= 1e-9 * (1 + np.abs(history[:-1]))))
    free = train_representation(train, r=3, lam=0.1, constraint="none", seed=0)
    fresh = [meta_task(rng) for _ in range(50)]
    mean_eq = float(np.mean([transfer(model, t, lam=0.1).fairness_diagnostic for t in fresh]))
    mean_free = float(np.mean([transfer(free, t, lam=0.1).fairness_diagnostic for t in fresh]))
    report(
        "AC8",
        gap <= 1e-8 and monotone and mean_eq <= 0.1 * mean_free,
        f"training gap {gap:.2e} (tol 1e-8), objective monotone: {monotone}, "
        f"fresh-task alignment {mean_eq:.4f} vs unconstrained {mean_free:.4f} "
        f"(need <= 10%)",
    )


def test_ac09_metric_reductions():
    rng = np.random.default_rng(8)
    worst_mean_gap = 0.0
    instances = 0
    while instances < 1000:
        n = int(rng.integers(40, 160))
        y = rng.choice([-1.0, 1.0], size=n)
        g = rng.integers(0, 2, size=n).astype(float)
        if not all(((y == yy) & (g == gg)).any() for yy in (-1, 1) for gg in (0, 1)):
            continue
        instances += 1
        f = rng.uniform(-1.4, 1.4, size=n)
        data = dataset_from_columns(
            {"s": g, "y": y}, {"s": "sensitive", "y": "outcome"}, outcome_kind="classification"
        )
        grid = make_grid(data.outcome, data.sensitive, 2, 2)
        scores = ScoreSet(f, g, y, threshold=0.0)
        value = general_fairness_gap(scores, grid).value
        odds = equalized_odds_gaps(scores)
        worst_mean_gap = max(worst_mean_gap, abs(value - (odds.fpr_gap + odds.fnr_gap) / 2))
        hard = loss_general_fairness_gap(scores, grid, loss="hard").value
        assert hard == value  # bitwise
    report(
        "AC9",
        worst_mean_gap <= 1e-12,
        f"|cell gap - mean(EFPR, EFNR gaps)| <= {worst_mean_gap:.2e} over 1000 instances "
        "(tol 1e-12); hard-loss variant bitwise-equal throughout",
    )


def test_ac10_registry_fidelity(capsys):
    assert main(["datasets", "describe", "COMPAS"]) == 0
    compas = json.loads(capsys.readouterr().out)["results"]
    assert main(["datasets", "describe", "Census/Adult Income"]) == 0
    adult = json.loads(capsys.readouterr().out)["results"]
    ok = (
        compas["n_samples"] == "11758"
        and compas["n_features"] == "36"
        and adult["n_samples"] == "48842"
        and adult["n_features"] == "14"
    )
    report(
        "AC10",
        ok,
        f"COMPAS {compas['n_samples']}/{compas['n_features']}, "
        f"Adult {adult['n_samples']}/{adult['n_features']}",
    )
