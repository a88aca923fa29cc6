"""Slow, independent reference implementations used as test oracles.

Nothing here shares code with the library paths it checks: transport
quantities are recomputed from first principles (couplings, CDF sweeps,
grid search), cell metrics by explicit double loops, and the constrained
ridge problems by a general-purpose NLP solver on a smooth reformulation.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy import optimize


def sup_quantile(samples, bins: int, i: int) -> float:
    """Direct evaluation of the i-th quantile's sup definition.

    Scans the real line: the set {s : (1/N) sum 1[x <= s] <= (i-1)/B} is an
    interval open on the right at the first sample whose cumulative mass
    exceeds the bound, and that sample is the supremum.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    for v in np.unique(x):
        if np.sum(x <= v) / n > (i - 1) / bins:
            return float(v)
    return float(x[-1])


def brute_force_w1_couplings(a, b) -> float:
    """Exact W1 between equal-size samples by enumerating permutations."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    assert a.size == b.size <= 7
    best = np.inf
    for perm in itertools.permutations(range(b.size)):
        cost = np.mean(np.abs(a - b[list(perm)]))
        best = min(best, cost)
    return float(best)


def grid_search_barycenter_objective(tables, weights, order, candidates) -> float:
    """Minimal sum of weighted per-bin costs over a candidate value grid.

    The 1-D barycenter objective decomposes per bin, so the best candidate
    table is found bin by bin.
    """
    tables = np.asarray(tables, dtype=float)
    weights = np.asarray(weights, dtype=float)
    total = 0.0
    bins = tables.shape[1]
    for i in range(bins):
        costs = [
            float(np.sum(weights * np.abs(tables[:, i] - c) ** order)) for c in candidates
        ]
        total += min(costs)
    return total / bins


def cell_metric_double_loop(scores, groups, outcomes, y_edges, s_edges, statistic):
    """Per-cell table via explicit loops; statistic in {'accuracy','linear'}."""
    n_k = len(y_edges) - 1
    n_q = len(s_edges) - 1
    table = np.full((n_k, n_q), np.nan)
    counts = np.zeros((n_k, n_q), dtype=int)
    for k in range(n_k):
        for q in range(n_q):
            members = [
                i
                for i in range(len(scores))
                if y_edges[k] <= outcomes[i] < y_edges[k + 1]
                and s_edges[q] <= groups[i] < s_edges[q + 1]
            ]
            counts[k, q] = len(members)
            if not members:
                continue
            if statistic == "accuracy":
                hits = sum(1 for i in members if y_edges[k] <= scores[i] < y_edges[k + 1])
                table[k, q] = hits / len(members)
            else:
                table[k, q] = float(
                    np.mean([(1.0 - scores[i] * outcomes[i]) / 2.0 for i in members])
                )
    total, pairs = 0.0, 0
    for k in range(n_k):
        present = [q for q in range(n_q) if counts[k, q] > 0]
        for p in present:
            for q in present:
                if p != q:
                    total += abs(table[k, p] - table[k, q])
                    pairs += 1
    value = total / pairs if pairs else 0.0
    return value, table, counts


def dense_constraint_matrix(outcomes, groups, y_edges, s_edges):
    """The n x m cell-difference matrix C and its (k, p, q) pairs, built densely.

    One column per outcome bin k and unordered pair p < q of non-empty
    sensitive cells, holding +1/N_kp on the records of cell (k, p) and
    -1/N_kq on those of (k, q); X^T C is then the per-pair difference of
    cell means of X.
    """
    n = len(outcomes)
    members = {}
    for k in range(len(y_edges) - 1):
        for q in range(len(s_edges) - 1):
            idx = [
                i for i in range(n)
                if y_edges[k] <= outcomes[i] < y_edges[k + 1] and s_edges[q] <= groups[i] < s_edges[q + 1]
            ]
            if idx:
                members[(k, q)] = idx
    columns, pairs = [], []
    for k in range(len(y_edges) - 1):
        present = [q for q in range(len(s_edges) - 1) if (k, q) in members]
        for i, p in enumerate(present):
            for q in present[i + 1:]:
                col = np.zeros(n)
                col[members[(k, p)]] = 1.0 / len(members[(k, p)])
                col[members[(k, q)]] = -1.0 / len(members[(k, q)])
                columns.append(col)
                pairs.append((k, p, q))
    return (np.column_stack(columns) if columns else np.zeros((n, 0))), pairs


def reference_constrained_erm(X, y, lam, A, epsilon, loss="squared"):
    """Solve min sum_loss + lam ||w||^2 s.t. ||A^T w||_1 <= epsilon via SLSQP.

    The L1 bound becomes smooth through auxiliary magnitudes t_j >= |A^T w|_j
    with sum t <= epsilon; the hinge loss through slack variables.  Returns
    (w, objective value).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    m = 0 if A is None else A.shape[1]

    if loss == "squared":
        def value(v):
            w = v[:d]
            r = X @ w - y
            return float(r @ r + lam * w @ w)

        def grad(v):
            w = v[:d]
            g = np.zeros_like(v)
            g[:d] = 2.0 * X.T @ (X @ w - y) + 2.0 * lam * w
            return g

        n_slack = 0
    elif loss == "hinge":
        def value(v):
            w = v[:d]
            xi = v[d:d + n]
            return float(xi.sum() + lam * w @ w)

        def grad(v):
            g = np.zeros_like(v)
            g[:d] = 2.0 * lam * v[:d]
            g[d:d + n] = 1.0
            return g

        n_slack = n
    else:
        raise ValueError(loss)

    dim = d + n_slack + m
    v0 = np.zeros(dim)
    constraints = []
    if loss == "hinge":
        def hinge_slack(v):
            w, xi = v[:d], v[d:d + n]
            return xi - (1.0 - y * (X @ w))

        constraints.append({"type": "ineq", "fun": hinge_slack})
        constraints.append({"type": "ineq", "fun": lambda v: v[d:d + n]})
    if m:
        off = d + n_slack

        def t_minus(v):
            return v[off:] - A.T @ v[:d]

        def t_plus(v):
            return v[off:] + A.T @ v[:d]

        constraints.append({"type": "ineq", "fun": t_minus})
        constraints.append({"type": "ineq", "fun": t_plus})
        constraints.append({"type": "ineq", "fun": lambda v: epsilon - np.sum(v[off:])})
        v0[off:] = epsilon / max(m, 1)

    res = optimize.minimize(
        value,
        v0,
        jac=grad,
        method="SLSQP",
        constraints=constraints,
        options={"maxiter": 2000, "ftol": 1e-14},
    )
    w = res.x[:d]
    r = X @ w - y
    if loss == "squared":
        obj = float(r @ r + lam * w @ w)
    else:
        obj = float(np.sum(np.maximum(0.0, 1.0 - y * (X @ w))) + lam * w @ w)
    return w, obj


def dense_weight_grid_search(X, y, lam, u, epsilon, bounds=2.0, steps=161):
    """Exhaustive 2-D grid search for the single-constraint squared problem."""
    best = (None, np.inf)
    axis = np.linspace(-bounds, bounds, steps)
    for w1 in axis:
        for w2 in axis:
            w = np.array([w1, w2])
            if abs(w @ u) > epsilon + 1e-12:
                continue
            r = X @ w - y
            obj = float(r @ r + lam * w @ w)
            if obj < best[1]:
                best = (w, obj)
    return best


def mtl_objective(tasks, A, B, lam) -> float:
    """Recompute the factorized multitask objective from scratch."""
    T = len(tasks)
    total = 0.0
    for t, (X, y) in enumerate(tasks):
        resid = y - X @ A @ B[:, t]
        total += float(resid @ resid) / (T * len(y))
    return total + 0.5 * lam * (float(np.sum(A * A)) + float(np.sum(B * B)))


def common_mean_objective(X, y, groups, codes, w0, devs, theta, lam, rho) -> float:
    """Recompute the common-mean multitask objective from scratch."""
    k = len(codes)
    shared_risk = 0.0
    group_risk = 0.0
    reg = rho * (lam * float(w0 @ w0))
    for code in codes:
        mask = groups == code
        Xs, ys = X[mask], y[mask]
        shared_risk += float(np.mean((Xs @ w0 - ys) ** 2)) / k
        ws = w0 + devs[code]
        group_risk += float(np.mean((Xs @ ws - ys) ** 2)) / k
        reg += rho * (1.0 - lam) / k * float(devs[code] @ devs[code])
    return theta * shared_risk + (1.0 - theta) * group_risk + reg
