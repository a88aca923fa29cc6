"""Slow, independent reference implementations used as test oracles.

Nothing here shares code with the library paths it checks: transport
quantities are recomputed from first principles (couplings, CDF sweeps,
grid search), cell metrics by explicit double loops, the constrained
ridge problems by a general-purpose NLP solver on a smooth reformulation,
the rbf Gram matrix by its two-matrix formula, the kernel squared loss at
a zero budget by null-space elimination, the Monte-Carlo path-specific
effect by replaying both worlds over all samples at once, a SEM's
least-squares refit by one stacked design per equation, and
equality-constrained quadratics (the common-mean multitask fit among them)
by least squares on their dense KKT system, and L1-ball constrained ones
by one such system per face of the ball.
The CSV loader is the row-at-a-time loop (csv.reader, one Python ``float``
per cell) that the bulk reader replaced.
"""

from __future__ import annotations

import csv
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


def two_matrix_rbf_kernel(gamma, X, Z):
    """exp(-gamma max(0, (|x|^2 + |z|^2) - (2 x) . z)) with the cross term and
    the norm sums each held in an n x m matrix of its own.

    Each entry goes through the same floating-point operations as in the
    library's blocked form, so the two agree bit for bit.
    """
    cross = (2.0 * X) @ Z.T
    out = np.sum(X * X, axis=1)[:, None] + np.sum(Z * Z, axis=1)[None, :]
    out -= cross
    np.maximum(out, 0.0, out=out)
    out *= -gamma
    return np.exp(out)


def full_array_simulate(sem, n, seed):
    """Ancestral sampling of every variable with each column drawn and replayed over all n records at once.

    One generator draws n uniforms for the root, a record's sensitive value
    being the second when its uniform is below pi, then noise_std times n
    standard normals per equation, in equation order.  Each value goes
    through the same floating-point operations as in the library's blocked
    replay, so the two agree bit for bit.
    """
    rng = np.random.default_rng(seed)
    v0, v1 = sem.sensitive_values
    cols = {sem.sensitive: np.where(rng.random(n) < sem.pi, v1, v0)}
    noise = {eq.name: eq.noise_std * rng.standard_normal(n) for eq in sem.equations}
    for eq in sem.equations:
        value = np.full(n, eq.intercept, dtype=float)
        for parent, coeff in zip(eq.parents, eq.coeffs):
            value += coeff * cols[parent]
        value += noise[eq.name]
        cols[eq.name] = value
    return cols


def full_array_pse_mc(sem, active, a, a_bar, n, seed):
    """Monte-Carlo path-specific effect with both worlds held over all n samples.

    Each equation's noise is noise_std times n standard normals, drawn in
    equation order.  The reference world starts at the root value a, the
    counterfactual world at a_bar and reads a parent from itself along the
    ``active`` edges and from the reference world elsewhere.  Each value goes
    through the same floating-point operations as in the library's blocked
    replay, so the two agree bit for bit.
    """
    rng = np.random.default_rng(seed)
    noise = {eq.name: eq.noise_std * rng.standard_normal(n) for eq in sem.equations}
    ref = {sem.sensitive: np.full(n, float(a))}
    cf = {sem.sensitive: np.full(n, float(a_bar))}
    for eq in sem.equations:
        r = np.full(n, eq.intercept, dtype=float)
        c = np.full(n, eq.intercept, dtype=float)
        for parent, coeff in zip(eq.parents, eq.coeffs):
            r += coeff * ref[parent]
            c += coeff * (cf if (parent, eq.name) in active else ref)[parent]
        r += noise[eq.name]
        c += noise[eq.name]
        ref[eq.name], cf[eq.name] = r, c
    return float(np.mean(cf[sem.outcome]) - np.mean(ref[sem.outcome]))


def column_stack_fit(cols, skeleton):
    """A SEM refit by per-equation least squares, each design stacked afresh.

    Each equation's design is ``np.column_stack`` of a new column of ones
    and its parents, solved by ``lstsq``; the residual is a new array.
    Returns pi and one (intercept, coefficients, noise_std) per equation;
    where the refit is refused, raises ``ValueError`` with its message.
    """
    a = np.asarray(cols[skeleton.sensitive], dtype=float)
    n = a.size
    v0, v1 = skeleton.sensitive_values
    if not set(np.unique(a)) <= {float(v0), float(v1)}:
        raise ValueError(f"sensitive column takes values outside {{{v0}, {v1}}}")
    pi = float(np.mean(a == v1))
    equations = []
    for eq in skeleton.equations:
        d = len(eq.parents) + 1
        if n < d:
            raise ValueError(f"{eq.name}: need at least {d} records to fit")
        design = np.column_stack([np.ones(n)] + [np.asarray(cols[p], dtype=float) for p in eq.parents])
        y = np.asarray(cols[eq.name], dtype=float)
        coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
        if rank < d:
            raise ValueError(f"{eq.name}: rank-deficient design matrix")
        resid = y - design @ coef
        noise_std = float(np.sqrt(resid @ resid / max(n - d, 1)))
        equations.append((float(coef[0]), tuple(float(c) for c in coef[1:]), noise_std))
    return pi, equations


def reference_kernel_null_space(K, y, lam, M):
    """The kernel squared-loss problem at a zero budget, by null-space elimination.

    Minimizes ||K b - y||^2 + lam b^T K b subject to M^T b = 0 (M may have
    no columns) over an orthonormal basis N of {b : M^T b = 0}, taken from
    a full SVD of M: N^T (K^2 + lam K) N a = N^T K y and b = N a, with a
    least-squares fallback when the reduced system is exactly singular.
    Forming K^2 squares K's condition number, so b is only as determined as
    that reduced system; its objective value is what a solve must match.
    """
    K = np.asarray(K, dtype=float)
    n, m = M.shape
    if m == 0:
        N = np.eye(n)
    else:
        u, s, _ = np.linalg.svd(M, full_matrices=True)
        rank = int(np.sum(s > s[0] * max(n, m) * np.finfo(float).eps))
        N = u[:, rank:]
    if N.shape[1] == 0:
        return np.zeros(n)
    reduced = N.T @ (K @ K + lam * K) @ N
    rhs = N.T @ (K @ y)
    try:
        a = np.linalg.solve(reduced, rhs)
    except np.linalg.LinAlgError:
        a = np.linalg.lstsq(reduced, rhs, rcond=None)[0]
    return N @ a


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


def reference_equality_qp(P, q, E):
    """Least-norm minimizer of 1/2 x^T P x - q^T x subject to E^T x = 0, for a PSD P.

    Solves the KKT system [[P, E], [E^T, 0]] [x; nu] = [q; 0] by least
    squares.  Its null space is (null(P) & null(E^T)) x null(E), a product,
    so the minimum-norm solution carries the least-norm x.
    """
    p, m = E.shape
    kkt = np.block([[P, E], [E.T, np.zeros((m, m))]])
    return np.linalg.lstsq(kkt, np.concatenate([q, np.zeros(m)]), rcond=None)[0][:p]


def reference_qp_l1(P, q, M, eps):
    """Best point found for 1/2 b^T P b - q^T b subject to ||M^T b||_1 <= eps, P positive definite.

    The minimizer is the unconstrained one or lies on a face of the ball:
    the entries of M^T b in a set Z are 0 and the others keep signs s, with
    s^T M^T b = eps.  Each of the 3^m choices of (Z, s) is one KKT system,
    solved by least squares.  The best candidate within eps (1 + 1e-9) of
    the ball is returned: rounding in a solve can make it worse than the
    true minimizer, and only that slack can make it better.
    """
    p, m = M.shape
    candidates = [np.zeros(p), np.linalg.solve(P, q)]  # 0 is always feasible
    for signs in itertools.product((-1.0, 0.0, 1.0), repeat=m):
        s = np.array(signs)
        zero = M[:, s == 0]
        E = np.column_stack([zero, M @ s]) if s.any() else zero
        e = np.append(np.zeros(zero.shape[1]), eps)[:E.shape[1]]
        kkt = np.block([[P, E], [E.T, np.zeros((E.shape[1], E.shape[1]))]])
        candidates.append(np.linalg.lstsq(kkt, np.concatenate([q, e]), rcond=None)[0][:p])
    feasible = [b for b in candidates if np.abs(M.T @ b).sum() <= eps * (1.0 + 1e-9)]
    return min(feasible, key=lambda b: 0.5 * b @ P @ b - q @ b)


def reference_common_mean(X, y, groups, theta, lam, rho, classes=("+", "-")):
    """The squared-loss common-mean fit by its dense KKT system: (w0, {group: v}).

    The objective of `common_mean_objective` is x^T H x - 2 g^T x + const in
    x = [w0; v_1; ...; v_k] (groups sorted), built term by term from block
    selectors; for each outcome class every group's mean score under its
    weights w0 + v_s equals the first group's.
    """
    codes = np.unique(groups).tolist()
    k, d = len(codes), X.shape[1]
    blocks = np.eye((k + 1) * d).reshape(k + 1, d, (k + 1) * d)  # blocks[j] @ x is the j-th block
    H = rho * lam * blocks[0].T @ blocks[0]
    g = np.zeros((k + 1) * d)
    for i, code in enumerate(codes, start=1):
        Xs, ys = X[groups == code], y[groups == code]
        for weight, S in ((theta / k, blocks[0]), ((1.0 - theta) / k, blocks[0] + blocks[i])):
            H += weight * (Xs @ S).T @ (Xs @ S) / ys.size
            g += weight * (Xs @ S).T @ ys / ys.size
        H += rho * (1.0 - lam) / k * blocks[i].T @ blocks[i]
    rows = []
    for name, sign in (("+", 1.0), ("-", -1.0)):
        if name in classes:
            u = [X[(groups == c) & (y == sign)].mean(axis=0) @ (blocks[0] + blocks[i])
                 for i, c in enumerate(codes, start=1)]
            rows.extend(u[0] - us for us in u[1:])
    x = reference_equality_qp(2.0 * H, 2.0 * g, np.array(rows).reshape(-1, (k + 1) * d).T)
    return x[:d], {c: x[i * d:(i + 1) * d] for i, c in enumerate(codes, start=1)}


class ReferenceCsvError(ValueError):
    """A file the reference loader rejects; the message is the one the library gives."""


def reference_load_csv(path, schema, outcome_kind="regression"):
    """Row-at-a-time CSV loading: (header, columns, categories), or ReferenceCsvError.

    Cells are read by csv.reader, checked row by row, and parsed one at a time
    with ``float``; non-numeric sensitive/feature columns (by their first
    cell) become codes in first-appearance order.
    """

    def numbers(cells, name):
        values = np.empty(len(cells))
        for i, cell in enumerate(cells):
            try:
                values[i] = float(cell)
            except ValueError:
                raise ReferenceCsvError(f"row {i + 2}, column {name!r}: cannot parse {cell!r} as a number") from None
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ReferenceCsvError(f"row {bad[0] + 2}, column {name!r}: non-finite value {cells[bad[0]]!r}")
        return values

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ReferenceCsvError("empty file") from None
        header = [h.strip() for h in header]
        missing = [name for name in schema if name not in header]
        if missing:
            raise ReferenceCsvError(f"missing columns: {', '.join(sorted(missing))}")
        extra = [h for h in header if h not in schema]
        if extra:
            raise ReferenceCsvError(f"columns without a declared role: {', '.join(extra)}")
        raw = {h: [] for h in header}
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ReferenceCsvError(f"row {lineno}: expected {len(header)} cells, found {len(row)}")
            for name, cell in zip(header, row):
                cell = cell.strip()
                if cell == "":
                    raise ReferenceCsvError(f"row {lineno}, column {name!r}: missing value")
                raw[name].append(cell)
    if not raw[header[0]]:
        raise ReferenceCsvError("no data rows")

    columns, categories = {}, {}
    for name in header:
        role, cells = schema[name], raw[name]
        if role == "ignore":
            columns[name] = np.array(cells, dtype=np.dtypes.StringDType())
            continue
        if role == "task":
            columns[name] = numbers(cells, name).astype(int)
            continue
        numeric = True
        if role in ("sensitive", "feature"):
            try:
                float(cells[0])
            except ValueError:
                numeric = False
        if not numeric:
            labels = np.array(cells).tolist()
            index = {label: i for i, label in enumerate(dict.fromkeys(labels))}
            columns[name] = np.array([index[label] for label in labels])
            categories[name] = tuple(index)
            continue
        values = numbers(cells, name)
        if role == "outcome" and outcome_kind == "classification":
            got = np.unique(values).tolist()
            if set(got) <= {-1.0, 1.0}:
                pass
            elif set(got) <= {0.0, 1.0}:
                values = np.where(values > 0, 1.0, -1.0)
            else:
                more = f" and {len(got) - 5} more" if len(got) > 5 else ""
                raise ReferenceCsvError(
                    f"column {name!r}: classification labels must be in {{-1,+1}} or {{0,1}}, got {got[:5]}{more}")
        columns[name] = values
    return header, columns, categories
