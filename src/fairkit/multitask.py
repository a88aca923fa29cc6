"""Fair multitask learning.

Two families live here.  The shared-representation route factorizes the
task weight matrix as W = A B and alternates exact ridge solves for B (per
task, decoupled) and for A (one quadratic over vec(A)), keeping every
column of A orthogonal to each task's group-mean gap vector either exactly
(null-space parametrization) or through a quadratic penalty.  Both
half-steps and the objective read only per-task sufficient statistics
(X^T X, X^T y, y^T y, n), computed once before the loop, so an iteration
costs the same whatever the number of rows.  The
common-mean route learns a shared weight vector plus per-group deviations
under linear equalized-odds constraints, optionally defining groups by a
learned sensitive-attribute predictor instead of the true attribute.  Its
fit and the A half-step are least-norm solves on the null space of their
equalities (`ferm._minimize_on`), determined where theta or lam leave the
objective flat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .dataset import TabularDataset
from .ferm import _minimize_on, _null_basis

__all__ = [
    "MtlError",
    "Task",
    "MultiTaskDataset",
    "RepresentationModel",
    "TransferResult",
    "CommonMeanModel",
    "SensitivePredictor",
    "conditional_mean_gap",
    "train_representation",
    "transfer",
    "train_common_mean",
    "train_sensitive_predictor",
    "task_from_dataset",
    "tasks_from_dataset",
]


class MtlError(ValueError):
    """Invalid multitask input or configuration."""


@dataclass(frozen=True, eq=False)
class Task:
    """One task's aligned (sensitive, features, outcome) arrays."""

    sensitive: np.ndarray
    features: np.ndarray
    outcome: np.ndarray

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.features, dtype=float))
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "sensitive", np.asarray(self.sensitive))
        object.__setattr__(self, "outcome", np.asarray(self.outcome, dtype=float))
        if X.shape[0] != self.sensitive.size or X.shape[0] != self.outcome.size:
            raise MtlError("task arrays must align")
        if X.shape[0] == 0:
            raise MtlError("empty task")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def task_from_dataset(dataset: TabularDataset) -> Task:
    return Task(dataset.sensitive, dataset.features, dataset.outcome)


def tasks_from_dataset(dataset: TabularDataset) -> "MultiTaskDataset":
    """Split a dataset with a task column into per-task blocks."""
    ids = dataset.task_ids
    if ids is None:
        raise MtlError("dataset has no task column")
    tasks = []
    for t in np.unique(ids):
        sub = dataset.subset(np.nonzero(ids == t)[0])
        tasks.append(task_from_dataset(sub))
    return MultiTaskDataset(tuple(tasks))


@dataclass(frozen=True, eq=False)
class MultiTaskDataset:
    tasks: tuple[Task, ...]

    def __post_init__(self):
        if not self.tasks:
            raise MtlError("need at least one task")
        d = self.tasks[0].d
        if any(t.d != d for t in self.tasks):
            raise MtlError("all tasks must share the feature dimension")

    @property
    def d(self) -> int:
        return self.tasks[0].d


def conditional_mean_gap(task: Task) -> np.ndarray:
    """Difference of per-group feature means (group 0 minus group 1)."""
    codes = np.unique(task.sensitive)
    if codes.size != 2:
        raise MtlError("conditional mean gap needs exactly two groups present")
    m0 = task.features[task.sensitive == codes[0]].mean(axis=0)
    m1 = task.features[task.sensitive == codes[1]].mean(axis=0)
    return m0 - m1


@dataclass(frozen=True, eq=False)
class RepresentationModel:
    """Shared representation A (d x r) and per-task coefficients B (r x T).

    ``penalty`` is the gap-penalty weight applied (relaxed mode only, the
    final one after escalation).  ``solver`` is the alternating loop's
    trace: the number of alternations and the stop reason, "converged" or
    "max_iter"; None for a model document without one.
    """

    A: np.ndarray
    B: np.ndarray
    r: int
    lam: float
    constraint: str
    penalty: float | None
    gap_vectors: tuple[np.ndarray, ...]
    objective_history: tuple[float, ...]
    solver: Mapping[str, object] | None = None

    @property
    def task_weights(self) -> np.ndarray:
        return self.A @ self.B

    def predict(self, task_index: int, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=float) @ self.A @ self.B[:, task_index]

    def normalized_A(self) -> np.ndarray:
        norm = np.linalg.norm(self.A)
        if norm == 0:
            return self.A
        return self.A / norm

    def max_gap_alignment(self) -> float | None:
        """max_t ||A^T c(tau_t)||, or None when no gap was computed (mode none)."""
        if not self.gap_vectors:
            return None
        return max(float(np.linalg.norm(self.A.T @ c)) for c in self.gap_vectors)


class _TaskStats(NamedTuple):
    """Sufficient statistics of one task's squared loss."""

    gram: np.ndarray  # X^T X
    xty: np.ndarray  # X^T y
    yty: float  # y^T y
    scale: float  # 2 / (T n), the task's weight in the half-step systems


def _task_stats(tasks: Sequence[Task]) -> tuple[_TaskStats, ...]:
    T = len(tasks)
    return tuple(
        _TaskStats(t.features.T @ t.features, t.features.T @ t.outcome,
                   float(t.outcome @ t.outcome), 2.0 / (T * t.n))
        for t in tasks
    )


def _objective(stats, A, B, lam, penalty_matrix=None) -> float:
    """Training objective; includes the gap penalty in relaxed mode."""
    total = 0.0
    for t, st in enumerate(stats):
        w = A @ B[:, t]  # ||y - X w||^2 expanded
        total += 0.5 * st.scale * (st.yty - 2.0 * w @ st.xty + w @ st.gram @ w)
    total += 0.5 * lam * (np.sum(A * A) + np.sum(B * B))
    if penalty_matrix is not None:
        total += np.sum(A * (penalty_matrix @ A))
    return float(total)


def _b_step(stats, A, lam) -> np.ndarray:
    r = A.shape[1]
    B = np.zeros((r, len(stats)))
    for t, st in enumerate(stats):
        P = st.scale * A.T @ st.gram @ A + lam * np.eye(r)
        B[:, t] = np.linalg.solve(P, st.scale * A.T @ st.xty)
    return B


def _a_step(stats, B, lam, basis, penalty_matrix) -> np.ndarray:
    d = stats[0].gram.shape[0]
    r = B.shape[0]
    H = np.zeros((d * r, d * r))
    g = np.zeros(d * r)
    for t, st in enumerate(stats):
        b = B[:, t]  # vec(X A b) = (b^T kron X) vec(A), blocks b_j * X
        H += st.scale * np.kron(np.outer(b, b), st.gram)
        g += st.scale * np.kron(b, st.xty)
    H += lam * np.eye(d * r)
    if penalty_matrix is not None:
        H += 2.0 * np.kron(np.eye(r), penalty_matrix)
    vec = _minimize_on(H, g, np.kron(np.eye(r), basis))  # every column of A inside span(basis)
    return vec.reshape((d, r), order="F")


def _no_worse(old, obj_old, new, obj_new, half):
    """The half-step's new iterate, or the old one if the objective rose.

    An exact half-step cannot raise the objective, so a rise beyond rounding
    is an error; a rise within it means the loop has converged to rounding
    precision, and keeping the old iterate keeps the history non-increasing.
    """
    if obj_new > obj_old + 1e-9 * (1.0 + abs(obj_old)):
        raise MtlError(f"objective increased on {half} half-step")
    return (new, obj_new) if obj_new <= obj_old else (old, obj_old)


def _alternate(stats, A, lam, basis, penalty_matrix, max_iter, tol):
    """Alternate exact B and A half-steps from A; returns A, B, history, trace."""
    B = np.zeros((A.shape[1], len(stats)))
    history = [_objective(stats, A, B, lam, penalty_matrix)]
    iterations, stop_reason = 0, "max_iter"
    while iterations < max_iter:
        iterations += 1
        B_new = _b_step(stats, A, lam)
        B, obj_b = _no_worse(B, history[-1], B_new, _objective(stats, A, B_new, lam, penalty_matrix), "a B")
        A_new = _a_step(stats, B, lam, basis, penalty_matrix)
        A, obj_a = _no_worse(A, obj_b, A_new, _objective(stats, A_new, B, lam, penalty_matrix), "an A")
        history.extend([obj_b, obj_a])
        if abs(history[-3] - obj_a) <= tol * (1.0 + abs(obj_a)):
            stop_reason = "converged"
            break
    return A, B, tuple(history), {"iterations": iterations, "stop_reason": stop_reason}


def train_representation(
    data: MultiTaskDataset,
    r: int,
    lam: float,
    constraint: str = "equality",
    penalty: float | None = None,
    epsilon: float | None = None,
    seed: int = 0,
    max_iter: int = 200,
    tol: float = 1e-8,
) -> RepresentationModel:
    """Alternating minimization for the constrained factorization.

    Each half-step is an exact ridge solve, so the objective is
    non-increasing throughout (asserted).  The loop sees the data only
    through each task's (X^T X, X^T y, y^T y, n), computed once, so an
    alternation costs O(T r^2 d^2 + r^3 d^3) whatever the number of rows.
    Equality mode parametrizes A on an orthonormal basis of the joint
    orthogonal complement of the task gap vectors, which makes
    A^T c(tau_t) = 0 hold to machine precision; relaxed mode adds the
    quadratic penalty (penalty / T) sum_t ||A^T c(tau_t)||^2 instead.
    Passing ``epsilon`` (relaxed mode only) escalates the penalty tenfold,
    retraining from the same start, until the mean squared alignment
    (1/T) sum_t ||A^T c(tau_t)||^2 drops to the tolerance; the result is
    the direct relaxed fit at the final penalty.
    """
    if r < 1:
        raise MtlError("r must be >= 1")
    if lam <= 0:
        raise MtlError("lam must be > 0")
    if constraint not in ("equality", "relaxed", "none"):
        raise MtlError(f"unknown constraint mode {constraint!r}")
    if epsilon is not None and constraint != "relaxed":
        raise MtlError(f"epsilon applies to the relaxed mode only, not {constraint!r}")
    escalate = epsilon is not None
    if escalate and epsilon <= 0:
        raise MtlError("epsilon must be > 0")
    tasks = data.tasks
    d = data.d
    gaps: tuple[np.ndarray, ...] = ()
    basis = np.eye(d)
    if constraint != "none":
        missing = tuple(i for i, t in enumerate(tasks) if np.unique(t.sensitive).size < 2)
        if missing:
            raise MtlError(f"tasks {missing} lack a sensitive group; their gap is undefined")
        gaps = tuple(conditional_mean_gap(t) for t in tasks)
    if constraint == "equality":
        basis = _null_basis(np.column_stack(gaps))
        if basis.shape[1] == 0:
            raise MtlError(
                "group-mean gaps span the whole input space; equality mode is "
                "infeasible, use the relaxed mode"
            )
    elif constraint == "relaxed" and not escalate and (penalty is None or penalty <= 0):
        raise MtlError("relaxed mode needs a positive penalty")

    stats = _task_stats(tasks)
    gap_outer = sum(np.outer(c, c) for c in gaps)
    rng = np.random.default_rng(seed)
    A0 = basis @ basis.T @ np.linalg.qr(rng.standard_normal((d, r)))[0][:, :r]  # start feasible

    def fit(weight):
        penalty_matrix = None if weight is None else (weight / len(tasks)) * gap_outer
        A, B, history, trace = _alternate(stats, A0, lam, basis, penalty_matrix, max_iter, tol)
        return RepresentationModel(
            A=A,
            B=B,
            r=r,
            lam=lam,
            constraint=constraint,
            penalty=weight,
            gap_vectors=gaps,
            objective_history=history,
            solver=trace,
        )

    if not escalate:
        return fit(penalty if constraint == "relaxed" else None)
    weight = penalty if penalty and penalty > 0 else 1.0
    for _ in range(40):
        model = fit(weight)
        mean_sq = float(np.mean([np.sum((model.A.T @ c) ** 2) for c in gaps]))
        if mean_sq <= epsilon:
            return model
        weight *= 10.0
    raise MtlError(f"could not reach the relaxed tolerance {epsilon}")


class TransferResult(NamedTuple):
    coefficients: np.ndarray
    weights: np.ndarray
    fairness_diagnostic: float | None


def transfer(model: RepresentationModel, task: Task, lam: float) -> TransferResult:
    """Ridge regression of a new task on the frozen representation.

    The diagnostic reports ||A^T c(task)|| with A renormalized to unit
    Frobenius norm, estimating how well the representation's group-mean
    orthogonality carries over to the new task; it is None when the task
    does not hold exactly two groups, where c(task) is undefined.
    """
    if task.d != model.A.shape[0]:
        raise MtlError("feature dimension mismatch")
    if np.allclose(task.features.var(axis=0), 0.0):
        raise MtlError("degenerate task: features have zero variance")
    XA = task.features @ model.A
    r = model.A.shape[1]
    b = np.linalg.solve(XA.T @ XA + lam * task.n * np.eye(r), XA.T @ task.outcome)
    try:
        diag = float(np.linalg.norm(model.normalized_A().T @ conditional_mean_gap(task)))
    except MtlError:
        diag = None
    return TransferResult(coefficients=b, weights=model.A @ b, fairness_diagnostic=diag)


@dataclass(frozen=True, eq=False)
class SensitivePredictor:
    """Ridge one-vs-rest classifier of the sensitive attribute from features."""

    coef: np.ndarray  # (k, d+1), last column is the intercept
    classes: tuple
    holdout_accuracy: float

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        scores = np.column_stack([X, np.ones(X.shape[0])]) @ self.coef.T
        return np.asarray(self.classes)[np.argmax(scores, axis=1)]


def train_sensitive_predictor(
    dataset: TabularDataset | Task,
    lam: float = 1.0,
    seed: int = 0,
) -> SensitivePredictor:
    """Learn s from x and report its accuracy on a held-out random quarter of the records.

    The accuracy governs how downstream constraints behave: an accurate
    predictor recovers the true groups, an inaccurate one randomizes
    records across group-specific models.
    """
    task = dataset if isinstance(dataset, Task) else task_from_dataset(dataset)
    codes = tuple(np.unique(task.sensitive).tolist())
    if len(codes) < 2:
        raise MtlError("sensitive predictor needs at least two groups")
    rng = np.random.default_rng(seed)
    n = task.n
    perm = rng.permutation(n)
    n_hold = int(np.clip(round(0.25 * n), 1, n - 1))
    hold, fit_idx = perm[:n_hold], perm[n_hold:]
    Xb = np.column_stack([task.features, np.ones(n)])
    d = Xb.shape[1]
    coef = np.zeros((len(codes), d))
    P = Xb[fit_idx].T @ Xb[fit_idx] + lam * np.eye(d)
    for i, code in enumerate(codes):
        target = np.where(task.sensitive[fit_idx] == code, 1.0, -1.0)
        coef[i] = np.linalg.solve(P, Xb[fit_idx].T @ target)
    predictor = SensitivePredictor(coef=coef, classes=codes, holdout_accuracy=0.0)
    acc = float(np.mean(predictor.predict(task.features[hold]) == task.sensitive[hold]))
    return SensitivePredictor(coef=coef, classes=codes, holdout_accuracy=acc)


@dataclass(frozen=True, eq=False)
class CommonMeanModel:
    """Shared weights plus per-group deviations under mean-score constraints."""

    shared: np.ndarray
    deviations: Mapping[object, np.ndarray]
    classes: tuple
    theta: float
    lam: float
    rho: float
    group_means: Mapping[tuple[str, object], np.ndarray]
    constraint_residuals: tuple[float, ...]
    predictor: SensitivePredictor | None

    def group_weights(self, code) -> np.ndarray:
        return self.shared + self.deviations[code]

    def predict(self, X: np.ndarray, groups) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        g = np.asarray(groups)
        unknown = np.unique(g[~np.isin(g, self.classes)])
        if unknown.size:
            raise MtlError(f"group labels {unknown.tolist()} are not among the model's {list(self.classes)}")
        out = np.empty(X.shape[0])
        for code in self.classes:
            mask = g == code
            out[mask] = X[mask] @ self.group_weights(code)
        return out


def train_common_mean(
    dataset: TabularDataset | Task,
    theta: float = 0.5,
    lam: float = 0.5,
    rho: float = 1.0,
    constraint_classes: Sequence[str] = ("+", "-"),
    use_predicted_sensitive: bool = False,
    loss: str = "squared",
    seed: int = 0,
) -> CommonMeanModel:
    """Jointly fit a shared model and per-group deviations.

    Objective: theta * mean-group risk of the shared weights + (1 - theta)
    * mean per-group risk of the group weights + rho * (lam * ||w0||^2 +
    (1 - lam) * mean ||v_s||^2).  For each selected outcome class the
    group mean scores are tied together by linear equality constraints,
    the convex relaxation of equal false positive/negative rates.  With
    ``use_predicted_sensitive`` group membership comes from a predictor
    g(x) everywhere (losses, deviations, and constraints) and the true
    attribute is never consulted at deployment.
    """
    task = dataset if isinstance(dataset, Task) else task_from_dataset(dataset)
    if not 0.0 <= theta <= 1.0 or not 0.0 <= lam <= 1.0:
        raise MtlError("theta and lam must lie in [0, 1]")
    if rho <= 0:
        raise MtlError("rho must be > 0")
    if loss not in ("squared", "linear"):
        raise MtlError(f"unknown loss {loss!r}")
    if loss == "linear" and not 0.0 < lam < 1.0:
        raise MtlError("linear loss needs 0 < lam < 1 for a bounded problem")
    bad = [c for c in constraint_classes if c not in ("+", "-")]
    if bad:
        raise MtlError(f"constraint classes must be '+' or '-', got {bad}")
    y = task.outcome
    if not set(np.unique(y)) <= {-1.0, 1.0}:
        raise MtlError("common-mean training needs outcomes in {-1, +1}")

    predictor = None
    groups = task.sensitive
    if use_predicted_sensitive:
        predictor = train_sensitive_predictor(task, lam=1.0, seed=seed)
        groups = predictor.predict(task.features)
    codes = tuple(np.unique(groups).tolist())
    k = len(codes)
    d = task.d
    X = task.features

    # stacked variable [w0; v_1; ...; v_k]
    dim = (k + 1) * d
    H = np.zeros((dim, dim))
    g_vec = np.zeros(dim)

    def add_quadratic(rows, cols_, block):
        H[rows * d:(rows + 1) * d, cols_ * d:(cols_ + 1) * d] += block

    for i, code in enumerate(codes, start=1):
        mask = groups == code
        if not mask.any():
            raise MtlError(f"group {code!r} is empty")
        Xs, ys = X[mask], y[mask]
        ns = Xs.shape[0]
        if loss == "squared":
            gram = Xs.T @ Xs / ns
            xty = Xs.T @ ys / ns
            # shared-model risk
            add_quadratic(0, 0, theta / k * gram)
            g_vec[:d] += theta / k * xty
            # group-model risk on w0 + v_i
            w = (1.0 - theta) / k
            for a, b in ((0, 0), (0, i), (i, 0), (i, i)):
                add_quadratic(a, b, w * gram)
            g_vec[:d] += w * xty
            g_vec[i * d:(i + 1) * d] += w * xty
        else:
            xy = Xs.T @ ys / ns  # linear loss (1 - f y)/2 contributes -xy/2
            g_vec[:d] += theta / k * xy / 2.0
            w = (1.0 - theta) / k
            g_vec[:d] += w * xy / 2.0
            g_vec[i * d:(i + 1) * d] += w * xy / 2.0
    add_quadratic(0, 0, rho * lam * np.eye(d))
    for i in range(1, k + 1):
        add_quadratic(i, i, rho * (1.0 - lam) / k * np.eye(d))

    means: dict[tuple[str, object], np.ndarray] = {}
    rows = []
    for sign_name, sign in (("+", 1.0), ("-", -1.0)):
        if sign_name not in constraint_classes:
            continue
        for code in codes:
            mask = (groups == code) & (y == sign)
            if not mask.any():
                raise MtlError(f"no records with outcome {sign_name}1 in group {code!r}")
            means[(sign_name, code)] = X[mask].mean(axis=0)
        u1 = means[(sign_name, codes[0])]
        for i in range(1, k):
            us = means[(sign_name, codes[i])]
            row = np.zeros(dim)
            row[:d] = u1 - us
            row[d:2 * d] = u1
            row[(i + 1) * d:(i + 2) * d] = -us
            rows.append(row)
    # the objective is x^T H x - 2 g^T x + const; least norm where theta or lam leaves it flat
    sol = _minimize_on(H, g_vec, _null_basis(np.array(rows).reshape(-1, dim).T))
    shared = sol[:d]
    deviations = {code: sol[(i + 1) * d:(i + 2) * d] for i, code in enumerate(codes)}
    residuals = tuple(float(abs(row @ sol)) for row in rows)
    return CommonMeanModel(
        shared=shared,
        deviations=deviations,
        classes=codes,
        theta=theta,
        lam=lam,
        rho=rho,
        group_means=means,
        constraint_residuals=residuals,
        predictor=predictor,
    )
