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
learned sensitive-attribute predictor instead of the true attribute.  It
builds its quadratic and constraint rows by index blocks of the stacked
variable [w0; v_1; ...; v_k], adding each group's d x d terms at the
positions of its model, one assembly for the squared and the linear loss.
Its fit and the A half-step are least-norm solves on the null space of
their equalities (`ferm._minimize_on`), determined where theta or lam
leave the objective flat.  An alternation whose objective
rises, or an escalation that cannot reach its tolerance, is a
`ferm.SolverError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import dataset as ds
from .dataset import TabularDataset
from .ferm import SolverError, _minimize_on, _null_basis

__all__ = [
    "MtlError",
    "CONSTRAINT_MODES",
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


# how train_representation treats the task gap vectors
CONSTRAINT_MODES = ("equality", "relaxed", "none")


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
    """Split a dataset with a task column into per-task blocks, in ascending task id, each in file order.

    When the file lists the tasks one after the other in ascending id, each
    task is a slice, a view, of the dataset's arrays; otherwise the rows are
    gathered once in the order of a stable sort of the ids.
    """
    ids = dataset.task_ids
    if ids is None:
        raise MtlError("dataset has no task column")
    s, X, y = dataset.sensitive, dataset.features, dataset.outcome
    ends = _run_ends(ids)
    if ends is None:
        order = np.argsort(ids, kind="stable")
        ids, s, X, y = ids[order], s[order], X[order], y[order]
        ends = _run_ends(ids)
    return MultiTaskDataset(tuple(Task(s[a:b], X[a:b], y[a:b]) for a, b in zip([0, *ends], ends)))


def _run_ends(ids: np.ndarray) -> list[int] | None:
    """The index past each run of equal ids, or None unless the ids ascend; compares a block of ids at a time."""
    ends = []
    for lo in range(0, ids.size - 1, ds._BLOCK_ROWS):
        hi = min(lo + ds._BLOCK_ROWS, ids.size - 1)
        prev, nxt = ids[lo:hi], ids[lo + 1:hi + 1]
        if (nxt < prev).any():
            return None
        ends.extend((np.flatnonzero(nxt != prev) + lo + 1).tolist())
    return ends + [ids.size]


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

    def __post_init__(self):
        A, B = np.asarray(self.A, dtype=float), np.asarray(self.B, dtype=float)
        if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
            raise MtlError("A must be a d x r and B an r x T matrix")
        gaps = tuple(np.asarray(c, dtype=float) for c in self.gap_vectors)
        if any(c.shape != A.shape[:1] for c in gaps):
            raise MtlError("each gap vector needs one entry per row of A")
        if self.r != A.shape[1]:
            raise MtlError(f"r must equal A's column count {A.shape[1]}, got {self.r!r}")
        if not (np.isfinite(A).all() and np.isfinite(B).all()):
            raise MtlError("A and B must be finite")
        if not self.lam > 0:
            raise MtlError("lam must be > 0")
        if self.constraint not in CONSTRAINT_MODES:
            raise MtlError(f"unknown constraint mode {self.constraint!r}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "gap_vectors", gaps)

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
    ds._refuse_above_cap(MtlError, f"A-step system of {d * r} x {d * r}", d * r, d * r)
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
    is a solver failure; a rise within it means the loop has converged to
    rounding precision, and keeping the old iterate keeps the history
    non-increasing.
    """
    if obj_new > obj_old + 1e-9 * (1.0 + abs(obj_old)):
        raise SolverError(f"objective increased on {half} half-step")
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
    The rows are read only for those statistics and the gap vectors, and
    ``data`` is dropped before the random start A is drawn: when the caller
    passes the only reference, as ``mtl train-rep`` does (Python 3.11 and
    later hand it to the callee; 3.10 keeps it on the caller's stack), the
    rows are freed before ``numpy.random`` first loads, and the working set
    from there on is T d x d statistics.  Equality mode parametrizes A on
    an orthonormal basis of the joint orthogonal complement of the task gap
    vectors, which makes A^T c(tau_t) = 0 hold to machine precision;
    relaxed mode adds the quadratic penalty (penalty / T) sum_t
    ||A^T c(tau_t)||^2 instead.
    Passing ``epsilon`` (relaxed mode only) escalates the penalty tenfold,
    retraining from the same start, until the mean squared alignment
    (1/T) sum_t ||A^T c(tau_t)||^2 drops to the tolerance; the result is
    the direct relaxed fit at the final penalty.
    """
    if not 1 <= r <= data.d:
        raise MtlError(f"r must lie between 1 and the {data.d} features, got {r}")
    if lam <= 0:
        raise MtlError("lam must be > 0")
    if constraint not in CONSTRAINT_MODES:
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
        bad = tuple(i for i, t in enumerate(tasks) if np.unique(t.sensitive).size != 2)
        if bad:
            raise MtlError(f"tasks {bad} do not hold exactly two sensitive groups; their gap is undefined")
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
    del data, tasks  # the rows are freed here, before np.random loads, when no caller holds them
    gap_outer = sum(np.outer(c, c) for c in gaps)
    rng = np.random.default_rng(seed)
    A0 = basis @ basis.T @ np.linalg.qr(rng.standard_normal((d, r)))[0][:, :r]  # start feasible

    def fit(weight):
        penalty_matrix = None if weight is None else (weight / len(stats)) * gap_outer
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
    raise SolverError(f"could not reach the relaxed tolerance {epsilon}")


class TransferResult(NamedTuple):
    coefficients: np.ndarray
    weights: np.ndarray
    fairness_diagnostic: float | None


def transfer(model: RepresentationModel, task: Task, lam: float) -> TransferResult:
    """Ridge regression of a new task on the frozen representation.

    The diagnostic reports ||A^T c(task)|| with A renormalized to unit
    Frobenius norm, estimating how well the representation's group-mean
    orthogonality carries over to the new task; it is None when the task
    does not hold exactly two groups, where c(task) is undefined.  A result
    that overflows holds inf or NaN, with no warning.
    """
    if task.d != model.A.shape[0]:
        raise MtlError("feature dimension mismatch")
    if not lam > 0:
        raise MtlError("lam must be > 0")
    if np.allclose(task.features.var(axis=0), 0.0):
        raise MtlError("degenerate task: features have zero variance")
    if not np.isfinite(ridge := lam * task.n):
        raise SolverError(f"the ridge --lambda {lam:g} times {task.n} records overflows")
    with np.errstate(over="ignore", invalid="ignore"):  # a result that overflows is refused where it is written
        XA = task.features @ model.A
        b = np.linalg.solve(XA.T @ XA + ridge * np.eye(model.A.shape[1]), XA.T @ task.outcome)
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
    task: Task,
    lam: float = 1.0,
    seed: int = 0,
) -> SensitivePredictor:
    """Learn s from x and report its accuracy on a held-out random quarter of the records.

    The accuracy governs how downstream constraints behave: an accurate
    predictor recovers the true groups, an inaccurate one randomizes
    records across group-specific models.
    """
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
    task: Task,
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

    The objective is x^T H x - 2 g^T x + const in x = [w0; v_1; ...; v_k]
    (groups sorted), assembled by index blocks: the shared model sits at
    block 0 and group i's model w0 + v_i at blocks 0 and i, so each group
    adds its d x d Gram matrix, tiled, at those positions of H.  The
    linear loss (1 - f y)/2 is the squared loss's assembly with no
    curvature and half the target term.  A system above the
    ``dataset.MAX_FEATURE_BYTES`` cap is refused before it is allocated.
    """
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
    X, y = task.features, task.outcome
    if task.d == 0:
        raise MtlError("common-mean training needs at least one feature column")
    if not set(np.unique(y)) <= {-1.0, 1.0}:
        raise MtlError("common-mean training needs outcomes in {-1, +1}")

    predictor = None
    groups = task.sensitive
    if use_predicted_sensitive:
        predictor = train_sensitive_predictor(task, lam=1.0, seed=seed)
        groups = predictor.predict(X)
    codes = tuple(np.unique(groups).tolist())
    k, d = len(codes), task.d
    dim = (k + 1) * d
    ds._refuse_above_cap(MtlError, f"common-mean system of {dim} x {dim}", dim, dim)
    shared = np.arange(d)
    models = [np.r_[shared, i * d + shared] for i in range(1, k + 1)]  # where group i's w0 + v_i sits in x
    H, g = np.zeros((dim, dim)), np.zeros(dim)
    for code, sel in zip(codes, models):
        Xs, ys = X[groups == code], y[groups == code]
        gram = Xs.T @ Xs / ys.size if loss == "squared" else np.zeros((d, d))
        xty = Xs.T @ ys / ys.size / (1.0 if loss == "squared" else 2.0)
        for weight, at in ((theta / k, shared), ((1.0 - theta) / k, sel)):
            reps = at.size // d
            H[np.ix_(at, at)] += weight * np.tile(gram, (reps, reps))
            g[at] += weight * np.tile(xty, reps)
    H[np.diag_indices_from(H)] += np.repeat([rho * lam] + [rho * (1.0 - lam) / k] * k, d)

    rows = []
    for name, sign in (("+", 1.0), ("-", -1.0)):
        if name not in constraint_classes:
            continue
        u = []
        for code, sel in zip(codes, models):
            mask = (groups == code) & (y == sign)
            if not mask.any():
                raise MtlError(f"no records with outcome {name}1 in group {code!r}")
            row = np.zeros(dim)
            row[sel] = np.tile(X[mask].mean(axis=0), 2)
            u.append(row)
        rows.extend(u[0] - us for us in u[1:])  # group i's mean score equals the first group's
    # least norm where theta or lam leaves the objective flat
    x = _minimize_on(H, g, _null_basis(np.array(rows).reshape(-1, dim).T))
    return CommonMeanModel(
        shared=x[:d],
        deviations={code: x[i * d:(i + 1) * d] for i, code in enumerate(codes, start=1)},
        classes=codes,
        constraint_residuals=tuple(float(abs(row @ x)) for row in rows),
        predictor=predictor,
    )
