"""Convex fair empirical risk minimization over linear and kernel models.

The trained model minimizes sum-of-losses plus a ridge penalty subject to
an L1 bound on the vector of per-cell mean-score differences: for every
outcome bin, the mean feature vectors of any two non-empty sensitive cells
are collected into constraint columns, and the constraint reads
``||A^T w||_1 <= epsilon``.  The squared loss is one quadratic; the
logistic and the (quadratically smoothed) hinge losses run damped Newton
steps until the Newton decrement vanishes, and a run that does not converge
raises SolverError.  A linear model's quadratic is p x p, minimized on the
feasible subspace by `_minimize_on` (shared with `multitask`) or, at a
positive budget, by an exact L1-constrained QP (a dual active-set method).
An rbf model's goes through one block-Cholesky core, `_kernel_step`: it
builds S K S + 2 lambda I, S the square root of the loss's curvature, one
block row of kernel entries at a time, factors each row as soon as it is
built (left-looking), and reduces the constraint to an m x m system, so an
rbf path holds about half an n x n matrix and never K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from . import dataset as ds
from .dataset import DiscretizationGrid, TabularDataset

__all__ = [
    "FermError",
    "SolverError",
    "KernelSpec",
    "kernel_matrix",
    "ConstraintSystem",
    "FairERMProblem",
    "KernelModel",
    "design_matrix",
    "build_constraints",
    "binary_positive_constraint",
    "train_gferm",
    "train_ferm_binary",
    "LinearFairMap",
    "fair_linear_transform",
]

LOSSES = ("squared", "hinge", "logistic")


class FermError(ValueError):
    """Invalid problem specification or data."""


class SolverError(RuntimeError):
    """Optimization failed."""


@dataclass(frozen=True)
class KernelSpec:
    kind: str = "linear"
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "rbf"):
            raise FermError(f"unknown kernel {self.kind!r}")
        if self.gamma is not None and not math.isfinite(self.gamma):
            raise FermError(f"gamma must be finite, got {self.gamma!r}")
        if self.kind == "rbf" and (self.gamma is None or self.gamma <= 0):
            raise FermError("rbf kernel needs gamma > 0")


# Elements of the |x|^2 + |z|^2 block that `kernel_matrix` forms at a time.
_KERNEL_BLOCK = 1 << 16
# Rows of each block row of S K S + 2 lambda I that `_kernel_step` builds and factors
# at a time (the kernel of rows r0:r1 against rows :r1), and kernel rows `_kernel_dot`
# forms at a time: an rbf solve holds that matrix's lower block triangle, at most about
# n (n + _SOLVE_BLOCK) / 2 elements, and one _SOLVE_BLOCK x n block of kernel rows more.
_SOLVE_BLOCK = 128


def kernel_matrix(spec: KernelSpec, X: np.ndarray, Z: np.ndarray | None = None) -> np.ndarray:
    """Gram matrix k(x_i, z_j), refused above the ``dataset.MAX_FEATURE_BYTES`` cap."""
    Z = X if Z is None else Z
    ds._refuse_above_cap(FermError, f"{spec.kind} kernel matrix of {len(X)} x {len(Z)}", len(X), len(Z))
    if spec.kind == "linear":
        return X @ Z.T
    # (|x|^2 + |z|^2) - (2 x) . z, formed in the one (2 X) Z^T buffer: the
    # norm sums of a block of rows are taken at a time and the cross term
    # subtracted from them in place, so the rbf kernel needs one n x m
    # matrix and a block of _KERNEL_BLOCK elements.  2 (X Z^T) would let
    # numpy take syrk for X is Z, which rounds differently
    out = (2.0 * X) @ Z.T
    sx, sz = np.sum(X * X, axis=1), np.sum(Z * Z, axis=1)
    step = max(1, _KERNEL_BLOCK // max(Z.shape[0], 1))
    for start in range(0, X.shape[0], step):
        rows = out[start:start + step]
        np.subtract(sx[start:start + step, None] + sz, rows, out=rows)
    np.maximum(out, 0.0, out=out)
    with np.errstate(over="ignore"):  # a product beyond the float range is -inf, and exp(-inf) = 0
        out *= -spec.gamma
    return np.exp(out, out=out)


def _kernel_dot(spec: KernelSpec, X: np.ndarray, Z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """K(X, Z) @ v for a vector or matrix v, the kernel formed `_SOLVE_BLOCK` rows at a time,
    each block checked by `kernel_matrix`."""
    out = np.empty(X.shape[:1] + v.shape[1:])
    for start in range(0, X.shape[0], _SOLVE_BLOCK):
        out[start:start + _SOLVE_BLOCK] = kernel_matrix(spec, X[start:start + _SOLVE_BLOCK], Z) @ v
    return out


def design_matrix(dataset: TabularDataset, include_sensitive: bool) -> np.ndarray:
    X = dataset.features
    if include_sensitive:
        return np.hstack([dataset.sensitive[:, None], X])
    return X


@dataclass(frozen=True, eq=False)
class ConstraintSystem:
    """Cell-difference constraints as per-record averaging weights.

    Record i lies in the flat cell ``cell[i]`` = k * Q + q, Q = ``n_s_bins``,
    and ``cell_weights[i]`` is 1/N of that cell, or 0 when the cell enters no
    constraint.  Constraint (k, p, q) is the mean over cell (k, p) minus the
    mean over (k, q); `mean_differences` gives X^T C without building C,
    and `matrix` builds the n x m matrix C itself.
    """

    cell: np.ndarray
    pairs: tuple[tuple[int, int, int], ...]
    cell_weights: np.ndarray
    n_s_bins: int

    @property
    def n_constraints(self) -> int:
        return len(self.pairs)

    @property
    def degenerate(self) -> bool:
        return not self.pairs

    def mean_differences(self, X: np.ndarray) -> np.ndarray:
        """X^T C: per-cell weighted sums of X's rows differenced over ``pairs``.

        Applied to a symmetric kernel matrix K this is K C.  Each cell's sum
        is one matrix-vector product, as accurate as the dense X^T C.
        """
        order = np.argsort(self.cell, kind="stable")
        members = np.split(order, np.cumsum(np.bincount(self.cell))[:-1])
        sums = np.array([self.cell_weights[idx] @ X[idx] for idx in members])
        plus, minus = self._pair_cells()
        return (sums[plus] - sums[minus]).T

    def matrix(self) -> np.ndarray:
        """The n x m matrix C: +w_i where record i is in the pair's first cell, -w_i in its second."""
        plus, minus = self._pair_cells()
        C = (self.cell[:, None] == plus) * self.cell_weights[:, None]
        C -= (self.cell[:, None] == minus) * self.cell_weights[:, None]
        return C

    def _pair_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat ids of each pair's first and second cell."""
        kpq = np.array(self.pairs, dtype=np.intp).reshape(-1, 3)
        return kpq[:, 0] * self.n_s_bins + kpq[:, 1], kpq[:, 0] * self.n_s_bins + kpq[:, 2]


def build_constraints(dataset: TabularDataset, grid: DiscretizationGrid) -> ConstraintSystem:
    """One constraint per outcome bin and unordered pair of non-empty cells.

    With fewer than two non-empty sensitive cells in every outcome bin the
    system is empty and flagged degenerate (training falls back to
    unconstrained ridge).
    """
    cell, counts = grid.cell_ids(dataset.outcome, dataset.sensitive)
    pairs = []
    for k, row in enumerate(counts):
        present = np.flatnonzero(row).tolist()
        pairs.extend((k, p, q) for i, p in enumerate(present) for q in present[i + 1:])
    constrained = (counts > 0) & (np.count_nonzero(counts, axis=1) >= 2)[:, None]
    weights = np.where(constrained, 1.0 / np.maximum(counts, 1), 0.0).ravel()
    return ConstraintSystem(cell, tuple(pairs), weights[cell], grid.n_s_bins)


def binary_positive_constraint(dataset: TabularDataset) -> ConstraintSystem:
    """The positive-class group-mean difference as the one pair (0, 0, 1).

    Cell (0, g) holds the positive records of the g-th smallest group code,
    cell (1, g) its other records, which enter no constraint.
    """
    codes, group = np.unique(dataset.sensitive, return_inverse=True)
    if codes.size != 2:
        raise FermError("binary training needs exactly two sensitive groups")
    positive = dataset.outcome > 0
    cell = np.where(positive, group, group + 2)
    counts = np.bincount(cell, minlength=4)
    if not counts[:2].all():
        raise FermError(f"group {codes[np.argmin(counts[:2])]!r} has no positive-labeled records")
    weights = np.where(positive, 1.0 / counts[group], 0.0)
    return ConstraintSystem(cell, ((0, 0, 1),), weights, 2)


def _null_basis(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis of {w : M^T w = 0} for a p x m matrix M."""
    p, m = M.shape
    if m == 0:
        return np.eye(p)
    u, s, _ = np.linalg.svd(M, full_matrices=p > m)  # u is p x p either way when p <= m
    rank = int(np.sum(s > s[0] * max(p, m) * np.finfo(float).eps)) if s.size else 0
    return u[:, rank:]


def _minimize_on(P: np.ndarray, q: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Least-norm minimizer of 1/2 x^T P x - q^T x over span(basis), for a PSD P.

    ``basis`` has orthonormal columns (np.eye for the whole space, a
    `_null_basis` for linear equalities).  Directions where basis^T P basis
    is flat at the rounding level of forming it, which is set by P's
    largest diagonal entry, get no component (`_whiten`); an empty basis
    gives 0.  A square basis spans the whole space, so P is used as it is.
    """
    scale = np.max(np.diag(P), initial=0.0)
    square = basis.shape[0] == basis.shape[1]
    T = _whiten(P, scale) if square else basis @ _whiten(basis.T @ P @ basis, scale)
    return T @ (T.T @ q)


# Quadratic smoothing widths of the hinge, coarse to fine; the last one
# bounds the hinge objective's excess over the optimum by n * 1e-6 / 2.
_HINGE_WIDTHS = (1.0, 0.1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


class _Objective:
    """Sum-loss objective J(beta) = sum_n loss(f_n, y_n) + penalty at the scores f = D beta.

    The penalty is beta^T R beta.  A kernel model passes D = None and R = lam,
    and gives `value` its scores f = K beta; its penalty is lam beta^T f.
    With ``delta > 0`` the hinge max(0, r), r = 1 - y f, is replaced by its
    quadratic smoothing (r^2 / (2 delta) for 0 < r <= delta, r - delta/2
    above), which lies at most delta/2 below it and has a second derivative.
    """

    def __init__(self, D, y, R, loss, delta=0.0):
        self.D, self.y, self.R, self.loss, self.delta = D, y, R, loss, delta

    def value(self, beta: np.ndarray, f: np.ndarray | None = None) -> float:
        f = self.D @ beta if f is None else f
        if self.loss == "squared":
            data = np.sum((f - self.y) ** 2)
        elif self.loss == "hinge":
            r = 1.0 - self.y * f
            if self.delta > 0:
                band = np.maximum(r, 0.0) ** 2 / (2.0 * self.delta)
                data = np.sum(np.where(r > self.delta, r - self.delta / 2.0, band))
            else:
                data = np.sum(np.maximum(0.0, r))
        else:
            data = np.sum(np.logaddexp(0.0, -self.y * f))
        return float(data + (self.R * (beta @ f) if self.D is None else beta @ self.R @ beta))

    def derivatives(self, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Slope and curvature of the logistic or the smoothed-hinge loss in each score of f."""
        m = self.y * f
        if self.loss == "logistic":
            slope = -np.exp(-np.logaddexp(0.0, m))  # d loss / d margin = -sigmoid(-m)
            curve = -slope * (1.0 + slope)
        else:
            r = 1.0 - m
            slope = -np.clip(r / self.delta, 0.0, 1.0)
            curve = ((r > 0.0) & (r <= self.delta)) / self.delta
        return self.y * slope, self.y * self.y * curve


def _whiten(P: np.ndarray, scale: float = 0.0) -> np.ndarray:
    """T with T^T P T = I on the numerical range of the PSD n x n matrix P.

    Eigenvalues up to the rounding level, n eps times the largest eigenvalue
    or ``scale`` if that is larger, are dropped, so T @ (T.T @ q) is the
    minimizer of 1/2 b^T P b - q^T b that has no component along the
    directions where P is numerically flat (null(G) of redundant constraints).
    """
    evals, evecs = np.linalg.eigh(P)
    keep = evals > P.shape[0] * np.finfo(float).eps * np.max(evals, initial=scale)  # n eps first: no overflow
    evecs = evecs[:, keep]
    evecs /= np.sqrt(evals[keep])
    return evecs


def _qp_l1(P: np.ndarray, q: np.ndarray, M: np.ndarray, eps: float) -> np.ndarray:
    """Exact minimizer of 1/2 b^T P b - q^T b subject to ||M^T b||_1 <= eps > 0.

    The L1 ball is the intersection of the 2^m facets s^T M^T b <= eps,
    s in {-1, 1}^m, and the most violated one at b is s = sign(M^T b), so
    the facets are never listed.  In the coordinates of `_whiten` (q and
    the columns of M lie in the numerical range of P for every caller) the
    problem is the Euclidean projection of T^T q onto the polytope.  It is
    solved by the dual active-set method of Goldfarb and Idnani (1983):
    from the unconstrained minimizer, add the most violated facet until
    none is violated by more than 1e-12 of eps plus the scale of M^T b at
    the current iterate (a nearly flat model puts the unconstrained one far
    outside the ball), then project the result onto the final active
    facets, which undoes the rounding drift of the incremental updates.
    Updated step by step, u far outside the ball loses most of its digits
    to cancellation; the lost ones, times a long normal, move the active
    facets' values by a sizable part of eps and steer later steps to a
    wrong active set.  So when a facet is added and the active ones miss
    eps by more than that tolerance, u is recomputed as what it is in
    exact arithmetic, the projection of the unconstrained minimizer onto
    the active facets, and projected onto them once more to take out what
    that loses the same way.
    """
    T = _whiten(P)
    A = T.T @ M
    u = u0 = T.T @ q
    reach = np.abs(A).sum(axis=1)
    active = np.zeros((A.shape[0], 0))  # normals A s of the active facets
    mult = np.zeros(0)
    steps_left = 10 * (A.shape[0] + A.shape[1]) + 100
    while np.abs(z := A.T @ u).sum() - eps > 1e-12 * (eps + float(np.abs(u) @ reach)):
        if steps_left <= 0:
            raise SolverError("L1-constrained QP did not terminate")
        added = _add_facet(active, mult, u, A @ np.sign(z), eps, steps_left)
        if added is None:
            break
        active, mult, u, steps_left = added
        Q, Rq = np.linalg.qr(active)
        e = np.linalg.solve(Rq.T, np.full(active.shape[1], eps))
        if np.abs(active.T @ u - eps).max() > 1e-12 * (eps + float(np.abs(u) @ reach)):
            u = u0 - Q @ (Q.T @ u0 - e)
            u = u - Q @ (Q.T @ u - e)
    if active.shape[1]:
        u = u - Q @ (Q.T @ u - e)
    return T @ u


def _add_facet(active, mult, u, normal, eps, steps_left):
    """One major step of the dual active-set method: make normal^T u <= eps active.

    Moves u along the component of ``normal`` orthogonal to the active
    normals, dropping an active facet whenever its multiplier would turn
    negative first; each step raises the dual objective.  A normal lying
    in the span of the active ones (below 1e-9 of its length off it) moves
    only the multipliers.  Returns the new (active, mult, u, steps_left), or
    None when the normal is a non-positive combination of the active ones:
    then it cannot be violated in exact arithmetic (b = 0 is feasible), so
    its violation is rounding.
    """
    added = 0.0
    while steps_left > 0:
        steps_left -= 1
        if active.shape[1]:
            Q, Rq = np.linalg.qr(active)
            w = Q.T @ normal
            step = normal - Q @ w
            r = np.linalg.solve(Rq, w)
        else:
            step, r = normal, np.zeros(0)
        sq = float(step @ step)
        full = (normal @ u - eps) / sq if sq > 1e-18 * float(normal @ normal) else np.inf
        pos = np.nonzero(r > 0.0)[0]
        ratios = mult[pos] / r[pos]
        partial = ratios.min() if pos.size else np.inf
        t = min(full, partial)
        if not np.isfinite(t):
            return None
        if np.isfinite(full):
            u = u - t * step
        mult = mult - t * r
        added += t
        if full <= partial:
            return np.column_stack([active, normal]), np.append(mult, added), u, steps_left
        drop = pos[np.argmin(ratios)]
        active, mult = np.delete(active, drop, axis=1), np.delete(mult, drop)
    return active, mult, u, steps_left


def _newton(D, y, R, loss: str, beta: np.ndarray, model, max_iter: int):
    """Damped Newton on the logistic loss, or on the smoothed hinge at each of `_HINGE_WIDTHS` in
    turn, from the feasible beta; returns the final iterate, its scores f and the solver trace.

    ``model(beta, f, g, w, J)`` gets the loss's slope g and curvature w at f and returns the step d
    to the feasible minimizer of the local quadratic model, the decrement -grad^T d, the rounding
    error of J at beta and the scores of beta + t d as a function of t.  Backtracking keeps the
    Armijo condition, so every iterate is feasible.  A run stops once the decrement is at most
    1e-12 (1 + |J|) or that rounding error, which bounds what a step can resolve.  J >= 0, so
    backtracking starts below the t with 1e-4 t (-g^T d) = 2 J, and a model flat but for a
    vanishing ridge steps about 1/lambda far; reaching max_iter steps raises SolverError, as does
    a penalty whose curvature 2 lambda overflows.
    """
    if not math.isfinite(2.0 * (lam := float(np.max(R)))):
        raise SolverError(f"twice --lambda {lam:g}, the penalty's curvature, overflows")
    f, steps = np.zeros_like(y) if D is None else D @ beta, 0
    for delta in _HINGE_WIDTHS if loss == "hinge" else (0.0,):
        obj = _Objective(D, y, R, loss, delta)
        value = obj.value(beta, f)
        while True:
            with np.errstate(over="ignore", invalid="ignore"):  # a step that overflows is refused below
                d, decrement, rounding, scores = model(beta, f, *obj.derivatives(f), value)
            if not (np.isfinite(value) and np.isfinite(decrement)):
                raise SolverError("non-finite Newton objective or step")
            if decrement <= max(1e-12 * (1.0 + abs(value)), rounding):
                break
            if steps >= max_iter:
                raise SolverError(f"Newton did not converge within max_iter={max_iter} steps")
            t = 1.0
            while 1e-4 * t * decrement > 2.0 * value:
                t *= 0.5
            shortest = 1e-15 * t
            with np.errstate(over="ignore", invalid="ignore"):  # an overflowing trial is rejected
                while not (trial := obj.value(beta + t * d, moved := scores(t))) <= value - 1e-4 * t * decrement:
                    t *= 0.5
                    if t < shortest:
                        raise SolverError("Newton line search found no decrease")
            beta, f, value = beta + t * d, moved, trial
            steps += 1
    return beta, f, {"iterations": steps, "stop_reason": "converged"}


def _solve_constrained(D: np.ndarray, y: np.ndarray, R: np.ndarray, M: np.ndarray, loss: str,
                       epsilon: float | None, max_iter: int = 10_000) -> tuple[np.ndarray, dict]:
    """Minimize a linear model's sum-loss ridge objective under ||M^T beta||_1 <= epsilon.

    epsilon=None drops the constraint and epsilon=0 restricts beta to an orthonormal null-space
    basis of M^T, where the constraint holds exactly; on either set a quadratic is minimized by
    `_minimize_on`.  A positive budget goes through the exact L1-constrained QP `_qp_l1`.  The
    squared loss is one such quadratic, D^T D + R and D^T y; each `_newton` step of the logistic
    and hinge losses minimizes the p x p Newton model on the same set.  Below the Hessian's
    rounding level, `_whiten` would drop the directions only the ridge R = lam I curves, gradient
    and all, so there the curvature is floored at g^T g / (2 J), the least curvature of a
    quadratic that stays non-negative along -g, and at twice that level.  Returns beta and the
    solver trace {"iterations", "stop_reason"}.
    """
    p = D.shape[1]
    unconstrained = epsilon is None or M.shape[1] == 0
    basis = np.eye(p) if unconstrained else _null_basis(M) if epsilon == 0.0 else None

    def newton_model(P: np.ndarray, q: np.ndarray) -> np.ndarray:
        return _qp_l1(P, q, M, epsilon) if basis is None else _minimize_on(P, q, basis)

    if loss == "squared":
        beta = newton_model(D.T @ D + R, D.T @ y)
        trace = {"iterations": 0, "stop_reason": "closed_form"}
    else:
        abs_d, ridge = np.abs(D), float(np.max(np.diag(R)))

        def model(beta, f, g, w, value):
            grad = D.T @ g + 2.0 * R @ beta
            hess = (D.T * w) @ D + 2.0 * R
            level = p * np.finfo(float).eps * float(np.trace(hess))
            if ridge < level:
                hess[np.diag_indices_from(hess)] += max(float(grad @ grad) / (2.0 * value), 2.0 * level)
            d = newton_model(hess, hess @ beta - grad) - beta
            size = np.abs(beta)
            rounding = 1e-14 * float((abs_d @ size).sum() + size @ R @ size)
            return d, -float(grad @ d), rounding, lambda t: D @ (beta + t * d)

        beta, _, trace = _newton(D, y, R, loss, np.zeros(p), model, max_iter)
    return _checked(beta, M.T @ beta, None if unconstrained else epsilon), trace


def _solve_kernel(spec: KernelSpec, Z: np.ndarray, y: np.ndarray, lam: float, C: np.ndarray, loss: str,
                  epsilon: float | None, max_iter: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """Dual coefficients beta, scores f = K beta and solver trace of the rbf model on Z under
    ||C^T f||_1 <= epsilon: one `_kernel_step` for the squared loss, and one per `_newton` step.

    A Newton model's ridge below its rounding level, n eps (sum w + n grad^T grad / (2 J)) for J's
    gradient K grad, is floored as in `_solve_constrained`: at that level and grad^T K grad / (2 J).
    """
    if loss == "squared":
        beta, f, _ = _kernel_step(spec, Z, C, epsilon, np.full(y.size, 2.0), 2.0 * lam, 2.0 * y)
        return beta, f, {"iterations": 0, "stop_reason": "closed_form"}

    def model(beta, f, g, w, value):
        size, grad = np.abs(beta), g + 2.0 * lam * beta
        level = y.size * np.finfo(float).eps * float(w.sum() + y.size * grad @ grad / (2.0 * value))
        ridge = 2.0 * lam if 2.0 * lam >= level else max(
            level, float(grad @ _kernel_dot(spec, Z, Z, grad)) / (2.0 * value))
        b, fb, k_size = _kernel_step(spec, Z, C, epsilon, w, ridge, w * f - g + (ridge - 2.0 * lam) * beta, size)
        rounding = 1e-14 * float(k_size.sum() + lam * size @ k_size)
        return b - beta, -float(grad @ (fb - f)), rounding, lambda t: f + t * (fb - f)

    return _newton(None, y, lam, loss, np.zeros(y.size), model, max_iter)


def _kernel_step(spec, Z, C, epsilon, w, ridge, r, size=None):
    """Minimizer b of 1/2 b^T (K W K + ridge K) b - (K r)^T b under ||C^T K b||_1 <= epsilon
    (or none), K b, and K ``size`` if given; K = k(Z, Z), W = diag(w) >= 0.

    (W K + ridge I) b = r - C x for the m multipliers x meets the KKT conditions.  Its inverse P
    maps v to v' = v / ridge on the rows where w = 0 and, with S = W^(1/2), to S B^-1 (S^-1 v - S K v')
    on the others, for B = S K S + ridge I; unlike Woodbury's (v - S B^-1 S K v) / ridge, this
    subtracts no nearly equal terms as the ridge vanishes.  B is built a block row at a time, the
    kernel of those rows with curvature against the ones up to them, and each row is factored in
    place (`_cholesky_rows`) as soon as it is built; its share of S K v' takes the kernel against
    the rows without curvature only, where v' is not 0.  G = C^T K P C and h = C^T K P r then fix
    x the same way at every budget: the least-squares solution of G x = h (pairs of one bin can be
    redundant), less, at a positive budget, the minimizer y of 1/2 y^T G y - h^T y under
    ||G y||_1 <= epsilon that `_qp_l1` gives, the call a linear model makes; the constraint values
    h - G x are then the least-squares residual plus G y.
    """
    n, m = Z.shape[0], C.shape[1]
    ds._refuse_above_cap(FermError, f"{spec.kind} kernel matrix of {n} x {n}", n, n)
    band, off = np.flatnonzero(w > 0.0), np.flatnonzero(w == 0.0)
    s = np.sqrt(w[band])[:, None]
    PV = np.column_stack([r, C])
    rhs, rows = PV[band] / s, []
    PV[off] /= ridge
    Zb, Zoff, PVoff = Z[band], Z[off], PV[off]
    for r0 in range(0, band.size, _SOLVE_BLOCK):
        r1 = min(r0 + _SOLVE_BLOCK, band.size)
        rhs[r0:r1] -= s[r0:r1] * (kernel_matrix(spec, Zb[r0:r1], Zoff) @ PVoff)  # v' is 0 on the band
        rows.append(kernel_matrix(spec, Zb[r0:r1], Zb[:r1]))
        rows[-1] *= s[r0:r1]
        rows[-1] *= s[:r1, 0]
        diag = rows[-1][:, r0:]
        diag[np.diag_indices_from(diag)] += ridge
        _cholesky_rows(rows)
    PV[band] = s * _cholesky_rows_solve(rows, rhs)
    del rows
    KPV = _kernel_dot(spec, Z, Z, PV if size is None else np.column_stack([PV, size]))
    x = np.zeros(m)
    if epsilon is not None and m:
        G, h = C.T @ KPV[:, 1:m + 1], C.T @ KPV[:, 0]
        x = np.linalg.lstsq(G, h, rcond=None)[0]
        if epsilon > 0.0:
            x -= _qp_l1(G, h, G.T, epsilon)
    return PV[:, 0] - PV[:, 1:] @ x, KPV[:, 0] - KPV[:, 1:m + 1] @ x, None if size is None else KPV[:, -1]


def _cholesky_rows(rows: list[np.ndarray]) -> None:
    """Overwrite the last block row of a symmetric A with its rows of the Cholesky factor L,
    the block rows above it already holding theirs.

    Block row r is the array A[r0:r1, :r1], so its last r1 - r0 columns are
    the diagonal block.  Left-looking: from the left, each block j of the row
    becomes L[r, j] = (A[r, j] - L[r, :j0] L[j, :j0]^T) L[j, j]^-T, and then
    the diagonal block the np.linalg.cholesky factor of
    A[r, r] - L[r, :r0] L[r, :r0]^T, so every temporary is one block by one
    block.  Only the lower triangle of a diagonal block is read, and its
    strict upper triangle is zero on return.  A pivot that is not positive
    raises SolverError.
    """
    row = rows[-1]
    r0 = row.shape[1] - row.shape[0]
    for above in rows[:-1]:
        j0, j1 = above.shape[1] - above.shape[0], above.shape[1]
        row[:, j0:j1] -= row[:, :j0] @ above[:, :j0].T
        row[:, j0:j1] = np.linalg.solve(above[:, j0:], row[:, j0:j1].T).T
    row[:, r0:] -= row[:, :r0] @ row[:, :r0].T
    try:
        row[:, r0:] = np.linalg.cholesky(row[:, r0:])
    except np.linalg.LinAlgError:
        raise SolverError(f"K + lambda I is not positive definite (a pivot in rows {r0} to {row.shape[1] - 1}"
                          " is not positive); a larger --lambda shifts it further") from None


def _cholesky_rows_solve(rows: list[np.ndarray], B: np.ndarray) -> np.ndarray:
    """X with L L^T X = B, for the factor L that `_cholesky_rows` left in ``rows``.

    Forward substitution takes block r of X after subtracting
    L[r0:r1, :r0] X[:r0]; back substitution, once block r is known,
    subtracts L[r0:r1, :r0]^T X[r0:r1] from the blocks before it, so both
    read L by block rows only.
    """
    X = np.array(B, dtype=float)
    for row in rows:
        j0, j1 = row.shape[1] - row.shape[0], row.shape[1]
        X[j0:j1] -= row[:, :j0] @ X[:j0]
        X[j0:j1] = np.linalg.solve(row[:, j0:], X[j0:j1])
    for row in reversed(rows):
        j0, j1 = row.shape[1] - row.shape[0], row.shape[1]
        X[j0:j1] = np.linalg.solve(row[:, j0:].T, X[j0:j1])
        X[:j0] -= row[:, :j0].T @ X[j0:j1]
    return X


def _checked(beta: np.ndarray, values: np.ndarray, epsilon: float | None) -> np.ndarray:
    """beta, once it is finite and, unless epsilon is None, its constraint values within the budget."""
    if not np.all(np.isfinite(beta)):
        raise SolverError("solver diverged")
    if epsilon is not None:
        achieved = float(np.abs(values).sum())
        if achieved > epsilon + 1e-6:
            raise SolverError(f"constraint violated: {achieved} > {epsilon}; a larger --lambda conditions the solve better")
    return beta


@dataclass(frozen=True)
class FairERMProblem:
    """Training configuration for the cell-constrained ridge problem."""

    loss: str = "squared"
    lam: float = 1.0
    epsilon: float | None = 0.0
    kernel: KernelSpec = field(default_factory=KernelSpec)
    include_sensitive: bool = False

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise FermError(f"unknown loss {self.loss!r}")
        if not 0 < self.lam < math.inf:
            raise FermError(f"lam must be finite and > 0, got {self.lam!r}")
        if self.epsilon is not None and not 0 <= self.epsilon < math.inf:
            raise FermError(f"epsilon must be finite and >= 0, or None; got {self.epsilon!r}")


@dataclass(frozen=True, eq=False)
class KernelModel:
    """Trained model: primal weights (linear) or dual coefficients (rbf).

    ``solver`` is the deterministic solver trace: the number of Newton
    steps and the stop reason, "closed_form" (squared loss, solved
    directly) or "converged"; None for a model document without one.
    """

    kernel: KernelSpec
    include_sensitive: bool
    coef: np.ndarray | None
    dual_coef: np.ndarray | None
    training_inputs: np.ndarray | None
    constraint_report: Mapping[str, object]
    objective_value: float
    solver: Mapping[str, object] | None = None

    def __post_init__(self):
        if not isinstance(self.include_sensitive, bool):
            raise FermError(f"include_sensitive must be true or false, got {self.include_sensitive!r}")
        if self.kernel.kind == "linear":
            arrays, fits = (self.coef,), self.coef is not None and self.coef.ndim == 1
        else:
            arrays = (self.dual_coef, self.training_inputs)
            fits = (all(a is not None for a in arrays) and self.dual_coef.ndim == 1
                    and self.training_inputs.ndim == 2 and self.training_inputs.shape[0] == self.dual_coef.size)
        if not fits:
            raise FermError("a linear model needs a coefficient vector, an rbf model one dual"
                            " coefficient per row of its training inputs")
        if not all(np.isfinite(a).all() for a in arrays):
            raise FermError("model coefficients and training inputs must be finite")

    def decision_function(self, Z: np.ndarray) -> np.ndarray:
        Z = np.asarray(Z, dtype=float)
        width = self.coef.size if self.kernel.kind == "linear" else self.training_inputs.shape[1]
        if Z.shape[1] != width:
            raise FermError(f"the model takes {width} inputs per record, the data gives {Z.shape[1]}")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is a failure, not a warning
            f = (Z @ self.coef if self.kernel.kind == "linear"
                 else _kernel_dot(self.kernel, Z, self.training_inputs, self.dual_coef))
        if not np.isfinite(f).all():
            raise SolverError("the model's scores hold NaN or infinity")
        return f

    def predict_dataset(self, dataset: TabularDataset) -> np.ndarray:
        return self.decision_function(design_matrix(dataset, self.include_sensitive))


def _report(values, epsilon, cs: ConstraintSystem) -> dict:
    return {
        "epsilon": epsilon,
        "achieved_l1": float(np.abs(values).sum()),
        "constraint_values": values,
        "pairs": cs.pairs,
        "degenerate": cs.degenerate,
    }


def _train(problem: FairERMProblem, dataset: TabularDataset, cs: ConstraintSystem, max_iter: int) -> KernelModel:
    loss, lam, kernel = problem.loss, problem.lam, problem.kernel
    Z, y = design_matrix(dataset, problem.include_sensitive), dataset.outcome
    if Z.shape[1] == 0:
        raise FermError("the model has no inputs: declare a feature column or pass --use-sensitive")
    eff_epsilon = None if cs.degenerate else problem.epsilon
    if kernel.kind == "rbf":
        C = cs.matrix()
        beta, f, trace = _solve_kernel(kernel, Z, y, lam, C, loss, eff_epsilon, max_iter)
        values = C.T @ f
        beta, value = _checked(beta, values, eff_epsilon), _Objective(None, y, lam, loss).value(beta, f)
    else:
        M, R = cs.mean_differences(Z), lam * np.eye(Z.shape[1])
        beta, trace = _solve_constrained(Z, y, R, M, loss, eff_epsilon, max_iter=max_iter)
        values, value = M.T @ beta, _Objective(Z, y, R, loss).value(beta)
    return KernelModel(
        kernel=kernel,
        include_sensitive=problem.include_sensitive,
        coef=beta if kernel.kind == "linear" else None,
        dual_coef=None if kernel.kind == "linear" else beta,
        training_inputs=None if kernel.kind == "linear" else Z,
        constraint_report=_report(values, problem.epsilon, cs),
        objective_value=value,
        solver=trace,
    )


def train_gferm(
    problem: FairERMProblem,
    dataset: TabularDataset,
    grid: DiscretizationGrid,
    max_iter: int = 10_000,
) -> KernelModel:
    """Train under the full per-bin cell-difference constraint system.

    Training is deterministic: the solvers use closed forms or Newton
    iterations started from zero, so no seed is consumed.  max_iter caps
    the Newton steps of the hinge and logistic losses.
    """
    return _train(problem, dataset, build_constraints(dataset, grid), max_iter)


def train_ferm_binary(
    dataset: TabularDataset,
    loss: str = "squared",
    lam: float = 1.0,
    epsilon: float | None = 0.0,
    kernel: KernelSpec | None = None,
    include_sensitive: bool = False,
    max_iter: int = 10_000,
) -> KernelModel:
    """Single-constraint training for binary outcome and binary group.

    The constraint bounds the difference of mean scores over the
    positive-labeled records of the two groups, which is the linear-loss
    risk gap on the positive class up to a factor -1/2 (reported).
    """
    if dataset.outcome_kind != "classification":
        raise FermError("binary training needs a classification outcome")
    problem = FairERMProblem(loss, lam, epsilon, kernel or KernelSpec(), include_sensitive)
    model = _train(problem, dataset, binary_positive_constraint(dataset), max_iter)
    gap = model.constraint_report["constraint_values"][0]
    report = dict(model.constraint_report)
    report["positive_class_linear_loss_gap"] = -0.5 * gap
    return replace(model, constraint_report=report)


@dataclass(frozen=True, eq=False)
class LinearFairMap:
    """Feature elimination that zeroes a linear group-mean constraint.

    Solving <w, u> = 0 for the component with the largest |u_i| (lowest
    index on ties) rewrites the model on d-1 features
    x_j - x_i * (u_j / u_i); the transformed constraint vector is exactly
    zero.  A zero u yields the identity map, flagged.
    """

    pivot: int | None
    ratios: np.ndarray | None

    @property
    def identity(self) -> bool:
        return self.pivot is None

    def apply(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.identity:
            return X.copy()
        keep = [j for j in range(X.shape[1]) if j != self.pivot]
        return X[:, keep] - np.outer(X[:, self.pivot], self.ratios[keep])


def fair_linear_transform(X: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, LinearFairMap]:
    u = np.asarray(u, dtype=float)
    if np.all(u == 0.0):
        fmap = LinearFairMap(pivot=None, ratios=None)
        return fmap.apply(X), fmap
    pivot = int(np.argmax(np.abs(u)))  # argmax returns the lowest index on ties
    fmap = LinearFairMap(pivot=pivot, ratios=u / u[pivot])
    return fmap.apply(X), fmap
