"""Convex fair empirical risk minimization over linear and kernel models.

The trained model minimizes sum-of-losses plus a ridge penalty subject to
an L1 bound on the vector of per-cell mean-score differences: for every
outcome bin, the mean feature vectors of any two non-empty sensitive cells
are collected into constraint columns, and the constraint reads
``||A^T w||_1 <= epsilon``.  A zero budget turns the bound into exact
linear equalities, solved by null-space elimination; a positive budget
goes through an exact L1-constrained quadratic program (a dual active-set
method over the facets of the L1 ball).  Unconstrained or at a zero budget,
`_minimize_on` (shared with `multitask`) gives the least-norm minimizer of
a quadratic on the feasible subspace.  The squared loss is one such solve;
the logistic and the (quadratically smoothed) hinge losses run damped
Newton steps over the same feasible set until the Newton decrement
vanishes, and a run that does not converge raises SolverError.  The rbf
kernel's squared loss, at a zero budget or unconstrained, is instead
solved on K + lambda I and an m x m system for the multipliers, which
fixes the dual coefficients even where K is numerically singular; only the
lower block triangle of K + lambda I is formed, one block row at a time, and
factored in place by a blocked Cholesky, so that path holds about half an
n x n matrix, and its objective and an rbf model's decision values are formed
from kernel rows a block at a time.
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
# Rows of each block row of K + lambda I that `_solve_kernel_squared` holds
# (block row r is K[r0:r1, :r1]), and kernel rows that `_kernel_dot` forms at
# a time: the rbf squared-loss path then holds K's lower block triangle, about
# n (n + _SOLVE_BLOCK) / 2 elements, and O(n * _SOLVE_BLOCK) more.
_SOLVE_BLOCK = 128


def _check_kernel_size(spec: KernelSpec, rows: int, columns: int) -> None:
    """Refuse a rows x columns kernel above the ``dataset.MAX_FEATURE_BYTES`` cap."""
    size = rows * columns * 8
    if size > ds.MAX_FEATURE_BYTES:
        raise FermError(
            f"{spec.kind} kernel matrix of {rows} x {columns} needs {size / 2**30:.1f} GiB,"
            f" above the {ds.MAX_FEATURE_BYTES / 2**30:g} GiB limit")


def kernel_matrix(spec: KernelSpec, X: np.ndarray, Z: np.ndarray | None = None) -> np.ndarray:
    """Gram matrix k(x_i, z_j), refused above the ``dataset.MAX_FEATURE_BYTES`` cap."""
    Z = X if Z is None else Z
    _check_kernel_size(spec, X.shape[0], Z.shape[0])
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
    out *= -spec.gamma
    return np.exp(out, out=out)


def _kernel_dot(spec: KernelSpec, X: np.ndarray, Z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """K(X, Z) @ v, the kernel formed `_SOLVE_BLOCK` rows at a time, each block checked by `kernel_matrix`."""
    out = np.empty(X.shape[0])
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
    u, s, _ = np.linalg.svd(M, full_matrices=True)
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
    """Sum-loss objective J(beta) = sum_n loss((D beta)_n, y_n) + beta^T R beta.

    With ``delta > 0`` the hinge max(0, r), r = 1 - y f, is replaced by its
    quadratic smoothing (r^2 / (2 delta) for 0 < r <= delta, r - delta/2
    above), which lies at most delta/2 below it and has a Hessian.
    """

    def __init__(self, D, y, R, loss, delta=0.0):
        self.D, self.y, self.R, self.loss, self.delta = D, y, R, loss, delta

    def value(self, beta: np.ndarray) -> float:
        f = self.D @ beta
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
            m = -self.y * f
            data = np.sum(np.logaddexp(0.0, m))
        return float(data + beta @ self.R @ beta)

    def derivatives(self, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradient and Hessian of the logistic or the smoothed-hinge objective."""
        m = self.y * (self.D @ beta)
        if self.loss == "logistic":
            slope = -np.exp(-np.logaddexp(0.0, m))  # d loss / d margin = -sigmoid(-m)
            curve = -slope * (1.0 + slope)
        else:
            r = 1.0 - m
            slope = -np.clip(r / self.delta, 0.0, 1.0)
            curve = ((r > 0.0) & (r <= self.delta)) / self.delta
        grad = self.D.T @ (self.y * slope) + 2.0 * self.R @ beta
        hess = (self.D.T * (self.y * self.y * curve)) @ self.D + 2.0 * self.R
        return grad, hess


def _whiten(P: np.ndarray, scale: float = 0.0) -> np.ndarray:
    """T with T^T P T = I on the numerical range of the PSD n x n matrix P.

    Eigenvalues up to the rounding level, n eps times the largest eigenvalue
    or ``scale`` if that is larger, are dropped, so T @ (T.T @ q) is the
    minimizer of 1/2 b^T P b - q^T b that has no component along the
    directions where P is numerically flat (null(K) of a kernel problem).
    """
    evals, evecs = np.linalg.eigh(P)
    keep = evals > np.max(evals, initial=scale) * P.shape[0] * np.finfo(float).eps
    return evecs[:, keep] / np.sqrt(evals[keep])


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


def _newton(obj: _Objective, beta: np.ndarray, minimize_model, steps: int, max_iter: int):
    """Damped Newton on obj from the feasible beta.

    ``minimize_model(P, q)`` returns the feasible minimizer of the local
    quadratic model 1/2 b^T P b - q^T b.  The step to it is backtracked
    until the Armijo condition holds, so every iterate stays feasible.  The
    run stops when the Newton decrement -g^T d is at most 1e-12 (1 + |J|),
    or at most the rounding error of evaluating J (which bounds what any
    step can resolve; it dominates only for ill-conditioned kernels).
    Returns the final iterate and the running count of steps taken.

    Two safeguards serve a vanishing ridge.  Every loss is non-negative,
    so J >= 0 and no step length t with 1e-4 t (-g^T d) > 2 J can meet the
    Armijo condition: backtracking starts at the first halving of 1 below
    that bound.  This bounds the step of a model that is flat but for the
    ridge (no hinge record inside the smoothing band, a step about 1/lambda
    long), and it never changes a run that starting at t = 1 completes.
    Where the ridge is below the Hessian's rounding level, `_whiten` would
    drop the directions that only the ridge curves, gradient and all, and
    stop short of the optimum; there the model's curvature is floored at
    g^T g / (2 J), the least curvature of a quadratic that stays
    non-negative along -g, and at twice the rounding level.
    """
    # |D| and |R| are D and R themselves for an rbf kernel (entries in (0, 1])
    # and for the ridge lam I, so only a negative entry makes a copy
    abs_d, abs_r = (A if A.min(initial=0.0) >= 0.0 else np.abs(A) for A in (obj.D, obj.R))
    value = obj.value(beta)
    ridge = float(np.max(np.diag(obj.R)))
    while True:
        grad, hess = obj.derivatives(beta)
        level = hess.shape[0] * np.finfo(float).eps * float(np.trace(hess))
        if ridge < level:
            hess[np.diag_indices_from(hess)] += max(float(grad @ grad) / (2.0 * value), 2.0 * level)
        d = minimize_model(hess, hess @ beta - grad) - beta
        decrement = -float(grad @ d)
        if not (np.isfinite(value) and np.isfinite(decrement)):
            raise SolverError("non-finite Newton objective or step")
        size = np.abs(beta)
        rounding = 1e-14 * float((abs_d @ size).sum() + size @ abs_r @ size)
        if decrement <= max(1e-12 * (1.0 + abs(value)), rounding):
            return beta, steps
        if steps >= max_iter:
            raise SolverError(f"Newton did not converge within max_iter={max_iter} steps")
        t = 1.0
        while 1e-4 * t * decrement > 2.0 * value:
            t *= 0.5
        shortest = 1e-15 * t
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing trial is rejected
            while not (trial := obj.value(beta + t * d)) <= value - 1e-4 * t * decrement:
                t *= 0.5
                if t < shortest:
                    raise SolverError("Newton line search found no decrease")
        beta, value = beta + t * d, trial
        steps += 1


def _solve_constrained(
    D: np.ndarray,
    y: np.ndarray,
    R: np.ndarray,
    M: np.ndarray,
    loss: str,
    epsilon: float | None,
    max_iter: int = 10_000,
) -> tuple[np.ndarray, dict]:
    """Minimize the sum-loss ridge objective under ||M^T beta||_1 <= epsilon.

    epsilon=None drops the constraint and epsilon=0 restricts beta to an
    orthonormal null-space basis of M^T, where the constraint holds
    exactly; on either set a quadratic is minimized by `_minimize_on`.  A
    positive budget goes through the exact L1-constrained QP `_qp_l1`.
    The squared loss is one such quadratic, D^T D + R and D^T y; the rbf
    kernel's squared loss without a positive budget goes to
    `_solve_kernel_squared` instead.  The logistic and hinge losses run
    damped Newton (`_newton`), each step minimizing the local quadratic
    model on the same set; the hinge is smoothed over the widths in
    `_HINGE_WIDTHS` in turn, each run warm-started from the last.
    max_iter caps the total number of Newton steps, and reaching it raises
    SolverError.

    Returns beta and the solver trace {"iterations", "stop_reason"}.
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
        beta, steps = np.zeros(p), 0
        for delta in _HINGE_WIDTHS if loss == "hinge" else (0.0,):
            beta, steps = _newton(_Objective(D, y, R, loss, delta), beta, newton_model, steps, max_iter)
        trace = {"iterations": steps, "stop_reason": "converged"}
    return _checked(beta, M, None if unconstrained else epsilon), trace


def _solve_kernel_squared(
    spec: KernelSpec, Z: np.ndarray, y: np.ndarray, lam: float, cs: ConstraintSystem,
    epsilon: float | None,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Kernel squared loss under M^T beta = 0, M = K C for K = k(Z, Z) and the C of ``cs``;
    unconstrained when epsilon is None.

    Every term carries the factor K (D = K, R = lam K, M = K C), so the
    KKT conditions K ((K + lam I) beta - y + C nu) = 0, M^T beta = 0 are
    met by (K + lam I) beta = y - C nu.  One solve of the positive definite
    K + lam I against [y, C] gives S y and S C, nu solves the m x m system
    (M^T S C) nu = M^T S y (by least squares: pairs of one bin can be
    redundant), and beta = S y - S C nu.  Unlike a solve with K^2 + lam K,
    this determines beta even where K is numerically singular.

    K + lam I is held as its lower block triangle: block row r, the rows
    r0:r1 of the r-th block of `_SOLVE_BLOCK`, is its own array
    K[r0:r1, :r1] + lam I, cut from kernel_matrix(spec, Z[r0:r1], Z) once
    that block's rows of M have been taken as block @ C.  It is factored in
    place (`_cholesky_rows`), so the solve holds about n (n + _SOLVE_BLOCK) / 2
    elements rather than n^2; the size check still counts the whole n x n
    kernel.  M is the product with the dense C rather than
    ``cs.mean_differences(K)``, which copies the rows of K in each cell.
    A K + lam I that is not positive definite in floating point raises
    SolverError.  Returns beta, M and the solver trace.
    """
    n = Z.shape[0]
    _check_kernel_size(spec, n, n)
    C = cs.matrix()
    M = np.empty((n, C.shape[1]))
    rows = []
    for r0 in range(0, n, _SOLVE_BLOCK):
        r1 = min(r0 + _SOLVE_BLOCK, n)
        block = kernel_matrix(spec, Z[r0:r1], Z)
        M[r0:r1] = block @ C
        rows.append(block[:, :r1].copy())
        del block
        diag = rows[-1][:, r0:]
        diag[np.diag_indices_from(diag)] += lam
    _cholesky_rows(rows)
    S = _cholesky_rows_solve(rows, y if epsilon is None else np.column_stack([y, C]))
    if epsilon is None:
        beta = S
    else:
        nu = np.linalg.lstsq(M.T @ S[:, 1:], M.T @ S[:, 0], rcond=None)[0]
        beta = S[:, 0] - S[:, 1:] @ nu
    trace = {"iterations": 0, "stop_reason": "closed_form"}
    return _checked(beta, M, epsilon), M, trace


def _cholesky_rows(rows: list[np.ndarray]) -> None:
    """Overwrite a symmetric A, held as block rows, with its Cholesky factor L.

    Block row r is the array A[r0:r1, :r1], so its last r1 - r0 columns are
    the diagonal block.  Right-looking: each diagonal block is factored by
    np.linalg.cholesky, the panel below it gathered from the block rows
    under it and solved against that factor, and each of those block rows
    updated by the panel in turn, so no temporary is larger than the panel.
    Only the lower triangle of a diagonal block is read, and its strict upper
    triangle is zero on return.  A pivot that is not positive raises
    SolverError.
    """
    for j, row in enumerate(rows):
        j0, j1 = row.shape[1] - row.shape[0], row.shape[1]
        try:
            row[:, j0:] = np.linalg.cholesky(row[:, j0:])
        except np.linalg.LinAlgError:
            raise SolverError(f"K + lambda I is not positive definite (a pivot in rows {j0} to {j1 - 1}"
                              " is not positive); a larger --lambda shifts it further") from None
        below = rows[j + 1:]
        if not below:
            break
        panel = np.linalg.solve(row[:, j0:], np.concatenate([r[:, j0:j1] for r in below]).T).T
        done = 0
        for r in below:
            r[:, j0:j1] = panel[done:done + r.shape[0]]
            done += r.shape[0]
            r[:, j1:] -= r[:, j0:j1] @ panel[:done].T


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


def _checked(beta: np.ndarray, M: np.ndarray, epsilon: float | None) -> np.ndarray:
    """beta, once it is finite and, unless epsilon is None, within the budget."""
    if not np.all(np.isfinite(beta)):
        raise SolverError("solver diverged")
    if epsilon is not None:
        achieved = float(np.abs(M.T @ beta).sum())
        if achieved > epsilon + 1e-6:
            raise SolverError(f"constraint violated: {achieved} > {epsilon}")
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
        if self.kernel.kind == "linear":
            return Z @ self.coef
        return _kernel_dot(self.kernel, Z, self.training_inputs, self.dual_coef)

    def predict_dataset(self, dataset: TabularDataset) -> np.ndarray:
        return self.decision_function(design_matrix(dataset, self.include_sensitive))


def _report(M, beta, epsilon, cs: ConstraintSystem) -> dict:
    values = M.T @ beta
    return {
        "epsilon": epsilon,
        "achieved_l1": float(np.abs(values).sum()),
        "constraint_values": [float(v) for v in values],
        "pairs": [list(p) for p in cs.pairs],
        "degenerate": cs.degenerate,
    }


def _train(problem: FairERMProblem, dataset: TabularDataset, cs: ConstraintSystem, max_iter: int) -> KernelModel:
    loss, lam, kernel = problem.loss, problem.lam, problem.kernel
    Z, y = design_matrix(dataset, problem.include_sensitive), dataset.outcome
    eff_epsilon = None if cs.degenerate else problem.epsilon
    if kernel.kind == "rbf" and loss == "squared" and eff_epsilon in (None, 0.0):
        # the solve holds only K's lower block triangle, so K beta is formed from kernel rows
        beta, M, trace = _solve_kernel_squared(kernel, Z, y, lam, cs, eff_epsilon)
        f = _kernel_dot(kernel, Z, Z, beta)
        value = float(np.sum((f - y) ** 2) + lam * (beta @ f))
    else:
        D = Z if kernel.kind == "linear" else kernel_matrix(kernel, Z)
        M = cs.mean_differences(D)
        R = lam * (np.eye(Z.shape[1]) if kernel.kind == "linear" else D)
        beta, trace = _solve_constrained(D, y, R, M, loss, eff_epsilon, max_iter=max_iter)
        value = _Objective(D, y, R, loss).value(beta)
    return KernelModel(
        kernel=kernel,
        include_sensitive=problem.include_sensitive,
        coef=beta if kernel.kind == "linear" else None,
        dual_coef=None if kernel.kind == "linear" else beta,
        training_inputs=None if kernel.kind == "linear" else Z,
        constraint_report=_report(M, beta, problem.epsilon, cs),
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
