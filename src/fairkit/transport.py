"""One-dimensional optimal transport on empirical score distributions.

Distributions are represented by a B-bin quantile table built from the
samples.  The i-th quantile is the supremum, over the real line, of the set
of scores whose empirical CDF mass does not exceed (i-1)/B; for a step CDF
that supremum is the smallest sample whose cumulative mass strictly exceeds
the bound, so every table entry is an observed sample value.  All distances,
barycenters and partial repairs are computed on these tables, which makes
1-D transport exact up to bin resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .dataset import GroupCodes, factorize

__all__ = [
    "TransportError",
    "EmpiricalDistribution",
    "RepairPlan",
    "quantile",
    "inverse_quantile",
    "wasserstein",
    "pairwise_wasserstein",
    "barycenter",
    "geodesic_repair",
    "expected_prediction_changes",
    "default_bins",
]


class TransportError(ValueError):
    """Invalid input to a transport operation."""


def default_bins(group_sizes: Sequence[int]) -> int:
    """Default bin count: min(100, smallest group size)."""
    sizes = [int(s) for s in group_sizes]
    if not sizes or min(sizes) < 1:
        raise TransportError("every group must contain at least one score")
    return min(100, min(sizes))


def _quantile_table(sorted_values: np.ndarray, bins: int) -> np.ndarray:
    """Quantile table q(1..B) of a sorted sample vector.

    q(i) is the smallest sample whose cumulative count c satisfies
    c * B > (i - 1) * N; the comparison is done in integer arithmetic so
    ties and bin boundaries are exact.
    """
    distinct, first = np.unique(sorted_values, return_index=True)
    # cumulative count through the end of each tie block
    cum = np.append(first[1:], sorted_values.size).astype(np.int64)
    bounds = np.arange(bins, dtype=np.int64) * sorted_values.size  # (i-1)*N
    idx = np.searchsorted(cum * bins, bounds, side="right")
    return distinct[np.minimum(idx, distinct.size - 1)]


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """Sorted samples together with their cached B-bin quantile table."""

    samples: np.ndarray
    bins: int
    quantiles: np.ndarray

    @classmethod
    def from_samples(cls, values, bins: int | None = None) -> "EmpiricalDistribution":
        v = np.asarray(values, dtype=float).ravel()
        if v.size == 0:
            raise TransportError("empty distribution")
        if not np.all(np.isfinite(v)):
            raise TransportError("samples must be finite")
        v = np.sort(v)
        b = default_bins([v.size]) if bins is None else int(bins)
        if b < 1:
            raise TransportError("bins must be >= 1")
        return cls(samples=v, bins=b, quantiles=_quantile_table(v, b))

    @property
    def size(self) -> int:
        return int(self.samples.size)


def quantile(dist: EmpiricalDistribution, i: int) -> float:
    """i-th quantile of the distribution, i in [1, B]."""
    if not 1 <= i <= dist.bins:
        raise TransportError(f"quantile index {i} outside [1, {dist.bins}]")
    return float(dist.quantiles[i - 1])


def inverse_quantile(dist: EmpiricalDistribution, s: float) -> int:
    """Largest bin index whose quantile does not exceed ``s``.

    The supremum over an empty index set floors at 1, so the map is total.
    """
    idx = int(np.searchsorted(dist.quantiles, s, side="right"))
    return max(idx, 1)


def wasserstein(p: EmpiricalDistribution, q: EmpiricalDistribution, order: int = 2) -> float:
    """Transport cost (1/B) sum_i |q_p(i) - q_q(i)|^order.

    Returns the order-th power of the Wasserstein distance (not its root);
    in 1-D the sorted quantile coupling is the optimal transport plan.
    """
    if order not in (1, 2):
        raise TransportError("order must be 1 or 2")
    if p.bins != q.bins:
        raise TransportError(f"bin mismatch: {p.bins} != {q.bins}")
    return float(np.mean(np.abs(p.quantiles - q.quantiles) ** order))


def pairwise_wasserstein(dists: Sequence[EmpiricalDistribution], order: int) -> list[float]:
    """Transport costs of every unordered pair (i < j), in row-major order."""
    return [wasserstein(p, q, order=order) for i, p in enumerate(dists) for q in dists[i + 1:]]


def _weighted_lower_median(values: np.ndarray, weights: np.ndarray) -> float:
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    j = int(np.searchsorted(cum, 0.5 - 1e-12, side="left"))
    return float(values[order][min(j, values.size - 1)])


def barycenter(
    dists: Sequence[EmpiricalDistribution],
    weights: Sequence[float],
    order: int = 2,
) -> EmpiricalDistribution:
    """Weighted barycenter of 1-D distributions under the order-p cost.

    Order 2 takes the per-bin weighted mean of the quantile tables; order 1
    takes the per-bin weighted lower median.  The result is materialized as
    a B-sample distribution whose own quantile table reproduces the
    interpolated table.
    """
    if order not in (1, 2):
        raise TransportError("order must be 1 or 2")
    if not dists:
        raise TransportError("need at least one distribution")
    w = np.asarray(weights, dtype=float)
    if w.size != len(dists) or np.any(w < 0):
        raise TransportError("weights must be non-negative, one per distribution")
    if abs(w.sum() - 1.0) > 1e-9:
        raise TransportError(f"weights sum to {w.sum()!r}, expected 1")
    bins = dists[0].bins
    if any(d.bins != bins for d in dists):
        raise TransportError("all distributions must share the bin count")
    tables = np.stack([d.quantiles for d in dists])  # (G, B)
    if order == 2:
        table = w @ tables
    else:
        table = np.array(
            [_weighted_lower_median(tables[:, i], w) for i in range(bins)]
        )
    return EmpiricalDistribution.from_samples(table, bins=bins)


@dataclass(frozen=True, eq=False)
class RepairPlan:
    """Per-group distributions plus the barycenter table for one repair.

    ``map_scores`` sends a score through its group's partially repaired
    quantile map: the score's own bin index i is looked up, and the output
    is the interpolated quantile (1-t) * q_group(i) + t * q_barycenter(i).
    At t=0 this reproduces the group's own quantiles (identity up to bin
    quantization) and at t=1 it lands exactly on the barycenter table.
    Only ``trade_off`` depends on t, so ``dataclasses.replace(plan,
    trade_off=t)`` re-interpolates a plan at another t.
    """

    group_codes: tuple
    trade_off: float
    order: int
    bins: int
    weights: np.ndarray
    group_distributions: Mapping[object, EmpiricalDistribution]
    barycenter_table: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.trade_off <= 1.0:
            raise TransportError(f"trade-off t={self.trade_off!r} outside [0, 1]")

    def interpolated_table(self, code) -> np.ndarray:
        t = self.trade_off
        return (1.0 - t) * self.group_distributions[code].quantiles + t * self.barycenter_table

    def map_scores(self, code, values) -> np.ndarray:
        if code not in self.group_distributions:
            raise TransportError(f"unknown group code {code!r}")
        v = np.asarray(values, dtype=float)
        idx = np.searchsorted(self.group_distributions[code].quantiles, v, side="right")
        idx = np.clip(idx, 1, self.bins)
        return self.interpolated_table(code)[idx - 1]

    def barycenter_distribution(self) -> EmpiricalDistribution:
        return EmpiricalDistribution.from_samples(self.barycenter_table, bins=self.bins)


def geodesic_repair(
    values,
    groups,
    t: float,
    bins: int | None = None,
    order: int = 2,
    weights: str = "empirical",
) -> tuple[np.ndarray, RepairPlan]:
    """Partially repair scores toward the group barycenter.

    Parameters
    ----------
    values : per-record scores.
    groups : per-record group codes, aligned with ``values``, or their
        ``factorize`` encoding, used as given.
    t : trade-off in [0, 1]; 0 leaves groups untouched, 1 matches them all
        to the barycenter up to bin resolution.
    bins : quantile bins; defaults to min(100, smallest group size).
    order : 1 or 2, the transport cost order used for the barycenter.
    weights : "empirical" (group frequencies) or "uniform".

    Returns the repaired scores (aligned with the input) and the plan, whose
    groups are the encoding's labels, in first-appearance order.
    """
    v = np.asarray(values, dtype=float).ravel()
    enc = groups if isinstance(groups, GroupCodes) else factorize(groups)
    if v.size != enc.codes.size:
        raise TransportError("values and groups must align")
    if v.size == 0:
        raise TransportError("no scores to repair")
    codes = enc.labels
    if any(c != c for c in codes):  # NaN is the one label unequal to itself
        raise TransportError("group labels must not be NaN")
    b = default_bins(enc.counts) if bins is None else int(bins)
    if b < 1:
        raise TransportError("bins must be >= 1")
    dists = [EmpiricalDistribution.from_samples(v[idx], bins=b) for idx in enc.members]

    if weights == "empirical":
        w = enc.counts / v.size
    elif weights == "uniform":
        w = np.full(len(codes), 1.0 / len(codes))
    else:
        raise TransportError(f"unknown weight scheme {weights!r}")

    plan = RepairPlan(
        group_codes=codes,
        trade_off=float(t),
        order=order,
        bins=b,
        weights=w,
        group_distributions=dict(zip(codes, dists)),
        barycenter_table=barycenter(dists, w, order=order).quantiles,
    )
    repaired = np.empty_like(v)
    for c, idx in zip(codes, enc.members):
        repaired[idx] = plan.map_scores(c, v[idx])
    return repaired, plan


def expected_prediction_changes(
    original: EmpiricalDistribution,
    transport_map: Callable[[np.ndarray], np.ndarray],
) -> float:
    """Expected class prediction changes under a uniform threshold.

    A prediction flips for threshold tau exactly when tau lies between a
    score and its transported image, so the expectation over tau ~ U([0,1])
    is the sample mean of |x - T(x)|.  Both the scores and their images must
    lie in [0, 1].
    """
    x = original.samples
    tx = np.asarray(transport_map(x), dtype=float)
    if tx.shape != x.shape:
        raise TransportError("transport map must preserve the sample shape")
    for name, arr in (("scores", x), ("mapped scores", tx)):
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise TransportError(f"{name} must lie in [0, 1]")
    return float(np.mean(np.abs(x - tx)))
