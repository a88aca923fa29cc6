"""Group fairness criteria on model scores and hard predictions.

Threshold-based criteria (demographic parity, equalized odds, predictive
parity) use the strict rule yhat = 1{score > threshold}; ties at the
threshold classify as the negative class.  Cell-based criteria average
absolute differences of per-cell accuracy (or loss) over ordered pairs of
non-empty sensitive cells inside each outcome bin; empty cells are skipped
and reported, never imputed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .dataset import DiscretizationGrid, GroupCodes, factorize
from .transport import EmpiricalDistribution, default_bins, pairwise_wasserstein

__all__ = [
    "MetricError",
    "ScoreSet",
    "StrongDPResult",
    "OddsGaps",
    "PredictiveParityResult",
    "CellGapResult",
    "demographic_parity_gap",
    "strong_demographic_parity",
    "equalized_odds_gaps",
    "predictive_parity_gap",
    "general_fairness_gap",
    "loss_general_fairness_gap",
    "full_report",
]


class MetricError(ValueError):
    """Invalid input to a fairness metric."""


@dataclass(frozen=True, eq=False)
class ScoreSet:
    """Aligned per-record scores, group codes, outcomes, and a threshold.

    ``group`` may also be the ``factorize`` encoding of the records'
    labels; its codes then serve as float group codes, and it is reused as
    their encoding, relabeled 0.0, 1.0, ... as factorizing them would.
    ``outcome`` may be None for purely score-distribution criteria.  The
    threshold, when present, derives predictions strictly as score > tau.
    """

    scores: np.ndarray
    group: np.ndarray | GroupCodes
    outcome: np.ndarray | None = None
    threshold: float | None = None

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float)
        if isinstance(self.group, GroupCodes):
            enc = self.group
            if any(c != c for c in enc.labels):  # NaN is the one label unequal to itself
                raise MetricError("group labels must not be NaN")
            object.__setattr__(self, "encoding", replace(enc, labels=tuple(map(float, range(len(enc.labels))))))
            group = enc.codes.astype(float)
        else:
            group = np.asarray(self.group)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "group", group)
        if self.outcome is not None:
            outcome = np.asarray(self.outcome, dtype=float)
            object.__setattr__(self, "outcome", outcome)
            if outcome.shape != scores.shape:
                raise MetricError("outcome must align with scores")
        if scores.ndim != 1 or scores.size == 0:
            raise MetricError("scores must be a non-empty vector")
        if group.shape != scores.shape:
            raise MetricError("group must align with scores")
        if group.dtype.kind in "fc" and np.isnan(group).any():
            raise MetricError("group labels must not be NaN")

    @cached_property
    def encoding(self) -> GroupCodes:
        return factorize(self.group)

    @property
    def predictions(self) -> np.ndarray:
        if self.threshold is None:
            raise MetricError("this criterion needs a threshold")
        return (self.scores > self.threshold).astype(float)


def _outcome_table(scores: ScoreSet) -> np.ndarray:
    """Records per (group, prediction, outcome sign): a (G, 2, 3) count table.

    The last axis counts negative, zero (or absent) and positive outcomes.
    Every threshold criterion is a ratio of sums of these counts, the same
    value as the mean of the 0/1 indicators it replaces.
    """
    enc = scores.encoding
    n_groups = len(enc.labels)
    y = scores.outcome
    sign = 1 if y is None else 1 + (y > 0).astype(int) - (y < 0)
    cell = (enc.codes * 2 + (scores.predictions > 0)) * 3 + sign
    return np.bincount(cell, minlength=6 * n_groups).reshape(n_groups, 2, 3)


def _max_pairwise_gap(rates: np.ndarray) -> float:
    # max |a - b| over pairs is max - min: rounding is monotone, so no pair rounds above it
    return float(rates.max() - rates.min()) if rates.size else 0.0


def demographic_parity_gap(scores: ScoreSet) -> float:
    """Largest pairwise gap in positive prediction rates across groups."""
    table = _outcome_table(scores)
    return _max_pairwise_gap(table[:, 1].sum(axis=1) / scores.encoding.counts)


class StrongDPResult(NamedTuple):
    """Threshold-free demographic parity deviations.

    d_pair sums the order-2 transport cost over ordered group pairs;
    max_w1 is the largest pairwise order-1 cost.  Both are zero exactly
    when all group score distributions coincide at bin resolution.
    """

    d_pair: float
    max_w1: float


def strong_demographic_parity(scores: ScoreSet, bins: int | None = None) -> StrongDPResult:
    enc = scores.encoding
    b = default_bins(enc.counts) if bins is None else int(bins)
    dists = [EmpiricalDistribution.from_samples(scores.scores[idx], bins=b) for idx in enc.members]
    d_pair = 0.0
    for cost in pairwise_wasserstein(dists, order=2):
        d_pair += 2.0 * cost
    return StrongDPResult(d_pair=d_pair, max_w1=max(pairwise_wasserstein(dists, order=1), default=0.0))


class OddsGaps(NamedTuple):
    fpr_gap: float
    fnr_gap: float
    excluded: tuple


def equalized_odds_gaps(scores: ScoreSet) -> OddsGaps:
    """Max pairwise false-positive and false-negative rate gaps.

    Groups missing an outcome class are excluded from that comparison and
    reported in ``excluded``.
    """
    if scores.outcome is None:
        raise MetricError("equalized odds needs outcomes")
    table = _outcome_table(scores)
    neg, pos = table[:, :, 0].sum(axis=1), table[:, :, 2].sum(axis=1)
    keep = (neg > 0) & (pos > 0)
    fpr = table[keep, 1, 0] / neg[keep]
    fnr = 1.0 - table[keep, 1, 2] / pos[keep]
    excluded = tuple(label for label, kept in zip(scores.encoding.labels, keep) if not kept)
    return OddsGaps(_max_pairwise_gap(fpr), _max_pairwise_gap(fnr), excluded)


class PredictiveParityResult(NamedTuple):
    gap: float
    excluded: tuple


def predictive_parity_gap(scores: ScoreSet) -> PredictiveParityResult:
    """Max pairwise precision gap among groups with positive predictions."""
    if scores.outcome is None:
        raise MetricError("predictive parity needs outcomes")
    table = _outcome_table(scores)
    predicted = table[:, 1].sum(axis=1)
    keep = predicted > 0
    precision = table[keep, 1, 2] / predicted[keep]
    excluded = tuple(label for label, kept in zip(scores.encoding.labels, keep) if not kept)
    return PredictiveParityResult(_max_pairwise_gap(precision), excluded)


@dataclass(frozen=True, eq=False)
class CellGapResult:
    """Average absolute per-cell gap plus the raw table behind it.

    ``value`` averages |table[k, p] - table[k, q]| over ordered pairs
    p != q of non-empty cells within each outcome bin k, normalized by the
    number of included pairs.  ``table`` holds the per-cell statistic with
    NaN marking skipped (empty) cells.
    """

    value: float
    table: np.ndarray
    skipped_cells: tuple[tuple[int, int], ...]
    included_pairs: int


def _cell_gap(table: np.ndarray, counts: np.ndarray) -> tuple[float, tuple, int]:
    n_k, n_q = table.shape
    skipped = tuple(
        (k, q) for k in range(n_k) for q in range(n_q) if counts[k, q] == 0
    )
    total = 0.0
    pairs = 0
    for k in range(n_k):
        present = [q for q in range(n_q) if counts[k, q] > 0]
        for p in present:
            for q in present:
                if p == q:
                    continue
                total += abs(table[k, p] - table[k, q])
                pairs += 1
    value = total / pairs if pairs else 0.0
    return value, skipped, pairs


def _cell_layout(scores: ScoreSet, grid: DiscretizationGrid):
    if scores.outcome is None:
        raise MetricError("cell-based criteria need outcomes")
    try:
        group_values = scores.group.astype(float)
    except ValueError:
        raise MetricError("cell-based criteria need numeric group codes") from None
    return grid.cell_ids(scores.outcome, group_values)


def _cell_result(cell: np.ndarray, counts: np.ndarray, values: np.ndarray) -> CellGapResult:
    """Per-cell means of ``values`` (NaN for empty cells) and their gap."""
    sums = np.bincount(cell, weights=values, minlength=counts.size).reshape(counts.shape)
    table = np.full(counts.shape, np.nan)
    nz = counts > 0
    table[nz] = sums[nz] / counts[nz]
    value, skipped, pairs = _cell_gap(table, counts)
    return CellGapResult(value, table, skipped, pairs)


def general_fairness_gap(scores: ScoreSet, grid: DiscretizationGrid) -> CellGapResult:
    """Accuracy-parity over (outcome, sensitive) cells.

    The per-cell statistic is the fraction of records whose model output
    falls inside the cell's own outcome bin.  In the binary setting this
    averages the false-positive and false-negative rate gaps.
    """
    cell, counts = _cell_layout(scores, grid)
    k_idx = cell // grid.n_s_bins
    f, edges = scores.scores, grid.y_edges
    return _cell_result(cell, counts, (f >= edges[k_idx]) & (f < edges[k_idx + 1]))


def loss_general_fairness_gap(
    scores: ScoreSet,
    grid: DiscretizationGrid,
    loss: str = "hard",
    outcome_kind: str = "classification",
) -> CellGapResult:
    """Loss-parity over (outcome, sensitive) cells.

    The hard loss 1{f outside the cell's outcome bin} is the complement of
    the accuracy statistic, so its gap value is delegated to
    ``general_fairness_gap`` and matches it bitwise.  The linear loss is
    (1 - f*y)/2 for classification and the signed residual f - y for
    regression.
    """
    if loss == "hard":
        base = general_fairness_gap(scores, grid)
        return CellGapResult(base.value, 1.0 - base.table, base.skipped_cells, base.included_pairs)
    if loss != "linear":
        raise MetricError(f"unknown loss kind {loss!r}")
    f, y = scores.scores, scores.outcome
    cell, counts = _cell_layout(scores, grid)
    if outcome_kind == "classification":
        losses = (1.0 - f * y) / 2.0
    elif outcome_kind == "regression":
        losses = f - y
    else:
        raise MetricError(f"unknown outcome kind {outcome_kind!r}")
    return _cell_result(cell, counts, losses)


def _entry(value: float, skipped=()) -> dict:
    return {"value": value, "table": None, "skipped_cells": list(skipped)}


def _cell_entry(result: CellGapResult) -> dict:
    return {
        "value": result.value,
        "table": [[None if np.isnan(x) else float(x) for x in row] for row in result.table],
        "skipped_cells": [list(c) for c in result.skipped_cells],
    }


def full_report(
    scores: ScoreSet,
    grid: DiscretizationGrid | None = None,
    bins: int | None = None,
    outcome_kind: str = "classification",
) -> dict:
    """Every criterion the inputs support, as a JSON object: tables are lists, None for an empty cell."""
    criteria: dict[str, dict] = {}
    sdp = strong_demographic_parity(scores, bins=bins)
    criteria["strong_demographic_parity"] = {**_entry(sdp.max_w1), "d_pair": sdp.d_pair}
    if scores.threshold is not None:
        criteria["demographic_parity"] = _entry(demographic_parity_gap(scores))
        if scores.outcome is not None:
            odds = equalized_odds_gaps(scores)
            criteria["equal_false_positive_rates"] = _entry(odds.fpr_gap, odds.excluded)
            criteria["equal_false_negative_rates"] = _entry(odds.fnr_gap, odds.excluded)
            pp = predictive_parity_gap(scores)
            criteria["predictive_parity"] = _entry(pp.gap, pp.excluded)
    if grid is not None and scores.outcome is not None:
        criteria["general_fairness"] = _cell_entry(general_fairness_gap(scores, grid))
        criteria["loss_general_fairness_hard"] = _cell_entry(
            loss_general_fairness_gap(scores, grid, loss="hard")
        )
        criteria["loss_general_fairness_linear"] = _cell_entry(
            loss_general_fairness_gap(scores, grid, loss="linear", outcome_kind=outcome_kind)
        )
    return dict(sorted(criteria.items()))
