"""Predictive-performance and calibration metrics.

All functions are pure and permutation-invariant. Calibration uses equal
width confidence bins on [0, 1]; a confidence exactly on an interior edge
falls in the higher bin and the last bin is closed on the right. The
maximum calibration error here keeps the n_b/N weight inside the max, so
it can never exceed the expected calibration error; the conventional
unweighted maximum gap is available separately. Each calibration error
takes a prediction set or, binned once already, its BinStats (``n_bins``
is then unused).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, UndefinedMetricError

__all__ = [
    "BinStats",
    "bin_stats",
    "accuracy",
    "average_precision",
    "ece",
    "mce",
    "max_gap_unweighted",
    "auroc_ood",
    "DEFAULT_BINS",
    "HIGHER_BETTER",
    "METRIC_KEYS",
]

DEFAULT_BINS = 15

# Report metrics, in column order, each with its orientation: is larger
# better? auroc_ood is computed against the ID validation set and omitted
# on the validation row itself.
HIGHER_BETTER = {
    "accuracy": True,
    "ap": True,
    "ece": False,
    "mce": False,
    "max_gap": False,
    "auroc_ood": True,
}
METRIC_KEYS = tuple(HIGHER_BETTER)


def predicted_class(probs: np.ndarray) -> np.ndarray:
    """Argmax class per row; exact ties go to class 0."""
    p = np.asarray(probs)
    return (p[:, 1] > p[:, 0]).astype(np.int64)


def accuracy(pred) -> float:
    """Fraction of samples whose argmax probability matches the label."""
    if len(pred) == 0:
        raise DataError("accuracy of an empty prediction set is undefined")
    return float(np.mean(predicted_class(pred.probs) == pred.labels))


def average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    """Precision-weighted sum of recall increments over score thresholds.

    Thresholds are the unique scores in descending order; at threshold k
    the positive set is every sample with score >= threshold. Requires at
    least one positive label.

    Parameters
    ----------
    scores : positive-class scores, higher means more positive
    labels : binary labels, 1 is the positive class
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise DataError("scores and labels must be matching 1-D arrays")
    if scores.size == 0:
        raise DataError("average precision of an empty set is undefined")
    n_pos = int(np.sum(labels == 1))
    if n_pos == 0:
        raise UndefinedMetricError("average precision is undefined without positive labels")
    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    # Last index of each tie group marks a threshold boundary.
    boundary = np.nonzero(np.diff(sorted_scores))[0]
    cut = np.concatenate([boundary, [scores.size - 1]])
    tp = np.cumsum(sorted_labels == 1)[cut]
    total = cut + 1
    precision = tp / total
    recall = tp / n_pos
    delta_r = np.diff(recall, prepend=0.0)
    return float(np.sum(precision * delta_r))


@dataclass(frozen=True)
class BinStats:
    """Per-bin accumulators for reliability diagrams and calibration errors."""

    edges: np.ndarray  # (B + 1,)
    counts: np.ndarray  # (B,)
    acc: np.ndarray  # (B,), 0 where the bin is empty
    con: np.ndarray  # (B,), 0 where the bin is empty

    @property
    def n_bins(self) -> int:
        return len(self.counts)

    @property
    def n_samples(self) -> int:
        return int(self.counts.sum())


def bin_stats(pred, n_bins: int = DEFAULT_BINS) -> BinStats:
    """Bin samples by confidence (max predicted probability).

    Bin index is min(floor(confidence * B), B - 1): interior edges belong
    to the higher bin, confidence 1.0 to the last bin.
    """
    if len(pred) == 0:
        raise DataError("cannot bin an empty prediction set")
    if n_bins < 1:
        raise DataError(f"need at least one bin, got {n_bins}")
    conf = np.max(pred.probs, axis=1)
    correct = (predicted_class(pred.probs) == pred.labels).astype(np.float64)
    idx = np.minimum(np.floor(conf * n_bins).astype(np.int64), n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins).astype(np.int64)
    acc_sum = np.bincount(idx, weights=correct, minlength=n_bins)
    con_sum = np.bincount(idx, weights=conf, minlength=n_bins)
    nonzero = counts > 0
    acc = np.where(nonzero, acc_sum / np.maximum(counts, 1), 0.0)
    con = np.where(nonzero, con_sum / np.maximum(counts, 1), 0.0)
    return BinStats(np.linspace(0.0, 1.0, n_bins + 1), counts, acc, con)


def _gaps(pred, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """|acc(b) - con(b)| of each non-empty bin, and (n_b / N) |acc(b) - con(b)| of each bin."""
    stats = pred if isinstance(pred, BinStats) else bin_stats(pred, n_bins)
    gaps = np.abs(stats.acc - stats.con)
    return gaps[stats.counts > 0], stats.counts / stats.n_samples * gaps


def ece(pred, n_bins: int = DEFAULT_BINS) -> float:
    """Expected calibration error: sum_b (n_b / N) |acc(b) - con(b)|."""
    return float(np.sum(_gaps(pred, n_bins)[1]))


def mce(pred, n_bins: int = DEFAULT_BINS) -> float:
    """Maximum calibration error: max_b (n_b / N) |acc(b) - con(b)|.

    The bin weight stays inside the max, so mce <= ece always holds.
    """
    return float(np.max(_gaps(pred, n_bins)[1]))


def max_gap_unweighted(pred, n_bins: int = DEFAULT_BINS) -> float:
    """Conventional variant: max_b |acc(b) - con(b)| over non-empty bins."""
    return float(np.max(_gaps(pred, n_bins)[0]))


def _mean_std(values) -> tuple[float, float, int]:
    """Mean, population std (n divisor) and count of ``values``."""
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std()), arr.size


def _midranks(values: np.ndarray) -> np.ndarray:
    """Ranks (1-based) with ties assigned the mean rank of their group."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    group_end = np.cumsum(counts)
    group_mid = group_end - (counts - 1) / 2.0
    return group_mid[inverse]


def auroc_ood(scores_id: np.ndarray, scores_ood: np.ndarray) -> float:
    """Probability that a random OOD score exceeds a random ID score.

    Equals the Mann-Whitney statistic with ties counted one half, computed
    from midranks in O(n log n). OOD is the positive class: higher
    uncertainty should mean more OOD.
    """
    a = np.asarray(scores_id, dtype=np.float64).ravel()
    b = np.asarray(scores_ood, dtype=np.float64).ravel()
    if a.size == 0 or b.size == 0:
        raise DataError("auroc_ood needs non-empty ID and OOD score lists")
    ranks = _midranks(np.concatenate([a, b]))
    rank_sum_ood = float(np.sum(ranks[a.size :]))
    u = rank_sum_ood - b.size * (b.size + 1) / 2.0
    return u / (a.size * b.size)
