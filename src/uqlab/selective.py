"""Uncertainty thresholding, selective prediction, and threshold transfer.

A threshold is chosen by maximizing Youden's J = sensitivity +
specificity - 1 over candidate cut points (midpoints between consecutive
distinct pooled scores, plus one candidate below the minimum and one
above the maximum). Samples with uncertainty below the threshold are
retained; rejecting every sample is a legitimate outcome and is carried
as an explicit marker rather than an error.

Threshold transfer evaluates, for every pair of datasets, the threshold
chosen on one dataset applied to another. For the ID validation source
the separation criterion switches from OOD-vs-ID to incorrect-vs-correct
predictions, since ID-vs-ID separation is vacuous.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, UndefinedMetricError
from .metrics import _mean_std, average_precision, predicted_class
from .uq import PredictionSet

__all__ = [
    "ThresholdDecision",
    "SelectiveResult",
    "TransferCell",
    "TransferMatrix",
    "youden_threshold",
    "selective_evaluate",
    "transfer_matrix",
    "aggregate_transfer",
]


@dataclass(frozen=True)
class ThresholdDecision:
    threshold: float
    j: float


def _check_scores(name: str, scores) -> np.ndarray:
    arr = np.asarray(scores, dtype=np.float64).ravel()
    if arr.size == 0:
        raise DataError(f"{name} scores must be non-empty")
    return arr


def youden_threshold(scores_id, scores_ood) -> ThresholdDecision:
    """Threshold maximizing Youden's J over the pooled score values.

    Candidates are midpoints between consecutive distinct pooled values
    plus one candidate below the minimum (flag everything) and one above
    the maximum (flag nothing). Ties in J resolve toward the smallest
    threshold, which rejects more.
    """
    a = _check_scores("ID", scores_id)
    b = _check_scores("OOD", scores_ood)
    pooled = np.unique(np.concatenate([a, b]))
    candidates = np.concatenate(
        [[pooled[0] - 1.0], (pooled[:-1] + pooled[1:]) / 2.0, [pooled[-1] + 1.0]]
    )
    # score >= t  <=>  index within the sorted scores >= searchsorted(t)
    n_id_ge = a.size - np.searchsorted(np.sort(a), candidates, side="left")
    n_ood_ge = b.size - np.searchsorted(np.sort(b), candidates, side="left")
    # J = tp/|ood| + tn/|id| - 1 is maximized by the integer score
    # tp*|id| + tn*|ood|; comparing integers keeps exact J ties exact, so
    # the smallest-threshold tie-break is deterministic.
    score = n_ood_ge * a.size + (a.size - n_id_ge) * b.size
    best = int(np.argmax(score))  # argmax takes the first, i.e. smallest, candidate
    j = float(score[best]) / (a.size * b.size) - 1.0
    return ThresholdDecision(float(candidates[best]), j)


@dataclass(frozen=True)
class SelectiveResult:
    """Metrics on the retained subset, or the all-rejected marker.

    ``ap`` may be None even when samples are retained, if the retained
    subset has no positive labels.
    """

    fraction_retained: float
    accuracy: float | None
    ap: float | None
    all_rejected: bool

    @classmethod
    def rejected_all(cls) -> "SelectiveResult":
        return cls(0.0, None, None, True)


def selective_evaluate(pred: PredictionSet, decision: ThresholdDecision) -> SelectiveResult:
    """Evaluate accuracy and AP on samples with uncertainty < threshold."""
    if len(pred) == 0:
        raise DataError("cannot selectively evaluate an empty prediction set")
    keep = pred.uncertainty < decision.threshold
    n_keep = int(keep.sum())
    if n_keep == 0:
        return SelectiveResult.rejected_all()
    probs = pred.probs[keep]
    labels = pred.labels[keep]
    acc = float(np.mean(predicted_class(probs) == labels))
    try:
        ap = average_precision(probs[:, 1], labels)
    except UndefinedMetricError:
        ap = None
    return SelectiveResult(n_keep / len(pred), acc, ap, False)


def _source_decision(source: PredictionSet, id_val: PredictionSet) -> ThresholdDecision:
    """Threshold for one source dataset against the ID validation set.

    OOD sources separate ID-val uncertainties from their own. The ID
    validation source separates its correct from incorrect predictions;
    when there are no incorrect predictions the threshold falls back to
    retaining everything (J = 0).
    """
    if source.tag == id_val.tag:
        correct = predicted_class(source.probs) == source.labels
        neg = source.uncertainty[correct]
        pos = source.uncertainty[~correct]
        if pos.size == 0 or neg.size == 0:
            return ThresholdDecision(float(source.uncertainty.max()) + 1.0, 0.0)
        return youden_threshold(neg, pos)
    return youden_threshold(id_val.uncertainty, source.uncertainty)


@dataclass(frozen=True)
class TransferCell:
    """One (threshold source, evaluation target) cell for one seed."""

    source: str
    target: str
    threshold: float
    result: SelectiveResult


@dataclass
class TransferMatrix:
    """Aggregated source x target grid of selective-prediction results.

    ``cells[(source, target)]`` maps to per-metric (mean, std, n) tuples
    computed over the seeds where the cell was defined, together with the
    cell's seed count and the count of seeds on which every sample was
    rejected.
    """

    method: str
    sources: list[str]
    targets: list[str]
    cells: dict = field(default_factory=dict)


def transfer_matrix(predsets: dict[str, PredictionSet], id_val_tag: str = "id-val"):
    """All source x target transfer cells for one seed's prediction sets.

    ``predsets`` maps dataset tag to the PredictionSet of one method on
    that dataset; one tag must be the ID validation set.
    """
    if id_val_tag not in predsets:
        raise ConfigError(f"missing ID validation prediction set {id_val_tag!r}")
    if len(predsets) < 2:
        raise ConfigError("threshold transfer needs at least two datasets")
    for tag, pred in predsets.items():
        if pred.tag != tag:
            raise ConfigError(f"prediction set keyed {tag!r} carries tag {pred.tag!r}")
    methods = {p.method for p in predsets.values()}
    if len(methods) != 1:
        raise ConfigError(f"prediction sets mix methods {sorted(methods)}")
    id_val = predsets[id_val_tag]
    cells = []
    for source_tag, source in predsets.items():
        decision = _source_decision(source, id_val)
        for target_tag, target in predsets.items():
            cells.append(
                TransferCell(
                    source=source_tag,
                    target=target_tag,
                    threshold=decision.threshold,
                    result=selective_evaluate(target, decision),
                )
            )
    return cells


def aggregate_transfer(method: str, per_seed_cells: list[list[TransferCell]]) -> TransferMatrix:
    """Combine per-seed cell lists into a mean +/- std matrix.

    All-rejected seeds are excluded from the averages and counted per
    cell; a cell rejected on every seed carries no metric values.
    """
    if not per_seed_cells:
        raise DataError("no transfer cells to aggregate")
    first = per_seed_cells[0]
    sources = list(dict.fromkeys(c.source for c in first))
    targets = list(dict.fromkeys(c.target for c in first))
    matrix = TransferMatrix(method, sources, targets)
    grouped: dict[tuple[str, str], list[TransferCell]] = {}
    for cells in per_seed_cells:
        for cell in cells:
            grouped.setdefault((cell.source, cell.target), []).append(cell)
    for key, cells in grouped.items():
        n_rejected = sum(c.result.all_rejected for c in cells)
        kept = [c.result for c in cells if not c.result.all_rejected]
        entry = {
            "n_seeds": len(cells),
            "n_all_rejected": n_rejected,
            "fraction_retained": _mean_std([r.fraction_retained for r in kept])
            if kept
            else None,
            "accuracy": _mean_std([r.accuracy for r in kept]) if kept else None,
        }
        ap_values = [r.ap for r in kept if r.ap is not None]
        entry["ap"] = _mean_std(ap_values) if ap_values else None
        entry["threshold"] = _mean_std([c.threshold for c in cells])
        matrix.cells[key] = entry
    return matrix
