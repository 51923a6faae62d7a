"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately written the slow, obvious way (explicit
loops, full SVD, all-pairs counting) and shares no code with the package
implementations it checks.
"""

import math

import numpy as np


def moon_class_means():
    """Noise-free per-class mean of the half-circle parametrization.

    Class 0 is (cos t, sin t) and class 1 is (1 - cos t, 1/2 - sin t) for
    t uniform on [0, pi]; the mean of sin t is 2/pi, of cos t zero.
    """
    m = 2.0 / math.pi
    return np.array([[0.0, m], [1.0, 0.5 - m]])


def spectral_norm_svd(w):
    """Largest singular value via full SVD."""
    return float(np.linalg.svd(np.asarray(w, dtype=np.float64), compute_uv=False)[0])


def ece_bins_bruteforce(confidences, correct, n_bins):
    """Per-bin (count, acc, con) with explicit interval membership tests."""
    confidences = np.asarray(confidences, dtype=np.float64)
    correct = np.asarray(correct, dtype=np.float64)
    out = []
    for b in range(n_bins):
        lo = b / n_bins
        hi = (b + 1) / n_bins
        if b < n_bins - 1:
            members = [i for i, c in enumerate(confidences) if lo <= c < hi]
        else:
            members = [i for i, c in enumerate(confidences) if lo <= c <= hi]
        if members:
            out.append(
                (
                    len(members),
                    sum(correct[i] for i in members) / len(members),
                    sum(confidences[i] for i in members) / len(members),
                )
            )
        else:
            out.append((0, 0.0, 0.0))
    return out


def ece_bruteforce(confidences, correct, n_bins):
    n = len(confidences)
    bins = ece_bins_bruteforce(confidences, correct, n_bins)
    return sum((cnt / n) * abs(acc - con) for cnt, acc, con in bins)


def mce_bruteforce(confidences, correct, n_bins):
    n = len(confidences)
    bins = ece_bins_bruteforce(confidences, correct, n_bins)
    return max((cnt / n) * abs(acc - con) for cnt, acc, con in bins)


def max_gap_bruteforce(confidences, correct, n_bins):
    bins = ece_bins_bruteforce(confidences, correct, n_bins)
    return max(abs(acc - con) for cnt, acc, con in bins if cnt > 0)


def average_precision_bruteforce(scores, labels):
    """Eq-by-the-letter evaluation over every unique threshold."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    thresholds = sorted(set(scores.tolist()), reverse=True)
    ap = 0.0
    prev_recall = 0.0
    for t in thresholds:
        flagged = [i for i in range(len(scores)) if scores[i] >= t]
        tp = sum(1 for i in flagged if labels[i] == 1)
        precision = tp / len(flagged)
        recall = tp / n_pos
        ap += precision * (recall - prev_recall)
        prev_recall = recall
    return ap


def auroc_pairwise(scores_id, scores_ood):
    """All-pairs Mann-Whitney count, ties worth one half."""
    total = 0.0
    for b in np.asarray(scores_ood, dtype=np.float64):
        for a in np.asarray(scores_id, dtype=np.float64):
            if b > a:
                total += 1.0
            elif b == a:
                total += 0.5
    return total / (len(scores_id) * len(scores_ood))


def confusion_at(scores_id, scores_ood, t):
    """(tp, fp, tn, fn) at threshold ``t``, where a score >= t is flagged OOD."""
    tp = sum(1 for s in scores_ood if s >= t)
    fp = sum(1 for s in scores_id if s >= t)
    return tp, fp, len(scores_id) - fp, len(scores_ood) - tp


def youden_scan(scores_id, scores_ood):
    """Exhaustive J over every pooled value plus an above-max candidate.

    Returns (threshold, J, n_flagged); ties resolve toward the smallest
    threshold, which flags the most samples.
    """
    a = np.asarray(scores_id, dtype=np.float64)
    b = np.asarray(scores_ood, dtype=np.float64)
    pooled = sorted(set(a.tolist()) | set(b.tolist()))
    candidates = pooled + [pooled[-1] + 1.0]
    best = None
    best_units = None
    for t in candidates:
        tp = sum(1 for s in b if s >= t)
        fp = sum(1 for s in a if s >= t)
        tn = len(a) - fp
        # Exact integer form of J * |id| * |ood| keeps ties exact.
        units = tp * len(a) + tn * len(b)
        if best_units is None or units > best_units:
            best_units = units
            best = (t, units / (len(a) * len(b)) - 1.0, tp + fp)
    return best


def sherman_morrison_inverse(tau, phi, weight):
    """(tau I + weight * phi phi^T)^-1 in closed form."""
    phi = np.asarray(phi, dtype=np.float64)
    d = phi.size
    a_inv = np.eye(d) / tau
    num = weight * np.outer(a_inv @ phi, phi @ a_inv)
    den = 1.0 + weight * (phi @ a_inv @ phi)
    return a_inv - num / den


def rbf_kernel(x, y, length_scale):
    diff = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    return float(np.exp(-np.dot(diff, diff) / (2.0 * length_scale**2)))


def nearest_centroid_accuracy(features, labels):
    """Separability oracle: classify by the closer class centroid."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    c0 = features[labels == 0].mean(axis=0)
    c1 = features[labels == 1].mean(axis=0)
    d0 = np.linalg.norm(features - c0, axis=1)
    d1 = np.linalg.norm(features - c1, axis=1)
    pred = (d1 < d0).astype(labels.dtype)
    return float(np.mean(pred == labels))
