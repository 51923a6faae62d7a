import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqlab.errors import DataError, UndefinedMetricError
from uqlab.metrics import (
    accuracy,
    auroc_ood,
    average_precision,
    bin_stats,
    ece,
    max_gap_unweighted,
    mce,
)
from uqlab.rng import make_rng
from uqlab.uq import PredictionSet, scores_from_logits

import oracles


def make_pred(probs, labels, method="msp", tag="t"):
    """PredictionSet with prescribed probabilities (via exact logits)."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    with np.errstate(divide="ignore"):
        logits = np.log(np.maximum(probs, 1e-300))
    logits[probs == 0.0] = -2000.0
    comp = logits[None, :, :]
    p, u = scores_from_logits(method, comp)
    return PredictionSet(
        method=method,
        seed=0,
        tag=tag,
        labels=labels,
        component_logits=comp,
        component_indices=np.array([-1]),
        sample_ids=np.arange(len(labels)),
        probs=p,
        uncertainty=u,
    )


def random_pred(rng, n=500):
    z = rng.standard_normal((n, 2)) * 3.0
    labels = rng.integers(0, 2, size=n).astype(np.int64)
    p, u = scores_from_logits("msp", z[None, :, :])
    return PredictionSet(
        method="msp",
        seed=0,
        tag="r",
        labels=labels,
        component_logits=z[None, :, :],
        component_indices=np.array([-1]),
        sample_ids=np.arange(n),
        probs=p,
        uncertainty=u,
    )


class TestAccuracy:
    def test_all_correct(self):
        pred = make_pred([[0.9, 0.1], [0.2, 0.8]], [0, 1])
        assert accuracy(pred) == 1.0

    def test_alternating(self):
        probs = [[0.9, 0.1]] * 10
        labels = [0, 1] * 5
        assert accuracy(make_pred(probs, labels)) == 0.5

    def test_tie_goes_to_class_zero(self):
        pred = make_pred([[0.5, 0.5]], [0])
        assert accuracy(pred) == 1.0

    def test_counting_oracle(self):
        rng = make_rng(1)
        pred = random_pred(rng, 1000)
        hits = sum(
            1
            for i in range(1000)
            if (1 if pred.probs[i, 1] > pred.probs[i, 0] else 0) == pred.labels[i]
        )
        assert accuracy(pred) == hits / 1000

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            accuracy(make_pred(np.zeros((0, 2)), []))


class TestAveragePrecision:
    def test_perfect_ranking(self):
        scores = np.array([0.9, 0.8, 0.7, 0.2, 0.1])
        labels = np.array([1, 1, 1, 0, 0])
        assert average_precision(scores, labels) == 1.0

    def test_all_positive(self):
        scores = np.array([0.3, 0.9, 0.5])
        labels = np.ones(3, dtype=np.int64)
        assert average_precision(scores, labels) == 1.0

    def test_no_positives_is_explicit_error(self):
        with pytest.raises(UndefinedMetricError):
            average_precision(np.array([0.3, 0.5]), np.array([0, 0]))

    def test_brute_force_oracle(self):
        for seed in range(40):
            rng = make_rng(seed)
            n = 20
            scores = np.round(rng.random(n), 2)  # ties likely
            labels = rng.integers(0, 2, size=n)
            if labels.sum() == 0:
                labels[0] = 1
            got = average_precision(scores, labels)
            want = oracles.average_precision_bruteforce(scores, labels)
            assert abs(got - want) < 1e-12
            assert 0.0 <= got <= 1.0

    def test_monotone_transform_invariance_exact(self):
        rng = make_rng(5)
        scores = rng.random(60)
        labels = rng.integers(0, 2, size=60)
        labels[0] = 1
        base = average_precision(scores, labels)
        assert average_precision(scores * 7.5 + 3.0, labels) == base
        assert average_precision(np.exp(scores), labels) == base


class TestCalibration:
    def test_perfectly_calibrated_confident(self):
        pred = make_pred([[1.0, 0.0]] * 8, [0] * 8)
        assert ece(pred) == 0.0

    def test_confident_half_correct(self):
        pred = make_pred([[1.0, 0.0]] * 10, [0] * 5 + [1] * 5)
        assert ece(pred) == pytest.approx(0.5, abs=1e-12)
        assert mce(pred) == pytest.approx(0.5, abs=1e-12)

    def test_single_bin_equals_abs_gap(self):
        rng = make_rng(2)
        pred = random_pred(rng, 300)
        conf = pred.probs.max(axis=1)
        correct = ((pred.probs[:, 1] > pred.probs[:, 0]) == pred.labels).astype(float)
        assert ece(pred, 1) == pytest.approx(abs(correct.mean() - conf.mean()), abs=1e-12)
        assert mce(pred, 1) == pytest.approx(ece(pred, 1), abs=1e-15)

    def test_brute_force_oracle(self):
        for seed in range(30):
            pred = random_pred(make_rng(seed), 500)
            conf = pred.probs.max(axis=1)
            correct = ((pred.probs[:, 1] > pred.probs[:, 0]) == pred.labels).astype(float)
            assert abs(ece(pred, 15) - oracles.ece_bruteforce(conf, correct, 15)) < 1e-12
            assert abs(mce(pred, 15) - oracles.mce_bruteforce(conf, correct, 15)) < 1e-12
            assert (
                abs(max_gap_unweighted(pred, 15) - oracles.max_gap_bruteforce(conf, correct, 15))
                < 1e-12
            )

    def test_mce_never_exceeds_ece(self):
        for seed in range(50):
            pred = random_pred(make_rng(seed + 1000), 200)
            assert mce(pred) <= ece(pred) + 1e-15

    def test_permutation_invariance(self):
        pred = random_pred(make_rng(3), 256)
        perm = make_rng(4).permutation(256)
        shuffled = make_pred(pred.probs[perm], pred.labels[perm])
        assert ece(shuffled) == pytest.approx(ece(pred), abs=1e-12)
        assert mce(shuffled) == pytest.approx(mce(pred), abs=1e-12)

    def test_bin_stats_counts_sum(self):
        pred = random_pred(make_rng(6), 400)
        stats = bin_stats(pred, 15)
        assert stats.n_samples == 400
        assert np.all(stats.counts[:7] == 0)  # binary confidence lives in [0.5, 1]


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc_ood([0.1, 0.2], [0.3, 0.4]) == 1.0

    def test_all_ties(self):
        assert auroc_ood([0.5] * 4, [0.5] * 6) == 0.5

    def test_pairwise_oracle(self):
        for seed in range(25):
            rng = make_rng(seed)
            a = np.round(rng.random(200), 2)
            b = np.round(rng.random(300) + 0.2, 2)
            got = auroc_ood(a, b)
            assert abs(got - oracles.auroc_pairwise(a, b)) < 1e-12

    def test_complement_symmetry_tie_free(self):
        rng = make_rng(9)
        a = rng.random(80)
        b = rng.random(90) + 1e-9  # distinct values w.p. 1
        assert auroc_ood(a, b) + auroc_ood(b, a) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_transform_invariance_exact(self):
        rng = make_rng(10)
        a, b = rng.random(50), rng.random(60)
        base = auroc_ood(a, b)
        assert auroc_ood(2 * a + 1, 2 * b + 1) == base
        assert auroc_ood(np.exp(a), np.exp(b)) == base

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            auroc_ood([], [0.1])


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_metric_bounds_property(seed):
    pred = random_pred(make_rng(seed), 64)
    assert 0.0 <= ece(pred) <= 1.0
    assert 0.0 <= mce(pred) <= ece(pred) + 1e-15
    if pred.labels.sum() > 0:
        assert 0.0 <= average_precision(pred.probs[:, 1], pred.labels) <= 1.0
