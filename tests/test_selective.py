import numpy as np
import pytest

from uqlab.errors import ConfigError, DataError
from uqlab.metrics import accuracy, average_precision
from uqlab.rng import make_rng
from uqlab.selective import (
    ThresholdDecision,
    _source_decision,
    aggregate_transfer,
    selective_evaluate,
    transfer_matrix,
    youden_threshold,
)
from uqlab.uq import PredictionSet, scores_from_logits

import oracles


def pred_from_uncertainty(unc, labels=None, probs1=None, tag="d", method="msp"):
    """PredictionSet with a prescribed uncertainty column.

    The probability column defaults to confident class-1 predictions; the
    uncertainty column is overwritten after construction so threshold
    behavior can be pinned exactly.
    """
    unc = np.asarray(unc, dtype=np.float64)
    n = unc.size
    if labels is None:
        labels = np.ones(n, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if probs1 is None:
        probs1 = np.where(labels == 1, 0.9, 0.1)
    logits = np.column_stack([np.zeros(n), np.log(probs1 / (1 - probs1))])
    p, _ = scores_from_logits(method, logits[None, :, :])
    return PredictionSet(
        method=method,
        seed=0,
        tag=tag,
        labels=labels,
        component_logits=logits[None, :, :],
        component_indices=np.array([-1]),
        sample_ids=np.arange(n),
        probs=p,
        uncertainty=unc,
    )


class TestYouden:
    def test_perfect_separation(self):
        d = youden_threshold([0.1, 0.2], [0.6, 0.7])
        assert d.j == pytest.approx(1.0, abs=1e-15)
        assert 0.2 < d.threshold < 0.6

    def test_identical_multisets_give_zero_j(self):
        scores = [0.1, 0.4, 0.4, 0.9]
        d = youden_threshold(scores, scores)
        assert d.j == pytest.approx(0.0, abs=1e-15)

    def test_exhaustive_scan_oracle(self):
        for seed in range(40):
            rng = make_rng(seed)
            a = np.round(rng.random(150), 2)
            b = np.round(rng.random(150) + rng.uniform(0, 0.5), 2)
            d = youden_threshold(a, b)
            t_oracle, j_oracle, flagged_oracle = oracles.youden_scan(a, b)
            assert abs(d.j - j_oracle) < 1e-12
            # Same partition: the chosen thresholds flag the same samples.
            flagged = int(np.sum(a >= d.threshold) + np.sum(b >= d.threshold))
            assert flagged == flagged_oracle

    def test_j_matches_confusion_recomputation(self):
        rng = make_rng(7)
        a, b = rng.random(60), rng.random(60) + 0.2
        d = youden_threshold(a, b)
        tp, fp, tn, fn = oracles.confusion_at(a, b, d.threshold)
        j = tp / (tp + fn) + tn / (tn + fp) - 1.0
        assert abs(j - d.j) < 1e-12
        assert -1.0 <= d.j <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            youden_threshold([], [0.1])
        with pytest.raises(DataError):
            youden_threshold([0.1], [])

    def test_invariant_under_increasing_transform(self):
        rng = make_rng(8)
        a, b = rng.random(50), rng.random(50) + 0.3
        base = youden_threshold(a, b)
        for f in (lambda s: 3 * s + 2, np.exp):
            mapped = youden_threshold(f(a), f(b))
            assert mapped.j == pytest.approx(base.j, abs=1e-12)
            keep_base = np.concatenate([a, b]) < base.threshold
            keep_mapped = np.concatenate([f(a), f(b)]) < mapped.threshold
            np.testing.assert_array_equal(keep_base, keep_mapped)


class TestSelectiveEvaluate:
    def test_threshold_above_max_keeps_everything(self):
        rng = make_rng(1)
        unc = rng.random(40)
        labels = rng.integers(0, 2, size=40)
        labels[:2] = 1
        pred = pred_from_uncertainty(unc, labels)
        res = selective_evaluate(pred, ThresholdDecision(2.0, 0.0))
        assert res.fraction_retained == 1.0
        assert res.accuracy == accuracy(pred)
        assert res.ap == average_precision(pred.probs[:, 1], pred.labels)
        assert not res.all_rejected

    def test_threshold_below_min_rejects_everything(self):
        pred = pred_from_uncertainty([0.4, 0.5, 0.6])
        res = selective_evaluate(pred, ThresholdDecision(0.1, 0.0))
        assert res.all_rejected
        assert res.fraction_retained == 0.0
        assert res.accuracy is None and res.ap is None

    def test_matches_manual_filtering(self):
        rng = make_rng(2)
        unc = rng.random(200)
        labels = rng.integers(0, 2, size=200)
        labels[0] = 1
        probs1 = rng.random(200) * 0.8 + 0.1
        pred = pred_from_uncertainty(unc, labels, probs1)
        t = 0.55
        res = selective_evaluate(pred, ThresholdDecision(t, 0.0))
        keep = unc < t
        manual_acc = float(np.mean((pred.probs[keep, 1] > pred.probs[keep, 0]) == labels[keep]))
        assert res.accuracy == pytest.approx(manual_acc, abs=1e-12)
        assert res.fraction_retained == pytest.approx(keep.mean(), abs=1e-12)
        if labels[keep].sum() > 0:
            manual_ap = average_precision(pred.probs[keep, 1], labels[keep])
            assert res.ap == pytest.approx(manual_ap, abs=1e-12)

    def test_retention_monotone_in_threshold(self):
        rng = make_rng(3)
        pred = pred_from_uncertainty(rng.random(100))
        fractions = []
        for t in np.linspace(0, 1.2, 13):
            res = selective_evaluate(pred, ThresholdDecision(float(t), 0.0))
            fractions.append(res.fraction_retained)
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))

    def test_ap_none_when_no_retained_positives(self):
        pred = pred_from_uncertainty([0.1, 0.9], labels=[0, 1])
        res = selective_evaluate(pred, ThresholdDecision(0.5, 0.0))
        assert not res.all_rejected
        assert res.ap is None
        assert res.accuracy is not None


class TestTransferMatrix:
    def _ladder(self, seed=0):
        rng = make_rng(seed)
        sets = {}
        sets["id-val"] = pred_from_uncertainty(
            rng.random(100) * 0.3,
            rng.integers(0, 2, size=100),
            np.clip(rng.random(100), 0.05, 0.95),
            tag="id-val",
        )
        sets["ood-a"] = pred_from_uncertainty(
            rng.random(100) * 0.5 + 0.2,
            rng.integers(0, 2, size=100),
            np.clip(rng.random(100), 0.05, 0.95),
            tag="ood-a",
        )
        sets["ood-b"] = pred_from_uncertainty(
            rng.random(100) * 0.5 + 0.5,
            rng.integers(0, 2, size=100),
            np.clip(rng.random(100), 0.05, 0.95),
            tag="ood-b",
        )
        return sets

    def test_cells_match_end_to_end_recomputation(self):
        sets = self._ladder()
        cells = {(c.source, c.target): c for c in transfer_matrix(sets)}
        assert len(cells) == 9
        for source in sets:
            if source == "id-val":
                correct = (
                    sets[source].probs[:, 1] > sets[source].probs[:, 0]
                ).astype(np.int64) == sets[source].labels
                decision = youden_threshold(
                    sets[source].uncertainty[correct], sets[source].uncertainty[~correct]
                )
            else:
                decision = youden_threshold(
                    sets["id-val"].uncertainty, sets[source].uncertainty
                )
            for target in sets:
                cell = cells[(source, target)]
                assert cell.threshold == decision.threshold
                want = selective_evaluate(sets[target], decision)
                assert cell.result == want

    def test_disjoint_low_source_rejects_high_target(self):
        sets = {
            "id-val": pred_from_uncertainty([0.01, 0.02, 0.03], tag="id-val"),
            "low": pred_from_uncertainty([0.2, 0.21, 0.22], tag="low"),
            "high": pred_from_uncertainty([0.8, 0.9, 0.95], tag="high"),
        }
        cells = {(c.source, c.target): c for c in transfer_matrix(sets)}
        assert cells[("low", "high")].result.all_rejected

    def test_source_identical_to_val_is_well_formed(self):
        val = pred_from_uncertainty([0.1, 0.2, 0.3, 0.4], labels=[1, 1, 0, 0], tag="id-val")
        twin = pred_from_uncertainty([0.1, 0.2, 0.3, 0.4], labels=[1, 1, 0, 0], tag="twin")
        assert _source_decision(twin, val).j == pytest.approx(0.0, abs=1e-15)
        cells = transfer_matrix({"id-val": val, "twin": twin})
        for cell in cells:
            assert cell.result.fraction_retained in (0.0, 1.0) or 0 < cell.result.fraction_retained < 1

    def test_missing_id_val_rejected(self):
        with pytest.raises(ConfigError):
            transfer_matrix({"a": pred_from_uncertainty([0.1], tag="a")})

    def test_mixed_methods_rejected(self):
        a = pred_from_uncertainty([0.1, 0.2], tag="id-val")
        b = pred_from_uncertainty([0.3, 0.4], tag="x", method="sngp")
        with pytest.raises(ConfigError):
            transfer_matrix({"id-val": a, "x": b})

    def test_perfect_validation_falls_back_to_retain_all(self):
        val = pred_from_uncertainty([0.1, 0.2], labels=[1, 1], tag="id-val")  # all correct
        other = pred_from_uncertainty([0.9, 1.1], tag="o")
        cells = {(c.source, c.target): c for c in transfer_matrix({"id-val": val, "o": other})}
        assert cells[("id-val", "id-val")].result.fraction_retained == 1.0


class TestAggregate:
    def test_aggregation_counts_all_rejected_seeds(self):
        per_seed = []
        for seed in range(3):
            sets = {
                "id-val": pred_from_uncertainty([0.01, 0.02], tag="id-val"),
                "low": pred_from_uncertainty([0.2, 0.25], tag="low"),
                "high": pred_from_uncertainty([0.8 + 0.01 * seed, 0.9], tag="high"),
            }
            per_seed.append(transfer_matrix(sets))
        matrix = aggregate_transfer("msp", per_seed)
        entry = matrix.cells[("low", "high")]
        assert entry["n_seeds"] == 3
        assert entry["n_all_rejected"] == 3
        assert entry["accuracy"] is None
        # A threshold set on the far source retains the entire ID set.
        keep_entry = matrix.cells[("high", "id-val")]
        assert keep_entry["n_all_rejected"] == 0
        assert keep_entry["accuracy"][2] == 3
        assert keep_entry["fraction_retained"][0] == 1.0

    def test_population_std(self):
        per_seed = []
        for unc_shift in (0.0, 0.1, 0.2):
            sets = {
                "id-val": pred_from_uncertainty([0.01, 0.02], labels=[1, 0], tag="id-val"),
                "t": pred_from_uncertainty([0.5 + unc_shift, 2.0], labels=[1, 0], tag="t"),
            }
            per_seed.append(transfer_matrix(sets))
        matrix = aggregate_transfer("msp", per_seed)
        fr = matrix.cells[("t", "id-val")]["fraction_retained"]
        values = [c.result.fraction_retained for cells in per_seed for c in cells
                  if (c.source, c.target) == ("t", "id-val")]
        assert fr[0] == pytest.approx(np.mean(values), abs=1e-15)
        assert fr[1] == pytest.approx(np.std(values), abs=1e-15)
