import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqlab.data import Dataset, make_two_moons
from uqlab.errors import ConfigError, DataError, NumericalError, StateError
from uqlab.mlp import (
    Layer,
    MlpClassifier,
    TrainConfig,
    _forward_stack,
    _hidden_features,
    forward_logits,
    init_mlp,
    softmax,
    train,
)
from uqlab.rng import derive_seed, make_rng
from uqlab.uq import (
    MEAN_FIELD_LAMBDA,
    VARIANCE_BLOCK_ROWS,
    EnsembleSpec,
    ensemble_predict,
    init_sngp_head,
    mc_dropout_predict,
    msp_predict,
    predictive_entropy,
    rff_features,
    scores_from_logits,
    sngp_fit,
    sngp_predict,
    sngp_variances,
    train_sngp,
    _posterior_variance,
    _RffLogisticHead,
    _rff_cos_sin,
    _sigmoid,
)

import oracles

LN2 = math.log(2.0)


def constant_model(logits, trained=True):
    """Single-layer model with zero weights and the given bias logits."""
    model = MlpClassifier(
        [Layer(np.zeros((2, 2)), np.asarray(logits, dtype=np.float64), "linear")],
        0.0,
        None,
        seed=0,
        trained=trained,
    )
    return model


def small_trained(dropout=0.0, seed=0):
    data = make_two_moons(256, 0.1, make_rng(seed))
    model = init_mlp([2, 8, 2], dropout, None, seed=seed + 1)
    return train(model, data, TrainConfig(epochs=10, seed=seed + 2)), data


class TestMsp:
    def test_uniform_probs_give_half_uncertainty(self):
        pred = msp_predict(constant_model([0.0, 0.0]), make_two_moons(5, 0.1, make_rng(0)))
        np.testing.assert_allclose(pred.probs, 0.5)
        np.testing.assert_allclose(pred.uncertainty, 0.5)

    def test_full_confidence_zero_uncertainty(self):
        pred = msp_predict(constant_model([2000.0, 0.0]), make_two_moons(4, 0.1, make_rng(0)))
        np.testing.assert_array_equal(pred.probs[:, 0], 1.0)
        np.testing.assert_array_equal(pred.uncertainty, 0.0)

    def test_direct_reevaluation_oracle(self):
        model, _ = small_trained()
        data = make_two_moons(100, 0.1, make_rng(3))
        pred = msp_predict(model, data)
        for i in range(len(data)):
            probs = softmax(forward_logits(model, data.features[i]))
            assert pred.uncertainty[i] == pytest.approx(1.0 - probs.max(), abs=1e-15)

    def test_untrained_rejected(self):
        with pytest.raises(StateError):
            msp_predict(constant_model([0.0, 0.0], trained=False), make_two_moons(3, 0.1, make_rng(0)))


class TestMcDropout:
    def test_zero_rate_equals_deterministic(self):
        model, data = small_trained(dropout=0.0)
        det = msp_predict(model, data)
        mc = mc_dropout_predict(model, data, n_samples=8, seed=5)
        np.testing.assert_allclose(mc.probs, det.probs, atol=1e-15)
        for k in range(1, 8):
            np.testing.assert_array_equal(mc.component_logits[k], mc.component_logits[0])

    def test_single_sample_is_one_pass(self):
        model, data = small_trained(dropout=0.5)
        mc = mc_dropout_predict(model, data, n_samples=1, seed=6)
        np.testing.assert_array_equal(mc.probs, softmax(mc.component_logits[0]))

    def test_zero_samples_rejected(self):
        model, data = small_trained(dropout=0.5)
        with pytest.raises(ConfigError):
            mc_dropout_predict(model, data, n_samples=0)

    def test_mask_enumeration_oracle(self):
        # One hidden unit, one sample: the exact predictive mean is the
        # average of the kept and dropped outcomes.
        data = make_two_moons(64, 0.1, make_rng(7))
        model = train(init_mlp([2, 1, 2], 0.5, seed=8), data, TrainConfig(epochs=5, seed=9))
        x = data.features[:1]
        one = Dataset(x, data.labels[:1], "one")
        h = max(0.0, float((x @ model.layers[0].weights + model.layers[0].bias)[0, 0]))
        final = model.layers[-1]
        kept = softmax((h / 0.5) * final.weights[0] + final.bias)
        dropped = softmax(final.bias)
        exact = 0.5 * (kept + dropped)
        n = 100_000
        mc = mc_dropout_predict(model, one, n_samples=n, seed=10)
        per_pass = softmax(mc.component_logits)[:, 0, :]
        sigma = per_pass.std(axis=0) / math.sqrt(n)
        assert np.all(np.abs(mc.probs[0] - exact) <= 3 * sigma + 1e-12)

    def test_order_independent_pass_seeds(self):
        model, data = small_trained(dropout=0.5)
        a = mc_dropout_predict(model, data, n_samples=4, rng=make_rng(11))
        b = mc_dropout_predict(model, data, n_samples=4, rng=make_rng(11))
        np.testing.assert_array_equal(a.component_logits, b.component_logits)

    def test_matches_independent_forward_passes(self):
        # Reference: a full forward pass per mask, seeded per pass index:
        # the hidden stack, an inverted-scaling mask, then the output layer.
        model, data = small_trained(dropout=0.5)
        mc = mc_dropout_predict(model, data, n_samples=5, seed=12)
        rate, final = model.dropout_rate, model.layers[-1]

        def dropout_pass(i):
            acts, _ = _forward_stack(model.layers[:-1], data.features)
            h = acts[-1]
            rng = make_rng(derive_seed(12, "pass", i))
            h = h * ((rng.random(h.shape) >= rate) / (1.0 - rate))
            return h @ final.weights + final.bias

        want = np.stack([dropout_pass(i) for i in range(5)])
        assert np.array_equal(mc.component_logits, want)

    def test_feature_mismatch_rejected(self):
        model, _ = small_trained(dropout=0.5)
        bad = Dataset(np.zeros((4, 3)), np.zeros(4, dtype=np.int64), "bad")
        with pytest.raises(DataError):
            mc_dropout_predict(model, bad, n_samples=2)


class TestEnsemble:
    def test_identical_members_collapse(self):
        model, data = small_trained()
        spec = EnsembleSpec([model, model, model, model])
        ens = ensemble_predict(spec, data)
        single = msp_predict(model, data)
        np.testing.assert_array_equal(ens.probs, single.probs)

    def test_symmetric_disagreement_max_entropy(self):
        members = [
            constant_model([2000.0, 0.0]),
            constant_model([0.0, 2000.0]),
            constant_model([2000.0, 0.0]),
            constant_model([0.0, 2000.0]),
        ]
        data = make_two_moons(3, 0.1, make_rng(0))
        ens = ensemble_predict(EnsembleSpec(members), data)
        np.testing.assert_array_equal(ens.probs, 0.5)
        np.testing.assert_allclose(ens.uncertainty, LN2, atol=1e-15)

    def test_mean_matches_independent_pass(self):
        data = make_two_moons(100, 0.1, make_rng(12))
        members = [small_trained(seed=20 + k)[0] for k in range(4)]
        ens = ensemble_predict(EnsembleSpec(members), data)
        manual = np.mean([softmax(forward_logits(m, data.features)) for m in members], axis=0)
        np.testing.assert_allclose(ens.probs, manual, atol=1e-15)

    def test_needs_two_members(self):
        model, _ = small_trained()
        with pytest.raises(ConfigError):
            EnsembleSpec([model])

    def test_untrained_member_rejected(self):
        model, data = small_trained()
        fresh = init_mlp([2, 8, 2], seed=1)
        with pytest.raises(StateError):
            ensemble_predict(EnsembleSpec([model, fresh]), data)

    def test_mismatched_architectures_rejected(self):
        a, _ = small_trained()
        b = init_mlp([2, 4, 2], seed=2)
        with pytest.raises(ConfigError):
            EnsembleSpec([a, b])


class TestRff:
    def test_entries_bounded(self):
        head = init_sngp_head(3, rff_dim=64, rng=make_rng(1))
        x = make_rng(2).standard_normal((50, 3)) * 5
        phi = rff_features(x, head)
        bound = math.sqrt(2.0 / 64)
        assert np.all(np.abs(phi) <= bound + 1e-12)

    def test_kernel_approximation(self):
        head = init_sngp_head(3, rff_dim=4096, length_scale=2.0, rng=make_rng(3))
        rng = make_rng(4)
        for _ in range(25):
            x = rng.standard_normal(3)
            y = x + rng.standard_normal(3)
            dot = float(rff_features(x, head) @ rff_features(y, head))
            assert abs(dot - oracles.rbf_kernel(x, y, 2.0)) < 0.05

    def test_kernel_diagonal_near_one(self):
        head = init_sngp_head(2, rff_dim=4096, rng=make_rng(5))
        x = make_rng(6).standard_normal(2)
        phi = rff_features(x, head)
        assert abs(float(phi @ phi) - 1.0) < 0.05

    def test_dimension_mismatch(self):
        head = init_sngp_head(3, rff_dim=8, rng=make_rng(7))
        with pytest.raises(DataError):
            rff_features(np.ones(4), head)


class TestSngpFit:
    def test_prior_only_identity_covariance(self):
        head = init_sngp_head(2, rff_dim=5, rng=make_rng(8))
        fitted = sngp_fit(head, np.zeros((0, 5)), np.zeros(0), 1.0)
        np.testing.assert_allclose(fitted.covariance, np.eye(5), atol=1e-12)

    def test_rank_one_matches_sherman_morrison(self):
        head = init_sngp_head(2, rff_dim=3, rng=make_rng(9))
        phi = make_rng(10).standard_normal(3)
        p = 0.3
        fitted = sngp_fit(head, phi[None, :], np.array([p]), 2.0)
        want = oracles.sherman_morrison_inverse(2.0, phi, p * (1 - p))
        np.testing.assert_allclose(fitted.covariance, want, atol=1e-9)

    def test_inverse_consistency(self):
        head = init_sngp_head(4, rff_dim=16, rng=make_rng(11))
        rng = make_rng(12)
        phi = rff_features(rng.standard_normal((500, 4)), head)
        p = rng.random(500)
        fitted = sngp_fit(head, phi, p, 1.0)
        np.testing.assert_allclose(
            fitted.covariance @ fitted.precision, np.eye(16), atol=1e-6
        )
        np.testing.assert_allclose(fitted.precision, fitted.precision.T, atol=1e-9)

    def test_ridge_must_be_positive(self):
        head = init_sngp_head(2, rff_dim=4, rng=make_rng(13))
        with pytest.raises(ConfigError):
            sngp_fit(head, np.zeros((0, 4)), np.zeros(0), 0.0)

    @staticmethod
    def textbook_fit(phi, p, ridge):
        """The posterior as first written: out-of-place symmetrization."""
        precision = ridge * np.eye(phi.shape[1])
        if phi.shape[0]:
            precision += phi.T @ (phi * (p * (1.0 - p))[:, None])
        precision = (precision + precision.T) / 2.0
        covariance = np.linalg.inv(precision)
        return precision, (covariance + covariance.T) / 2.0

    @pytest.mark.parametrize("n", [0, 1, 300])
    def test_matches_textbook_fit_bit_for_bit(self, n):
        head = init_sngp_head(8, rff_dim=256, rng=make_rng(15))
        rng = make_rng(16 + n)
        phi = rff_features(rng.standard_normal((n, 8)), head)
        p = rng.random(n)
        fitted = sngp_fit(head, phi, p, 1.3)
        precision, covariance = self.textbook_fit(phi, p, 1.3)
        assert np.array_equal(fitted.precision, precision)
        assert np.array_equal(fitted.covariance, covariance)

    def test_traced_peak_within_three_matrices(self):
        # The result holds two (D, D) matrices; at most one more (D, D)
        # temporary is alive at a time.
        n, d = 1000, 1024
        tracemalloc.start()
        try:
            head = init_sngp_head(64, rff_dim=d, rng=make_rng(17))
            rng = make_rng(18)
            phi = rff_features(rng.standard_normal((n, 64)), head)
            p = rng.random(n)
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fitted = sngp_fit(head, phi, p, 1.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert fitted.covariance is not None
        assert peak <= 3.1 * d * d * 8

    def test_init_allocates_no_posterior(self):
        # The random features take D x (feature_dim + 2) numbers; no (D, D)
        # matrix exists before sngp_fit.
        d = 1024
        tracemalloc.start()
        try:
            head = init_sngp_head(64, rff_dim=d, rng=make_rng(17))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert head.precision is None and head.covariance is None
        assert peak < d * d * 8


class TestSngpPredict:
    def _toy(self, beta_scale=1.0, cov=None):
        data = make_two_moons(32, 0.1, make_rng(14))
        model, head = train_sngp(
            data, TrainConfig(epochs=3, seed=15), hidden_sizes=(8,), rff_dim=16
        )
        head.beta *= beta_scale
        if cov is not None:
            head.covariance = cov
        return model, head, data

    def test_zero_variance_is_unadjusted_logistic(self):
        model, head, data = self._toy(cov=np.zeros((16, 16)))
        pred = sngp_predict(model, head, data)
        phi = rff_features(_hidden_features(model, data.features), head)
        m = phi @ head.beta
        np.testing.assert_allclose(pred.probs[:, 1], _sigmoid(m), atol=1e-12)

    def test_zero_mean_is_max_entropy(self):
        model, head, data = self._toy(beta_scale=0.0)
        pred = sngp_predict(model, head, data)
        np.testing.assert_allclose(pred.probs, 0.5, atol=1e-15)
        np.testing.assert_allclose(pred.uncertainty, LN2, atol=1e-12)

    def test_probability_approaches_half_as_variance_grows(self):
        lam = math.pi / 8.0
        m = 2.0
        import mpmath

        prev_gap = None
        for v in (0.0, 1.0, 10.0, 100.0, 1000.0):
            adjusted = m / math.sqrt(1.0 + lam * v)
            p = 1.0 / (1.0 + math.exp(-adjusted))
            exact = float(1 / (1 + mpmath.exp(-mpmath.mpf(m) / mpmath.sqrt(1 + mpmath.pi / 8 * v))))
            assert p == pytest.approx(exact, abs=1e-12)
            gap = abs(p - 0.5)
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap

    def test_needs_a_hidden_layer(self):
        with pytest.raises(ConfigError, match="hidden_sizes"):
            train_sngp(make_two_moons(16, 0.1, make_rng(17)), TrainConfig(epochs=1), hidden_sizes=())

    def test_training_updates_beta_and_not_the_dense_output_layer(self):
        model, head, _ = self._toy()
        untrained = init_mlp([2, 8, 2], 0.0, 4.0, seed=15)
        assert np.array_equal(model.layers[-1].weights, untrained.layers[-1].weights)
        assert np.array_equal(model.layers[-1].bias, untrained.layers[-1].bias)
        assert not np.array_equal(model.layers[0].weights, untrained.layers[0].weights)
        assert np.any(head.beta != 0.0)

    def test_unfitted_head_rejected(self):
        model, _, data = self._toy()
        head = init_sngp_head(8, rff_dim=16, rng=make_rng(18))
        with pytest.raises(StateError, match="not been fitted"):
            sngp_predict(model, head, data)
        with pytest.raises(StateError, match="not been fitted"):
            sngp_variances(model, head, data.features)

    def test_large_negative_variance_rejected(self):
        model, head, data = self._toy(cov=-np.eye(16))
        with pytest.raises(NumericalError):
            sngp_predict(model, head, data)

    def test_variance_nonnegative_on_grid(self):
        model, head, data = self._toy()
        grid = make_rng(16).uniform(-6, 6, size=(400, 2))
        assert np.all(sngp_variances(model, head, grid) >= -1e-9)


class TestRffTrainingStep:
    def test_cos_sin_within_2e7_of_float64(self):
        rng = make_rng(40)
        angles = np.concatenate(
            [
                np.linspace(-1e6, 1e6, 400_001),
                rng.uniform(-1e6, 1e6, 400_000),
                rng.uniform(-20.0, 20.0, 200_000),
            ]
        )
        cos, sin = _rff_cos_sin(angles / (2.0 * np.pi))
        assert cos.dtype == sin.dtype == np.float32
        assert np.max(np.abs(cos - np.cos(angles))) <= 2e-7
        assert np.max(np.abs(sin - np.sin(angles))) <= 2e-7

    def test_non_finite_angles_give_nan(self):
        with np.errstate(invalid="ignore"):
            cos, sin = _rff_cos_sin(np.array([np.nan, np.inf, -np.inf, 0.0]))
        assert np.isnan(cos[:3]).all() and np.isnan(sin[:3]).all()
        assert cos[3] == 1.0 and sin[3] == 0.0

    def test_non_finite_hidden_activation_ends_in_numerical_error(self):
        data = make_two_moons(32, 0.1, make_rng(41))
        model = init_mlp([2, 4, 2], seed=42)
        model.layers[0].bias[:] = np.inf
        head = init_sngp_head(4, rff_dim=16, rng=make_rng(43))
        with pytest.raises(NumericalError, match="non-finite"):
            train(model, data, TrainConfig(epochs=1, seed=44), head=_RffLogisticHead(head))

    def test_gradients_match_central_differences_of_float64_loss(self):
        rng = make_rng(45)
        head = init_sngp_head(3, rff_dim=64, rng=make_rng(46))
        head.beta[:] = rng.standard_normal(64)
        h = rng.standard_normal((16, 3))
        labels = rng.integers(0, 2, size=16)
        scale = math.sqrt(2.0 / 64)

        def mean_loss():  # in float64 throughout
            m = (scale * np.cos(h @ head.rff_weights.T + head.rff_phases)) @ head.beta
            return np.sum(np.logaddexp(0.0, np.where(labels == 1, -m, m))) / len(labels)

        d_beta = np.empty_like(head.beta)
        loss, d_h = _RffLogisticHead(head).loss_and_grads(h, labels, None, [d_beta])
        assert loss / len(labels) == pytest.approx(mean_loss(), rel=1e-6)
        step = 1e-6
        for x, grad in ((h, d_h), (head.beta, d_beta)):
            numeric = np.empty_like(x)
            for idx in np.ndindex(x.shape):
                orig = x[idx]
                x[idx] = orig + step
                up = mean_loss()
                x[idx] = orig - step
                down = mean_loss()
                x[idx] = orig
                numeric[idx] = (up - down) / (2 * step)
            np.testing.assert_allclose(grad, numeric, rtol=1e-5)

    def test_step_matches_float64_reference_at_default_shape(self):
        # Batch 128, width 64, D = 1024 and beta of the scale a trained
        # head reaches (std ~0.27), against the step in float64 throughout.
        rng = make_rng(49)
        head = init_sngp_head(64, rng=make_rng(50))
        head.beta[:] = 0.27 * rng.standard_normal(head.rff_dim)
        h = np.maximum(0.8 * rng.standard_normal((128, 64)), 0.0)
        labels = rng.integers(0, 2, size=128)
        scale = math.sqrt(2.0 / head.rff_dim)
        angles = h @ head.rff_weights.T + head.rff_phases
        phi = scale * np.cos(angles)
        m = phi @ head.beta
        want_loss = np.sum(np.logaddexp(0.0, np.where(labels == 1, -m, m)))
        d_m = (1.0 / (1.0 + np.exp(-m)) - labels) / len(labels)
        want_d_h = (-scale * np.sin(angles) * np.outer(d_m, head.beta)) @ head.rff_weights
        want_d_beta = phi.T @ d_m

        d_beta = np.empty_like(head.beta)
        loss, d_h = _RffLogisticHead(head).loss_and_grads(h, labels, None, [d_beta])
        assert d_h.dtype == d_beta.dtype == np.float64
        assert loss == pytest.approx(want_loss, rel=1e-6)
        for got, want in ((d_h, want_d_h), (d_beta, want_d_beta)):
            assert np.linalg.norm(got - want) <= 2e-6 * np.linalg.norm(want)

    def test_buffered_step_matches_fresh_array_formulas_bit_for_bit(self):
        # The step writes into scratch arrays kept across steps. Batches of
        # 128 rows and the 104-row last batch of the default 1000-row
        # training set, in training order and then a full batch again,
        # against the same formulas on fresh arrays.
        rng = make_rng(53)
        head = init_sngp_head(64, rng=make_rng(54))
        step = _RffLogisticHead(head)
        scale = math.sqrt(2.0 / head.rff_dim)

        def reference(h, labels):
            turns = h @ np.ascontiguousarray(head.rff_weights.T / (2.0 * np.pi))
            turns += head.rff_phases / (2.0 * np.pi)
            reduced = np.rint(turns)
            np.subtract(turns, reduced, out=reduced)
            reduced *= 2.0 * np.pi
            radians = reduced.astype(np.float32)
            cos, sin = np.cos(radians), np.sin(radians)
            beta32 = head.beta.astype(np.float32)
            m = (cos @ beta32).astype(np.float64)
            m *= scale
            loss = float(np.sum(np.logaddexp(0.0, np.where(labels == 1, -m, m))))
            p = np.empty_like(m)  # the logistic function, overflow-safe
            pos = m >= 0
            p[pos] = 1.0 / (1.0 + np.exp(-m[pos]))
            p[~pos] = np.exp(m[~pos]) / (1.0 + np.exp(m[~pos]))
            d_m = (p - labels) / len(labels)
            d_beta = (d_m.astype(np.float32) @ cos).astype(np.float64)
            d_beta *= scale
            d_h = (sin @ (beta32[:, None] * head.rff_weights.astype(np.float32))).astype(np.float64)
            d_h *= (-scale * d_m)[:, None]
            return loss, d_h, d_beta

        for rows in (128, 128, 104, 128):
            head.beta[:] = 0.27 * rng.standard_normal(head.rff_dim)
            h = np.maximum(0.8 * rng.standard_normal((rows, 64)), 0.0)
            labels = rng.integers(0, 2, size=rows)
            d_beta = np.empty_like(head.beta)
            loss, d_h = step.loss_and_grads(h, labels, None, [d_beta])
            want_loss, want_d_h, want_d_beta = reference(h, labels)
            assert loss == want_loss, rows
            assert np.array_equal(d_h, want_d_h), rows
            assert np.array_equal(d_beta, want_d_beta), rows

    def test_training_leaves_the_random_features_unchanged(self):
        data = make_two_moons(64, 0.1, make_rng(51))
        cfg = TrainConfig(epochs=2, seed=52)
        _, head = train_sngp(data, cfg, hidden_sizes=(8,), rff_dim=32)
        drawn = init_sngp_head(8, 32, rng=make_rng(derive_seed(cfg.seed, "sngp-head")))
        assert np.array_equal(head.rff_weights, drawn.rff_weights)
        assert np.array_equal(head.rff_phases, drawn.rff_phases)

    def test_predictions_stay_float64(self):
        # Only the training step takes float32 trig: for a trained head,
        # sngp_predict equals the float64 computation bit for bit.
        data = make_two_moons(64, 0.1, make_rng(47))
        model, head = train_sngp(data, TrainConfig(epochs=2, seed=48), hidden_sizes=(8,), rff_dim=32)
        h = np.maximum(data.features @ model.layers[0].weights + model.layers[0].bias, 0.0)
        phi = np.cos(h @ head.rff_weights.T + head.rff_phases) * np.sqrt(2.0 / 32)
        v = np.maximum(((phi @ head.covariance) * phi).sum(axis=1), 0.0)
        adjusted = (phi @ head.beta) / np.sqrt(1.0 + MEAN_FIELD_LAMBDA * v)
        logits = sngp_predict(model, head, data).component_logits[0]
        assert np.array_equal(logits[:, 1], adjusted) and np.all(logits[:, 0] == 0.0)


class TestPosteriorVariance:
    @staticmethod
    def oracle(phi, cov):
        return np.array([phi[i] @ cov @ phi[i] for i in range(phi.shape[0])])

    @pytest.mark.parametrize("n", [0, 1, VARIANCE_BLOCK_ROWS, VARIANCE_BLOCK_ROWS + 1])
    def test_matches_per_row_oracle(self, n):
        rng = make_rng(20 + n)
        d = 24
        a = rng.standard_normal((d, d))
        cov = a @ a.T / d
        phi = rng.standard_normal((n, d))
        got = _posterior_variance(phi, cov)
        assert got.shape == (n,)
        np.testing.assert_allclose(got, self.oracle(phi, cov), rtol=1e-12)

    def test_transposed_view_covariance(self):
        rng = make_rng(21)
        d = 16
        a = rng.standard_normal((d, d))
        # Positive definite part plus an antisymmetric one, read through a
        # transposed (Fortran-ordered) view.
        cov_t = (a @ a.T / d + np.triu(a) - np.triu(a).T).T
        assert not cov_t.flags.c_contiguous
        phi = rng.standard_normal((VARIANCE_BLOCK_ROWS + 3, d))
        np.testing.assert_allclose(
            _posterior_variance(phi, cov_t), self.oracle(phi, cov_t), rtol=1e-12
        )


class TestScores:
    def test_entropy_bounds(self):
        rng = make_rng(17)
        p1 = rng.random(1000)
        probs = np.column_stack([1 - p1, p1])
        h = predictive_entropy(probs)
        assert np.all(h >= 0.0)
        assert np.all(h <= LN2 + 1e-12)

    def test_entropy_exact_at_endpoints(self):
        assert predictive_entropy(np.array([[1.0, 0.0]]))[0] == 0.0
        assert predictive_entropy(np.array([[0.5, 0.5]]))[0] == pytest.approx(LN2, abs=1e-15)

    def test_jensen_inequality(self):
        rng = make_rng(18)
        for _ in range(50):
            logits = rng.standard_normal((8, 30, 2)) * 4
            probs, unc = scores_from_logits("dropout", logits)
            per_pass = predictive_entropy(softmax(logits)).mean(axis=0)
            assert np.all(unc >= per_pass - 1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=6))
def test_probabilities_always_normalized(seed, k):
    logits = make_rng(seed).standard_normal((k, 20, 2)) * 10
    probs, unc = scores_from_logits("dropout", logits)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(unc >= 0.0)
