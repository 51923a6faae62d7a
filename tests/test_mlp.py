import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uqlab.data import Dataset, make_two_moons
from uqlab.errors import ConfigError, DataError, NumericalError, ParseError, SchemaVersionError
from uqlab import linalg
from uqlab.mlp import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    SN_WARMUP_ITERS,
    Layer,
    MlpClassifier,
    TrainConfig,
    _Adam,
    _backward_into,
    _backward_stack,
    _DenseHead,
    _forward_stack,
    _hidden_features,
    _renormalize_hidden,
    cross_entropy,
    forward_logits,
    init_mlp,
    load_checkpoint,
    save_checkpoint,
    softmax,
    train,
)
from uqlab.rng import make_rng
from uqlab.uq import _RffLogisticHead, init_sngp_head, train_sngp

from oracles import nearest_centroid_accuracy, spectral_norm_svd
from test_experiment import JSON_VALUES


def two_blobs(n=512, seed=0, gap=6.0):
    rng = make_rng(seed)
    a = rng.normal((-gap / 2, 0.0), 0.5, size=(n // 2, 2))
    b = rng.normal((gap / 2, 0.0), 0.5, size=(n // 2, 2))
    labels = np.concatenate([np.zeros(n // 2, dtype=np.int64), np.ones(n // 2, dtype=np.int64)])
    return Dataset(np.concatenate([a, b]), labels, "blobs")


def eval_loss(model, data):
    return cross_entropy(softmax(forward_logits(model, data.features)), data.labels)


class TestInit:
    def test_same_seed_bit_identical(self):
        a = init_mlp([2, 16, 2], 0.5, 0.9, seed=5)
        b = init_mlp([2, 16, 2], 0.5, 0.9, seed=5)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.bias, lb.bias)

    def test_weight_variance_matches_he_target(self):
        model = init_mlp([2, 64, 64, 2], seed=1)
        for layer in model.layers[1:]:  # fan_in 64; the 2-input layer is too small
            fan_in = layer.weights.shape[0]
            target = 2.0 / fan_in
            observed = layer.weights.var()
            assert abs(observed - target) < 0.2 * target
            assert np.all(layer.bias == 0.0)

    def test_final_layer_must_be_two(self):
        with pytest.raises(ConfigError):
            init_mlp([2, 8, 3])

    def test_activation_tags(self):
        model = init_mlp([2, 8, 8, 2])
        assert [l.activation for l in model.layers] == ["relu", "relu", "linear"]


class TestSoftmax:
    def test_symmetric(self):
        np.testing.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_shift_invariant(self):
        z = np.array([0.3, -1.2])
        np.testing.assert_allclose(softmax(z + 17.5), softmax(z), atol=1e-12)

    def test_saturation_no_overflow(self):
        p = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(p))
        assert p[0] == pytest.approx(1.0)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericalError):
            softmax(np.array([np.inf, 0.0]))

    def test_difference_beyond_float_range_is_silent_and_exact(self):
        z = np.array([[1e308, -1e308], [-1e308, 1e308], [1e308, 1e308], [0.25, -3.0]])
        with np.errstate(all="raise"):
            with np.errstate(over="ignore"):
                shifted = z - z.max(axis=-1, keepdims=True)
            expected = np.exp(shifted) / np.exp(shifted).sum(axis=-1, keepdims=True)
            got = softmax(z)  # raises FloatingPointError if it over- or underflows loudly
        assert got.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(got[:3], [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])


    @pytest.mark.parametrize("shape", [(2,), (128, 2), (5, 33, 2), (7, 3), (4, 9)])
    def test_matches_reference_bit_for_bit(self, shape):
        rng = make_rng(80)
        for scale in (1e-300, 1.0, 30.0, 800.0, 1e300):
            z = rng.standard_normal(shape) * scale
            z.flat[0] = -0.0
            with np.errstate(over="ignore"):
                want = _reference_softmax(z)
            assert softmax(z).tobytes() == want.tobytes(), scale


class TestForward:
    def test_dropout_zero_active_equals_deterministic(self):
        model = init_mlp([2, 8, 2], dropout_rate=0.0, seed=2)
        x = make_rng(3).standard_normal((5, 2))
        det = forward_logits(model, x)
        act, _, mask = _DenseHead(model).logits(_hidden_features(model, x), make_rng(4))
        assert mask is None
        np.testing.assert_array_equal(det, act)

    def test_zero_weight_network_maps_to_zero(self):
        model = init_mlp([2, 4, 2], seed=0)
        for layer in model.layers:
            layer.weights[:] = 0.0
        np.testing.assert_array_equal(forward_logits(model, np.ones(2)), np.zeros(2))

    def test_dimension_mismatch(self):
        model = init_mlp([2, 4, 2], seed=0)
        with pytest.raises(DataError):
            forward_logits(model, np.ones(3))

    def test_single_sample_shape(self):
        model = init_mlp([2, 4, 2], seed=0)
        assert forward_logits(model, np.ones(2)).shape == (2,)
        assert forward_logits(model, np.ones((7, 2))).shape == (7, 2)

    def test_mask_two_point_distribution(self):
        # One hidden unit: a dropout pass either keeps it (scaled by 1/keep)
        # or zeroes it, so the logits take exactly two values.
        model = init_mlp([2, 1, 2], dropout_rate=0.5, seed=6)
        x = np.array([0.7, -0.4])
        h = max(0.0, float((x @ model.layers[0].weights + model.layers[0].bias)[0]))
        final = model.layers[-1]
        kept = (h / 0.5) * final.weights[0] + final.bias
        dropped = final.bias.copy()
        head, hx = _DenseHead(model), _hidden_features(model, x[None, :])
        rng = make_rng(123)
        n = 10_000
        hits_kept = 0
        for _ in range(n):
            z = head.logits(hx, rng)[0][0]
            if np.allclose(z, kept, atol=1e-12):
                hits_kept += 1
            else:
                np.testing.assert_allclose(z, dropped, atol=1e-12)
        sigma = (0.25 * n) ** 0.5
        assert abs(hits_kept - 0.5 * n) < 3 * sigma


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 1e-3
        assert cfg.weight_decay == 1e-5
        assert cfg.epochs == 100
        assert cfg.batch_size == 128

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(weight_decay=-1.0)


class TestTrain:
    def test_separable_blobs_high_accuracy(self):
        data = two_blobs(seed=8)
        # The independent separability oracle reaches 1.0 on these blobs.
        assert nearest_centroid_accuracy(data.features, data.labels) == 1.0
        model = train(init_mlp([2, 8, 2], seed=9), data, TrainConfig(seed=10))
        probs = softmax(forward_logits(model, data.features))
        acc = float(np.mean((probs[:, 1] > probs[:, 0]) == data.labels))
        assert acc >= 0.99

    def test_loss_decreases(self):
        data = make_two_moons(400, 0.1, make_rng(11))
        model = init_mlp([2, 16, 2], seed=12)
        before = eval_loss(model, data)
        after = eval_loss(train(model, data, TrainConfig(epochs=20, seed=13)), data)
        assert after < before

    def test_zero_learning_rate_is_identity(self):
        data = make_two_moons(100, 0.1, make_rng(14))
        model = init_mlp([2, 8, 2], seed=15)
        before = eval_loss(model, data)
        out = train(model, data, TrainConfig(learning_rate=0.0, epochs=3, seed=16))
        for la, lb in zip(model.layers, out.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.bias, lb.bias)
        assert abs(eval_loss(out, data) - before) < 1e-12

    def test_input_model_not_mutated(self):
        data = make_two_moons(100, 0.1, make_rng(17))
        model = init_mlp([2, 8, 2], seed=18)
        snapshot = [l.weights.copy() for l in model.layers]
        train(model, data, TrainConfig(epochs=2, seed=19))
        for w, l in zip(snapshot, model.layers):
            np.testing.assert_array_equal(w, l.weights)
        assert not model.trained

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            train(init_mlp([2, 8, 2]), make_two_moons(0, 0.1, make_rng(0)), TrainConfig())

    def test_bit_reproducible(self):
        data = make_two_moons(128, 0.1, make_rng(20))
        a = train(init_mlp([2, 8, 2], 0.5, seed=21), data, TrainConfig(epochs=5, seed=22))
        b = train(init_mlp([2, 8, 2], 0.5, seed=21), data, TrainConfig(epochs=5, seed=22))
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)

    def test_numerical_failure_names_epoch(self):
        data = make_two_moons(64, 0.1, make_rng(23))
        model = init_mlp([2, 8, 2], seed=24)
        with pytest.raises(NumericalError, match="epoch"):
            train(model, data, TrainConfig(learning_rate=1e300, epochs=3, seed=25))

    def test_spectral_bound_every_epoch(self):
        data = make_two_moons(256, 0.1, make_rng(26))
        model = init_mlp([2, 16, 16, 2], spectral_bound=0.95, seed=27)
        seen = []

        def record(epoch, m):
            seen.append(max(spectral_norm_svd(l.weights) for l in m.layers[:-1]))

        train(model, data, TrainConfig(epochs=15, seed=28), on_epoch_end=record)
        assert len(seen) == 15
        assert max(seen) <= 0.951


class _PerArrayAdam:
    """Reference Adam in the per-array form: one loop over separate arrays."""

    def __init__(self, params, lr, weight_decay):
        self.params = params
        self.lr = lr
        self.wd = weight_decay
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads):
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            g = g + self.wd * p
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def _reference_forward(layers, x):
    """Forward through the stack; returns (activations, preactivations)."""
    acts, pres = [x], []
    for layer in layers:
        pre = acts[-1] @ layer.weights
        pre += layer.bias
        pres.append(pre)
        acts.append(np.maximum(pre, 0.0) if layer.activation == "relu" else pre)
    return acts, pres


def _reference_softmax(z):
    if not np.all(np.isfinite(z)):
        raise NumericalError("softmax input contains non-finite logits")
    with np.errstate(over="ignore"):
        e = z - np.max(z, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
    return e


def _reference_dense_head(layer, rate, h, labels, rng):
    """The dense head's step: dropout, softmax, then the cross-entropy and its gradients.

    Returns (summed loss, d_h, [d_weights, d_bias]).
    """
    mask = None
    if rate >= 1.0:
        mask = np.zeros(h.shape)
    elif rate > 0.0:
        mask = (rng.random(h.shape) >= rate) / (1.0 - rate)
    if mask is not None:
        h = h * mask
    probs = _reference_softmax(h @ layer.weights + layer.bias)
    b = len(labels)
    with np.errstate(divide="ignore"):
        loss = float(np.mean(-np.log(probs[np.arange(b), labels]))) * b
    d_logits = probs
    d_logits[np.arange(b), labels] -= 1.0
    d_logits /= b
    d_h = d_logits @ layer.weights.T
    if mask is not None:
        d_h = d_h * mask
    return loss, d_h, [h.T @ d_logits, d_logits.sum(axis=0)]


def _reference_backward(layers, acts, pres, d_out):
    """Backprop through the stack.

    Returns the per-layer gradient pairs, the gradient at the stack input
    and the one at the first layer's pre-activation.
    """
    grads = [None] * len(layers)
    d_act = d_out
    for i in range(len(layers) - 1, -1, -1):
        d_pre = d_act * (pres[i] > 0) if layers[i].activation == "relu" else d_act
        grads[i] = (acts[i].T @ d_pre, d_pre.sum(axis=0))
        d_act = d_pre @ layers[i].weights.T
    return grads, d_act, d_pre


def _per_array_train(model, data, cfg, head=None):
    """The training loop of ``train`` with separate arrays and per-array Adam.

    The forward pass, the dense head (softmax and cross-entropy) and the
    backward pass, with its input gradient, are the test-local formulas
    above, so the production step is compared with an independent
    reference. Another ``head`` is the production one, given fresh
    gradient arrays. The weights are updated where they are, as before the
    flat parameter vector.
    """
    model = MlpClassifier(
        [Layer(l.weights.copy(), l.bias.copy(), l.activation) for l in model.layers],
        model.dropout_rate,
        model.spectral_bound,
        model.seed,
    )
    rng = make_rng(cfg.seed)
    if head is None:
        final, rate = model.layers[-1], model.dropout_rate
        params = [final.weights, final.bias]

        def head_step(h, labels):
            return _reference_dense_head(final, rate, h, labels, rng)

    else:
        params = head.params

        def head_step(h, labels):
            grads = [np.empty_like(p) for p in params]
            loss, d_h = head.loss_and_grads(h, labels, rng, grads)
            return loss, d_h, grads

    sn_state = None
    if model.spectral_bound is not None:
        sn_state = [
            linalg.power_iter_init(l.weights, rng, warmup=SN_WARMUP_ITERS)
            for l in model.layers[:-1]
        ]
        _renormalize_hidden(model, sn_state, converge=True)
    hidden = model.layers[:-1]
    hidden_params = [a for layer in hidden for a in (layer.weights, layer.bias)]
    opt = _PerArrayAdam(hidden_params + params, cfg.learning_rate, cfg.weight_decay)
    n = len(data)
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, cfg.batch_size):
                idx = perm[start : start + cfg.batch_size]
                acts, pres = _reference_forward(hidden, data.features[idx])
                _, d_h, head_grads = head_step(acts[-1], data.labels[idx])
                grads, _, _ = _reference_backward(hidden, acts, pres, d_h)
                opt.step([g for pair in grads for g in pair] + head_grads)
                if sn_state is not None:
                    _renormalize_hidden(model, sn_state)
        if sn_state is not None:
            _renormalize_hidden(model, sn_state, converge=True)
    model.trained = True
    return model


def _weights(model):
    return [a for layer in model.layers for a in (layer.weights, layer.bias)]


def _sha256(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def _build_signature():
    """numpy version, BLAS version and the SIMD targets numpy dispatches to."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (ImportError, TypeError, KeyError):  # numpy 1.x reports these differently
        return None
    return np.__version__, blas, tuple(k for k in __cpu_dispatch__ if __cpu_features__.get(k))


# Digests of trained weights recorded with per-array Adam, on the first numpy
# build, BLAS build and SIMD targets below (the "sngp" one with the GP step
# that takes its products after the trig in float32), and found the same on
# the others. Other builds may round BLAS products or numpy's exp/log
# differently, so there the digests are not compared.
PINNED_BUILDS = {
    ("2.4.6", "0.3.31.188.0", ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")),
    ("2.4.6", "0.3.31.188.0", ("X86_V3", "X86_V4", "AVX512_ICL")),
}
PINNED_DIGESTS = {
    "msp": "96524e549fb8d05a2000d949aa384695ddf0ac6cabd2200c0609fa9a2dd72a5d",
    "dropout": "2c4121fbd8fc62a4175e75f3f903698cccdb96419d03afbf4e7f83cfe6db51a0",
    "spectral": "daa68b28457b0784eafaf145d01ebd3fc8d93d30ebf3c619d617b0031924fce3",
    "sngp": "33299fdc8d5e43e59104e3edb1739359d8fc1133e54e50f2fbd5439f67ba4c9d",
}


class TestFlatParameters:
    def test_adam_matches_per_array_form_bit_for_bit(self):
        rng = make_rng(50)
        shapes = [(2, 64), (64,), (64, 64), (1024,)]
        init = [rng.standard_normal(s) for s in shapes]
        before = [a.copy() for a in init]
        reference = [a.copy() for a in init]
        ref = _PerArrayAdam(reference, 1e-3, 1e-2)
        opt = _Adam(init, 1e-3, 1e-2)
        for step in range(50):
            grads = [rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3) for s in shapes]
            grads[1][: 8 + step] = 0.0
            grads[3][::5] = 1e-300  # its square underflows to zero
            grads[3][1::5] = 5e-324  # the smallest subnormal
            if step % 7 == 3:
                grads[2][:] = 0.0
            ref.step(grads)
            for view, g in zip(opt.grads, grads):
                view[...] = g
            opt.step()
            for p, r in zip(opt.params, reference):
                assert p.shape == r.shape
                assert np.array_equal(p, r), step
        # The optimizer trains copies: the arrays it was given are untouched.
        assert all(np.array_equal(a, b) for a, b in zip(init, before))

    def test_train_matches_per_array_training_bit_for_bit(self):
        # Build-independent: both sides round BLAS and exp/log alike. With
        # 193 samples the last batch of each epoch holds one row.
        cfg = TrainConfig(epochs=3, batch_size=32, weight_decay=1e-3, seed=71)
        for n in (200, 193):
            data = make_two_moons(n, 0.1, make_rng(70))
            for rate, bound in [(0.0, None), (0.5, None), (1.0, None), (0.0, 0.9)]:
                model = init_mlp([2, 16, 16, 2], rate, bound, seed=72)
                flat = train(model, data, cfg)
                ref = _per_array_train(model, data, cfg)
                for a, b in zip(_weights(flat), _weights(ref)):
                    assert np.array_equal(a, b), (n, rate, bound)
        data = make_two_moons(200, 0.1, make_rng(70))
        model = init_mlp([2, 16, 16, 2], 0.0, 0.9, seed=73)
        heads = [init_sngp_head(16, 64, rng=make_rng(74)) for _ in range(2)]
        flat = train(model, data, cfg, head=_RffLogisticHead(heads[0]))
        ref = _per_array_train(model, data, cfg, head=_RffLogisticHead(heads[1]))
        assert np.array_equal(heads[0].beta, heads[1].beta)
        assert not np.array_equal(heads[1].beta, 0.0)
        for a, b in zip(_weights(flat), _weights(ref)):
            assert np.array_equal(a, b)

    def test_dense_head_step_matches_per_array_formulas_bit_for_bit(self):
        # The fused in-place step gives the loss, d_h and both parameter
        # gradients of the per-array formulas, at dropout rates 0, 0.5 and 1;
        # without dropout one row's true-class probability is 0 (loss inf).
        rng = make_rng(75)
        h = np.maximum(rng.standard_normal((33, 16)), 0.0)
        h[0] *= 1e3
        labels = rng.integers(0, 2, size=33)
        for rate in (0.0, 0.5, 1.0):
            model = init_mlp([2, 16, 2], rate, seed=76)
            final = model.layers[-1]
            final.weights[:, 0] *= 40.0
            labels[0] = 1 - np.argmax(h[0] @ final.weights + final.bias)
            grads = [np.empty_like(final.weights), np.empty_like(final.bias)]
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                loss, d_h = _DenseHead(model).loss_and_grads(h, labels, make_rng(77), grads)
            want = _reference_dense_head(final, rate, h, labels, make_rng(77))
            assert loss == want[0] and (rate > 0.0 or loss == math.inf), rate
            for got, ref in zip([d_h, *grads], [want[1], *want[2]]):
                assert got.tobytes() == ref.tobytes(), rate

    def test_backward_matches_per_array_formulas_bit_for_bit(self):
        # Unit 3 of each hidden layer is dead on the whole batch and every
        # gradient reaching the first layer's unit 3 is negative, so the
        # in-place mask must leave -0.0 there, as the out-of-place one does.
        rng = make_rng(78)
        layers = init_mlp([2, 16, 16, 2], seed=79).layers[:-1]
        for layer in layers:
            layer.bias[3] = -100.0
        layers[1].weights[3] = np.abs(layers[1].weights[3])
        x = rng.standard_normal((33, 2))
        acts, pres = _forward_stack(layers, x)
        d_out = -np.abs(rng.standard_normal((33, 16)))
        want_grads, want_d_input, want_d_pre = _reference_backward(layers, acts, pres, d_out)
        grads = [(np.empty_like(l.weights), np.empty_like(l.bias)) for l in layers]
        d_pre = _backward_into(grads, layers, acts, pres, d_out.copy())
        assert np.signbit(want_d_pre[:, 3]).any()
        assert d_pre.tobytes() == want_d_pre.tobytes()
        stack_grads, d_input = _backward_stack(layers, acts, pres, d_out.copy())
        assert d_input.tobytes() == want_d_input.tobytes()
        for got in (grads, stack_grads):
            for pair, want in zip(got, want_grads):
                for a, b in zip(pair, want):
                    assert a.tobytes() == b.tobytes()

    def test_train_results_share_no_memory(self):
        data = make_two_moons(96, 0.1, make_rng(51))
        model = init_mlp([2, 8, 8, 2], 0.25, seed=52)
        snapshot = [a.copy() for a in _weights(model)]
        cfg = TrainConfig(epochs=2, batch_size=32, seed=53)
        a = train(model, data, cfg)
        b = train(model, data, cfg)
        for x in _weights(a):
            for y in _weights(model) + _weights(b):
                assert not np.shares_memory(x, y)
        a.layers[0].weights[0, 0] += 1.0  # reaches neither the input nor b
        assert all(np.array_equal(s, w) for s, w in zip(snapshot, _weights(model)))
        assert not model.trained
        assert _sha256(_weights(train(model, data, cfg))) == _sha256(_weights(b))

    @pytest.mark.skipif(
        _build_signature() not in PINNED_BUILDS, reason="digests pinned for other numpy builds"
    )
    def test_trained_weights_keep_their_bits(self):
        data = make_two_moons(200, 0.1, make_rng(60))
        cfg = TrainConfig(epochs=4, batch_size=32, seed=61)
        variants = {"msp": (0.0, None), "dropout": (0.5, None), "spectral": (0.0, 0.9)}
        for name, (rate, bound) in variants.items():
            model = train(init_mlp([2, 16, 16, 2], rate, bound, seed=62), data, cfg)
            assert _sha256(_weights(model)) == PINNED_DIGESTS[name], name
        model, head = train_sngp(data, cfg, hidden_sizes=(16, 16), rff_dim=64)
        assert _sha256(_weights(model)[:-2] + [head.beta]) == PINNED_DIGESTS["sngp"]


class TestGradients:
    def test_analytic_matches_central_differences(self):
        rng = make_rng(29)
        data = Dataset(
            rng.standard_normal((16, 2)),
            rng.integers(0, 2, size=16).astype(np.int64),
            "grad",
        )
        model = init_mlp([2, 8, 2], seed=30)

        from uqlab.mlp import _backward_stack, _forward_stack

        def loss_at(model):
            return eval_loss(model, data)

        acts, pres = _forward_stack(model.layers[:-1], data.features)
        final = model.layers[-1]
        logits = acts[-1] @ final.weights + final.bias
        probs = softmax(logits)
        d_logits = probs.copy()
        d_logits[np.arange(len(data)), data.labels] -= 1.0
        d_logits /= len(data)
        g_wf = acts[-1].T @ d_logits
        g_bf = d_logits.sum(axis=0)
        d_h = d_logits @ final.weights.T
        hidden_grads, _ = _backward_stack(model.layers[:-1], acts, pres, d_h)
        analytic = [hidden_grads[0][0], hidden_grads[0][1], g_wf, g_bf]
        params = [
            model.layers[0].weights,
            model.layers[0].bias,
            model.layers[-1].weights,
            model.layers[-1].bias,
        ]
        step = 1e-5
        for param, grad in zip(params, analytic):
            it = np.nditer(param, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = param[idx]
                param[idx] = orig + step
                up = loss_at(model)
                param[idx] = orig - step
                down = loss_at(model)
                param[idx] = orig
                numeric = (up - down) / (2 * step)
                denom = max(abs(numeric), abs(grad[idx]), 1e-8)
                assert abs(numeric - grad[idx]) / denom <= 1e-4


def _value_paths(value, prefix: tuple = ()):
    """Every key path in a JSON document, array elements included."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, inner in items:
        yield (*prefix, key)
        if isinstance(inner, (dict, list)):
            yield from _value_paths(inner, (*prefix, key))


def _set(doc, path, value):
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        data = make_two_moons(64, 0.1, make_rng(31))
        model = train(init_mlp([2, 8, 2], 0.25, 0.9, seed=32), data, TrainConfig(epochs=3, seed=33))
        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        assert back.layer_sizes == model.layer_sizes
        assert back.dropout_rate == model.dropout_rate
        assert back.spectral_bound == model.spectral_bound
        assert back.seed == model.seed
        assert back.trained
        for la, lb in zip(model.layers, back.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.bias, lb.bias)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_checkpoint(init_mlp([2, 2]), path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaVersionError):
            load_checkpoint(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format": "other"}))
        with pytest.raises(SchemaVersionError):
            load_checkpoint(path)

    @staticmethod
    def _saved_doc(tmp_path):
        path = tmp_path / "model.json"
        save_checkpoint(init_mlp([2, 3, 2]), path)
        return path, json.loads(path.read_text())

    @pytest.mark.parametrize(
        "key", ["layer_sizes", "weights", "biases", "dropout_rate", "spectral_bound", "seed"]
    )
    def test_missing_key_named(self, tmp_path, key):
        path, doc = self._saved_doc(tmp_path)
        del doc[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=f"missing key '{key}'"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("layer_sizes", [2, 4, 2]),
            ("layer_sizes", [2, 2]),
            ("layer_sizes", [2, 3, 3, 2]),
            ("layer_sizes", "2,3,2"),
            ("biases", [[0.0, 0.0, 0.0], [0.0]]),
            ("weights", [[0.0] * 6, "x"]),
        ],
    )
    def test_arrays_must_fit_layer_sizes(self, tmp_path, key, value):
        path, doc = self._saved_doc(tmp_path)
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=key):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("dropout_rate", "x"),
            ("dropout_rate", True),
            ("dropout_rate", None),
            ("dropout_rate", 1.5),
            ("dropout_rate", -0.25),
            ("spectral_bound", "4"),
            ("spectral_bound", False),
            ("spectral_bound", 0),
            ("spectral_bound", -1.0),
            ("seed", 1.5),
            ("seed", "3"),
            ("seed", True),
            ("trained", 1),
            ("trained", "yes"),
            ("trained", None),
        ],
    )
    def test_bad_field_named(self, tmp_path, key, value):
        path, doc = self._saved_doc(tmp_path)
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=key):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "key, value",
        [("dropout_rate", 0), ("dropout_rate", 1.0), ("spectral_bound", None),
         ("spectral_bound", 2), ("trained", True)],
    )
    def test_edge_field_values_load(self, tmp_path, key, value):
        path, doc = self._saved_doc(tmp_path)
        doc[key] = value
        path.write_text(json.dumps(doc))
        assert getattr(load_checkpoint(path), key) == value

    @pytest.mark.parametrize(
        "edits, where",
        [
            ([(("weights", 1, 1), "0.5")], "checkpoint.weights[1][1]: expected a number"),
            ([(("weights", 1, 1), True)], "checkpoint.weights[1][1]: expected a number"),
            ([(("biases", 0, 2), math.nan)], "checkpoint.biases[0][2]: expected a finite number"),
            ([(("weights", 0, 0), 10**400)], "checkpoint.weights[0][0]: expected a finite number"),
            ([(("extra",), 1)], "checkpoint.extra: unknown key"),
            (
                [(("layer_sizes",), [2, 0, 3]), (("weights",), [[], []]),
                 (("biases",), [[], [0.0] * 3])],
                "checkpoint.layer_sizes: ",
            ),
        ],
        ids=["string-weight", "bool-weight", "nan-bias", "huge-int-weight", "unknown-key",
             "zero-width-layer"],
    )
    def test_invalid_value_named_at_its_key_path(self, tmp_path, edits, where):
        path, doc = self._saved_doc(tmp_path)
        for key_path, value in edits:
            _set(doc, key_path, value)
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=f": {re.escape(where)}"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "value, what",
        [("0.5", 'expected a number, got "0.5"'), (math.nan, "expected a finite number, got NaN")],
    )
    def test_bad_entry_deep_in_a_long_array_named_at_its_index(self, tmp_path, value, what):
        path = tmp_path / "model.json"
        save_checkpoint(init_mlp([2, 64, 64, 2]), path)
        doc = json.loads(path.read_text())
        doc["weights"][1][4000] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: checkpoint.weights[1][4000]: {what}"

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_version_must_be_an_integer(self, tmp_path, version):
        path, doc = self._saved_doc(tmp_path)
        doc["version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaVersionError):
            load_checkpoint(path)

    def test_integer_arrays_load_as_float64(self, tmp_path):
        path, doc = self._saved_doc(tmp_path)
        doc["weights"] = [[1] * 6, [-2] * 6]
        doc["biases"] = [[0] * 3, [3, 4]]
        path.write_text(json.dumps(doc))
        model = load_checkpoint(path)
        assert all(a.dtype == np.float64 for l in model.layers for a in (l.weights, l.bias))
        np.testing.assert_array_equal(model.layers[1].bias, [3.0, 4.0])

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_any_value_at_any_key_path_loads_or_raises(self, tmp_path, data):
        path, doc = self._saved_doc(tmp_path)
        key_path = data.draw(st.sampled_from(list(_value_paths(doc))))
        _set(doc, key_path, data.draw(JSON_VALUES))
        path.write_text(json.dumps(doc))
        try:
            model = load_checkpoint(path)
        except (ParseError, SchemaVersionError):
            return
        for layer in model.layers:
            for a in (layer.weights, layer.bias):
                assert a.dtype == np.float64 and np.all(np.isfinite(a))

    @pytest.mark.parametrize("text, error", [("{", ParseError), ("[1, 2]", SchemaVersionError)])
    def test_not_a_checkpoint_document(self, tmp_path, text, error):
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(error):
            load_checkpoint(path)
