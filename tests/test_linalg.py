import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqlab.errors import ConfigError, DataError
from uqlab.linalg import power_iter_converge, power_iter_init, power_iter_step
from uqlab.mlp import Layer, MlpClassifier, _renormalize_hidden, init_mlp
from uqlab.rng import make_rng

from oracles import spectral_norm_svd


def estimate(w, iters, seed):
    """``iters`` power iterations from a start vector drawn from ``make_rng(seed)``."""
    state = power_iter_init(w, make_rng(seed), warmup=0)
    for _ in range(iters):
        sigma = power_iter_step(w, state)
    return sigma


def converged(w, seed):
    """The epoch-boundary estimate: iterate a fresh state until it stabilizes."""
    return power_iter_converge(w, power_iter_init(w, make_rng(seed), warmup=0))


def test_identity_norm_is_one():
    assert converged(np.eye(3), 0) == pytest.approx(1.0, abs=1e-9)
    assert estimate(np.eye(3), 50, 0) == pytest.approx(1.0, abs=1e-9)


def test_diagonal_norm_is_max_magnitude():
    assert converged(np.diag([3.0, 1.0]), 0) == pytest.approx(3.0, abs=1e-9)
    assert estimate(np.diag([3.0, 1.0]), 50, 0) == pytest.approx(3.0, abs=1e-9)


def test_random_matrix_matches_svd_oracle():
    for seed in range(20):
        w = make_rng(seed).standard_normal((5, 4))
        assert estimate(w, 200, seed + 100) == pytest.approx(spectral_norm_svd(w), abs=1e-6)


def test_scale_equivariance():
    w = make_rng(3).standard_normal((6, 6))
    for c in (-2.5, 0.3, 7.0):
        base = estimate(w, 100, 9)
        scaled = estimate(c * w, 100, 9)
        assert scaled == pytest.approx(abs(c) * base, abs=1e-9)


def test_zero_matrix_norm_is_zero():
    assert estimate(np.zeros((4, 3)), 50, 0) == 0.0
    assert converged(np.zeros((4, 3)), 0) == 0.0


def test_empty_matrix_rejected():
    with pytest.raises(DataError):
        power_iter_init(np.zeros((0, 3)), make_rng(0))


def test_nonfinite_matrix_rejected():
    w = np.full((2, 2), np.nan)
    with pytest.raises(DataError):
        power_iter_init(w, make_rng(0))


# Spectral normalization as training applies it to a hidden layer at an
# epoch boundary: mlp._renormalize_hidden over a persistent state.
def normalized(w, bound, seed):
    w = np.array(w, dtype=np.float64)
    model = MlpClassifier(
        [Layer(w, np.zeros(w.shape[1]), "relu"),
         Layer(np.zeros((w.shape[1], 2)), np.zeros(2), "linear")],
        dropout_rate=0.0,
        spectral_bound=bound,
        seed=0,
    )
    _renormalize_hidden(model, [power_iter_init(w, make_rng(seed), warmup=0)], converge=True)
    return model.layers[0].weights


def test_normalize_exact_scaling():
    w = np.diag([3.0, 1.0])
    np.testing.assert_allclose(normalized(w, 1.0, 0), w / 3.0, atol=1e-9)


def test_normalize_inside_bound_unchanged():
    w = np.diag([0.5, 0.1])
    np.testing.assert_array_equal(normalized(w, 1.0, 0), w)


def test_normalize_random_within_bound_by_svd_oracle():
    for seed in range(30):
        w = make_rng(seed).standard_normal((7, 5))
        assert spectral_norm_svd(normalized(w, 0.95, seed + 1)) <= 0.951


def test_normalize_idempotent():
    w = make_rng(11).standard_normal((6, 4)) * 3.0
    once = normalized(w, 0.9, 5)
    twice = normalized(once, 0.9, 5)
    np.testing.assert_allclose(twice, once, atol=1e-6)


def test_normalize_zero_matrix_unchanged():
    w = np.zeros((3, 3))
    np.testing.assert_array_equal(normalized(w, 1.0, 0), w)


def test_normalize_requires_positive_bound():
    with pytest.raises(ConfigError):
        init_mlp([2, 3, 2], spectral_bound=0.0)


def test_deterministic_given_seed():
    w = make_rng(2).standard_normal((8, 8))
    assert estimate(w, 25, 42) == estimate(w, 25, 42)
    assert converged(w, 42) == converged(w, 42)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.05, max_value=20.0),
)
def test_persistent_state_tracks_svd(seed, scale):
    w = make_rng(seed).standard_normal((6, 5)) * scale
    state = power_iter_init(w, make_rng(seed + 1), warmup=5)
    sigma = power_iter_converge(w, state)
    assert sigma == pytest.approx(spectral_norm_svd(w), rel=1e-6)


def test_persistent_step_tracks_slow_drift():
    rng = make_rng(8)
    w = rng.standard_normal((6, 6))
    state = power_iter_init(w, make_rng(1), warmup=50)
    for _ in range(200):
        w += 1e-3 * rng.standard_normal((6, 6))
        sigma = power_iter_step(w, state)
    assert sigma == pytest.approx(spectral_norm_svd(w), rel=1e-3)


def test_converge_returns_exact_norm_at_iteration_cap():
    # The top two singular values differ by 1e-4, so two power-iteration
    # steps from a random start are far from converged.
    rng = make_rng(9)
    q1, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    q2, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    w = q1 @ np.diag([1.0, 0.9999, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05]) @ q2.T
    probe = power_iter_init(w, make_rng(10), warmup=0)
    power_iter_step(w, probe)
    assert abs(power_iter_step(w, probe) - spectral_norm_svd(w)) > 1e-6
    state = power_iter_init(w, make_rng(10), warmup=0)
    assert power_iter_converge(w, state, max_iters=1) == pytest.approx(
        spectral_norm_svd(w), rel=1e-12
    )
