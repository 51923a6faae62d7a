import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqlab.errors import ConfigError, DataError
from uqlab.linalg import (
    normalize_spectral,
    power_iter_converge,
    power_iter_init,
    power_iter_step,
    spectral_norm_estimate,
)
from uqlab.rng import make_rng

from oracles import spectral_norm_svd


def test_identity_norm_is_one():
    est = spectral_norm_estimate(np.eye(3), 50, make_rng(0))
    assert est == pytest.approx(1.0, abs=1e-9)


def test_diagonal_norm_is_max_magnitude():
    est = spectral_norm_estimate(np.diag([3.0, 1.0]), 50, make_rng(0))
    assert est == pytest.approx(3.0, abs=1e-9)


def test_random_matrix_matches_svd_oracle():
    for seed in range(20):
        w = make_rng(seed).standard_normal((5, 4))
        est = spectral_norm_estimate(w, 200, make_rng(seed + 100))
        assert est == pytest.approx(spectral_norm_svd(w), abs=1e-6)


def test_scale_equivariance():
    w = make_rng(3).standard_normal((6, 6))
    for c in (-2.5, 0.3, 7.0):
        base = spectral_norm_estimate(w, 100, make_rng(9))
        scaled = spectral_norm_estimate(c * w, 100, make_rng(9))
        assert scaled == pytest.approx(abs(c) * base, abs=1e-9)


def test_zero_matrix_norm_is_zero():
    assert spectral_norm_estimate(np.zeros((4, 3)), 50, make_rng(0)) == 0.0


def test_empty_matrix_rejected():
    with pytest.raises(DataError):
        spectral_norm_estimate(np.zeros((0, 3)), 50, make_rng(0))


def test_nonfinite_matrix_rejected():
    w = np.full((2, 2), np.nan)
    with pytest.raises(DataError):
        spectral_norm_estimate(w, 10, make_rng(0))


def test_iters_must_be_positive():
    with pytest.raises(ConfigError):
        spectral_norm_estimate(np.eye(2), 0, make_rng(0))


def test_normalize_exact_scaling():
    w = np.diag([3.0, 1.0])
    out = normalize_spectral(w, 1.0, 50, make_rng(0))
    np.testing.assert_allclose(out, w / 3.0, atol=1e-9)


def test_normalize_inside_bound_unchanged():
    w = np.diag([0.5, 0.1])
    out = normalize_spectral(w, 1.0, 50, make_rng(0))
    np.testing.assert_array_equal(out, w)


def test_normalize_random_within_bound_by_svd_oracle():
    for seed in range(30):
        w = make_rng(seed).standard_normal((7, 5))
        out = normalize_spectral(w, 0.95, 100, make_rng(seed + 1))
        assert spectral_norm_svd(out) <= 0.951


def test_normalize_idempotent():
    w = make_rng(11).standard_normal((6, 4)) * 3.0
    once = normalize_spectral(w, 0.9, 100, make_rng(5))
    twice = normalize_spectral(once, 0.9, 100, make_rng(5))
    np.testing.assert_allclose(twice, once, atol=1e-6)


def test_normalize_zero_matrix_unchanged():
    w = np.zeros((3, 3))
    np.testing.assert_array_equal(normalize_spectral(w, 1.0, 10, make_rng(0)), w)


def test_normalize_requires_positive_bound():
    with pytest.raises(ConfigError):
        normalize_spectral(np.eye(2), 0.0, 10, make_rng(0))


def test_deterministic_given_seed():
    w = make_rng(2).standard_normal((8, 8))
    a = spectral_norm_estimate(w, 25, make_rng(42))
    b = spectral_norm_estimate(w, 25, make_rng(42))
    assert a == b


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
