"""Spectral-norm estimation by power iteration.

Matrices are plain 2-D float64 ``numpy`` arrays. The estimator is power
iteration on the Gram matrix W^T W with a persistent vector pair, carried
across calls: training runs one cheap iteration per optimizer step and
iterates to convergence at epoch boundaries.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError

__all__ = [
    "PowerIterState",
    "power_iter_init",
    "power_iter_step",
    "power_iter_converge",
]


def _check_matrix(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.size == 0:
        raise DataError(f"expected a non-empty 2-D matrix, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise DataError("matrix contains non-finite entries")
    return w


class PowerIterState:
    """Persistent left/right singular-vector pair for one weight matrix."""

    __slots__ = ("u", "v")

    def __init__(self, u: np.ndarray, v: np.ndarray):
        self.u = u
        self.v = v


def power_iter_init(w: np.ndarray, rng: np.random.Generator, warmup: int = 50) -> PowerIterState:
    """Initialize a persistent state, warmed up on the current matrix."""
    w = _check_matrix(w)
    u = rng.standard_normal(w.shape[0])
    u /= np.linalg.norm(u)
    v = w.T @ u
    nv = np.linalg.norm(v)
    v = v / nv if nv > 0 else v
    state = PowerIterState(u, v)
    for _ in range(warmup):
        power_iter_step(w, state)
    return state


def power_iter_step(w: np.ndarray, state: PowerIterState) -> float:
    """Run one power iteration in place and return the current estimate.

    The estimate is u^T W v, which converges to the top singular value as
    the persistent pair tracks the slowly moving weights.
    """
    u = w @ state.v
    nu = np.linalg.norm(u)
    if nu == 0.0:
        return 0.0
    u /= nu
    v = w.T @ u
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return 0.0
    v /= nv
    state.u, state.v = u, v
    return float(u @ (w @ v))


def power_iter_converge(
    w: np.ndarray,
    state: PowerIterState,
    rel_tol: float = 1e-9,
    max_iters: int = 2000,
) -> float:
    """Iterate until the estimate stabilizes; used at epoch boundaries.

    The stopping rule bounds the remaining relative error well below the
    enforcement tolerance even when the top two singular values nearly
    coincide (a small spectral gap also means a small estimation error).
    If the estimate has not stabilized after ``max_iters`` steps, the exact
    spectral norm is returned instead, so the epoch-boundary bound never
    rests on an unconverged estimate.
    """
    sigma = power_iter_step(w, state)
    for _ in range(max_iters):
        new = power_iter_step(w, state)
        if abs(new - sigma) <= rel_tol * max(new, 1e-30):
            return new
        sigma = new
    return float(np.linalg.norm(w, 2))
