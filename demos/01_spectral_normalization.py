"""Spectral-norm estimation and weight rescaling, checked against SVD.

Walks through the power iteration that training runs (a persistent vector
pair, iterated to convergence at every epoch boundary) on known matrices,
shows the rescaling that caps a matrix's largest singular value, and then
trains a small classifier under a hard spectral constraint while
recording the exact (SVD) norm of every hidden layer after every epoch.
"""

import numpy as np

from uqlab.data import make_two_moons
from uqlab.linalg import power_iter_converge, power_iter_init
from uqlab.mlp import TrainConfig, init_mlp, train
from uqlab.rng import make_rng


def svd_norm(w):
    return np.linalg.svd(w, compute_uv=False)[0]


def estimate(w, seed):
    return power_iter_converge(w, power_iter_init(w, make_rng(seed)))


print("== estimator sanity on matrices with known spectra ==")
print(f"identity 3x3      -> {estimate(np.eye(3), 0):.12f}")
print(f"diag(3, 1)        -> {estimate(np.diag([3.0, 1.0]), 0):.12f}")

w = make_rng(1).standard_normal((40, 30))
est = estimate(w, 2)
print(f"random 40x30      -> power iteration {est:.9f}  vs SVD {svd_norm(w):.9f}")

print("\n== rescaling into a bound ==")
for bound in (2.0, 1.0, 0.5):
    scaled = w * min(1.0, bound / est)
    print(f"bound {bound:4.2f}: norm after rescaling = {svd_norm(scaled):.6f}")

print("\n== constraint held throughout training ==")
data = make_two_moons(1000, 0.1, make_rng(4))
model = init_mlp([2, 64, 64, 2], spectral_bound=0.95, seed=5)
worst = []


def record(epoch, m):
    worst.append(max(svd_norm(layer.weights) for layer in m.layers[:-1]))


train(model, data, TrainConfig(epochs=30, seed=6), on_epoch_end=record)
print(f"30 epochs with bound 0.95; per-epoch max SVD norm in "
      f"[{min(worst):.6f}, {max(worst):.6f}]")
print("every checkpoint satisfies norm <= 0.951:", max(worst) <= 0.951)
