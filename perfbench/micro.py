"""Per-module microbenchmarks at fixed shapes, through public functions only.

Each timing is the median time per call over repeated calls. These are
per-module numbers; no end-to-end claim rests on them.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from tracing import Tracer

N_ROWS = 1000
BATCH = 128
STEPS_PER_EPOCH = -(-N_ROWS // BATCH)
RFF_DIM = 1024


def per_call(fn, min_seconds=0.2, min_calls=5, max_calls=10_000, warmup=True) -> float:
    """Median seconds per call, after one untimed warm-up call if asked."""
    if warmup:
        fn()
    times = []
    spent = 0.0
    while len(times) < max_calls and (len(times) < min_calls or spent < min_seconds):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        times.append(dt)
        spent += dt
    return statistics.median(times)


def run_micro(scratch: Path) -> dict[str, float]:
    from uqlab import data, linalg, metrics, mlp, predfile, selective, uq
    from uqlab.rng import make_rng

    rng = make_rng(2024)
    m = {}
    moons = data.make_two_moons(N_ROWS, data.MOON_NOISE, make_rng(1))

    # mlp: 2 -> 64 -> 64 -> 2
    model = mlp.init_mlp([2, 64, 64, 2], seed=3)
    x = rng.standard_normal((N_ROWS, 2))
    m["micro.mlp.forward_logits.us"] = per_call(lambda: mlp.forward_logits(model, x)) * 1e6
    one_epoch = mlp.TrainConfig(epochs=1, batch_size=BATCH, seed=5)
    sn_model = mlp.init_mlp([2, 64, 64, 2], spectral_bound=4.0, seed=3)
    m["micro.mlp.train_step.us"] = (
        per_call(lambda: mlp.train(model, moons, one_epoch)) / STEPS_PER_EPOCH * 1e6
    )
    m["micro.mlp.train_step_sn.us"] = (
        per_call(lambda: mlp.train(sn_model, moons, one_epoch)) / STEPS_PER_EPOCH * 1e6
    )

    # linalg: 64 x 64
    w = rng.standard_normal((64, 64))
    state = linalg.power_iter_init(w, make_rng(7), warmup=0)
    m["micro.linalg.power_iter_step.us"] = per_call(lambda: linalg.power_iter_step(w, state)) * 1e6
    with Tracer(layers=("linalg",)) as tracer:
        linalg.power_iter_converge(w, linalg.power_iter_init(w, make_rng(7), warmup=0))
    m["micro.linalg.power_iter_converge.iters"] = sum(
        1 for s in tracer.spans if s[0] == "linalg.power_iter_step"
    )

    # uq: random features 128 x 64 -> 1024, train step, posterior at 1000 x 1024
    head = uq.init_sngp_head(64, RFF_DIM, rng=make_rng(11))
    h = rng.standard_normal((BATCH, 64))
    m["micro.uq.rff_features.us"] = per_call(lambda: uq.rff_features(h, head)) * 1e6

    def train_sngp(epochs):
        cfg = mlp.TrainConfig(epochs=epochs, batch_size=BATCH, seed=13)
        return lambda: uq.train_sngp(moons, cfg, rff_dim=RFF_DIM)

    # Both calls pay the same set-up and posterior fit; their difference
    # is two epochs of steps and epoch-end renormalisation.
    one = per_call(train_sngp(1), min_calls=3, min_seconds=0.0)
    three = per_call(train_sngp(3), min_calls=3, min_seconds=0.0)
    m["micro.uq.train_sngp_step.us"] = (three - one) / (2 * STEPS_PER_EPOCH) * 1e6

    phi = uq.rff_features(rng.standard_normal((N_ROWS, 64)), head)
    p = rng.uniform(0.05, 0.95, N_ROWS)
    m["micro.uq.sngp_fit.us"] = (
        per_call(lambda: uq.sngp_fit(head, phi, p, 1.0), min_calls=3, min_seconds=0.0) * 1e6
    )
    # Gram accumulation 2*N*D^2 plus a textbook 2*D^3 for the inverse.
    m["micro.uq.sngp_fit.gflop_computed"] = (2 * N_ROWS * RFF_DIM**2 + 2 * RFF_DIM**3) / 1e9
    fitted = uq.sngp_fit(head, phi, p, 1.0)
    once = {"min_calls": 2, "min_seconds": 0.0, "warmup": False}  # calls of a second or more
    variances = per_call(lambda: uq.sngp_variances(model, fitted, x), **once)
    m["micro.uq.sngp_variances.us"] = variances * 1e6
    # phi^T Sigma phi per row: 2*N*D^2 multiply-adds at the least.
    m["micro.uq.sngp_variances.gflop_computed"] = 2 * N_ROWS * RFF_DIM**2 / 1e9

    # metrics and selective at 100k scores
    n = 100_000
    scores = rng.standard_normal(n)
    labels = rng.integers(0, 2, n)
    m["micro.metrics.average_precision.us"] = (
        per_call(lambda: metrics.average_precision(scores, labels)) * 1e6
    )
    m["micro.metrics.auroc_ood.us"] = (
        per_call(lambda: metrics.auroc_ood(scores[: n // 2], scores[n // 2 :] + 0.5)) * 1e6
    )
    big = _prediction_set(uq, rng, n, 1, "msp")
    m["micro.metrics.ece.us"] = per_call(lambda: metrics.ece(big)) * 1e6
    m["micro.selective.youden_threshold.us"] = (
        per_call(lambda: selective.youden_threshold(scores[: n // 2], scores[n // 2 :] + 0.5))
        * 1e6
    )

    # predfile: 12,500 samples x 8 passes = 100k rows
    sets = _prediction_set(uq, rng, 12_500, 8, "dropout")
    path = scratch / "micro_predictions.csv"
    save = per_call(lambda: predfile.save_predictions(sets, path), **once)
    load = per_call(lambda: predfile.load_predictions(path), **once)
    path.unlink()
    m["micro.predfile.save_s_per_100k"] = save
    m["micro.predfile.load_s_per_100k"] = load
    return m


def _prediction_set(uq, rng, n: int, k: int, method: str):
    logits = rng.standard_normal((k, n, 2)) * 3.0
    probs, unc = uq.scores_from_logits(method, logits)
    return uq.PredictionSet(
        method=method,
        seed=0,
        tag="micro",
        labels=rng.integers(0, 2, n).astype(np.int64),
        component_logits=logits,
        component_indices=np.arange(k) if k > 1 else np.array([-1]),
        sample_ids=np.arange(n),
        probs=probs,
        uncertainty=unc,
    )
