"""The four uncertainty heads side by side on one seed of the ladder.

Trains the softmax baseline, an MC-dropout model, a four-member deep
ensemble, and the spectral-normalized GP head, then compares mean
uncertainty per dataset and OOD-detection AUROC against the ID
validation set. The GP head's posterior variance is also shown directly,
which is where its distance awareness lives.
"""

import numpy as np

from uqlab.data import LadderSpec, make_ladder
from uqlab.metrics import accuracy, auroc_ood
from uqlab.mlp import TrainConfig, init_mlp, train
from uqlab.rng import derive_seed, make_rng
from uqlab.uq import (
    EnsembleSpec,
    ensemble_predict,
    mc_dropout_predict,
    msp_predict,
    sngp_predict,
    sngp_variances,
    train_sngp,
)

SEED = 0
ladder = make_ladder(LadderSpec(), SEED)
train_set = ladder["id-train"]
eval_tags = ("id-val", "ood-near", "ood-far", "ood-novel")


def fit(dropout=0.0, name="m"):
    model = init_mlp([2, 64, 64, 2], dropout, None, seed=derive_seed(SEED, name, "init"))
    return train(model, train_set, TrainConfig(seed=derive_seed(SEED, name, "train")))


print("training: baseline, dropout, 4 ensemble members, GP stack ...")
baseline = fit(name="msp")
dropout_model = fit(dropout=0.5, name="dropout")
members = [fit(name=f"member{m}") for m in range(4)]
gp_model, gp_head = train_sngp(train_set, TrainConfig(seed=derive_seed(SEED, "sngp")))

predictors = {
    "msp": lambda ds: msp_predict(baseline, ds),
    "dropout": lambda ds: mc_dropout_predict(
        dropout_model, ds, 32, rng=make_rng(derive_seed(SEED, "passes", ds.tag))
    ),
    "ensemble": lambda ds: ensemble_predict(EnsembleSpec(members), ds),
    "sngp": lambda ds: sngp_predict(gp_model, gp_head, ds),
}

preds = {m: {tag: fn(ladder[tag]) for tag in eval_tags} for m, fn in predictors.items()}

print(f"\n{'method':9s} {'dataset':10s} {'acc':>7s} {'mean unc':>9s} {'auroc-ood':>10s}")
for method, by_tag in preds.items():
    id_unc = by_tag["id-val"].uncertainty
    for tag in eval_tags:
        pred = by_tag[tag]
        auroc = "-" if tag == "id-val" else f"{auroc_ood(id_unc, pred.uncertainty):10.3f}"
        print(f"{method:9s} {tag:10s} {accuracy(pred):7.3f} "
              f"{pred.uncertainty.mean():9.3f} {auroc:>10s}")

print("\n== GP posterior variance by dataset (distance awareness) ==")
for tag in eval_tags:
    v = sngp_variances(gp_model, gp_head, ladder[tag].features)
    print(f"{tag:10s} mean variance {v.mean():7.3f}  (p5 {np.percentile(v, 5):.3f}, "
          f"p95 {np.percentile(v, 95):.3f})")

print("\nThe boundary-based heads score the far shift as confidently as")
print("validation data, while the GP variance grows with distance from")
print("the training manifold, which is what drives its AUROC.")
