"""Youden thresholding, selective prediction, and threshold transfer.

Uses one trained dropout model to show: (a) the threshold that best
separates validation from near-shift uncertainties, (b) what happens to
accuracy and retention when that threshold is transferred to the far
shift, and (c) the full source x target transfer table including the
all-rejected outcome.
"""

from uqlab.data import LadderSpec, make_ladder
from uqlab.metrics import accuracy
from uqlab.mlp import TrainConfig, init_mlp, train
from uqlab.rng import derive_seed, make_rng
from uqlab.selective import (
    aggregate_transfer,
    selective_evaluate,
    transfer_matrix,
    youden_threshold,
)
from uqlab.report import format_transfer_table
from uqlab.uq import mc_dropout_predict

SEED = 0
ladder = make_ladder(LadderSpec(), SEED)
model = init_mlp([2, 64, 64, 2], 0.5, None, seed=derive_seed(SEED, "demo5", "init"))
model = train(model, ladder["id-train"], TrainConfig(seed=derive_seed(SEED, "demo5", "train")))

tags = ("id-val", "ood-near", "ood-far", "ood-novel")
preds = {
    tag: mc_dropout_predict(model, ladder[tag], 32, rng=make_rng(derive_seed(SEED, "p", tag)))
    for tag in tags
}

print("== threshold set on ood-near (vs id-val) ==")
id_val, near = preds["id-val"].uncertainty, preds["ood-near"].uncertainty
decision = youden_threshold(id_val, near)
# A score at or above the threshold is flagged OOD; ood-near is the positive class.
tp, fp = int((near >= decision.threshold).sum()), int((id_val >= decision.threshold).sum())
print(f"threshold {decision.threshold:.4f}, J = {decision.j:.3f}, "
      f"TP={tp} FP={fp} TN={id_val.size - fp} FN={near.size - tp}")

print("\n== transferring that threshold to ood-far ==")
before = accuracy(preds["ood-far"])
res = selective_evaluate(preds["ood-far"], decision)
if res.all_rejected:
    print("every sample rejected")
else:
    print(f"accuracy {before:.3f} -> {res.accuracy:.3f} "
          f"while retaining {res.fraction_retained:.1%} of samples")

print("\n== full transfer table (single seed) ==")
cells = transfer_matrix(preds)
matrix = aggregate_transfer("dropout", [cells])
print(format_transfer_table(matrix, "accuracy"))
print(format_transfer_table(matrix, "fraction_retained"))
print("A threshold chosen against a strongly separated source can reject")
print("an entire target dataset; such cells carry a marker, not a number.")
