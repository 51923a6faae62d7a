"""The benchmark's workloads and the inputs it generates for them.

Every input is a pure function of the seed it is made from. The ladder
workloads hand ``uqlab run`` a config JSON; ``external-report`` hands
``uqlab report`` prediction CSVs in the documented schema, drawn with
numpy here and never produced by training.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

METHODS = ("msp", "dropout", "ensemble", "sngp")
TAGS = ("id-val", "ood-near", "ood-far", "ood-novel")
HEADER = "sample_id,dataset,method,seed,component_index,label,logit0,logit1\n"
# Components per sample at the default config; single-pass heads carry one (index -1).
COMPONENTS = {"msp": 1, "dropout": 32, "ensemble": 4, "sngp": 1}
# Inputs of the guard pass do not depend on the workload seed.
GUARD_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run" or "report"
    sizes: dict  # eval tag -> samples
    runs: dict  # method -> runs the report aggregates
    config: dict = field(default_factory=dict)  # config JSON beyond the seed ("run")
    components: dict = field(default_factory=lambda: COMPONENTS)

    def pred_files(self) -> dict[str, int]:
        """Prediction CSV name -> rows it holds."""
        n = sum(self.sizes.values())
        return {
            f"{m}_run{i}.csv": n * self.components[m]
            for m in METHODS
            for i in range(self.runs[m])
        }

    def pred_rows(self) -> int:
        return sum(self.pred_files().values())


_DEFAULT_SIZES = {"id-val": 1000, "ood-near": 1000, "ood-far": 1000, "ood-novel": 800}
_ONE_SEED_RUNS = {"msp": 1, "dropout": 1, "ensemble": 3, "sngp": 1}
_FOUR_SEED_RUNS = {"msp": 4, "dropout": 4, "ensemble": 3, "sngp": 4}

# The small config of acceptance criterion 09: two seeds, every head.
CRITERION_09 = Workload(
    "criterion-09",
    "run",
    {"id-val": 200, "ood-near": 200, "ood-far": 200, "ood-novel": 80},
    {"msp": 2, "dropout": 2, "ensemble": 2, "sngp": 2},
    {
        "seeds": [0, 1],
        "model": {"hidden_sizes": [16, 16]},
        "train": {"epochs": 12},
        "dropout": {"passes": 8},
        "ensemble": {"members": 2, "replicates": 2},
        "sngp": {"rff_dim": 128},
        "ladder": {"n_train": 256, "n_val": 200, "n_ood": 200, "n_novel": 80},
    },
    {"msp": 1, "dropout": 8, "ensemble": 2, "sngp": 1},
)

WORKLOADS = {
    # The reference run of the default config, one seed per pass: training
    # (above all the SNGP head) dominates.
    "ladder-default": Workload("ladder-default", "run", _DEFAULT_SIZES, _ONE_SEED_RUNS),
    # Short training and eval sets 2.5x the default: the predict paths and
    # the prediction-CSV writer do almost all the work.
    "ladder-inference": Workload(
        "ladder-inference",
        "run",
        {"id-val": 2500, "ood-near": 2500, "ood-far": 2500, "ood-novel": 2000},
        _ONE_SEED_RUNS,
        {"train": {"epochs": 5}, "ladder": {"n_val": 2500, "n_ood": 2500, "n_novel": 2000}},
    ),
    # The read side: the default run's file layout over four seeds, loaded
    # and reported without any training.
    "external-report": Workload("external-report", "report", _DEFAULT_SIZES, _FOUR_SEED_RUNS),
}

# The result guards come from one extra, untimed pass per run on inputs
# fixed by GUARD_SEED, in each workload's shape but small: the guards are
# then a function of the code version alone, identical on every run.
GUARDS = {
    "ladder-default": CRITERION_09,
    "ladder-inference": dataclasses.replace(
        CRITERION_09,
        name="ladder-inference-guard",
        sizes={"id-val": 500, "ood-near": 500, "ood-far": 500, "ood-novel": 200},
        config={
            **CRITERION_09.config,
            "train": {"epochs": 5},
            "ladder": {"n_train": 256, "n_val": 500, "n_ood": 500, "n_novel": 200},
        },
    ),
    "external-report": Workload(
        "external-report-guard",
        "report",
        {"id-val": 250, "ood-near": 250, "ood-far": 250, "ood-novel": 200},
        _FOUR_SEED_RUNS,
    ),
}


def make_inputs(workload: Workload, seed: int, out: Path) -> list[Path]:
    """Write the workload's inputs for ``seed`` into ``out`` and list them."""
    out.mkdir(parents=True, exist_ok=True)
    if workload.command == "run":
        doc = {"schema_version": 1, "seeds": [seed], **workload.config}  # config may fix seeds
        path = out / "config.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        return [path]
    rng = np.random.Generator(np.random.PCG64(seed))
    paths = []
    for method in METHODS:
        for run in range(workload.runs[method]):
            path = out / f"{method}_run{run}.csv"
            run_seed = int(rng.integers(2**31))
            _write_predictions(path, method, run_seed, workload, rng)
            paths.append(path)
    return paths


# Class separation per tag: the shifted sets are harder and less certain.
_SEPARATION = {"id-val": 4.0, "ood-near": 2.6, "ood-far": 1.0, "ood-novel": 0.6}
# Share of labels that disagree with the sample's margin, so some
# confident predictions are wrong even after selective rejection.
_LABEL_NOISE = {"id-val": 0.01, "ood-near": 0.03, "ood-far": 0.08, "ood-novel": 0.03}
# How far each head pulls shifted samples toward one half.
_OOD_SHRINK = {"msp": 1.0, "dropout": 0.8, "ensemble": 0.7, "sngp": 0.4}
# Spread of the per-component logits around the sample's margin.
_COMPONENT_NOISE = {"msp": 0.0, "dropout": 1.0, "ensemble": 0.6, "sngp": 0.0}


def _labels(tag: str, n: int, rng) -> np.ndarray:
    if tag == "ood-novel":  # 7 normal : 1 tumor, as in the default ladder
        labels = np.zeros(n, dtype=np.int64)
        labels[: n // 8] = 1
        return rng.permutation(labels)
    return rng.integers(0, 2, size=n)


def _write_predictions(path: Path, method: str, seed: int, workload: Workload, rng) -> None:
    k = workload.components[method]
    comp_ids = [-1] if k == 1 else list(range(k))
    lines = [HEADER]
    for tag, n in workload.sizes.items():
        labels = _labels(tag, n, rng)
        shrink = 1.0 if tag == "id-val" else _OOD_SHRINK[method]
        margin = shrink * (
            _SEPARATION[tag] * (2 * labels - 1) * rng.uniform(0.3, 1.7, n) + rng.normal(0, 1.0, n)
        )
        labels = labels ^ (rng.random(n) < _LABEL_NOISE[tag])
        logit1 = margin[:, None] + _COMPONENT_NOISE[method] * rng.normal(0, 1.0, (n, k))
        if method == "sngp":
            logit0 = np.zeros((n, k))  # the GP head emits the scalar logit against 0
        else:
            logit0 = rng.normal(0, 1.0, (n, k))
            logit1 = logit1 + logit0
        z0, z1, ys = logit0.tolist(), logit1.tolist(), labels.tolist()
        prefix = f",{tag},{method},{seed},"
        for i in range(n):
            row0, row1, y = z0[i], z1[i], ys[i]
            for c in range(k):
                lines.append(f"{i}{prefix}{comp_ids[c]},{y},{row0[c]!r},{row1[c]!r}\n")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)
