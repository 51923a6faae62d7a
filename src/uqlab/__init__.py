"""Desk-scale uncertainty-quantification laboratory.

Four uncertainty-estimation heads (softmax baseline, MC dropout, deep
ensembles, and a spectral-normalized random-feature GP), exact
calibration and OOD-detection metrics, Youden-threshold selective
prediction with cross-dataset threshold transfer, and a deterministic
experiment harness over synthetic distribution-shift ladders or external
prediction files.

``import uqlab`` loads no numpy: each name below but the error types is
taken from its module when first read (PEP 562), so that the ``uqlab``
command can pin BLAS threads before numpy loads.
"""

import importlib

from .errors import (
    AllocationError,
    ConfigError,
    DataError,
    NumericalError,
    ParseError,
    SchemaVersionError,
    StateError,
    UndefinedMetricError,
    UqlabError,
    WorkerError,
)

# Exported name -> the module that defines it.
_MODULE_OF = {
    **dict.fromkeys(
        ["Dataset", "LadderSpec", "ShiftConfig", "apply_shift", "load_dataset", "make_ladder",
         "make_novel_class", "make_two_moons", "save_dataset"],
        "data",
    ),
    **dict.fromkeys(
        ["ExperimentConfig", "ExperimentResult", "MetricsReport", "build_report",
         "build_transfers", "load_config", "run_experiment", "save_config"],
        "experiment",
    ),
    **dict.fromkeys(
        ["BinStats", "accuracy", "auroc_ood", "average_precision", "bin_stats", "ece",
         "max_gap_unweighted", "mce"],
        "metrics",
    ),
    **dict.fromkeys(
        ["MlpClassifier", "TrainConfig", "forward_logits", "init_mlp", "load_checkpoint",
         "save_checkpoint", "softmax", "train"],
        "mlp",
    ),
    **dict.fromkeys(["load_predictions", "save_predictions"], "predfile"),
    **dict.fromkeys(["emit_report"], "report"),
    **dict.fromkeys(["derive_seed", "make_rng"], "rng"),
    **dict.fromkeys(
        ["SelectiveResult", "ThresholdDecision", "TransferMatrix", "selective_evaluate",
         "transfer_matrix", "youden_threshold"],
        "selective",
    ),
    **dict.fromkeys(
        ["EnsembleSpec", "PredictionSet", "SngpHead", "ensemble_predict", "init_sngp_head",
         "mc_dropout_predict", "msp_predict", "predictive_entropy", "rff_features", "sngp_fit",
         "sngp_predict", "train_sngp"],
        "uq",
    ),
}

__version__ = "0.1.0"
__all__ = [
    "AllocationError",
    "ConfigError",
    "DataError",
    "NumericalError",
    "ParseError",
    "SchemaVersionError",
    "StateError",
    "UndefinedMetricError",
    "UqlabError",
    "WorkerError",
    *_MODULE_OF,
    # The submodules: ``from uqlab import *`` binds them too.
    "data",
    "errors",
    "experiment",
    "linalg",
    "metrics",
    "mlp",
    "predfile",
    "report",
    "rng",
    "selective",
    "uq",
]


def __getattr__(name):
    # Read from the module on every access and never stored here, so a
    # function rebound in its module (a tracer's wrapper, a test's
    # monkeypatch) is what ``uqlab.<name>`` gives until it is undone there.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
