"""Desk-scale uncertainty-quantification laboratory.

Four uncertainty-estimation heads (softmax baseline, MC dropout, deep
ensembles, and a spectral-normalized random-feature GP), exact
calibration and OOD-detection metrics, Youden-threshold selective
prediction with cross-dataset threshold transfer, and a deterministic
experiment harness over synthetic distribution-shift ladders or external
prediction files.
"""

from .data import (
    Dataset,
    LadderSpec,
    ShiftConfig,
    apply_shift,
    load_dataset,
    make_ladder,
    make_novel_class,
    make_two_moons,
    save_dataset,
)
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
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    MetricsReport,
    build_report,
    build_transfers,
    load_config,
    run_experiment,
    save_config,
)
from .metrics import (
    BinStats,
    accuracy,
    auroc_ood,
    average_precision,
    bin_stats,
    ece,
    max_gap_unweighted,
    mce,
)
from .mlp import (
    MlpClassifier,
    TrainConfig,
    forward_logits,
    init_mlp,
    load_checkpoint,
    save_checkpoint,
    softmax,
    train,
)
from .predfile import load_predictions, save_predictions
from .report import emit_report
from .rng import derive_seed, make_rng
from .selective import (
    SelectiveResult,
    ThresholdDecision,
    TransferMatrix,
    selective_evaluate,
    transfer_matrix,
    youden_threshold,
)
from .uq import (
    EnsembleSpec,
    PredictionSet,
    SngpHead,
    ensemble_predict,
    init_sngp_head,
    mc_dropout_predict,
    msp_predict,
    predictive_entropy,
    rff_features,
    sngp_fit,
    sngp_predict,
    train_sngp,
)

__version__ = "0.1.0"
