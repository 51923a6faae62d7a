"""The four uncertainty-estimation heads.

Every head turns a dataset into a :class:`PredictionSet`: a predictive
probability pair and a scalar uncertainty per sample, plus provenance.
Uncertainty scores: the softmax baseline uses one minus the maximum
probability; the multi-pass heads (dropout, ensembles) and the GP head
use the predictive entropy of the mean distribution, so every entropy
score lives in [0, ln 2].

The GP head combines a contraction-constrained feature extractor
(spectral normalization on the hidden layers) with a random-cosine
approximation of the RBF kernel, a scalar logit mean trained jointly
with the network, and a Laplace posterior over the feature weights whose
variance widens prediction intervals away from the training data.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass

import numpy as np

from . import mlp
from .data import Dataset
from .errors import ConfigError, DataError, NumericalError, StateError
from .mlp import MlpClassifier, TrainConfig, softmax
from .rng import derive_seed, make_rng

__all__ = [
    "PredictionSet",
    "SngpHead",
    "EnsembleSpec",
    "predictive_entropy",
    "msp_predict",
    "mc_dropout_predict",
    "ensemble_predict",
    "init_sngp_head",
    "rff_features",
    "sngp_fit",
    "sngp_predict",
    "train_sngp",
    "MC_PASSES",
    "RFF_DIM",
    "RFF_LENGTH_SCALE",
    "RIDGE",
    "MEAN_FIELD_LAMBDA",
]

logger = logging.getLogger(__name__)

# Method defaults: 32 stochastic passes, 1024 random features with length
# scale 2.0 and unit ridge, pi/8 mean-field factor.
MC_PASSES = 32
RFF_DIM = 1024
RFF_LENGTH_SCALE = 2.0
RIDGE = 1.0
MEAN_FIELD_LAMBDA = float(np.pi / 8.0)

PROB_ATOL = 1e-9

# Rows per block in the posterior-variance products: bounds the (rows, D)
# temporary to one block.
VARIANCE_BLOCK_ROWS = 512


@dataclass(frozen=True)
class PredictionSet:
    """Per-sample predictive distributions with provenance.

    ``component_logits`` holds the raw per-pass (or per-member) logit
    pairs the distribution was built from; single-pass methods carry one
    component with index -1. ``probs`` and ``uncertainty`` are always
    derived from the logits through :func:`scores_from_logits`, so a
    saved-and-reloaded set reproduces them bit for bit.
    """

    method: str
    seed: int
    tag: str
    labels: np.ndarray  # (n,)
    component_logits: np.ndarray  # (k, n, 2)
    component_indices: np.ndarray  # (k,)
    sample_ids: np.ndarray  # (n,)
    probs: np.ndarray  # (n, 2)
    uncertainty: np.ndarray  # (n,)

    def __post_init__(self):
        k, n, two = self.component_logits.shape
        if two != 2:
            raise DataError("component logits must be pairs")
        if self.labels.shape != (n,) or self.sample_ids.shape != (n,):
            raise DataError("labels/sample_ids do not match the number of samples")
        if self.component_indices.shape != (k,):
            raise DataError("component_indices do not match the number of components")
        if n and np.max(np.abs(self.probs.sum(axis=1) - 1.0)) > PROB_ATOL:
            raise DataError("probabilities do not sum to 1")
        if n and np.any(self.uncertainty < 0):
            raise DataError("uncertainty must be non-negative")

    @classmethod
    def from_logits(
        cls, method, seed, tag, labels, component_logits, component_indices, sample_ids
    ) -> "PredictionSet":
        """Build a set whose probs and uncertainty come from :func:`scores_from_logits`."""
        component_logits = np.asarray(component_logits, dtype=np.float64)
        probs, uncertainty = scores_from_logits(method, component_logits)
        return cls(
            method=method,
            seed=int(seed),
            tag=tag,
            labels=labels,
            component_logits=component_logits,
            component_indices=np.asarray(component_indices, dtype=np.int64),
            sample_ids=np.asarray(sample_ids, dtype=np.int64),
            probs=probs,
            uncertainty=uncertainty,
        )

    def __len__(self) -> int:
        return self.labels.shape[0]


def predictive_entropy(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy (nats) per row, exact at hard 0/1 probabilities."""
    p = np.asarray(probs, dtype=np.float64)
    terms = np.where(p > 0.0, -p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return terms.sum(axis=-1)


def scores_from_logits(method: str, component_logits: np.ndarray):
    """Derive (probs, uncertainty) from per-component logits.

    "msp" scores one minus the maximum softmax probability of its single
    pass; every other method averages the per-component softmax outputs
    and scores the predictive entropy of the mean.
    """
    comp_probs = softmax(component_logits)
    probs = comp_probs.mean(axis=0)
    if method == "msp":
        if component_logits.shape[0] != 1:
            raise DataError("msp carries exactly one component")
        uncertainty = 1.0 - probs.max(axis=1)
    else:
        uncertainty = predictive_entropy(probs)
    return probs, uncertainty


def _check_passes(n_samples: int) -> None:
    if n_samples < 1:
        raise ConfigError(f"must be >= 1, got {n_samples}", key="n_samples")


def _check_members(members: int) -> None:
    if members < 2:
        raise ConfigError(f"must be >= 2, got {members}", key="members")


def _check_ridge(ridge: float) -> None:
    if not ridge > 0:
        raise ConfigError(f"must be positive, got {ridge}", key="ridge")


def _check_rff(rff_dim: int, length_scale: float) -> None:
    """Require at least one random feature and a positive length scale."""
    if rff_dim < 1:
        raise ConfigError(f"must be >= 1, got {rff_dim}", key="rff_dim")
    if not length_scale > 0:
        raise ConfigError(f"must be positive, got {length_scale}", key="length_scale")


def _build_set(method, seed, data: Dataset, component_logits, component_indices) -> PredictionSet:
    return PredictionSet.from_logits(
        method, seed, data.tag, data.labels.copy(), component_logits, component_indices,
        np.arange(len(data)),
    )


def _require_trained(model: MlpClassifier) -> None:
    if not model.trained:
        raise StateError("model has not been trained")


def msp_predict(model: MlpClassifier, data: Dataset, seed: int = 0) -> PredictionSet:
    """Single deterministic pass; uncertainty = 1 - max softmax probability."""
    _require_trained(model)
    logits = mlp.forward_logits(model, data.features)
    return _build_set("msp", seed, data, logits[None, :, :], [-1])


def mc_dropout_predict(
    model: MlpClassifier,
    data: Dataset,
    n_samples: int = MC_PASSES,
    rng: np.random.Generator | None = None,
    seed: int = 0,
) -> PredictionSet:
    """Average ``n_samples`` dropout-active passes; score their mean entropy.

    Each pass draws its mask stream from a pass-indexed child of ``rng``
    (or of ``seed`` when no rng is given), so results do not depend on
    evaluation order.
    """
    _require_trained(model)
    _check_passes(n_samples)
    base = int(rng.integers(2**62)) if rng is not None else int(seed)
    # Only the mask differs between passes, so the hidden stack runs once.
    h = mlp._hidden_features(model, data.features)
    head = mlp._DenseHead(model)
    logits = np.stack(
        [head.logits(h, make_rng(derive_seed(base, "pass", i)))[0] for i in range(n_samples)]
    )
    return _build_set("dropout", seed, data, logits, np.arange(n_samples))


@dataclass(frozen=True)
class EnsembleSpec:
    """Independently initialized copies of one architecture."""

    members: list[MlpClassifier]

    def __post_init__(self):
        _check_members(len(self.members))
        sizes = self.members[0].layer_sizes
        if any(m.layer_sizes != sizes for m in self.members):
            raise ConfigError("ensemble members must share one architecture")


def ensemble_predict(spec: EnsembleSpec, data: Dataset, seed: int = 0) -> PredictionSet:
    """Mean of member softmax outputs; uncertainty = entropy of the mean."""
    for member in spec.members:
        _require_trained(member)
    logits = np.stack([mlp.forward_logits(m, data.features) for m in spec.members])
    return _build_set("ensemble", seed, data, logits, np.arange(len(spec.members)))


@dataclass
class SngpHead:
    """Random-feature GP output layer with a Laplace posterior.

    phi(x) = sqrt(2/D) cos(W x + b) approximates an RBF kernel with the
    length scale folded into W. ``beta`` is the logit-mean weight vector;
    ``precision``/``covariance`` hold the posterior over feature weights,
    None until :func:`sngp_fit` builds it.
    """

    rff_weights: np.ndarray  # (D, feature_dim)
    rff_phases: np.ndarray  # (D,)
    beta: np.ndarray  # (D,)
    precision: np.ndarray | None = None  # (D, D)
    covariance: np.ndarray | None = None  # (D, D)

    @property
    def rff_dim(self) -> int:
        return self.rff_weights.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.rff_weights.shape[1]


def init_sngp_head(
    feature_dim: int,
    rff_dim: int = RFF_DIM,
    length_scale: float = RFF_LENGTH_SCALE,
    rng: np.random.Generator | None = None,
) -> SngpHead:
    """Draw frozen random features and a zero ``beta``; :func:`sngp_fit` adds the posterior."""
    _check_rff(rff_dim, length_scale)
    if rng is None:
        rng = make_rng(0)
    w = rng.standard_normal((rff_dim, feature_dim)) / length_scale
    phases = rng.uniform(0.0, 2.0 * np.pi, size=rff_dim)
    return SngpHead(rff_weights=w, rff_phases=phases, beta=np.zeros(rff_dim))


def rff_features(x: np.ndarray, head: SngpHead) -> np.ndarray:
    """phi(x) = sqrt(2/D) cos(W x + b) for one vector or a batch of rows."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    xb = x.reshape(1, -1) if single else x
    if xb.shape[1] != head.feature_dim:
        raise DataError(f"input has {xb.shape[1]} features, head expects {head.feature_dim}")
    # In place, so a batch holds one (rows, D) array instead of three.
    phi = xb @ head.rff_weights.T
    phi += head.rff_phases
    np.cos(phi, out=phi)
    phi *= np.sqrt(2.0 / head.rff_dim)
    return phi[0] if single else phi


def sngp_fit(
    head: SngpHead, train_features: np.ndarray, train_probs: np.ndarray, ridge: float
) -> SngpHead:
    """Laplace posterior from training features and fitted probabilities.

    precision = ridge * I + sum_n p_n (1 - p_n) phi_n phi_n^T, covariance
    its inverse (symmetrized). Zero training rows give the prior. Returns
    a new head that shares the random features and copies ``beta``.
    """
    _check_ridge(ridge)
    phi = np.asarray(train_features, dtype=np.float64).reshape(-1, head.rff_dim)
    p = np.asarray(train_probs, dtype=np.float64).ravel()
    if phi.shape[0] != p.shape[0]:
        raise DataError("one probability per feature row required")
    precision = ridge * np.eye(head.rff_dim)
    if phi.shape[0]:
        weighted = phi * (p * (1.0 - p))[:, None]
        precision += phi.T @ weighted
        del weighted
    _symmetrize(precision)
    covariance = _symmetrize(np.linalg.inv(precision))
    if not np.all(np.isfinite(covariance)):
        raise NumericalError("posterior covariance is not finite")
    return dataclasses.replace(
        head, beta=head.beta.copy(), precision=precision, covariance=covariance
    )


def _symmetrize(a: np.ndarray) -> np.ndarray:
    """Replace square ``a`` by (a + a.T) / 2 in place and return it.

    The same IEEE operations as the out-of-place form, with one (D, D)
    temporary fewer.
    """
    a += a.T
    a /= 2.0
    return a


def _sigmoid(m: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic function."""
    out = np.empty_like(m)
    pos = m >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-m[pos]))
    e = np.exp(m[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _posterior_variance(phi: np.ndarray, covariance: np.ndarray) -> np.ndarray:
    """phi_n^T Sigma phi_n per row of ``phi``, as BLAS products over row blocks."""
    n = phi.shape[0]
    v = np.empty(n)
    buf = np.empty((min(n, VARIANCE_BLOCK_ROWS), covariance.shape[1]))
    for start in range(0, n, VARIANCE_BLOCK_ROWS):
        blk = phi[start : start + VARIANCE_BLOCK_ROWS]
        prod = buf[: blk.shape[0]]
        np.matmul(blk, covariance, out=prod)
        prod *= blk
        prod.sum(axis=1, out=v[start : start + blk.shape[0]])
    return v


def _require_fitted(head: SngpHead) -> None:
    if head.covariance is None:
        raise StateError("GP head has not been fitted")


def sngp_variances(model: MlpClassifier, head: SngpHead, x: np.ndarray) -> np.ndarray:
    """Posterior logit variance phi^T Sigma phi per sample."""
    _require_fitted(head)
    phi = rff_features(mlp._hidden_features(model, x), head)
    return _posterior_variance(phi, head.covariance)


def sngp_predict(model: MlpClassifier, head: SngpHead, data: Dataset, seed: int = 0) -> PredictionSet:
    """Mean-field-adjusted GP prediction with entropy uncertainty.

    The scalar logit mean m = beta^T phi is shrunk by 1/sqrt(1 + lambda v)
    before the logistic link; v = 0 reproduces the unadjusted prediction
    and large v pulls the probability toward one half. Tiny negative
    variances from the matrix inversion are clamped to zero.
    """
    _require_fitted(head)
    phi = rff_features(mlp._hidden_features(model, data.features), head)
    m = phi @ head.beta
    v = _posterior_variance(phi, head.covariance)
    if np.any(v < -1e-9):
        raise NumericalError(f"negative posterior variance {v.min():.3e}")
    if np.any(v < 0):
        logger.warning("clamping %d tiny negative variances to 0", int(np.sum(v < 0)))
        v = np.maximum(v, 0.0)
    adjusted = m / np.sqrt(1.0 + MEAN_FIELD_LAMBDA * v)
    logits = np.column_stack([np.zeros_like(adjusted), adjusted])
    return _build_set("sngp", seed, data, logits[None, :, :], [-1])


def _rff_cos_sin(turns: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
    """float32 cos and sin of float64 angles given in ``turns`` (units of 2 pi).

    Each angle is reduced to [-1/2, 1/2] turn as ``turns - rint(turns)``
    (exact in float64) and scaled by 2 pi in float64, so the float32 cast
    loses at most half a float32 ulp of pi: for angles up to 1e6 radians
    both results lie within 2e-7 of float64 ``np.cos``/``np.sin`` of the
    angle. numpy's float32 trig is vectorized where the float64 one is a
    scalar libm call. NaN and +-inf angles give NaN.

    ``out`` is a (float64, float32, float32) triple of arrays shaped like
    ``turns`` for the reduced angles, the cos and the sin; by default they
    are allocated.
    """
    if out is None:
        out = (np.empty_like(turns), np.empty(turns.shape, np.float32), np.empty(turns.shape, np.float32))
    reduced, cos, sin = out
    np.rint(turns, out=reduced)
    np.subtract(turns, reduced, out=reduced)
    reduced *= 2.0 * np.pi
    np.copyto(sin, reduced, casting="same_kind")  # the angles in float32
    np.cos(sin, out=cos)
    return cos, np.sin(sin, out=sin)


class _RffLogisticHead:
    """The GP logit mean beta^T phi(h) under a logistic loss; trains ``beta``.

    An output head for :func:`mlp.train`: the random features stay frozen
    and the head's ``beta`` becomes the trained view that :meth:`adopt`
    hands it. Precision of the training step: the angles are formed in
    turns and reduced in float64, the trig and every product after it
    (the logit mean and both gradients) run in float32 and are upcast;
    the loss, the sigmoid, the parameters and their optimizer stay
    float64. Inference (:func:`rff_features`, :func:`sngp_predict`) is
    float64 throughout.

    The step's (batch, D) arrays are scratch arrays, allocated at the first
    step for its rows (a training's first batch is its largest) and written
    with ``out=``. Fresh ones each step cost page faults: glibc hands their
    memory back to the kernel after every step until its trim threshold
    adapts. That cost a process's first default GP training ~506k minor
    faults and ~0.6 s of its ~2 s.
    """

    def __init__(self, head: SngpHead):
        self.head = head
        self.params = [head.beta]
        self.scale = np.sqrt(2.0 / head.rff_dim)
        # Cached once per run, since the random features are frozen: the
        # feature weights and phases in turns, and a float32 copy of W.
        self._turns = np.ascontiguousarray(head.rff_weights.T / (2.0 * np.pi))
        self._phase_turns = head.rff_phases / (2.0 * np.pi)
        self._weights32 = head.rff_weights.astype(np.float32)
        self._folded = np.empty_like(self._weights32)  # beta folded into W
        self._scratch = None  # angles and reduced angles (float64), cos and sin (float32)

    def adopt(self, params: list[np.ndarray]) -> None:
        self.params = params
        self.head.beta = params[0]

    def _scratch_rows(self, n: int) -> list[np.ndarray]:
        """The scratch arrays' first ``n`` rows; larger arrays first if need be."""
        if self._scratch is None or self._scratch[0].shape[0] < n:
            shape = (n, self.head.rff_dim)
            self._scratch = [np.empty(shape), np.empty(shape)]
            self._scratch += [np.empty(shape, np.float32), np.empty(shape, np.float32)]
        return [a[:n] for a in self._scratch]

    def loss_and_grads(self, h, labels, rng, grads):
        turns, *trig = self._scratch_rows(h.shape[0])
        np.matmul(h, self._turns, out=turns)
        turns += self._phase_turns
        cos, sin = _rff_cos_sin(turns, trig)
        beta32 = self.head.beta.astype(np.float32)
        m = (cos @ beta32).astype(np.float64)
        m *= self.scale
        loss = float(np.sum(np.logaddexp(0.0, np.where(labels == 1, -m, m))))
        d_m = (_sigmoid(m) - labels) / len(labels)
        d_beta = grads[0]
        d_beta[...] = d_m.astype(np.float32) @ cos
        d_beta *= self.scale
        # d_h = -scale * d_m (sin * beta^T) W, with beta folded into W.
        np.multiply(beta32[:, None], self._weights32, out=self._folded)
        d_h = (sin @ self._folded).astype(np.float64)
        d_h *= (-self.scale * d_m)[:, None]
        return loss, d_h


def train_sngp(
    data: Dataset,
    cfg: TrainConfig,
    hidden_sizes: tuple[int, ...] = (64, 64),
    spectral_bound: float | None = 4.0,
    rff_dim: int = RFF_DIM,
    length_scale: float = RFF_LENGTH_SCALE,
    ridge: float = RIDGE,
) -> tuple[MlpClassifier, SngpHead]:
    """Train the GP stack end to end and fit its Laplace posterior.

    The hidden stack (with spectral normalization) feeds the frozen random
    features; ``beta`` is trained jointly with the hidden weights by
    :func:`mlp.train`, with the GP head as its output head. The model's
    dense output layer is kept for structural compatibility but is neither
    trained nor part of the GP function. The posterior is accumulated in
    one pass over the training data after training.
    """
    if not hidden_sizes:
        raise ConfigError("sngp needs at least one hidden layer", key="hidden_sizes")
    _check_ridge(ridge)
    d = data.features.shape[1]
    model = mlp.init_mlp([d, *hidden_sizes, 2], 0.0, spectral_bound, seed=cfg.seed)
    head = init_sngp_head(hidden_sizes[-1], rff_dim, length_scale,
                          make_rng(derive_seed(cfg.seed, "sngp-head")))
    train_cfg = dataclasses.replace(cfg, seed=derive_seed(cfg.seed, "sngp-train"))
    model = mlp.train(model, data, train_cfg, head=_RffLogisticHead(head))

    phi_train = rff_features(mlp._hidden_features(model, data.features), head)
    p_train = _sigmoid(phi_train @ head.beta)
    return model, sngp_fit(head, phi_train, p_train, ridge)

