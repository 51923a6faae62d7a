"""Small dense binary classifier: ReLU hidden layers, two output logits.

Training is plain batched gradient descent with Adam (bias-corrected
moments, classic L2 weight decay folded into the gradient) on a softmax
cross-entropy loss. One dropout site sits before the final layer; when a
spectral bound is set, every hidden weight matrix is rescaled after each
optimizer step using a persistent power-iteration vector pair, so the
bound holds at every epoch boundary, not only at the end. The same loop
trains any other output head on the last hidden layer; the GP head of
:mod:`uqlab.uq` is one.

One training run keeps every array it trains (the hidden layers and the
head's parameters) as a view into one contiguous float64 vector, and the
gradients and both Adam moments in vectors of the same layout, so an
optimizer step is a short fixed sequence of in-place whole-vector ufunc
calls. Adam is elementwise and the sequence performs the per-array
operations in their order, so the trained weights are bit-identical to
updating each array on its own.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .data import Dataset
from ._schema import _read
from .errors import ConfigError, DataError, NumericalError, ParseError, SchemaVersionError
from .rng import make_rng

__all__ = [
    "Layer",
    "MlpClassifier",
    "TrainConfig",
    "init_mlp",
    "train",
    "forward_logits",
    "softmax",
    "cross_entropy",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_FORMAT = "uqlab-mlp"
CHECKPOINT_VERSION = 1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Power-iteration schedule: a long warm-up when the persistent vectors are
# created, then one iteration per optimizer step.
SN_WARMUP_ITERS = 50


@dataclass
class Layer:
    weights: np.ndarray  # (fan_in, fan_out)
    bias: np.ndarray  # (fan_out,)
    activation: str  # "relu" or "linear"


@dataclass
class MlpClassifier:
    layers: list[Layer]
    dropout_rate: float
    spectral_bound: float | None
    seed: int
    trained: bool = False
    sn_state: list[linalg.PowerIterState] | None = field(default=None, repr=False)

    @property
    def layer_sizes(self) -> list[int]:
        return [self.layers[0].weights.shape[0]] + [l.weights.shape[1] for l in self.layers]

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[0]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    weight_decay: float = 1e-5
    epochs: int = 100
    batch_size: int = 128
    seed: int = 0

    def __post_init__(self):
        for name in ("learning_rate", "weight_decay"):
            if getattr(self, name) < 0:
                raise ConfigError(f"must be >= 0, got {getattr(self, name)}", key=name)
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"must be >= 1, got {getattr(self, name)}", key=name)


def _check_regularizers(dropout_rate: float, spectral_bound: float | None) -> None:
    """Require a dropout rate in [0, 1] and a positive (or no) spectral bound."""
    if not 0.0 <= dropout_rate <= 1.0:
        raise ConfigError(f"must be in [0, 1], got {dropout_rate}", key="dropout_rate")
    if spectral_bound is not None and not spectral_bound > 0:
        raise ConfigError(f"must be positive, got {spectral_bound}", key="spectral_bound")


def _check_layer_sizes(layer_sizes) -> None:
    """Require two or more positive sizes, the last of them 2 (one logit per class)."""
    key = "layer_sizes"
    if len(layer_sizes) < 2:
        raise ConfigError(f"need at least input and output sizes, got {layer_sizes}", key=key)
    if layer_sizes[-1] != 2:
        raise ConfigError(f"final layer must output 2 logits, got {layer_sizes[-1]}", key=key)
    if any(s < 1 for s in layer_sizes):
        raise ConfigError(f"must be positive, got {layer_sizes}", key=key)


def init_mlp(
    layer_sizes: list[int],
    dropout_rate: float = 0.0,
    spectral_bound: float | None = None,
    seed: int = 0,
) -> MlpClassifier:
    """Build an untrained classifier with He-initialized weights.

    Weights are drawn from N(0, 2 / fan_in) and biases start at zero; the
    last entry of ``layer_sizes`` must be 2 (one logit per class).
    """
    _check_layer_sizes(layer_sizes)
    _check_regularizers(dropout_rate, spectral_bound)
    rng = make_rng(seed)
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
        w = rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in)
        activation = "linear" if i == len(layer_sizes) - 2 else "relu"
        layers.append(Layer(w, np.zeros(fan_out), activation))
    return MlpClassifier(layers, dropout_rate, spectral_bound, seed)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction for stability."""
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise NumericalError("softmax input contains non-finite logits")
    with np.errstate(over="ignore"):  # a difference past the float range is -inf: exp gives 0
        e = z - np.max(z, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
    return e


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of the true class."""
    p = probs[np.arange(len(labels)), labels]
    with np.errstate(divide="ignore"):
        return float(np.mean(-np.log(p)))


def _forward_stack(layers: list[Layer], x: np.ndarray):
    """Forward through a list of layers; returns (activations, preactivations)."""
    acts = [x]
    pres = []
    for layer in layers:
        pre = acts[-1] @ layer.weights
        pre += layer.bias
        pres.append(pre)
        acts.append(np.maximum(pre, 0.0) if layer.activation == "relu" else pre)
    return acts, pres


def _backward_stack(layers: list[Layer], acts, pres, d_out):
    """Backprop a gradient at the stack output; returns (grads, d_input)."""
    grads = [(np.empty_like(l.weights), np.empty_like(l.bias)) for l in layers]
    return grads, _backward_into(grads, layers, acts, pres, d_out)


def _backward_into(grads, layers: list[Layer], acts, pres, d_out):
    """Backprop ``d_out``, writing each layer's gradients into its pair in ``grads``.

    Returns the gradient at the stack input.
    """
    d_act = d_out
    for i in range(len(layers) - 1, -1, -1):
        d_pre = d_act * (pres[i] > 0) if layers[i].activation == "relu" else d_act
        np.matmul(acts[i].T, d_pre, out=grads[i][0])
        d_pre.sum(axis=0, out=grads[i][1])
        d_act = d_pre @ layers[i].weights.T
    return d_act


def forward_logits(model: MlpClassifier, x: np.ndarray) -> np.ndarray:
    """Compute deterministic output logits for one sample (d,) or a batch (n, d)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    h = _hidden_features(model, x.reshape(1, -1) if single else x)
    final = model.layers[-1]
    logits = h @ final.weights + final.bias
    return logits[0] if single else logits


def _hidden_features(model: MlpClassifier, x: np.ndarray) -> np.ndarray:
    """Deterministic activation of the last hidden layer for a batch (n, d)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != model.input_dim:
        raise DataError(f"input has {x.shape[-1]} features, model expects {model.input_dim}")
    acts, _ = _forward_stack(model.layers[:-1], x)
    return acts[-1]


def _views(vector: np.ndarray, arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Consecutive views into ``vector`` shaped like ``arrays``."""
    views, start = [], 0
    for a in arrays:
        views.append(vector[start : start + a.size].reshape(a.shape))
        start += a.size
    return views


class _Adam:
    """Adam over one flat float64 vector that holds every trained array.

    ``params`` are views into that vector, shaped like the arrays given
    (whose values are copied in); ``grads`` are views of the same shapes
    into the gradient vector, which the caller fills before each
    :meth:`step`. The moments ``m``, ``v`` and two scratch buffers share
    the layout, so a step allocates nothing: it is 16 in-place ufunc calls
    over the whole vector. Each is one IEEE-754 operation per element, in
    the order of the per-array form

        g + wd p;  m b1 + (1 - b1) g;  v b2 + ((1 - b2) g) g;
        p - lr (m / bc1) / (sqrt(v / bc2) + eps),

    so the update is bit-identical to updating each array on its own.
    """

    def __init__(self, arrays: list[np.ndarray], lr: float, weight_decay: float):
        n = sum(a.size for a in arrays)
        self.flat = np.empty(n)
        self.grad = np.zeros(n)
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self._a = np.empty(n)
        self._b = np.empty(n)
        self.params = _views(self.flat, arrays)
        self.grads = _views(self.grad, arrays)
        for view, a in zip(self.params, arrays):
            view[...] = a
        self.lr = lr
        self.wd = weight_decay
        self.t = 0

    def step(self) -> None:
        """One update from the gradient vector, which it overwrites."""
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        p, g, m, v, a, b = self.flat, self.grad, self.m, self.v, self._a, self._b
        np.multiply(p, self.wd, out=a)
        g += a
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=a)
        m += a
        v *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=a)
        a *= g
        v += a
        np.divide(m, bc1, out=a)
        a *= self.lr
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a /= b
        p -= a


def _renormalize_hidden(model: MlpClassifier, converge: bool = False) -> None:
    """Rescale hidden weights in place using the persistent power vectors.

    Per optimizer step a single tracking iteration is enough; at epoch
    boundaries ``converge=True`` iterates to convergence so the bound
    holds under an exact-SVD check at every epoch checkpoint.
    """
    bound = model.spectral_bound
    for layer, state in zip(model.layers[:-1], model.sn_state):
        if converge:
            sigma = linalg.power_iter_converge(layer.weights, state)
        else:
            sigma = linalg.power_iter_step(layer.weights, state)
        if sigma > bound:
            layer.weights *= bound / sigma


class _DenseHead:
    """The model's dense softmax output layer, behind its dropout site.

    An output head lists its trainable ``params`` and, per batch, maps the
    last hidden activation ``h`` and the labels to the summed batch loss,
    the gradient with respect to ``h`` and the gradients of ``params``.
    ``adopt(views)`` hands it arrays equal to its ``params`` (views into
    the optimizer's vector) to hold and train in their place.
    """

    def __init__(self, model: MlpClassifier):
        self.layer = model.layers[-1]
        self.dropout_rate = model.dropout_rate
        self.params = [self.layer.weights, self.layer.bias]

    def adopt(self, params: list[np.ndarray]) -> None:
        self.params = params
        self.layer.weights, self.layer.bias = params

    def logits(self, h, rng):
        """The model's one dropout site, then the dense layer, on ``h`` (n, width).

        With a positive rate, a fresh mask from ``rng`` keeps each unit with
        probability 1 - rate and divides it by that (inverted scaling); rate 1
        drops every unit. Returns the logits, the masked ``h`` and the mask.
        """
        rate, mask = self.dropout_rate, None
        if rate >= 1.0:
            mask = np.zeros(h.shape)
        elif rate > 0.0:
            mask = (rng.random(h.shape) >= rate) / (1.0 - rate)
        if mask is not None:
            h = h * mask
        return h @ self.layer.weights + self.layer.bias, h, mask

    def loss_and_grads(self, h, labels, rng):
        b = len(labels)
        logits, h, mask = self.logits(h, rng)
        probs = softmax(logits)
        loss = cross_entropy(probs, labels) * b
        d_logits = probs
        d_logits[np.arange(b), labels] -= 1.0
        d_logits /= b
        d_h = d_logits @ self.layer.weights.T
        if mask is not None:
            d_h = d_h * mask
        return loss, d_h, [h.T @ d_logits, d_logits.sum(axis=0)]


def train(
    model: MlpClassifier,
    data: Dataset,
    cfg: TrainConfig,
    on_epoch_end=None,
    head=None,
) -> MlpClassifier:
    """Train a copy of ``model`` on ``data`` and return it.

    The input model is left untouched. ``head`` is the output head trained
    on the last hidden activation together with the hidden layers; the
    default is the model's own dense softmax layer. Any other head (see
    :class:`_DenseHead` for the interface) adopts views into the
    optimizer's vector in place of its parameter arrays and is trained
    there, and the model's dense output layer is then left as it is.
    ``on_epoch_end(epoch, model)`` is called after each epoch with the
    in-progress model (treat it as read-only). Raises NumericalError naming
    the epoch if the training loss stops being finite.
    """
    if len(data) == 0:
        raise DataError("cannot train on an empty dataset")
    if data.features.shape[1] != model.input_dim:
        raise DataError(
            f"data has {data.features.shape[1]} features, model expects {model.input_dim}"
        )
    model = MlpClassifier(
        [Layer(l.weights.copy(), l.bias.copy(), l.activation) for l in model.layers],
        model.dropout_rate,
        model.spectral_bound,
        model.seed,
    )
    if head is None:
        head = _DenseHead(model)
    rng = make_rng(cfg.seed)
    if model.spectral_bound is not None:
        model.sn_state = [
            linalg.power_iter_init(l.weights, rng, warmup=SN_WARMUP_ITERS)
            for l in model.layers[:-1]
        ]
        _renormalize_hidden(model, converge=True)

    hidden = model.layers[:-1]
    arrays = [a for layer in hidden for a in (layer.weights, layer.bias)]
    opt = _Adam(arrays + head.params, cfg.learning_rate, cfg.weight_decay)
    views = iter(opt.params)
    for layer in hidden:
        layer.weights, layer.bias = next(views), next(views)
    head.adopt(list(views))

    x_all = data.features
    y_all = data.labels
    n = len(data)
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        try:
            epoch_loss = _train_epoch(model, head, opt, x_all, y_all, perm, cfg, rng)
        except NumericalError as exc:
            raise NumericalError(f"epoch {epoch}: {exc}") from None
        if not np.isfinite(epoch_loss):
            raise NumericalError(f"training loss became non-finite at epoch {epoch}")
        if model.spectral_bound is not None:
            _renormalize_hidden(model, converge=True)
        if on_epoch_end is not None:
            on_epoch_end(epoch, model)
    model.trained = True
    return model


def _train_epoch(model, head, opt, x_all, y_all, perm, cfg, rng) -> float:
    hidden = model.layers[:-1]
    k = 2 * len(hidden)
    hidden_grads = list(zip(opt.grads[:k:2], opt.grads[1:k:2]))
    epoch_loss = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(perm), cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            acts, pres = _forward_stack(hidden, x_all[idx])
            loss, d_h, head_grads = head.loss_and_grads(acts[-1], y_all[idx], rng)
            epoch_loss += loss
            _backward_into(hidden_grads, hidden, acts, pres, d_h)
            for view, g in zip(opt.grads[k:], head_grads):
                view[...] = g
            opt.step()
            if model.spectral_bound is not None:
                _renormalize_hidden(model)
    return epoch_loss


@dataclass(frozen=True)
class _Checkpoint:
    """The checkpoint file's fields, in written order; weights are row-major per layer."""

    layer_sizes: tuple[int, ...]
    weights: tuple[tuple[float, ...], ...]
    biases: tuple[tuple[float, ...], ...]
    dropout_rate: float
    spectral_bound: float | None
    seed: int
    trained: bool = False

    def __post_init__(self):
        _check_layer_sizes(self.layer_sizes)
        _check_regularizers(self.dropout_rate, self.spectral_bound)
        pairs = list(zip(self.layer_sizes[:-1], self.layer_sizes[1:]))
        lengths = {"weights": [a * b for a, b in pairs], "biases": [b for _, b in pairs]}
        for key in lengths:
            if list(map(len, getattr(self, key))) != lengths[key]:
                raise ConfigError(f"do not match layer_sizes {list(self.layer_sizes)}", key=key)


def save_checkpoint(model: MlpClassifier, path) -> None:
    """Write the model as versioned JSON (row-major weights, full precision)."""
    ckpt = _Checkpoint(
        tuple(model.layer_sizes),
        tuple(tuple(l.weights.ravel().tolist()) for l in model.layers),
        tuple(tuple(l.bias.tolist()) for l in model.layers),
        model.dropout_rate,
        model.spectral_bound,
        model.seed,
        model.trained,
    )
    doc = {"format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION, **vars(ckpt)}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_checkpoint(path) -> MlpClassifier:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Another format or version raises SchemaVersionError. Invalid JSON, a
    missing or unknown key, a value of the wrong JSON type (a bool is not
    a number, and array entries must be finite numbers), a field out of
    its range, or weights or biases that do not fit ``layer_sizes`` raise
    ParseError naming the key path.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"checkpoint {path} is not valid JSON: {exc}") from None
    if type(doc) is not dict or doc.pop("format", None) != CHECKPOINT_FORMAT:
        raise SchemaVersionError(f"not a {CHECKPOINT_FORMAT} checkpoint: {path}")
    version = doc.pop("version", None)
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise SchemaVersionError(f"unsupported checkpoint version {version!r}")
    try:
        ckpt = _read(_Checkpoint, doc, "checkpoint")
    except ConfigError as exc:
        raise ParseError(f"{path}: {exc}") from None
    pairs = zip(ckpt.layer_sizes[:-1], ckpt.layer_sizes[1:])
    layers = [
        Layer(np.array(w, dtype=np.float64).reshape(pair), np.array(b, dtype=np.float64), "relu")
        for w, b, pair in zip(ckpt.weights, ckpt.biases, pairs)
    ]
    layers[-1].activation = "linear"
    return MlpClassifier(
        layers, ckpt.dropout_rate, ckpt.spectral_bound, ckpt.seed, trained=ckpt.trained
    )
