"""Synthetic datasets and parametric distribution-shift ladders.

The in-distribution generator is the classic two-interleaved-half-circles
("two moons") construction. Shifted variants are produced by an affine
transform plus optional fresh coordinate noise, and a disjoint third
cluster stands in for a novel class that the classifier has never seen.
Together they form a ladder: id-train / id-val / ood-near / ood-far /
ood-novel.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from ._numtext import _COMMA, WRITE_BLOCK_ROWS, _float_chars, _int_chars, _joined
from .errors import ConfigError, DataError, ParseError

__all__ = [
    "Dataset",
    "ShiftConfig",
    "make_two_moons",
    "apply_shift",
    "make_novel_class",
    "make_ladder",
    "save_dataset",
    "load_dataset",
    "NEAR_SHIFT",
    "FAR_SHIFT",
    "NOVEL_CENTER",
    "NOVEL_STD",
    "MOON_NOISE",
]

# Default moon noise scale; "noise width" for the novel-class separation rule.
MOON_NOISE = 0.1

# Novel-class generator constants: cluster center and spread, chosen so the
# cluster mean sits far outside both moons (>= 5 noise widths by a wide margin).
NOVEL_CENTER = (-2.5, 2.5)
NOVEL_STD = 0.25

# Tumor share of novel-class labels: 7 normal to 1 tumor.
NOVEL_TUMOR_DIVISOR = 8

# The largest size numpy gives an array: a config size past it would fail
# only in the middle of a run.
_MAX_SIZE = int(np.iinfo(np.intp).max)

# The bytes of a 47-bit address space, a process's user space on x86-64:
# more than a run can hold at once.
_ADDRESS_SPACE = 2**47


def _check_size(value: int, key: str, least: int = 1, per: int = 1, held: bool = False) -> None:
    """Require ``least <= value`` and ``value * per <= _MAX_SIZE``.

    ``per`` is the bytes that one unit of ``value`` adds to one array; with
    ``held``, to what a run holds at once, bounded by ``_ADDRESS_SPACE``.
    """
    if value < least:
        raise ConfigError(f"must be >= {least}, got {value}", key=key)
    limit, what = _MAX_SIZE, "the largest array size"
    if held:
        limit, what = _ADDRESS_SPACE, "what a 47-bit address space holds"
    if value > limit // per:
        each = f" at {per} bytes each" if per > 1 else ""
        raise ConfigError(f"must be <= {limit // per}, {what}{each}, got {value}", key=key)


@dataclass(frozen=True)
class Dataset:
    """Feature matrix, binary labels, and a distribution tag."""

    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64, values in {0, 1}
    tag: str

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels)
        if features.ndim != 2:
            raise DataError(f"features must be 2-D, got shape {features.shape}")
        if labels.shape != (features.shape[0],):
            raise DataError(
                f"labels length {labels.shape} does not match {features.shape[0]} feature rows"
            )
        if features.size and not np.all(np.isfinite(features)):
            raise DataError("features contain non-finite entries")
        # Checked before the int64 cast, which would truncate 0.5 to 0.
        if labels.size and not np.isin(labels, (0, 1)).all():
            raise DataError("labels must be 0 or 1")
        if not self.tag:
            raise DataError("tag must be non-empty")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels.astype(np.int64, copy=False))

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class ShiftConfig:
    """Affine shift: scale, then rotate, then translate, then add noise.

    ``noise_inflation`` is a ratio; 1.0 adds nothing, values above 1 add
    fresh i.i.d. Gaussian noise of scale (noise_inflation - 1) per
    coordinate, in feature units. The all-default config is the identity.
    """

    translation: tuple[float, ...] = (0.0, 0.0)
    rotation: float = 0.0
    scale: float = 1.0
    noise_inflation: float = 1.0

    def __post_init__(self):
        for name in ("scale", "noise_inflation"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"must be positive, got {getattr(self, name)}", key=name)


def make_two_moons(n: int, noise: float, rng: np.random.Generator, tag: str = "id-train") -> Dataset:
    """Sample ``n`` points on two interleaved half circles.

    Class 0 sits on the upper arc (cos t, sin t) and class 1 on the lower
    arc (1 - cos t, 1/2 - sin t), t evenly spaced on [0, pi]; classes are
    balanced as ceil(n/2) / floor(n/2). Gaussian noise of scale ``noise``
    is added per coordinate.
    """
    if n < 0:
        raise ConfigError(f"n must be >= 0, got {n}")
    if noise < 0:
        raise ConfigError(f"noise must be >= 0, got {noise}")
    n0 = (n + 1) // 2
    n1 = n // 2
    t0 = np.linspace(0.0, math.pi, n0)
    t1 = np.linspace(0.0, math.pi, n1)
    upper = np.column_stack([np.cos(t0), np.sin(t0)])
    lower = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
    features = np.concatenate([upper, lower], axis=0)
    if noise > 0 and n > 0:
        features = features + rng.normal(scale=noise, size=features.shape)
    labels = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    return Dataset(features, labels, tag)


def apply_shift(
    data: Dataset, cfg: ShiftConfig, new_tag: str, rng: np.random.Generator
) -> Dataset:
    """Transform features by scale -> rotate -> translate (+ fresh noise).

    Labels are kept; the tag is replaced. Rotation is only defined for
    2-D features; higher dimensions rotate in the first two coordinates.
    """
    if len(data) == 0:
        raise DataError("cannot shift an empty dataset")
    x = data.features * cfg.scale
    if cfg.rotation != 0.0:
        c, s = math.cos(cfg.rotation), math.sin(cfg.rotation)
        rot = np.eye(data.features.shape[1])
        rot[0, 0], rot[0, 1], rot[1, 0], rot[1, 1] = c, -s, s, c
        x = x @ rot.T
    t = np.asarray(cfg.translation, dtype=np.float64)
    if t.shape != (x.shape[1],):
        raise DataError(
            f"translation has {t.shape[0]} components, features have {x.shape[1]}"
        )
    x = x + t
    extra = cfg.noise_inflation - 1.0
    if extra > 0:
        x = x + rng.normal(scale=extra, size=x.shape)
    return Dataset(x, data.labels.copy(), new_tag)


def make_novel_class(n: int, rng: np.random.Generator, tag: str = "ood-novel") -> Dataset:
    """Sample a cluster disjoint from both moons, labelled 7:1 normal:tumor.

    The cluster is an isotropic Gaussian at NOVEL_CENTER with scale
    NOVEL_STD; its mean is separated from either moon mean by far more
    than 5x the default moon noise width. The first n - n//8 samples are
    labelled 0 and the remaining n//8 are labelled 1; features are i.i.d.,
    so label order carries no information.
    """
    if n < 0:
        raise ConfigError(f"n must be >= 0, got {n}")
    features = rng.normal(loc=NOVEL_CENTER, scale=NOVEL_STD, size=(n, 2))
    n_tumor = n // NOVEL_TUMOR_DIVISOR
    labels = np.concatenate(
        [np.zeros(n - n_tumor, dtype=np.int64), np.ones(n_tumor, dtype=np.int64)]
    )
    return Dataset(features, labels, tag)


# Default shift ladder. "near" is a small translation with mildly inflated
# noise; "far" is a large translation plus rotation. Magnitudes were tuned
# once on the default two-moons layout and then frozen.
NEAR_SHIFT = ShiftConfig(translation=(0.4, 0.2), noise_inflation=1.15)
FAR_SHIFT = ShiftConfig(translation=(2.4, 1.2), rotation=math.pi / 6)


@dataclass(frozen=True)
class LadderSpec:
    """Sizes and shift parameters for the default dataset ladder."""

    n_train: int = 1000
    n_val: int = 1000
    n_ood: int = 1000
    n_novel: int = 800
    noise: float = MOON_NOISE
    near: ShiftConfig = field(default_factory=lambda: NEAR_SHIFT)
    far: ShiftConfig = field(default_factory=lambda: FAR_SHIFT)

    def __post_init__(self):
        # Every dataset is trained on or evaluated, so none may be empty; a sample is 16 bytes.
        for name in ("n_train", "n_val", "n_ood", "n_novel"):
            _check_size(getattr(self, name), name, per=16)
        if not self.noise >= 0:
            raise ConfigError(f"must be >= 0, got {self.noise}", key="noise")
        # apply_shift takes features of any dimension; the ladder's are 2-D.
        for name in ("near", "far"):
            n = len(getattr(self, name).translation)
            if n != 2:
                raise ConfigError(
                    f"must have 2 components, one per feature, got {n}", key=f"{name}.translation"
                )


def make_ladder(spec: LadderSpec, seed: int) -> dict[str, Dataset]:
    """Build the id-train / id-val / ood-near / ood-far / ood-novel ladder.

    Every dataset draws from its own seed-derived stream, so changing one
    size never perturbs the others.
    """
    from .rng import spawn

    train = make_two_moons(spec.n_train, spec.noise, spawn(seed, "data", "id-train"), "id-train")
    val = make_two_moons(spec.n_val, spec.noise, spawn(seed, "data", "id-val"), "id-val")
    base_near = make_two_moons(spec.n_ood, spec.noise, spawn(seed, "data", "ood-near"), "base")
    base_far = make_two_moons(spec.n_ood, spec.noise, spawn(seed, "data", "ood-far"), "base")
    near = apply_shift(base_near, spec.near, "ood-near", spawn(seed, "shift", "ood-near"))
    far = apply_shift(base_far, spec.far, "ood-far", spawn(seed, "shift", "ood-far"))
    novel = make_novel_class(spec.n_novel, spawn(seed, "data", "ood-novel"))
    return {d.tag: d for d in (train, val, near, far, novel)}


def save_dataset(data: Dataset, path) -> None:
    """Write a dataset as CSV: x0,...,x{d-1},label,tag (UTF-8, LF), features as
    ``repr`` writes them and labels as ``str``, a block of rows at a time."""
    names = [f"x{j}" for j in range(data.features.shape[1])] + ["label", "tag"]
    header, tag = _csv_lines([names, [data.tag]])
    tail = np.frombuffer(f",{tag}".encode(), np.uint8)
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for start in range(0, len(data), WRITE_BLOCK_ROWS):
            labels = data.labels[start : start + WRITE_BLOCK_ROWS]
            columns = data.features[start : start + len(labels)].T
            fields = [f for x in columns for f in (*_float_chars(x), _COMMA)]
            fh.write(_joined([*fields, _int_chars(labels), tail], labels.shape))


def _csv_lines(rows):
    """Yield each row of ``rows`` as one CSV record ending in LF.

    csv.writer quotes a field only for the characters of its own line
    terminator (besides the delimiter and quote): with "\n" alone, a
    field holding a bare carriage return would be written unquoted and
    split its record on reading. So each record is written with "\r\n",
    which quotes both, and that ending is replaced by "\n".
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    for row in rows:
        buf.seek(0)
        buf.truncate()
        writer.writerow(row)
        yield buf.getvalue()[:-2] + "\n"


def _csv_records(path, check_header):
    """Yield (line, row) for each record after the header of the CSV at ``path``,
    ``line`` its first line from 1 (a quoted field may hold line breaks), once
    ``check_header(header)`` has passed. A wrong field count, a record the csv
    module cannot read (a field over its size limit, say) and a byte that is
    not UTF-8 raise ParseError naming the line; that byte is the first check
    of its record."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader, lineno = csv.reader(fh), 1
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError("empty file, expected a header row", line=1)
            _check_utf8(header, 1)
            check_header(header)
            lineno = reader.line_num + 1
            for row in reader:
                _check_utf8(row, lineno)
                if len(row) != len(header):
                    raise ParseError(f"expected {len(header)} fields, got {len(row)}", line=lineno)
                yield lineno, row
                lineno = reader.line_num + 1
        except csv.Error as exc:
            raise ParseError(str(exc), line=lineno) from None


def _check_utf8(row, lineno: int) -> None:
    """Raise ParseError at the first byte of the record ``row`` from line ``lineno``
    that is not UTF-8, which the reader escaped (U+DC80-U+DCFF)."""
    if not (text := ",".join(row)).isascii():
        raw = f"{text}\n".encode("utf-8", "surrogateescape")  # its LF, as in the file
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            bad = f"byte 0x{raw[exc.start]:02x} is not UTF-8 ({exc.reason})"
            raise ParseError(bad, line=lineno + len(raw[: exc.start + 1].splitlines()) - 1) from None


def _check_header(header) -> None:
    d = len(header) - 2
    if d < 1 or header != [f"x{j}" for j in range(d)] + ["label", "tag"]:
        raise ParseError(f"unrecognized header {header!r}", line=1)


def load_dataset(path) -> Dataset:
    """Read a dataset CSV written by :func:`save_dataset`."""
    rows, labels, tags = [], [], []
    for lineno, row in _csv_records(path, _check_header):
        d = len(row) - 2
        try:
            rows.append([float(v) for v in row[:d]])
            labels.append(int(row[d]))
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        if not all(map(math.isfinite, rows[-1])):
            raise ParseError(f"features must be finite, got {row[:d]!r}", line=lineno)
        if labels[-1] not in (0, 1):
            raise ParseError(f"label must be 0 or 1, got {row[d]!r}", line=lineno)
        if not row[d + 1]:
            raise ParseError("tag must be non-empty", line=lineno)
        tags.append(row[d + 1])
    if not rows:
        raise ParseError("file contains a header but no samples", line=1)
    if len(set(tags)) != 1:
        raise DataError(f"file mixes tags {sorted(set(tags))}; one dataset per file")
    return Dataset(np.array(rows), np.array(labels), tags[0])
