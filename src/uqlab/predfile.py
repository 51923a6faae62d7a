"""Prediction CSV files.

One long-format row per (sample, component): header
``sample_id,dataset,method,seed,component_index,label,logit0,logit1``,
UTF-8, LF line endings, ints written as ``str`` and floats as ``repr``
writes them (the shortest digits that read back as the same float).
``component_index`` is the stochastic-pass or ensemble-member index;
single-pass methods use -1. A file may hold any number of (dataset,
method, seed) groups; externally produced logits that follow the schema
plug straight into the metric and threshold machinery.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .data import _csv_lines, _csv_rows
from .errors import DataError, ParseError, SchemaVersionError
from .uq import PredictionSet

__all__ = ["HEADER", "save_predictions", "load_predictions"]

HEADER = ["sample_id", "dataset", "method", "seed", "component_index", "label", "logit0", "logit1"]

# Rows formatted per block (whole samples, at least one): bounds the
# block's arrays, some 300 bytes a row. On a one-seed ladder-inference run,
# 4096-row blocks formatted ~10% faster than 2048 but left the parent's
# peak RSS ~4 MB higher from the second run in a process on; 1024-row
# blocks cost ~30% more per row for no less memory.
WRITE_BLOCK_ROWS = 2048
# Logits per part when a file is handed to a worker process in parts (whole
# samples, at least one): bounds the memory a part takes on its way there.
# On a one-seed run with eval sets of 2,500 rows, the parent's peak RSS
# was 99 MB with 64 KB of logits per part (103 MB when the parent wrote
# every file itself), 106 MB with 128 KB parts and 113 MB with whole files.
PART_LOGITS = 2**13


class _Rows(NamedTuple):
    """What the CSV rows of some samples of one PredictionSet hold."""

    tag: str
    method: str
    seed: int
    component_indices: np.ndarray  # (k,)
    sample_ids: np.ndarray  # (n,)
    labels: np.ndarray  # (n,)
    component_logits: np.ndarray  # (k, n, 2)


def save_predictions(sets: list[PredictionSet] | PredictionSet, path) -> None:
    """Write prediction sets, sample-major within each set."""
    if isinstance(sets, PredictionSet):
        sets = [sets]
    _write_rows(path, "w", sets)


def _write_rows(path, mode: str, sets) -> None:
    """Write the rows of ``sets`` to ``path`` opened with ``mode``: "w" starts the file
    with the header, "a" appends."""
    with open(path, mode + "b") as fh:
        if mode == "w":
            fh.write(",".join(HEADER).encode() + b"\n")
        for pred in sets:
            for block in _row_blocks(pred):
                fh.write(block)


def _parts(sets: list[PredictionSet]):
    """Yield ``(mode, sets)`` per part of the file of ``sets``, for ``_write_rows``.

    Written in order, the parts give the file ``save_predictions`` writes:
    the first part is the header alone, and each other part the rows of at
    most ``PART_LOGITS`` logits of one set, with only the fields they hold.
    """
    yield "w", []
    for pred in sets:
        step = max(1, PART_LOGITS // max(2, 2 * pred.component_logits.shape[0]))
        for start in range(0, len(pred), step):
            stop = start + step
            rows = _Rows(
                pred.tag,
                pred.method,
                pred.seed,
                pred.component_indices,
                pred.sample_ids[start:stop],
                pred.labels[start:stop],
                pred.component_logits[:, start:stop],
            )
            yield "a", [rows]


def _row_blocks(pred: PredictionSet | _Rows):
    """Yield the UTF-8 CSV rows of one set, one bytes object per block of samples.

    The dataset, method and seed fields are the same on every row, so they
    are CSV-formatted once (an odd tag quoted by the one CSV record writer).
    The numeric fields are formatted a block at a time, as ``str`` writes
    an int and ``repr`` a float, into the columns of one byte array per
    block: a field is padded to its longest value with ``_PAD``, a byte
    that UTF-8 never holds, and the block is that array without it.
    """
    (names,) = _csv_lines([[pred.tag, pred.method, int(pred.seed)]])
    middle = np.frombuffer(f",{names[:-1]},".encode(), np.uint8)
    components = _int_chars(pred.component_indices)
    k = len(components)
    step = max(1, WRITE_BLOCK_ROWS // max(1, k))
    for start in range(0, len(pred.labels), step):
        stop = start + step
        logits = pred.component_logits[:, start:stop].transpose(1, 0, 2)
        z = [f.reshape(*logits.shape, f.shape[-1]) for f in _float_chars(logits)]
        fields = [
            _int_chars(pred.sample_ids[start:stop])[:, None],
            middle,
            components,
            _COMMA,
            _int_chars(pred.labels[start:stop])[:, None],
            _COMMA,
            *(f[:, :, 0] for f in z),
            _COMMA,
            *(f[:, :, 1] for f in z),
            _NEWLINE,
        ]
        rows = np.empty((logits.shape[0], k, sum(f.shape[-1] for f in fields)), np.uint8)
        col = 0
        for field in fields:
            rows[..., col : col + field.shape[-1]] = field
            col += field.shape[-1]
        yield rows.tobytes().translate(None, _PAD)


_PAD = b"\xff"
_SIGN = np.frombuffer(_PAD + b"-", np.uint8)
_COMMA = np.frombuffer(b",", np.uint8)
_NEWLINE = np.frombuffer(b"\n", np.uint8)
# "0000" ... "9999", four ASCII bytes each: a (10_000, 1) uint32 array.
_FOUR = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0"))
_FOUR = _FOUR.view(np.uint32)
# Entry 10_000 * n + v: the last n digits of v (0 <= v < 10_000, n <= 4),
# right-aligned after _PAD: the mask keeps the last n bytes, the rest are 0xFF.
_SHOWN = np.frombuffer(b"".join(b"\0" * (4 - n) + b"\xff" * n for n in range(5)), np.uint32)
_DIGITS = ((_FOUR.T & _SHOWN[:, None]) | ~_SHOWN[:, None]).reshape(-1)
_POW10 = np.array([10**i for i in range(20)], np.uint64)
_POW10_I = _POW10[:19].astype(np.int64)
# 10**0 ... 10**22, each exactly a double.
_POW10_F = np.array([float(10**i) for i in range(23)])
# A distance within this relative margin of a bound is left to repr: the
# double arithmetic of _shortest is within a few ulps (2**-52) of exact.
_TOL = 2.0**-40


def _digits(v: np.ndarray, shown: np.ndarray, width: int) -> np.ndarray:
    """The last ``shown`` decimal digits of each uint64 of ``v``, zero-padded
    and right-aligned after ``_PAD`` in ``width`` ASCII columns: an (n, width) uint8 array."""
    chunks = -(-width // 4)
    out = np.empty((len(v), chunks), np.uint32)
    for i in range(chunks):
        q = v // 10_000
        table = np.clip(shown - 4 * i, 0, 4) * 10_000
        out[:, chunks - 1 - i] = _DIGITS[table + (v - q * 10_000).view(np.int64)]
        v = q
    return out.view(np.uint8)[:, 4 * chunks - width :]


def _int_digits(v: np.ndarray) -> np.ndarray:
    """The digits of each uint64 of ``v``, right-aligned after ``_PAD``."""
    width = len(str(int(v.max(initial=0))))
    shown = np.ones(len(v), np.int64)
    for i in range(1, width):
        shown += v >= _POW10[i]
    return _digits(v, shown, width)


def _int_chars(a) -> np.ndarray:
    """``str`` of each int of ``a`` (cast to int64): an (n, width) uint8 array, a sign
    column and the digits, padded with ``_PAD``."""
    a = np.asarray(a).astype(np.int64)
    digits = _int_digits(np.abs(a).view(np.uint64))  # |-2**63| wraps to 2**63 in uint64
    out = np.empty((len(a), 1 + digits.shape[1]), np.uint8)
    out[:, 0] = _SIGN[(a < 0).view(np.uint8)]
    out[:, 1:] = digits
    return out


def _float_chars(x) -> list[np.ndarray]:
    """``repr`` of each float of ``x`` (flattened, cast to float64): (n, width) uint8
    arrays padded with ``_PAD``, whose columns side by side give the text.

    Values with 1e-4 <= |x| < 1e15 take the shortest round-trip digits from
    :func:`_shortest` and are laid out as ``repr`` lays them out there:
    positional, with at least one digit on each side of the point. Zeros
    are "0.0" and "-0.0". Every other value, and every value ``_shortest``
    leaves undecided, is formatted by ``repr`` itself.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    magnitude = np.abs(x)
    digits = np.zeros(len(x), np.uint64)
    frac_digits = np.zeros(len(x), np.int64)  # after the point, in digits
    exact = np.flatnonzero((magnitude >= 1e-4) & (magnitude < 1e15))
    m, point, decided = _shortest(magnitude[exact])
    exact = exact[decided]
    digits[exact], frac_digits[exact] = m[decided], -point[decided]
    by_repr = np.ones(len(x), bool)
    by_repr[exact] = False
    by_repr[magnitude == 0] = False
    sign = _SIGN[np.signbit(x).view(np.uint8), None]
    # The shortest digits round to x, and no integer lies between them and x
    # (every integer below 2**53 is a double), so their integer part is x's.
    whole = _int_digits(np.floor(np.where(by_repr, 0.0, magnitude)).astype(np.uint64))
    dot = np.full((len(x), 1), ord("."), np.uint8)
    # The digits after the point are the last frac_digits digits of m.
    digits[frac_digits <= 0] = 0
    shown = np.maximum(frac_digits, 1)
    frac = _digits(digits, shown, int(shown.max(initial=1)))
    texts = [repr(v).encode() for v in x[by_repr].tolist()]
    if not texts:
        return [sign, whole, dot, frac]
    for field in (sign, whole, dot, frac):
        field[by_repr] = _PAD[0]
    width = max(map(len, texts))
    text = np.full((len(x), width), _PAD[0], np.uint8)
    padded = b"".join(t.ljust(width, _PAD) for t in texts)
    text[by_repr] = np.frombuffer(padded, np.uint8).reshape(-1, width)
    return [sign, whole, dot, frac, text]


def _shortest(a: np.ndarray):
    """Python's shortest round-trip digits of the floats ``a`` (1e-4 <= a < 1e15).

    Returns ``(m, point, decided)``: where ``decided``, ``m * 10**point`` is
    the decimal with the fewest digits that rounds to ``a``, and among
    those the nearest to it, as ``repr`` writes it.

    Each value is scaled by an exact power of ten, 10**k, to 17 integer
    digits, as an exact double-double ``hi + lo``: ``hi`` is an integer
    above 2**53, so ``m17 = hi + rint(lo)`` is the nearest 17-digit integer
    and ``e17 = lo - rint(lo)`` the exact rest. With j digits fewer, the
    candidate is the nearest multiple of 10**j; it rounds to ``a`` when it
    lies within ``half`` (half an ulp of ``a``, times 10**k) of ``m17 +
    e17``, and the largest such j gives the shortest digits. The distances
    are exact or within an ulp, so a value is left undecided only when its
    round-trip interval is not symmetric (a power of two), or when a
    candidate lies within a relative 2**-40 of the interval's edge or of a
    tie between two candidates.
    """
    mantissa, exponent = np.frexp(a)
    k = 16 - np.floor(np.log10(a)).astype(np.int64)
    scaled = a * _POW10_F[k]
    k += (scaled < 1e16).astype(np.int64) - (scaled >= 1e17)
    hi, lo = _two_product(a, _POW10_F[k])
    half = np.ldexp(_POW10_F[k], exponent - 54)  # in (0.55, 11.2): hi is in [1e16, 1e17)
    inside, outside = half * (1 - _TOL), half * (1 + _TOL)
    c = np.rint(lo)
    m17 = hi.astype(np.int64) + c.astype(np.int64)
    e17 = lo - c  # |e17| <= 0.5 < half: 17 digits always round-trip
    decided = (mantissa != 0.5) & (np.abs(e17) != 0.5)
    drop = np.zeros(len(a), np.int64)
    for step in (10, 100):
        rest = m17 - m17 // step * step
        down, up = rest + e17, (step - rest) - e17
        near = np.minimum(down, up)
        valid = near < inside
        decided &= valid | (near > outside)
        if step == 10:  # both multiples of 10 may lie within half: a near tie is undecided
            decided &= ~(valid & (np.abs(down - up) <= _TOL * step))
        drop += valid
    # At most one multiple of 100 lies within half, so where there is one, it is
    # the candidate for every j >= 2 that rounds to a: drop its trailing zeros.
    two = np.flatnonzero(drop == 2)
    m100 = m17.take(two) // 100 + (up < down).take(two)
    drop[two] += (m100[:, None] % _POW10_I[1:15] == 0).sum(axis=1)
    step = _POW10_I[drop]
    m = m17 // step
    m += 2 * ((m17 - m * step) + e17) > step
    decided &= m < _POW10_I[17 - drop]  # 17 - j digits: no carry into one more
    return m.astype(np.uint64), drop - k, decided


def _two_product(a: np.ndarray, b: np.ndarray):
    """``a * b`` exactly, as ``hi + lo`` (Dekker's product; numpy has no fma)."""
    hi = a * b
    a1, a2 = _split(a)
    b1, b2 = _split(b)
    lo = ((a1 * b1 - hi) + a1 * b2 + a2 * b1) + a2 * b2
    return hi, lo


def _split(a: np.ndarray):
    """``a`` as the sum of two doubles of at most 26 significant bits each (Veltkamp)."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _parse_row(row: list[str], lineno: int):
    if len(row) != len(HEADER):
        raise ParseError(f"expected {len(HEADER)} fields, got {len(row)}", line=lineno)
    try:
        parsed = (
            int(row[0]),
            row[1],
            row[2],
            int(row[3]),
            int(row[4]),
            int(row[5]),
            float(row[6]),
            float(row[7]),
        )
    except ValueError as exc:
        raise ParseError(str(exc), line=lineno) from None
    for i in (0, 4):  # stored as int64
        if not -(2**63) <= parsed[i] < 2**63:
            raise ParseError(f"{HEADER[i]} {row[i]} is outside the 64-bit range", line=lineno)
    if parsed[5] not in (0, 1):
        raise ParseError(f"label must be 0 or 1, got {row[5]!r}", line=lineno)
    if not (math.isfinite(parsed[6]) and math.isfinite(parsed[7])):
        raise ParseError(f"logits must be finite, got {row[6]!r},{row[7]!r}", line=lineno)
    return parsed


def load_predictions(path) -> list[PredictionSet]:
    """Read every prediction set from a file written by save_predictions.

    Groups rows by (dataset, method, seed), rebuilds the per-component
    logit array, and re-derives probabilities and uncertainties, so the
    round trip is lossless. Raises ParseError with the offending line
    number on malformed rows and SchemaVersionError when the header does
    not match this schema.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = _csv_rows(fh)
        _, header = next(reader, (1, None))
        if header is None:
            raise ParseError("empty file, expected a header row", line=1)
        if header != HEADER:
            raise SchemaVersionError(
                f"unknown prediction schema; expected header {','.join(HEADER)}"
            )
        groups: dict[tuple[str, str, int], list] = {}
        for lineno, row in reader:
            sample_id, dataset, method, seed, comp_idx, label, z0, z1 = _parse_row(row, lineno)
            groups.setdefault((dataset, method, seed), []).append(
                (sample_id, comp_idx, label, z0, z1)
            )
    return [
        _assemble(dataset, method, seed, rows)
        for (dataset, method, seed), rows in groups.items()
    ]


def _assemble(dataset, method, seed, rows) -> PredictionSet:
    by_sample: dict[int, dict] = {}
    for sample_id, comp_idx, label, z0, z1 in rows:
        entry = by_sample.setdefault(sample_id, {"label": label, "components": {}})
        if entry["label"] != label:
            raise DataError(
                f"{dataset}/{method}/seed {seed}: sample {sample_id} has conflicting labels"
            )
        if comp_idx in entry["components"]:
            raise DataError(
                f"{dataset}/{method}/seed {seed}: sample {sample_id} repeats component {comp_idx}"
            )
        entry["components"][comp_idx] = (z0, z1)
    sample_ids = sorted(by_sample)
    comp_indices = sorted(by_sample[sample_ids[0]]["components"])
    for sid in sample_ids:
        if sorted(by_sample[sid]["components"]) != comp_indices:
            raise DataError(
                f"{dataset}/{method}/seed {seed}: sample {sid} has inconsistent components"
            )
    n, k = len(sample_ids), len(comp_indices)
    logits = np.empty((k, n, 2))
    labels = np.empty(n, dtype=np.int64)
    for i, sid in enumerate(sample_ids):
        labels[i] = by_sample[sid]["label"]
        for c, comp_idx in enumerate(comp_indices):
            logits[c, i] = by_sample[sid]["components"][comp_idx]
    return PredictionSet.from_logits(
        method, seed, dataset, labels, logits, comp_indices, sample_ids
    )
