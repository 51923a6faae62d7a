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
import os
from collections import Counter, defaultdict

import numpy as np

from ._numtext import _COMMA, _NEWLINE, WRITE_BLOCK_ROWS, _float_chars, _int_chars, _joined
from .data import _csv_lines, _csv_records
from .errors import DataError, ParseError, SchemaVersionError
from .uq import PredictionSet

__all__ = ["HEADER", "save_predictions", "load_predictions"]

HEADER = ["sample_id", "dataset", "method", "seed", "component_index", "label", "logit0", "logit1"]


def save_predictions(sets: list[PredictionSet] | PredictionSet, path) -> None:
    """Write prediction sets, sample-major within each set."""
    _write_rows(path, [sets] if isinstance(sets, PredictionSet) else sets)


def _write_rows(path, sets) -> None:
    """Write the file of ``sets`` to ``path``: the header, then each set's rows; an OSError names ``path``."""
    try:
        with open(path, "wb") as fh:
            fh.write(",".join(HEADER).encode() + b"\n")
            for pred in sets:
                for block in _row_blocks(pred):
                    fh.write(block)
    except OSError as exc:
        exc.filename = os.fspath(path) if exc.filename is None else exc.filename
        raise


def _row_blocks(pred: PredictionSet):
    """Yield the UTF-8 CSV rows of one set, one bytes object per block of samples.

    The dataset, method and seed fields are the same on every row, so they
    are CSV-formatted once (an odd tag quoted by the one CSV record writer).
    Each logit column is formatted on its own: half the formatter's arrays.
    """
    (names,) = _csv_lines([[pred.tag, pred.method, int(pred.seed)]])
    middle = np.frombuffer(f",{names[:-1]},".encode(), np.uint8)
    components = _int_chars(pred.component_indices)
    k = len(components)
    step = max(1, WRITE_BLOCK_ROWS // max(1, k))
    for start in range(0, len(pred), step):
        stop = start + step
        logits = pred.component_logits[:, start:stop].transpose(1, 0, 2)
        shape = logits.shape[:2]
        z0, z1 = (
            [f.reshape(*shape, f.shape[-1]) for f in _float_chars(logits[..., i])] for i in (0, 1)
        )
        fields = [
            _int_chars(pred.sample_ids[start:stop])[:, None],
            middle,
            components,
            _COMMA,
            _int_chars(pred.labels[start:stop])[:, None],
            _COMMA,
            *z0,
            _COMMA,
            *z1,
            _NEWLINE,
        ]
        yield _joined(fields, shape)


def _check_header(header) -> None:
    if header != HEADER:
        raise SchemaVersionError(f"unknown prediction schema; expected header {','.join(HEADER)}")


def _parse_row(row: list[str], lineno: int):
    try:
        sample_id, seed, comp_idx, label = int(row[0]), int(row[3]), int(row[4]), int(row[5])
        z0, z1 = float(row[6]), float(row[7])
    except ValueError as exc:
        raise ParseError(str(exc), line=lineno) from None
    if not -(2**63) <= sample_id < 2**63:  # stored as int64, as is the component index
        raise ParseError(f"sample_id {row[0]} is outside the 64-bit range", line=lineno)
    if not -(2**63) <= comp_idx < 2**63:
        raise ParseError(f"component_index {row[4]} is outside the 64-bit range", line=lineno)
    if label not in (0, 1):
        raise ParseError(f"label must be 0 or 1, got {row[5]!r}", line=lineno)
    if not (math.isfinite(z0) and math.isfinite(z1)):
        raise ParseError(f"logits must be finite, got {row[6]!r},{row[7]!r}", line=lineno)
    return (row[1], row[2], seed), (sample_id, comp_idx, label, z0, z1)


def load_predictions(path) -> list[PredictionSet]:
    """Read every prediction set from a file written by save_predictions.

    Groups rows by (dataset, method, seed), rebuilds the per-component
    logit array, and re-derives probabilities and uncertainties, so the
    round trip is lossless. Raises ParseError with the offending line
    number on malformed rows and SchemaVersionError when the header does
    not match this schema.
    """
    groups: dict[tuple[str, str, int], list] = defaultdict(list)
    for lineno, row in _csv_records(path, _check_header):
        key, fields = _parse_row(row, lineno)
        groups[key].append(fields)
    return [_assemble(*key, rows) for key, rows in groups.items()]


def _assemble(dataset, method, seed, rows) -> PredictionSet:
    """Build one set; every sample must hold the components of the first in sorted order."""
    name = f"{dataset}/{method}/seed {seed}"
    labels: dict[int, int] = {}
    logits: dict[tuple[int, int], tuple[float, float]] = {}
    for sample_id, comp_idx, label, z0, z1 in rows:
        if labels.setdefault(sample_id, label) != label:
            raise DataError(f"{name}: sample {sample_id} has conflicting labels")
        if (sample_id, comp_idx) in logits:
            raise DataError(f"{name}: sample {sample_id} repeats component {comp_idx}")
        logits[sample_id, comp_idx] = (z0, z1)
    sample_ids = sorted(labels)
    comp_indices = sorted(c for s, c in logits if s == sample_ids[0])
    counts, z = Counter(s for s, _ in logits), []
    for sid in sample_ids:
        try:  # as many components as the first sample, and each of its
            if counts[sid] != len(comp_indices):
                raise KeyError(sid)
            for c in comp_indices:
                z += logits[sid, c]
        except KeyError:
            raise DataError(f"{name}: sample {sid} has inconsistent components") from None
    y = np.array([labels[sid] for sid in sample_ids], dtype=np.int64)
    z = np.array(z).reshape(len(y), -1, 2).transpose(1, 0, 2).copy()  # in C order
    try:
        return PredictionSet.from_logits(method, seed, dataset, y, z, comp_indices, sample_ids)
    except DataError as exc:
        raise DataError(f"{name}: {exc}") from None
