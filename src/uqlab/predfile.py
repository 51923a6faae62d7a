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

import numpy as np

from ._numtext import _COMMA, _NEWLINE, WRITE_BLOCK_ROWS, _float_chars, _int_chars, _joined
from .data import _csv_lines, _csv_rows
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
