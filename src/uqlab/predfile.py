"""Prediction CSV files.

One long-format row per (sample, component): header
``sample_id,dataset,method,seed,component_index,label,logit0,logit1``,
UTF-8, LF line endings, ``.`` decimal separator, floats written with
shortest round-trip precision. ``component_index`` is the stochastic-pass
or ensemble-member index; single-pass methods use -1. A file may hold any
number of (dataset, method, seed) groups; externally produced logits that
follow the schema plug straight into the metric and threshold machinery.
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

# Lines formatted per writelines call (whole samples, at least one): bounds
# the list of pending lines.
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
    with open(path, mode, encoding="utf-8", newline="\n") as fh:
        if mode == "w":
            fh.write(",".join(HEADER) + "\n")
        for pred in sets:
            for block in _row_blocks(pred):
                fh.writelines(block)


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
    """Yield the CSV lines of one set, a list per block of samples.

    The dataset, method and seed fields are the same on every row, so they
    are CSV-formatted once (an odd tag quoted by the one CSV record writer);
    the numeric fields are plain ints and shortest round-trip float reprs.
    """
    (names,) = _csv_lines([[pred.tag, pred.method, int(pred.seed)]])
    middle = f",{names[:-1]},"
    components = [f"{c}," for c in pred.component_indices.astype(np.int64).tolist()]
    sample_ids = pred.sample_ids.astype(np.int64)
    labels = pred.labels.astype(np.int64)
    step = max(1, WRITE_BLOCK_ROWS // max(1, len(components)))
    for start in range(0, len(labels), step):
        stop = start + step
        logits = pred.component_logits[:, start:stop].transpose(1, 0, 2).tolist()
        yield [
            f"{sid}{middle}{comp}{label},{z0!r},{z1!r}\n"
            for sid, label, per_sample in zip(
                sample_ids[start:stop].tolist(), labels[start:stop].tolist(), logits
            )
            for comp, (z0, z1) in zip(components, per_sample)
        ]


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
