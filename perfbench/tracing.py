"""Spans around the public functions of every uqlab module.

The tracer wraps each public module-level function of the layer modules
and rebinds every reference to it inside the ``uqlab`` package by
identity, so a function re-imported under another name is still traced.
Spans are kept in memory as ``[name, parent_index, start, end, info]``;
``info`` holds counts a probe read from the call's arguments and result.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import logging
import os
import sys
import time

LAYERS = (
    "cli",
    "experiment",
    "data",
    "mlp",
    "linalg",
    "uq",
    "predfile",
    "metrics",
    "selective",
    "report",
)

# Spans that must record at least one call on each workload. A refactor
# that routes work around one of these functions would otherwise report
# its module as idle instead of failing.
_COMMON = (
    "cli.main",
    "experiment.run_experiment",
    "experiment.build_report",
    "experiment.build_transfers",
    "metrics.ece",
    "metrics.auroc_ood",
    "metrics.average_precision",
    "selective.transfer_matrix",
    "selective.aggregate_transfer",
    "selective.youden_threshold",
    "report.emit_report",
)
_LADDER = _COMMON + (
    "data.make_ladder",
    "mlp.train",
    "mlp.forward_logits",
    "linalg.power_iter_step",
    "linalg.power_iter_converge",
    "uq.train_sngp",
    "uq.sngp_predict",
    "uq.rff_features",
    "uq.sngp_fit",
    "uq.msp_predict",
    "uq.mc_dropout_predict",
    "uq.ensemble_predict",
    "predfile.save_predictions",
)
REQUIRED_SPANS = {
    "ladder-default": _LADDER,
    "ladder-inference": _LADDER,
    "external-report": _COMMON + ("predfile.load_predictions",),
}


class CoverageError(RuntimeError):
    """A span the workload must exercise recorded no calls."""


def _rows(sets) -> int:
    if not isinstance(sets, (list, tuple)):
        sets = [sets]
    return sum(s.component_logits.shape[0] * s.component_logits.shape[1] for s in sets)


def _probe_save(args, kwargs, result):
    sets = args[0] if args else kwargs["sets"]
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"rows": _rows(sets), "bytes": os.path.getsize(path)}


def _probe_load(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"rows": _rows(result), "bytes": os.path.getsize(path)}


def _steps(data, cfg) -> int:
    return cfg.epochs * -(-len(data) // cfg.batch_size)


def _probe_train(args, kwargs, result):  # train(model, data, cfg)
    data = args[1] if len(args) > 1 else kwargs["data"]
    return {"steps": _steps(data, args[2] if len(args) > 2 else kwargs["cfg"])}


def _probe_train_sngp(args, kwargs, result):  # train_sngp(data, cfg, ...)
    data = args[0] if args else kwargs["data"]
    return {"steps": _steps(data, args[1] if len(args) > 1 else kwargs["cfg"])}


def _probe_sngp_predict(args, kwargs, result):
    return {"rows": len(result)}


def _probe_transfer(args, kwargs, result):
    return {"cells": len(result), "rejected": sum(c.result.all_rejected for c in result)}


def _probe_emit(args, kwargs, result):
    return {"files": len(result), "bytes": sum(os.path.getsize(p) for p in result)}


PROBES = {
    "predfile.save_predictions": _probe_save,
    "predfile.load_predictions": _probe_load,
    "mlp.train": _probe_train,
    "uq.train_sngp": _probe_train_sngp,
    "uq.sngp_predict": _probe_sngp_predict,
    "selective.transfer_matrix": _probe_transfer,
    "report.emit_report": _probe_emit,
}


def public_functions(layers=LAYERS):
    """(qualified name, function) for each public function a layer defines."""
    for layer in layers:
        mod = importlib.import_module(f"uqlab.{layer}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == mod.__name__:
                yield f"{layer}.{name}", obj


class Patch:
    """Rebinds functions everywhere in the uqlab package; undo restores them."""

    def __init__(self, replacements: dict):
        by_id = {id(fn): new for fn, new in replacements.items()}
        self._undo = []
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "uqlab" or modname.startswith("uqlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                new = by_id.get(id(value))
                if new is not None:
                    setattr(mod, attr, new)
                    self._undo.append((mod, attr, value))

    def undo(self) -> None:
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo = []


class Tracer:
    def __init__(self, layers=LAYERS):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._layers = layers
        self._patch = None

    def __enter__(self):
        wrappers = {fn: self._wrap(name, fn) for name, fn in public_functions(self._layers)}
        self._patch = Patch(wrappers)
        return self

    def __exit__(self, *exc):
        self._patch.undo()
        return False

    def _wrap(self, name, fn):
        spans, stack, probe = self.spans, self._stack, PROBES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if probe is not None:
                span[4] = probe(args, kwargs, result)
            return result

        return traced


class Capture:
    """Keeps the return value of the last call to one uqlab function."""

    def __init__(self, module: str, name: str):
        self.fn = getattr(importlib.import_module(f"uqlab.{module}"), name)
        self.value = None
        self._patch = None

    def __enter__(self):
        fn = self.fn

        @functools.wraps(fn)
        def capture(*args, **kwargs):
            self.value = fn(*args, **kwargs)
            return self.value

        self._patch = Patch({fn: capture})
        return self

    def __exit__(self, *exc):
        self._patch.undo()
        return False


class ClampCounter(logging.Handler):
    """Counts the variances ``uq.sngp_predict`` reports clamping to zero."""

    def __init__(self):
        super().__init__()
        self.count = 0

    def emit(self, record):
        if record.msg.startswith("clamping") and record.args:
            self.count += int(record.args[0])

    def __enter__(self):
        logging.getLogger("uqlab.uq").addHandler(self)
        return self

    def __exit__(self, *exc):
        logging.getLogger("uqlab.uq").removeHandler(self)
        return False


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[1] >= 0:
            children.setdefault(span[1], []).append((span[2], span[3]))
    out = []
    for i, (_, _, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def check_coverage(spans, workload: str) -> None:
    """Raise CoverageError naming every required span that never ran."""
    seen = {span[0] for span in spans}
    missing = [name for name in REQUIRED_SPANS[workload] if name not in seen]
    if missing:
        raise CoverageError(f"{workload}: no calls recorded for {', '.join(missing)}")


def layer_metrics(spans) -> dict[str, float]:
    """Per-module metrics named ``<module>.<function>.<quantity>``."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    info: dict[str, dict[str, float]] = {}
    converge_iters = 0
    metrics_s, metrics_calls = 0.0, 0
    for i, (name, parent, start, end, extra) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + selfs[i]
        if extra:
            acc = info.setdefault(name, {})
            for key, value in extra.items():
                acc[key] = acc.get(key, 0) + value
        parent_name = spans[parent][0] if parent >= 0 else ""
        if name == "linalg.power_iter_step" and parent_name == "linalg.power_iter_converge":
            converge_iters += 1
        if name.startswith("metrics.") and not parent_name.startswith("metrics."):
            metrics_s += end - start
            metrics_calls += 1

    def get(table, name, key=None):
        if key is None:
            return table.get(name, 0)
        return table.get(name, {}).get(key, 0)

    def per(num, den, scale=1e6):
        return num / den * scale if den else 0.0

    m = {}
    for name in ("uq.sngp_predict", "uq.train_sngp", "uq.mc_dropout_predict",
                 "uq.msp_predict", "uq.ensemble_predict", "experiment.build_report",
                 "experiment.build_transfers", "experiment.run_experiment", "cli.main"):
        m[f"{name}.self_s"] = get(self_s, name)
    m["uq.sngp_predict.rows"] = get(info, "uq.sngp_predict", "rows")
    m["uq.train_sngp.step_us"] = per(
        get(total, "uq.train_sngp"), get(info, "uq.train_sngp", "steps")
    )
    for name in ("uq.rff_features", "linalg.power_iter_step", "mlp.train", "mlp.forward_logits"):
        m[f"{name}.s"] = get(total, name)
        m[f"{name}.calls"] = get(calls, name)
    m["uq.sngp_fit.s"] = get(total, "uq.sngp_fit")
    m["linalg.power_iter_converge.calls"] = get(calls, "linalg.power_iter_converge")
    m["linalg.power_iter_converge.iters"] = converge_iters
    m["mlp.train.step_us"] = per(get(total, "mlp.train"), get(info, "mlp.train", "steps"))
    for name in ("predfile.save_predictions", "predfile.load_predictions"):
        rows = get(info, name, "rows")
        m[f"{name}.s"] = get(total, name)
        m[f"{name}.rows"] = rows
        m[f"{name}.bytes"] = get(info, name, "bytes")
        m[f"{name}.us_per_row"] = per(get(total, name), rows)
    m["metrics.s"] = metrics_s
    m["metrics.calls"] = metrics_calls
    m["selective.transfer_matrix.s"] = get(total, "selective.transfer_matrix")
    m["selective.aggregate_transfer.s"] = get(total, "selective.aggregate_transfer")
    m["selective.youden_threshold.calls"] = get(calls, "selective.youden_threshold")
    m["selective.cells_all_rejected.ratio"] = per(
        get(info, "selective.transfer_matrix", "rejected"),
        get(info, "selective.transfer_matrix", "cells"),
        1.0,
    )
    m["report.emit_report.s"] = get(total, "report.emit_report")
    m["report.emit_report.files"] = get(info, "report.emit_report", "files")
    m["report.emit_report.bytes"] = get(info, "report.emit_report", "bytes")
    m["data.make_ladder.s"] = get(total, "data.make_ladder")
    return m
