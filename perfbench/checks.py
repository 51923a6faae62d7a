"""Output checks, SHA-256 manifests and result guards for one pass.

Each check returns a list of failure messages; an empty list means the
outputs are correct. The checks read files with the benchmark's own
parsers and use uqlab only for the scores it derives from logits.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import HEADER, METHODS, TAGS, Workload

LN2 = math.log(2.0)
PROB_TOL = 1e-9
METRIC_KEYS = ("accuracy", "ap", "ece", "mce", "max_gap", "auroc_ood")
TRANSFER_METRICS = ("accuracy", "ap", "fraction_retained", "threshold")
REPORT_CSVS = {
    "metrics.csv": ["method", "dataset", "n_runs"]
    + [f"{k}_{s}" for k in METRIC_KEYS for s in ("mean", "std")],
    "transfer.csv": ["method", "source", "target", "n_seeds", "n_all_rejected", "metric",
                     "mean", "std", "n_used"],
    "fraction_retained.csv": ["method", "target", "source", "mean", "std", "n_used",
                              "n_all_rejected"],
    "threshold_bars.csv": ["method", "source", "target", "acc_before_mean", "acc_before_std",
                           "acc_after_mean", "acc_after_std", "delta_mean"],
}
REPORT_TEXTS = ("metrics.txt", "transfer_accuracy.txt", "transfer_ap.txt", "fraction_retained.txt")
RELIABILITY_HEADER = ["bin_lo", "bin_hi", "n", "acc", "con"]
GUARDS = (
    "auroc_far_sngp",
    "auroc_novel_sngp",
    "auroc_far_mean",
    "ece_idval_mean",
    "accuracy_idval_mean",
    "sel_acc_far_mean",
)


def tree_sha256(root: Path) -> dict[str, str]:
    """Relative path -> SHA-256 of every file under ``root``."""
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        out[path.relative_to(root).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def write_manifest(manifest: dict[str, str], path: Path) -> None:
    path.write_text("".join(f"{h}  {rel}\n" for rel, h in manifest.items()), encoding="utf-8")


def compare_manifests(ref: dict[str, str], got: dict[str, str], what: str) -> list[str]:
    if ref == got:
        return []
    differ = sorted(k for k in ref.keys() | got.keys() if ref.get(k) != got.get(k))
    return [f"outputs differ from {what} in {len(differ)} file(s), e.g. {differ[:3]}"]


def check_stored_manifest(store: Path, manifest: dict[str, str]) -> list[str]:
    """Compare with the manifest an earlier run of this seed and code stored."""
    if store.exists():
        earlier = json.loads(store.read_text())
        return compare_manifests(earlier, manifest, f"earlier run {store.name}")
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return []


def _read_csv(path: Path, header: list[str]) -> tuple[list[dict], list[str]]:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as exc:
        return [], [f"{path.name}: unreadable: {exc}"]
    if not rows or rows[0] != header:
        return [], [f"{path.name}: unexpected header {rows[0] if rows else None}"]
    bad = [i for i, r in enumerate(rows[1:], start=2) if len(r) != len(header)]
    if bad:
        return [], [f"{path.name}: wrong field count on line {bad[0]}"]
    return [dict(zip(header, r)) for r in rows[1:]], []


def _float(text: str) -> float | None:
    return float(text) if text != "" else None


def check_report(outdir: Path, workload: Workload) -> tuple[dict, list[str]]:
    """Check every report file the docs list; return (guards, failures)."""
    errors = []
    for name in REPORT_TEXTS:
        path = outdir / name
        try:
            if not path.read_text(encoding="utf-8").strip():
                errors.append(f"{name}: empty")
        except (OSError, UnicodeDecodeError) as exc:
            errors.append(f"{name}: unreadable: {exc}")
    tables = {}
    for name, header in REPORT_CSVS.items():
        tables[name], errs = _read_csv(outdir / name, header)
        errors.extend(errs)
    expected_bins = {
        f"{m}_{t}_run{i}.csv" for m in METHODS for t in TAGS for i in range(workload.runs[m])
    }
    bins_dir = outdir / "reliability"
    found_bins = {p.name for p in bins_dir.glob("*.csv")} if bins_dir.is_dir() else set()
    if found_bins != expected_bins:
        errors.append(f"reliability/: {len(expected_bins ^ found_bins)} file(s) missing or extra")
    for name in sorted(found_bins & expected_bins):
        rows, errs = _read_csv(bins_dir / name, RELIABILITY_HEADER)
        errors.extend(errs)
        if not errs and sum(int(r["n"]) for r in rows) != workload.sizes[_bin_tag(name)]:
            errors.append(f"reliability/{name}: bin counts do not add up to the dataset size")
    if errors:
        return {}, errors

    metrics = {(r["method"], r["dataset"]): r for r in tables["metrics.csv"]}
    for m in METHODS:
        for t in TAGS:
            row = metrics.get((m, t))
            if row is None:
                errors.append(f"metrics.csv: no row for {m}/{t}")
                continue
            if int(row["n_runs"]) != workload.runs[m]:
                errors.append(f"metrics.csv: {m}/{t} aggregates {row['n_runs']} runs")
            for key in METRIC_KEYS:
                value = _float(row[f"{key}_mean"])
                undefined = key == "auroc_ood" and t == "id-val"
                if (value is None) != undefined or (value is not None and not 0 <= value <= 1):
                    errors.append(f"metrics.csv: {m}/{t} {key}_mean={row[f'{key}_mean']!r}")
    cells = {}
    for r in tables["transfer.csv"]:
        cells.setdefault((r["method"], r["source"], r["target"]), {})[r["metric"]] = r
    for m in METHODS:
        for s in TAGS:
            for t in TAGS:
                got = cells.get((m, s, t), {})
                if set(got) != set(TRANSFER_METRICS):
                    errors.append(f"transfer.csv: cell {m} {s}->{t} missing or incomplete")
    if errors:
        return {}, errors
    return _guards(metrics, cells), []


def _bin_tag(name: str) -> str:
    return next(t for t in TAGS if f"_{t}_run" in name)


def _guards(metrics: dict, cells: dict) -> dict[str, float]:
    def value(method, tag, key):
        return float(metrics[(method, tag)][f"{key}_mean"])

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    selective = [
        float(cells[(m, "ood-near", "ood-far")]["accuracy"]["mean"])
        for m in METHODS
        if cells[(m, "ood-near", "ood-far")]["accuracy"]["mean"] != ""
    ]
    return {
        "auroc_far_sngp": value("sngp", "ood-far", "auroc_ood"),
        "auroc_novel_sngp": value("sngp", "ood-novel", "auroc_ood"),
        "auroc_far_mean": mean([value(m, "ood-far", "auroc_ood") for m in METHODS]),
        "ece_idval_mean": mean([value(m, "id-val", "ece") for m in METHODS]),
        "accuracy_idval_mean": mean([value(m, "id-val", "accuracy") for m in METHODS]),
        # Mean over the methods whose near-sourced threshold keeps any
        # far sample; a method that rejects all of them has no accuracy.
        "sel_acc_far_mean": mean(selective),
    }


def check_prediction_files(pred_dir: Path, workload: Workload) -> list[str]:
    """Parse every prediction CSV and check the scores uqlab derives from it."""
    from uqlab.uq import scores_from_logits

    errors = []
    files = workload.pred_files()
    found = {p.name for p in pred_dir.glob("*.csv")} if pred_dir.is_dir() else set()
    if found != set(files):
        return [f"{pred_dir.name}/: expected {sorted(files)}, found {sorted(found)}"]
    for name, rows in files.items():
        method = name.split("_run")[0]
        k = workload.components[method]
        path = pred_dir / name
        with open(path, encoding="utf-8") as fh:
            header = fh.readline()
        if header != HEADER:
            errors.append(f"{name}: unexpected header")
            continue
        table = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 4, 5, 6, 7), ndmin=2)
        if table.shape[0] != rows:
            errors.append(f"{name}: {table.shape[0]} rows, expected {rows}")
            continue
        ids = np.concatenate([np.repeat(np.arange(n), k) for n in workload.sizes.values()])
        comps = np.tile([-1] if k == 1 else np.arange(k), rows // k)
        if not (np.array_equal(table[:, 0], ids) and np.array_equal(table[:, 1], comps)):
            errors.append(f"{name}: samples or components out of the documented order")
            continue
        if not np.isin(table[:, 2], (0, 1)).all() or not np.isfinite(table[:, 3:]).all():
            errors.append(f"{name}: labels outside {{0, 1}} or non-finite logits")
            continue
        start = 0
        for tag, n in workload.sizes.items():
            block = table[start : start + n * k, 3:].reshape(n, k, 2).transpose(1, 0, 2)
            start += n * k
            probs, unc = scores_from_logits(method, block)
            if np.max(np.abs(probs.sum(axis=1) - 1.0)) > PROB_TOL:
                errors.append(f"{name}/{tag}: probabilities do not sum to 1")
            top = 0.5 if method == "msp" else LN2
            if unc.min() < 0.0 or unc.max() > top + 1e-12:
                errors.append(f"{name}/{tag}: scores outside [0, {top:.6f}]")
    return errors


def check_sngp_variance(model, head, ladder) -> list[str]:
    """Mean GP variance on ood-far must exceed id-val (criterion 06b)."""
    from uqlab.uq import rff_features

    def mean_variance(x):
        h = x
        for layer in model.layers[:-1]:
            h = h @ layer.weights + layer.bias
            if layer.activation == "relu":
                h = np.maximum(h, 0.0)
        phi = rff_features(h, head)
        return float(((phi @ head.covariance) * phi).sum(axis=1).mean())

    far = mean_variance(ladder["ood-far"].features)
    val = mean_variance(ladder["id-val"].features)
    if not far > val:
        return [f"SNGP mean variance on ood-far {far:.4g} does not exceed id-val {val:.4g}"]
    return []
