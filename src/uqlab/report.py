"""Report files: metric tables, transfer matrices, and plot data.

Aligned-text tables round values to three decimals and mark the best
method per column with ``*`` when its mean beats the runner-up by more
than one standard deviation (taking the larger of the two stds); CSVs
keep full precision. Transfer tables print evaluation datasets as rows
and threshold sources as columns; a cell whose samples were all rejected
on every seed shows ``rejected-all``, and a cell rejected on some seeds
is starred with a footnote giving the affected seed count.
"""

from __future__ import annotations

import csv
from pathlib import Path

from .errors import DataError
from .metrics import METRIC_KEYS, save_bin_stats
from .selective import TransferMatrix

__all__ = ["emit_report", "format_metrics_table", "format_transfer_table", "write_metrics_csv"]

# Orientation per metric column: is larger better?
HIGHER_BETTER = {
    "accuracy": True,
    "ap": True,
    "ece": False,
    "mce": False,
    "max_gap": False,
    "auroc_ood": True,
}
COLUMN_LABELS = {
    "accuracy": "accuracy^",
    "ap": "ap^",
    "ece": "ece_v",
    "mce": "mce_v",
    "max_gap": "max_gap_v",
    "auroc_ood": "auroc_ood^",
}
REJECTED_TOKEN = "rejected-all"


def _fmt(mean_std, starred: bool = False) -> str:
    if mean_std is None:
        return "-"
    mean, std = mean_std
    return f"{mean:.3f} +/- {std:.3f}" + ("*" if starred else "")


def _best_methods(entries: dict[str, tuple[float, float] | None], higher: bool) -> set[str]:
    """Methods marked best: the winner, when it clears the runner-up by > 1 std."""
    defined = {m: v for m, v in entries.items() if v is not None}
    if len(defined) < 2:
        return set()
    ordered = sorted(defined.items(), key=lambda kv: kv[1][0], reverse=higher)
    (best, (best_mean, best_std)), (_, (run_mean, run_std)) = ordered[0], ordered[1]
    gap = abs(best_mean - run_mean)
    if gap > max(best_std, run_std):
        return {best}
    return set()


def format_metrics_table(report, id_val_tag: str = "id-val") -> str:
    """Per-dataset blocks, one method per row, best-per-column starred."""
    datasets = list(dict.fromkeys(r.dataset for r in report.rows))
    methods = list(dict.fromkeys(r.method for r in report.rows))
    width = max(len(m) for m in methods) + 2
    col = 18
    lines = []
    header = "method".ljust(width) + "".join(COLUMN_LABELS[k].rjust(col) for k in METRIC_KEYS)
    for dataset in datasets:
        lines.append(f"== {dataset} ==")
        lines.append(header)
        per_key_entries = {
            k: {
                m: report.row(m, dataset).values.get(k)
                for m in methods
                if _has_row(report, m, dataset)
            }
            for k in METRIC_KEYS
        }
        marked = {k: _best_methods(per_key_entries[k], HIGHER_BETTER[k]) for k in METRIC_KEYS}
        for m in methods:
            if not _has_row(report, m, dataset):
                continue
            row = report.row(m, dataset)
            cells = [
                _fmt(row.values.get(k), starred=m in marked[k]).rjust(col) for k in METRIC_KEYS
            ]
            lines.append(m.ljust(width) + "".join(cells))
        lines.append("")
    lines.append("* best method in column, ahead of the runner-up by more than one std")
    lines.append(report.footer)
    return "\n".join(lines) + "\n"


def _has_row(report, method: str, dataset: str) -> bool:
    return any(r.method == method and r.dataset == dataset for r in report.rows)


def write_metrics_csv(report, fh) -> None:
    """Write the metric rows as CSV (full-precision means and stds) to ``fh``."""
    writer = csv.writer(fh, lineterminator="\n")
    header = ["method", "dataset", "n_runs"]
    for k in METRIC_KEYS:
        header.extend([f"{k}_mean", f"{k}_std"])
    writer.writerow(header)
    for row in report.rows:
        out = [row.method, row.dataset, row.n_runs]
        for k in METRIC_KEYS:
            v = row.values.get(k)
            out.extend(["", ""] if v is None else [repr(v[0]), repr(v[1])])
        writer.writerow(out)


def format_transfer_table(matrix: TransferMatrix, metric: str) -> str:
    """Rows are evaluation datasets, columns the threshold-source datasets."""
    col = 20
    width = max(len(t) for t in matrix.targets) + 2
    lines = [f"== {matrix.method}: selective {metric}, threshold set on (columns) =="]
    lines.append("".ljust(width) + "".join(s.rjust(col) for s in matrix.sources))
    footnotes = []
    for target in matrix.targets:
        cells = []
        for source in matrix.sources:
            entry = matrix.cells[(source, target)]
            value = entry[metric]
            if entry["n_all_rejected"] == entry["n_seeds"]:
                cells.append(REJECTED_TOKEN.rjust(col))
                continue
            starred = entry["n_all_rejected"] > 0
            text = _fmt(value[:2]) if value is not None else "-"
            if starred:
                text += "*"
                used = entry["n_seeds"] - entry["n_all_rejected"]
                footnotes.append(
                    f"* {source}->{target}: averaged over {used} "
                    f"run{'s' if used != 1 else ''}; all samples rejected for "
                    f"{entry['n_all_rejected']} run(s)"
                )
            cells.append(text.rjust(col))
        lines.append(target.ljust(width) + "".join(cells))
    lines.extend(dict.fromkeys(footnotes))
    return "\n".join(lines) + "\n"


def _transfer_csv(transfers: dict[str, TransferMatrix], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            [
                "method",
                "source",
                "target",
                "n_seeds",
                "n_all_rejected",
                "metric",
                "mean",
                "std",
                "n_used",
            ]
        )
        for method, matrix in transfers.items():
            for (source, target), entry in matrix.cells.items():
                for metric in ("accuracy", "ap", "fraction_retained", "threshold"):
                    value = entry[metric]
                    row = [method, source, target, entry["n_seeds"], entry["n_all_rejected"], metric]
                    if value is None:
                        row.extend(["", "", 0])
                    else:
                        row.extend([repr(value[0]), repr(value[1]), value[2]])
                    writer.writerow(row)


def _retained_pairs(tags: list[str], id_val_tag: str) -> dict[str, str]:
    """Source convention for the fraction-retained table.

    The near and far shifted sets take each other as threshold source;
    any remaining dataset takes the nearest shifted set. Falls back to
    the first other non-validation dataset for unrecognized ladders.
    """
    ood = [t for t in tags if t != id_val_tag]
    pairs = {}
    for t in ood:
        if t == "ood-near" and "ood-far" in ood:
            pairs[t] = "ood-far"
        elif t == "ood-far" and "ood-near" in ood:
            pairs[t] = "ood-near"
        elif "ood-near" in ood and t != "ood-near":
            pairs[t] = "ood-near"
        else:
            others = [o for o in ood if o != t]
            if others:
                pairs[t] = others[0]
    return pairs


def _fraction_retained_table(transfers: dict[str, TransferMatrix], id_val_tag: str):
    methods = list(transfers)
    tags = transfers[methods[0]].targets
    pairs = _retained_pairs(tags, id_val_tag)
    targets = list(pairs)
    col = 24
    width = max((len(m) for m in methods), default=6) + 2
    lines = ["== fraction retained after rejection (threshold source in header) =="]
    lines.append(
        "".ljust(width)
        + "".join(f"{t} (<-{pairs[t]})".rjust(col) for t in targets)
    )
    rows_csv = [["method", "target", "source", "mean", "std", "n_used", "n_all_rejected"]]
    for m in methods:
        cells = []
        for t in targets:
            entry = transfers[m].cells[(pairs[t], t)]
            value = entry["fraction_retained"]
            if entry["n_all_rejected"] == entry["n_seeds"]:
                cells.append(REJECTED_TOKEN.rjust(col))
                rows_csv.append([m, t, pairs[t], repr(0.0), repr(0.0), 0, entry["n_all_rejected"]])
                continue
            cells.append(_fmt(value[:2]).rjust(col))
            rows_csv.append(
                [m, t, pairs[t], repr(value[0]), repr(value[1]), value[2], entry["n_all_rejected"]]
            )
        lines.append(m.ljust(width) + "".join(cells))
    return "\n".join(lines) + "\n", rows_csv


def _bars_csv(report, transfers: dict[str, TransferMatrix], path, id_val_tag: str) -> None:
    """Accuracy before vs after thresholding, per (method, source, target)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            [
                "method",
                "source",
                "target",
                "acc_before_mean",
                "acc_before_std",
                "acc_after_mean",
                "acc_after_std",
                "delta_mean",
            ]
        )
        for method, matrix in transfers.items():
            for (source, target), entry in matrix.cells.items():
                if source == target:
                    continue
                before = report.row(method, target).values["accuracy"]
                after = entry["accuracy"]
                row = [method, source, target, repr(before[0]), repr(before[1])]
                if after is None:
                    row.extend(["", "", ""])
                else:
                    row.extend([repr(after[0]), repr(after[1]), repr(after[0] - before[0])])
                writer.writerow(row)


def emit_report(report, transfers: dict[str, TransferMatrix], outdir, id_val_tag: str = "id-val") -> list[Path]:
    """Write every report artifact into ``outdir`` and list the paths."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    if not report.rows:
        raise DataError("cannot emit an empty report")
    written = []

    path = out / "metrics.txt"
    path.write_text(format_metrics_table(report, id_val_tag), encoding="utf-8")
    written.append(path)
    path = out / "metrics.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_metrics_csv(report, fh)
    written.append(path)

    if transfers:
        for metric in ("accuracy", "ap"):
            text = "".join(
                format_transfer_table(matrix, metric) + "\n" for matrix in transfers.values()
            )
            path = out / f"transfer_{metric}.txt"
            path.write_text(text, encoding="utf-8")
            written.append(path)
        path = out / "transfer.csv"
        _transfer_csv(transfers, path)
        written.append(path)

        table, rows_csv = _fraction_retained_table(transfers, id_val_tag)
        path = out / "fraction_retained.txt"
        path.write_text(table, encoding="utf-8")
        written.append(path)
        path = out / "fraction_retained.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows_csv)
        written.append(path)

        path = out / "threshold_bars.csv"
        _bars_csv(report, transfers, path, id_val_tag)
        written.append(path)

    bins_dir = out / "reliability"
    bins_dir.mkdir(exist_ok=True)
    for (method, dataset, run_index), stats in report.bins.items():
        path = bins_dir / f"{method}_{dataset}_run{run_index}.csv"
        save_bin_stats(stats, path)
        written.append(path)
    return written
