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
import io
from pathlib import Path

from .errors import DataError
from .metrics import METRIC_KEYS
from .selective import TransferMatrix

__all__ = ["emit_report", "format_metrics_table", "format_transfer_table", "write_metrics_csv"]

# Orientation per metric column: is larger better? A column's label is
# its key marked "^" when larger is better and "_v" when smaller is.
HIGHER_BETTER = {
    "accuracy": True,
    "ap": True,
    "ece": False,
    "mce": False,
    "max_gap": False,
    "auroc_ood": True,
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


def format_metrics_table(report) -> str:
    """Per-dataset blocks, one method per row, best-per-column starred."""
    methods = list(dict.fromkeys(r.method for r in report.rows))
    by_dataset: dict[str, dict] = {}
    for r in report.rows:
        by_dataset.setdefault(r.dataset, {}).setdefault(r.method, r)
    width = max(len(m) for m in methods) + 2
    col = 18
    lines = []
    labels = [k + ("^" if HIGHER_BETTER[k] else "_v") for k in METRIC_KEYS]
    header = "method".ljust(width) + "".join(label.rjust(col) for label in labels)
    for dataset, by_method in by_dataset.items():
        rows = [by_method[m] for m in methods if m in by_method]
        lines.append(f"== {dataset} ==")
        lines.append(header)
        marked = {
            k: _best_methods({r.method: r.values.get(k) for r in rows}, HIGHER_BETTER[k])
            for k in METRIC_KEYS
        }
        for r in rows:
            cells = [
                _fmt(r.values.get(k), starred=r.method in marked[k]).rjust(col)
                for k in METRIC_KEYS
            ]
            lines.append(r.method.ljust(width) + "".join(cells))
        lines.append("")
    lines.append("* best method in column, ahead of the runner-up by more than one std")
    lines.append(report.footer)
    return "\n".join(lines) + "\n"


def _csv(rows) -> str:
    """CSV text of ``rows`` (LF line ends; floats as shortest round-trip reprs)."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _metrics_rows(report):
    header = ["method", "dataset", "n_runs"]
    for k in METRIC_KEYS:
        header.extend([f"{k}_mean", f"{k}_std"])
    yield header
    for row in report.rows:
        out = [row.method, row.dataset, row.n_runs]
        for k in METRIC_KEYS:
            out.extend(row.values.get(k) or ("", ""))
        yield out


def write_metrics_csv(report, fh) -> None:
    """Write the metric rows as CSV (full-precision means and stds) to ``fh``."""
    fh.write(_csv(_metrics_rows(report)))


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


def _transfer_rows(transfers: dict[str, TransferMatrix]):
    yield ["method", "source", "target", "n_seeds", "n_all_rejected", "metric", "mean", "std",
           "n_used"]
    for method, matrix in transfers.items():
        for (source, target), entry in matrix.cells.items():
            for metric in ("accuracy", "ap", "fraction_retained", "threshold"):
                yield [method, source, target, entry["n_seeds"], entry["n_all_rejected"], metric,
                       *(entry[metric] or ("", "", 0))]


def _retained_pairs(transfers: dict[str, TransferMatrix], id_val_tag: str) -> dict[str, str]:
    """Target -> threshold source of the fraction-retained table.

    The targets are every method's datasets but the validation set, in
    first-seen order. The near and far shifted sets take each other as
    threshold source; any remaining dataset takes the nearest shifted set.
    Falls back to the first other target for unrecognized ladders.
    """
    tags = dict.fromkeys(t for matrix in transfers.values() for t in matrix.targets)
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


def _retained_table(transfers: dict[str, TransferMatrix], id_val_tag: str) -> str:
    """A method without a (source, target) cell shows "-" in it."""
    pairs = _retained_pairs(transfers, id_val_tag)
    col = 24
    width = max(len(m) for m in transfers) + 2
    lines = ["== fraction retained after rejection (threshold source in header) =="]
    lines.append("".ljust(width) + "".join(f"{t} (<-{s})".rjust(col) for t, s in pairs.items()))
    for method, matrix in transfers.items():
        cells = []
        for target, source in pairs.items():
            entry = matrix.cells.get((source, target))
            if entry is None:
                cells.append("-".rjust(col))
            elif entry["n_all_rejected"] == entry["n_seeds"]:
                cells.append(REJECTED_TOKEN.rjust(col))
            else:
                cells.append(_fmt(entry["fraction_retained"][:2]).rjust(col))
        lines.append(method.ljust(width) + "".join(cells))
    return "\n".join(lines) + "\n"


def _retained_rows(transfers: dict[str, TransferMatrix], id_val_tag: str):
    """One row per cell of the fraction-retained table that has an entry."""
    yield ["method", "target", "source", "mean", "std", "n_used", "n_all_rejected"]
    pairs = _retained_pairs(transfers, id_val_tag)
    for method, matrix in transfers.items():
        for target, source in pairs.items():
            entry = matrix.cells.get((source, target))
            if entry is None:
                continue
            value = entry["fraction_retained"] or (0.0, 0.0, 0)  # None: every seed rejected all
            yield [method, target, source, *value, entry["n_all_rejected"]]


def _bars_rows(report, transfers: dict[str, TransferMatrix]):
    """Accuracy before vs after thresholding, per (method, source, target)."""
    yield ["method", "source", "target", "acc_before_mean", "acc_before_std", "acc_after_mean",
           "acc_after_std", "delta_mean"]
    for method, matrix in transfers.items():
        for (source, target), entry in matrix.cells.items():
            if source == target:
                continue
            before = report.row(method, target).values["accuracy"]
            after = entry["accuracy"]
            yield [method, source, target, *before[:2],
                   *(("", "", "") if after is None else (*after[:2], after[0] - before[0]))]


def _bin_rows(stats):
    """Reliability-diagram bins of one run on one dataset."""
    yield ["bin_lo", "bin_hi", "n", "acc", "con"]
    edges = stats.edges.tolist()
    yield from zip(edges[:-1], edges[1:], stats.counts.tolist(), stats.acc.tolist(),
                   stats.con.tolist())


def emit_report(report, transfers: dict[str, TransferMatrix], outdir, id_val_tag: str = "id-val") -> list[Path]:
    """Write every report artifact into ``outdir`` and list the paths."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    if not report.rows:
        raise DataError("cannot emit an empty report")
    files = {
        "metrics.txt": format_metrics_table(report),
        "metrics.csv": _csv(_metrics_rows(report)),
    }
    if transfers:
        for metric in ("accuracy", "ap"):
            files[f"transfer_{metric}.txt"] = "".join(
                format_transfer_table(matrix, metric) + "\n" for matrix in transfers.values()
            )
        files["transfer.csv"] = _csv(_transfer_rows(transfers))
        files["fraction_retained.txt"] = _retained_table(transfers, id_val_tag)
        files["fraction_retained.csv"] = _csv(_retained_rows(transfers, id_val_tag))
        files["threshold_bars.csv"] = _csv(_bars_rows(report, transfers))
    for (method, dataset, run_index), stats in report.bins.items():
        name = f"{method}_{dataset}_run{run_index}.csv"
        # Checked before anything is written: a separator would leave outdir,
        # and a control character (a line break, say) would sit in a file name.
        if any(c in "/\\\x7f" or c < " " for c in name):
            raise DataError(f"method {method!r} on {dataset!r} cannot name a report file")
        files[f"reliability/{name}"] = _csv(_bin_rows(stats))
    (out / "reliability").mkdir(exist_ok=True)
    written = [out / name for name in files]
    for path, text in zip(written, files.values()):
        path.write_text(text, encoding="utf-8", newline="\n")
    return written
