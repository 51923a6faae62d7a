import csv
import io
import re

import numpy as np
import pytest

from uqlab.errors import DataError
from uqlab.experiment import MetricsReport, ReportRow
from uqlab.metrics import bin_stats
from uqlab.report import (
    REJECTED_TOKEN,
    emit_report,
    format_metrics_table,
    format_transfer_table,
    write_metrics_csv,
)
from uqlab.rng import make_rng
from uqlab.selective import TransferMatrix
from uqlab.uq import PredictionSet


def report_with(rows):
    return MetricsReport(rows=rows, bins={})


def row(method, dataset, acc, std, **extra):
    values = {
        "accuracy": (acc, std),
        "ap": extra.get("ap", (0.5, 0.01)),
        "ece": extra.get("ece", (0.1, 0.01)),
        "mce": extra.get("mce", (0.05, 0.01)),
        "max_gap": extra.get("max_gap", (0.2, 0.01)),
        "auroc_ood": extra.get("auroc", None),
    }
    return ReportRow(method, dataset, 4, values)


def matrix_with_cell(method="msp", n_all_rejected=0, n_seeds=4, accuracy=(0.8, 0.1, 4)):
    m = TransferMatrix(method, ["id-val", "ood-x"], ["id-val", "ood-x"])
    for s in m.sources:
        for t in m.targets:
            m.cells[(s, t)] = {
                "n_seeds": n_seeds,
                "n_all_rejected": 0,
                "accuracy": accuracy,
                "ap": (0.7, 0.05, 4),
                "fraction_retained": (0.6, 0.1, 4),
                "threshold": (0.4, 0.0, 4),
            }
    cell = dict(m.cells[("ood-x", "ood-x")])
    cell["n_all_rejected"] = n_all_rejected
    if n_all_rejected == n_seeds:
        cell.update({"accuracy": None, "ap": None, "fraction_retained": None})
    else:
        cell["accuracy"] = (accuracy[0], accuracy[1], n_seeds - n_all_rejected)
    m.cells[("ood-x", "ood-x")] = cell
    return m


class TestMetricsTable:
    def test_single_method_has_no_marking(self):
        table = format_metrics_table(report_with([row("msp", "val", 0.9, 0.01)]))
        assert "*" not in table.split("\n")[2]

    def test_clear_winner_marked(self):
        rows = [
            row("a", "val", 0.9, 0.01),
            row("b", "val", 0.7, 0.01),
        ]
        table = format_metrics_table(report_with(rows))
        line_a = next(l for l in table.splitlines() if l.startswith("a"))
        assert "0.900 +/- 0.010*" in line_a

    def test_within_one_std_not_marked(self):
        rows = [
            row("a", "val", 0.90, 0.15),
            row("b", "val", 0.85, 0.01),
        ]
        table = format_metrics_table(report_with(rows))
        line_a = next(l for l in table.splitlines() if l.startswith("a"))
        assert "0.900 +/- 0.150*" not in line_a

    def test_lower_is_better_for_ece(self):
        rows = [
            row("a", "val", 0.9, 0.2, ece=(0.02, 0.001)),
            row("b", "val", 0.9, 0.2, ece=(0.30, 0.001)),
        ]
        table = format_metrics_table(report_with(rows))
        line_a = next(l for l in table.splitlines() if l.startswith("a"))
        assert "0.020 +/- 0.001*" in line_a

    def test_missing_auroc_renders_dash(self):
        table = format_metrics_table(report_with([row("msp", "id-val", 0.9, 0.01)]))
        line = next(l for l in table.splitlines() if l.startswith("msp"))
        assert line.rstrip().endswith("-")

    def test_three_decimal_parse_back(self):
        mean, std = 0.88672341, 0.03141
        table = format_metrics_table(report_with([row("msp", "val", mean, std)]))
        line = next(l for l in table.splitlines() if l.startswith("msp"))
        found = re.findall(r"(\d\.\d{3}) \+/- (\d\.\d{3})", line)
        assert (f"{mean:.3f}", f"{std:.3f}") in found


def test_metrics_csv_quotes_a_carriage_return_in_a_name():
    buf = io.StringIO()
    rows = [row("m\rx", "id-val", 0.9, 0.01), row("msp", "a\rb", 0.8, 0.0)]
    write_metrics_csv(report_with(rows), buf)
    text = buf.getvalue()
    assert '"m\rx",id-val,' in text and 'msp,"a\rb",' in text
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert [r[:2] for r in rows[1:]] == [["m\rx", "id-val"], ["msp", "a\rb"]]


class TestTransferTable:
    def test_partial_rejection_footnote(self):
        m = matrix_with_cell(n_all_rejected=1)
        text = format_transfer_table(m, "accuracy")
        assert "*" in text
        assert "averaged over 3 runs" in text
        assert "rejected for 1 run(s)" in text

    def test_total_rejection_token(self):
        m = matrix_with_cell(n_all_rejected=4)
        text = format_transfer_table(m, "accuracy")
        assert REJECTED_TOKEN in text

    def test_no_rejection_no_footnote(self):
        m = matrix_with_cell()
        text = format_transfer_table(m, "accuracy")
        assert "rejected" not in text


class TestEmit:
    def test_emit_writes_everything(self, tmp_path):
        report = report_with(
            [row("msp", "id-val", 0.9, 0.01), row("msp", "ood-x", 0.7, 0.02, auroc=(0.8, 0.01))]
        )
        transfers = {"msp": matrix_with_cell()}
        written = emit_report(report, transfers, tmp_path)
        names = {p.name for p in written}
        assert {"metrics.txt", "metrics.csv", "transfer_accuracy.txt", "transfer_ap.txt",
                "transfer.csv", "fraction_retained.txt", "fraction_retained.csv",
                "threshold_bars.csv"} <= names
        with open(tmp_path / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["method"] == "msp"
        assert float(rows[0]["accuracy_mean"]) == 0.9
        assert rows[0]["auroc_ood_mean"] == ""

    def test_bin_export(self, tmp_path):
        rng = make_rng(7)
        logits = rng.standard_normal((1, 100, 2)) * 3.0
        labels = rng.integers(0, 2, size=100)
        pred = PredictionSet.from_logits("msp", 0, "r", labels, logits, np.array([-1]),
                                         np.arange(100))
        stats = bin_stats(pred, 15)
        report = MetricsReport(rows=[row("msp", "r", 0.9, 0.01)], bins={("msp", "r", 0): stats})
        path = tmp_path / "reliability" / "msp_r_run0.csv"
        assert path in emit_report(report, {}, tmp_path)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_lo,bin_hi,n,acc,con"
        assert len(lines) == 16
        for i, line in enumerate(lines[1:]):
            lo, hi, n, acc, con = line.split(",")
            assert (float(lo), float(hi)) == (stats.edges[i], stats.edges[i + 1])
            assert (int(n), float(acc), float(con)) == (stats.counts[i], stats.acc[i], stats.con[i])

    def test_bars_csv_delta(self, tmp_path):
        report = report_with(
            [row("msp", "id-val", 0.9, 0.01), row("msp", "ood-x", 0.7, 0.02, auroc=(0.8, 0.01))]
        )
        transfers = {"msp": matrix_with_cell(accuracy=(0.85, 0.02, 4))}
        emit_report(report, transfers, tmp_path)
        with open(tmp_path / "threshold_bars.csv") as fh:
            rows = {(r["source"], r["target"]): r for r in csv.DictReader(fh)}
        cell = rows[("id-val", "ood-x")]
        assert float(cell["acc_before_mean"]) == 0.7
        assert float(cell["acc_after_mean"]) == 0.85
        assert float(cell["delta_mean"]) == pytest.approx(0.15)

    def test_footer_documents_population_std(self, tmp_path):
        report = report_with([row("msp", "id-val", 0.9, 0.01)])
        emit_report(report, {}, tmp_path)
        text = (tmp_path / "metrics.txt").read_text()
        assert "population standard deviation" in text

    @pytest.mark.parametrize(
        "char", [*map(chr, range(0x20)), "\x7f", "/", "\\"], ids=lambda c: f"U+{ord(c):04X}"
    )
    @pytest.mark.parametrize("field", ["method", "dataset"])
    def test_name_with_a_control_character_or_separator_refused(self, tmp_path, field, char):
        name = f"a{char}b"
        method, dataset = (name, "r") if field == "method" else ("msp", name)
        pred = PredictionSet.from_logits(method, 0, dataset, np.array([0, 1]),
                                         np.zeros((1, 2, 2)), np.array([-1]), np.arange(2))
        report = MetricsReport(rows=[row(method, dataset, 0.5, 0.0)],
                               bins={(method, dataset, 0): bin_stats(pred, 15)})
        with pytest.raises(DataError, match="cannot name a report file"):
            emit_report(report, {}, tmp_path / "out")
        assert not any(p.is_file() for p in tmp_path.rglob("*"))

    def test_printable_names_kept_as_written(self, tmp_path):
        method, dataset = "m é~", "d! x"
        pred = PredictionSet.from_logits(method, 0, dataset, np.array([0, 1]),
                                         np.zeros((1, 2, 2)), np.array([-1]), np.arange(2))
        report = MetricsReport(rows=[row(method, dataset, 0.5, 0.0)],
                               bins={(method, dataset, 0): bin_stats(pred, 15)})
        written = emit_report(report, {}, tmp_path)
        assert tmp_path / "reliability" / f"{method}_{dataset}_run0.csv" in written
