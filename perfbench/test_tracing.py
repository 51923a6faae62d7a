"""Tests of the tracer's self-time rule and span-coverage guard.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_tracing.py
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402


def span(name, parent, start, end, info=None):
    return [name, parent, start, end, info]


def test_self_time_is_duration_minus_child_cover():
    spans = [
        span("cli.main", -1, 0.0, 10.0),
        span("experiment.run_experiment", 0, 1.0, 9.0),
        span("mlp.train", 1, 2.0, 5.0),
        span("mlp.train", 1, 5.0, 6.0),
        span("linalg.power_iter_step", 2, 3.0, 4.0),
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 4.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [span("a", -1, 0.0, 10.0), span("b", 0, 1.0, 5.0), span("c", 0, 3.0, 7.0)]
    assert tracing.self_times(spans)[0] == pytest.approx(4.0)


def test_layer_metrics_use_self_time_and_nesting():
    spans = [
        span("uq.train_sngp", -1, 0.0, 10.0, {"steps": 100}),
        span("linalg.power_iter_converge", 0, 1.0, 3.0),
        span("linalg.power_iter_step", 1, 1.0, 2.0),
        span("linalg.power_iter_step", 1, 2.0, 3.0),
        span("linalg.power_iter_step", 0, 4.0, 5.0),
        span("metrics.ece", -1, 10.0, 12.0),
        span("metrics.bin_stats", 5, 10.5, 11.5),
    ]
    m = tracing.layer_metrics(spans)
    assert m["uq.train_sngp.self_s"] == pytest.approx(7.0)
    assert m["uq.train_sngp.step_us"] == pytest.approx(1e5)
    assert m["linalg.power_iter_step.calls"] == 3
    assert m["linalg.power_iter_converge.iters"] == 2
    assert m["metrics.calls"] == 1
    assert m["metrics.s"] == pytest.approx(2.0)


def test_coverage_guard_names_missing_spans():
    spans = [span(name, -1, 0.0, 1.0) for name in tracing.REQUIRED_SPANS["external-report"]]
    tracing.check_coverage(spans, "external-report")
    without_load = [s for s in spans if s[0] != "predfile.load_predictions"]
    with pytest.raises(tracing.CoverageError, match="predfile.load_predictions"):
        tracing.check_coverage(without_load, "external-report")


def test_tracer_follows_functions_imported_under_another_name():
    import uqlab.experiment
    import uqlab.predfile

    original = uqlab.predfile.load_predictions
    uqlab.experiment.load_alias = original
    try:
        with tracing.Tracer(layers=("predfile",)) as tracer:
            assert uqlab.experiment.load_alias is not original
            with pytest.raises(FileNotFoundError):
                uqlab.experiment.load_alias(HERE / "no-such-file.csv")
        assert uqlab.experiment.load_alias is original
        assert uqlab.predfile.load_predictions is original
        assert [s[0] for s in tracer.spans] == ["predfile.load_predictions"]
    finally:
        del uqlab.experiment.load_alias
