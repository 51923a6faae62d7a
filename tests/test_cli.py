import json

import pytest

from uqlab.cli import main
from uqlab.data import LadderSpec, load_dataset
from uqlab.experiment import ExperimentConfig, save_config
from uqlab.predfile import HEADER


@pytest.fixture()
def tiny_config(tmp_path):
    cfg = ExperimentConfig(
        seeds=(0,),
        methods=("msp", "sngp"),
        hidden_sizes=(8,),
        sngp_rff_dim=32,
        epochs=4,
        ensemble_members=2,
        ensemble_replicates=1,
        ladder=LadderSpec(n_train=80, n_val=64, n_ood=64, n_novel=32),
    )
    path = tmp_path / "config.json"
    save_config(cfg, path)
    return path


def test_synth_writes_datasets(tmp_path, tiny_config, capsys):
    out = tmp_path / "data"
    assert main(["synth", "--config", str(tiny_config), "--out", str(out)]) == 0
    ds = load_dataset(out / "id-train_seed0.csv")
    assert len(ds) == 80
    assert (out / "ood-novel_seed0.csv").exists()


def test_train_writes_checkpoints(tmp_path, tiny_config):
    out = tmp_path / "models"
    code = main(
        ["train", "--config", str(tiny_config), "--methods", "msp", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads((out / "checkpoints" / "msp_seed0.json").read_text())
    assert doc["format"] == "uqlab-mlp"
    assert doc["trained"] is True


def test_run_then_eval_threshold_report(tmp_path, tiny_config, capsys):
    out = tmp_path / "run"
    assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "== id-val ==" in captured
    predictions = sorted(str(p) for p in (out / "predictions").iterdir())

    assert main(["eval", *predictions, "--format", "table"]) == 0
    table = capsys.readouterr().out
    assert "sngp" in table and "auroc_ood^" in table

    assert main(["eval", *predictions, "--format", "csv"]) == 0
    csv_out = capsys.readouterr().out
    assert csv_out.startswith("method,dataset,n_runs")

    assert main(["threshold", *predictions]) == 0
    text = capsys.readouterr().out
    assert "threshold set on" in text

    report_dir = tmp_path / "report"
    assert main(["report", *predictions, "--out", str(report_dir)]) == 0
    assert (report_dir / "metrics.csv").exists()
    assert (report_dir / "transfer.csv").exists()


def test_usage_error_exit_code_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["definitely-not-a-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["synth"])  # missing required --out
    assert exc.value.code == 1


def test_missing_file_exit_code_2(tmp_path):
    assert main(["eval", str(tmp_path / "nope.csv")]) == 2


def test_bad_config_exit_code_2(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{}", encoding="utf-8")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_numerical_failure_exit_code_3(tmp_path, capsys):
    # A learning rate this large drives the weights, and so the training
    # logits, to non-finite values in the first epoch.
    cfg = ExperimentConfig(
        seeds=(0,),
        methods=("msp",),
        hidden_sizes=(8,),
        epochs=2,
        learning_rate=1e300,
        ladder=LadderSpec(n_train=80, n_val=64, n_ood=64, n_novel=32),
    )
    path = tmp_path / "config.json"
    save_config(cfg, path)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row, what",
    [
        ("0,id-val,msp,0,-1,7,0.0,1.0", "label must be 0 or 1"),
        ("0,id-val,msp,0,-1,1,inf,0.0", "logits must be finite"),
        ("0,id-val,msp,0,-1,1,nan,0.0", "logits must be finite"),
    ],
)
def test_bad_label_or_non_finite_logit_exit_code_2(tmp_path, capsys, row, what):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(HEADER) + "\n" + row + "\n", encoding="utf-8")
    assert main(["eval", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"line 2: {what}" in err


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
