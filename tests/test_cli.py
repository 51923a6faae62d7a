import csv
import dataclasses
import io
import json
import math
import os
import select
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import uqlab
from uqlab import cli, experiment
from uqlab._entry import BLAS_THREAD_VARS
from uqlab.cli import main
from uqlab.data import LadderSpec, load_dataset
from uqlab.errors import DataError
from uqlab.experiment import ExperimentConfig, load_config, save_config
from uqlab.metrics import METRIC_KEYS
from uqlab.mlp import load_checkpoint
from uqlab.predfile import HEADER, load_predictions, save_predictions
from uqlab.rng import derive_seed
from uqlab.uq import PredictionSet

import fault_seams
from fault_seams import FILES, PLAN


# Runs the uqlab command with a fixed number of training workers (the first
# argument), whatever the CPUs and BLAS threads of the machine.
_WITH_WORKERS = (
    "import sys; from uqlab import cli, experiment; "
    "experiment._pool_size = lambda n_tasks, n=int(sys.argv.pop(1)): min(n, n_tasks)"
)


def _uqlab_command(*argv, workers=None, setup="") -> dict:
    """The ``subprocess`` arguments that run the uqlab command in a fresh
    interpreter with BLAS pinned to one thread.

    ``workers`` fixes the number of worker processes that train the dense
    networks; ``None`` leaves the choice to ``experiment._pool_size``.
    With ``workers`` given, the Python statements ``setup`` run first.
    """
    src = str(Path(uqlab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = "\n".join(filter(None, [_WITH_WORKERS, setup, "sys.exit(cli.main(sys.argv[1:]))"]))
    head = ["-m", "uqlab.cli"] if workers is None else ["-c", code, str(workers)]
    return {
        "args": [sys.executable, *head, *map(str, argv)],
        "env": {**os.environ, "PYTHONPATH": path, **dict.fromkeys(BLAS_THREAD_VARS, "1")},
    }


def _uqlab(*argv, workers=None, setup="") -> subprocess.CompletedProcess:
    """Run the uqlab command (see ``_uqlab_command``) and capture its output."""
    return subprocess.run(
        **_uqlab_command(*argv, workers=workers, setup=setup), capture_output=True, text=True
    )


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


# A file that only the given seed, 7, writes.
SEED_7_FILE = {
    "synth": "id-train_seed7.csv",
    "train": "checkpoints/msp_seed7.json",
    "run": "predictions/msp_run0.csv",
}


@pytest.mark.parametrize("command", ["synth", "train", "run"])
def test_seed_flag_runs_that_seed_alone(tmp_path, monkeypatch, capsys, command):
    # --seed 7 on a two-seed config writes and prints what the config with
    # seeds [7] writes and prints.
    cfg = ExperimentConfig(
        seeds=(0, 1), methods=("msp",), hidden_sizes=(8,), epochs=2,
        ladder=LadderSpec(n_train=40, n_val=20, n_ood=20, n_novel=8),
    )
    save_config(cfg, both := tmp_path / "both.json")
    save_config(dataclasses.replace(cfg, seeds=(7,)), alone := tmp_path / "alone.json")

    def outcome(cwd, *argv):
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main([command, *argv, "--out", "out"]) == 0
        out = cwd / "out"
        files = {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        return capsys.readouterr(), files

    captured, files = outcome(tmp_path / "flag", "--config", str(both), "--seed", "7")
    assert (captured, files) == outcome(tmp_path / "config", "--config", str(alone))
    assert captured.err == "" and SEED_7_FILE[command] in files
    assert not any(name in path for path in files for name in ("seed0", "seed1", "_run1"))


def test_train_writes_checkpoints(tmp_path, tiny_config):
    out = tmp_path / "models"
    code = main(
        ["train", "--config", str(tiny_config), "--methods", "msp", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads((out / "checkpoints" / "msp_seed0.json").read_text())
    assert doc["format"] == "uqlab-mlp"
    assert doc["trained"] is True


def test_train_writes_checkpoints_only(tmp_path, tiny_config):
    # Training predicts nothing, so no prediction file or directory appears.
    out = tmp_path / "models"
    methods = ",".join(experiment.KNOWN_METHODS)
    argv = ["train", "--config", str(tiny_config), "--methods", methods, "--out", str(out)]
    assert main(argv) == 0
    names = ["dropout_seed0", "ensemble_rep0_member0", "ensemble_rep0_member1", "msp_seed0",
             "sngp_seed0"]
    files = ["checkpoints", *(f"checkpoints/{name}.json" for name in names)]
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == files


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


def test_eval_needs_only_the_id_val_set(tmp_path, capsys):
    # eval prints no transfer, so a file of the ID-validation set alone is
    # enough for it; threshold and report transfer thresholds across sets.
    rng = np.random.default_rng(4)
    pred = PredictionSet.from_logits("msp", 0, "id-val", rng.integers(0, 2, 8),
                                     rng.standard_normal((1, 8, 2)), [-1], range(8))
    path = tmp_path / "preds.csv"
    save_predictions(pred, path)
    assert main(["eval", str(path)]) == 0
    assert "== id-val ==" in capsys.readouterr().out
    for argv in (["threshold", str(path)], ["report", str(path), "--out", str(tmp_path / "o")]):
        assert main(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "uqlab: error: threshold transfer needs at least two datasets"


def test_threshold_without_out_builds_no_report(tmp_path, capsys, monkeypatch):
    # threshold prints the transfer matrices only; the metric report is
    # built for --out's files alone.
    rng = np.random.default_rng(5)
    sets = [
        PredictionSet.from_logits("msp", 0, tag, rng.integers(0, 2, 16),
                                  rng.standard_normal((1, 16, 2)), [-1], range(16))
        for tag in ("id-val", "ood-near", "ood-far")
    ]
    path = tmp_path / "preds.csv"
    save_predictions(sets, path)
    assert main(["threshold", str(path)]) == 0
    expected = capsys.readouterr().out

    def no_report(*args, **kwargs):
        raise DataError("the report was built")

    monkeypatch.setattr(cli, "build_report", no_report)
    assert main(["threshold", str(path)]) == 0
    assert capsys.readouterr().out == expected
    assert main(["threshold", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "uqlab: error: the report was built\n"


def test_eval_csv_quotes_a_carriage_return_in_a_name(tmp_path, capsys):
    # csv.writer with LF line ends leaves a bare CR unquoted; each writer on
    # the way (prediction file, metrics CSV) must quote it.
    rng = np.random.default_rng(3)
    sets = [
        PredictionSet.from_logits("m\rx", 0, tag, rng.integers(0, 2, 8),
                                  rng.standard_normal((1, 8, 2)), [-1], range(8))
        for tag in ("id-val", "ood\rnear")
    ]
    path = tmp_path / "preds.csv"
    save_predictions(sets, path)
    assert main(["eval", str(path), "--format", "csv"]) == 0
    table = list(csv.DictReader(io.StringIO(capsys.readouterr().out, newline="")))
    names = [(r["method"], r["dataset"]) for r in table]
    assert names == [("m\rx", "id-val"), ("m\rx", "ood\rnear")]


# config.json as earlier versions wrote it for the criterion-09 config, with
# the "jitter" block of metadata that no code read and the two keys of the
# report mode that a ladder run held at these values.
LEGACY_CRITERION_09 = {
    "schema_version": 1,
    "seeds": [0, 1],
    "methods": ["msp", "dropout", "ensemble", "sngp"],
    "model": {"hidden_sizes": [16, 16], "spectral_bound": 4.0},
    "train": {"learning_rate": 0.001, "weight_decay": 1e-05, "epochs": 12, "batch_size": 128},
    "dropout": {"rate": 0.5, "passes": 8},
    "ensemble": {"members": 2, "replicates": 2},
    "sngp": {"rff_dim": 128, "length_scale": 2.0, "ridge": 1.0},
    "ladder": {
        "n_train": 256, "n_val": 200, "n_ood": 200, "n_novel": 80, "noise": 0.1,
        "near": {"translation": [0.4, 0.2], "rotation": 0.0, "scale": 1.0,
                 "noise_inflation": 1.15},
        "far": {"translation": [2.4, 1.2], "rotation": 0.5235987755982988, "scale": 1.0,
                "noise_inflation": 1.0},
    },
    "jitter": {"brightness": 0.0, "contrast": 0.0, "saturation": 0.1, "hue": 0.1},
    "id_val_tag": "id-val",
    "external_predictions": None,
}


def test_config_with_a_legacy_jitter_block_loads_and_runs(tmp_path, capsys):
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps(LEGACY_CRITERION_09, indent=2) + "\n", encoding="utf-8")
    assert load_config(path) == ExperimentConfig(
        seeds=(0, 1), hidden_sizes=(16, 16), mc_passes=8, ensemble_members=2,
        ensemble_replicates=2, sngp_rff_dim=128, epochs=12,
        ladder=LadderSpec(n_train=256, n_val=200, n_ood=200, n_novel=80),
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    # The echoed config is the legacy one without its jitter block and retired keys.
    echoed = json.loads((out / "config.json").read_text(encoding="utf-8"))
    retired = ("jitter", "id_val_tag", "external_predictions")
    legacy = {key: value for key, value in LEGACY_CRITERION_09.items() if key not in retired}
    assert list(echoed.items()) == list(legacy.items())


@pytest.mark.parametrize("command", ["run", "train"])
@pytest.mark.parametrize(
    "key, value", [("external_predictions", ["x.csv"]), ("id_val_tag", "ood-far")]
)
def test_retired_key_at_another_value_exit_code_2(tmp_path, capsys, command, key, value):
    # Only the value every earlier echo held loads: a config that asks for
    # the report mode, or for another ID-validation set, is refused.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema_version": 1, key: value}), encoding="utf-8")
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"uqlab: error: config.{key}: unknown key"


def test_usage_error_exit_code_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["definitely-not-a-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["synth"])  # missing required --out
    assert exc.value.code == 1


def test_missing_file_exit_code_2(tmp_path):
    assert main(["eval", str(tmp_path / "nope.csv")]) == 2


def _run_config_error(tmp_path, capsys, text: str) -> str:
    """Run ``uqlab run`` on config ``text``; require exit 2 and one stderr line."""
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()  # rejected before anything ran
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.splitlines()
    assert line.startswith("uqlab: error: ")
    return line


def test_bad_config_exit_code_2(tmp_path, capsys):
    assert "schema_version" in _run_config_error(tmp_path, capsys, "{}")


def test_config_that_is_a_json_array_exit_code_2(tmp_path, capsys):
    line = _run_config_error(tmp_path, capsys, '[{"schema_version": 1}]')
    assert line == "uqlab: error: config must be a JSON object"


# Each entry: a config body (beside schema_version) and the key path the
# error must name.
BAD_CONFIGS = [
    ({"seeds": "ab"}, "seeds"),
    ({"seeds": [True]}, "seeds[0]"),
    ({"methods": "msp"}, "methods"),
    ({"model": []}, "model"),
    ({"model": {"hidden_sizes": [8, 8.5]}}, "model.hidden_sizes[1]"),
    ({"model": {"spectral_bound": None}}, "model.spectral_bound"),
    ({"train": {"epochs": "x"}}, "train.epochs"),
    ({"train": {"epochs": 2.5}}, "train.epochs"),
    ({"train": {"epoch": 5}}, "train.epoch"),
    ({"dropout": {"passes": True}}, "dropout.passes"),
    ({"ensemble": {"members": "4"}}, "ensemble.members"),
    ({"sngp": {"rff_dim": 64, "rff": 64}}, "sngp.rff"),
    ({"ladder": {"n_val": "9"}}, "ladder.n_val"),
    ({"ladder": {"n_vol": 9}}, "ladder.n_vol"),
    ({"ladder": {"near": 5}}, "ladder.near"),
    ({"ladder": {"near": {"translation": 0.4}}}, "ladder.near.translation"),
    ({"ladder": {"far": {"shear": 0.1}}}, "ladder.far.shear"),
    ({"id_val_tag": 3}, "id_val_tag"),
    ({"external_predictions": "f.csv"}, "external_predictions"),
    ({"epoch": 5}, "epoch"),
]


# Config bodies of the right JSON types whose values the config objects
# reject, and the key path the error must name.
OUT_OF_RANGE_CONFIGS = [
    ({"ladder": {"n_train": 0}}, "ladder.n_train"),
    ({"ladder": {"n_val": 0}}, "ladder.n_val"),
    ({"ladder": {"n_ood": -1}}, "ladder.n_ood"),
    ({"ladder": {"n_novel": 0}}, "ladder.n_novel"),
    ({"ladder": {"far": {"scale": 0}}}, "ladder.far.scale"),
    ({"methods": ["msp", "sngp"], "model": {"hidden_sizes": []}}, "model.hidden_sizes"),
    ({"seeds": []}, "seeds"),
    ({"ensemble": {"replicates": 0}}, "ensemble.replicates"),
    ({"ensemble": {"members": 1}}, "ensemble.members"),
    ({"dropout": {"rate": 1.5}}, "dropout.rate"),
    ({"dropout": {"passes": 0}}, "dropout.passes"),
    ({"sngp": {"rff_dim": 0}}, "sngp.rff_dim"),
    ({"sngp": {"length_scale": 0}}, "sngp.length_scale"),
    ({"sngp": {"ridge": 0}}, "sngp.ridge"),
    ({"train": {"learning_rate": -0.1}}, "train.learning_rate"),
    ({"train": {"weight_decay": -1}}, "train.weight_decay"),
    ({"train": {"epochs": 0}}, "train.epochs"),
    ({"train": {"batch_size": 0}}, "train.batch_size"),
    ({"model": {"spectral_bound": 0}}, "model.spectral_bound"),
    ({"ladder": {"noise": -0.1}}, "ladder.noise"),
    # json.load reads NaN and Infinity; no config number may be non-finite.
    ({"ladder": {"noise": math.nan}}, "ladder.noise"),
    ({"train": {"learning_rate": math.nan}}, "train.learning_rate"),
    ({"train": {"learning_rate": math.inf}}, "train.learning_rate"),
    ({"ladder": {"near": {"translation": [0.4, -math.inf]}}}, "ladder.near.translation[1]"),
    # The ladder is 2-D: a shift translates both features, no more.
    ({"ladder": {"near": {"translation": [0.4, 0.2, 0.0]}}}, "ladder.near.translation"),
    ({"ladder": {"near": {"translation": []}}}, "ladder.near.translation"),
    ({"ladder": {"far": {"translation": [2.4, 1.2, 0.0]}}}, "ladder.far.translation"),
    ({"ladder": {"far": {"translation": []}}}, "ladder.far.translation"),
    # A size past int64 fits no array; numpy would reject it only mid-run.
    ({"ladder": {"n_train": 10**30}}, "ladder.n_train"),
    ({"sngp": {"rff_dim": 10**30}}, "sngp.rff_dim"),
    ({"model": {"hidden_sizes": [8, 10**30]}}, "model.hidden_sizes"),
    ({"model": {"hidden_sizes": [8, 0]}}, "model.hidden_sizes"),
    # A retired key loads only at the value that earlier versions wrote.
    ({"id_val_tag": "val"}, "id_val_tag"),
]


def _ids(cases) -> list[str]:
    """Each case's key path; a repeated path also shows the case's body, so a
    case added for a path does not rename the ids before it."""
    keys = [key for _, key in cases]
    return [
        key if keys.index(key) == i else f"{key}={json.dumps(doc, separators=(',', ':'))}"
        for i, (doc, key) in enumerate(cases)
    ]


@pytest.mark.parametrize("doc, key", BAD_CONFIGS, ids=[key for _, key in BAD_CONFIGS])
def test_malformed_config_exit_code_2(tmp_path, capsys, doc, key):
    line = _run_config_error(tmp_path, capsys, json.dumps({"schema_version": 1, **doc}))
    assert f"config.{key}:" in line


@pytest.mark.parametrize("doc, key", OUT_OF_RANGE_CONFIGS, ids=_ids(OUT_OF_RANGE_CONFIGS))
def test_out_of_range_config_exit_code_2(tmp_path, capsys, doc, key):
    line = _run_config_error(tmp_path, capsys, json.dumps({"schema_version": 1, **doc}))
    assert f"config.{key}:" in line


def test_synth_rejects_a_translation_of_three_components(tmp_path, capsys):
    path = tmp_path / "config.json"
    doc = {"schema_version": 1, "ladder": {"far": {"translation": [2.4, 1.2, 0.0]}}}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("uqlab: error: config.ladder.far.translation: ")


@pytest.mark.parametrize("command", ["run", "train"])
def test_size_past_the_address_space_exit_code_2(tmp_path, capsys, command):
    # 2**50 random features of 8 hidden units take 2**56 bytes, past any
    # 64-bit address space: the allocation fails at once, touching no memory.
    doc = {
        "schema_version": 1,
        "seeds": [0],
        "methods": ["sngp"],
        "model": {"hidden_sizes": [8]},
        "train": {"epochs": 1},
        "sngp": {"rff_dim": 2**50},
        "ladder": {"n_train": 40, "n_val": 20, "n_ood": 20, "n_novel": 8},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("uqlab: error: seed=0 method=sngp stage=train: Unable to allocate ")


# A tiny dropout run: 20 samples in the largest eval set.
_TINY_DROPOUT = {
    "schema_version": 1,
    "seeds": [0],
    "methods": ["dropout"],
    "model": {"hidden_sizes": [8]},
    "train": {"epochs": 1},
    "ladder": {"n_train": 40, "n_val": 20, "n_ood": 20, "n_novel": 8},
}


def test_dropout_passes_past_the_largest_array_exit_code_2_at_once(tmp_path, capsys):
    # 2**62 passes of 20 samples' 2 logits fill no array: rejected at load,
    # before a single pass runs.
    doc = {**_TINY_DROPOUT, "dropout": {"passes": 2**62}}
    start = time.monotonic()
    line = _run_config_error(tmp_path, capsys, json.dumps(doc))
    assert time.monotonic() - start < 1.0
    assert line.startswith("uqlab: error: config.dropout.passes: must be <= ")


def test_dropout_passes_past_the_address_space_exit_code_2_at_once(tmp_path, capsys):
    # 2**50 passes fit an array's size, but its 2**58 bytes fit no 64-bit
    # address space: the prediction fails at its first allocation, touching
    # no memory, not after 2**50 passes.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**_TINY_DROPOUT, "dropout": {"passes": 2**50}}), encoding="utf-8")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("uqlab: error: seed=0 method=dropout stage=predict: Unable to allocate ")


# A tiny one-seed run of every method: 20 samples in the largest eval set.
_TINY_ALL = {
    **_TINY_DROPOUT,
    "methods": ["msp", "dropout", "ensemble", "sngp"],
    "dropout": {"passes": 2},
    "ensemble": {"members": 2, "replicates": 1},
    "sngp": {"rff_dim": 16},
}


def _sized(doc: dict, section: str, key: str, size: int) -> dict:
    """``doc`` with ``section.key`` set to ``size`` (an entry of a list key)."""
    value = [size] if key == "hidden_sizes" else size
    return {**doc, section: {**doc.get(section, {}), key: value}}


@pytest.mark.parametrize("command", ["run", "train"])
@pytest.mark.parametrize(
    "section, key",
    [("ladder", "n_train"), ("ladder", "n_val"), ("ladder", "n_ood"), ("ladder", "n_novel"),
     ("model", "hidden_sizes"), ("ensemble", "members"), ("ensemble", "replicates")],
)
def test_size_whose_bytes_pass_the_largest_array_exit_code_2_at_once(
    tmp_path, capsys, command, section, key
):
    # 2**62 is a valid count, but no array holds 2**62 samples of two float64
    # features, a layer of 2**62 units' float64 weights, the float64
    # parameters of 2**62 networks or the list of 2**62 replicates' networks:
    # rejected at load, before anything is allocated or looped over.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_sized(_TINY_ALL, section, key, 2**62)), encoding="utf-8")
    start = time.monotonic()
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert time.monotonic() - start < 1.0
    assert not (tmp_path / "o").exists()
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"uqlab: error: config.{section}.{key}: must be <= ")


@pytest.mark.parametrize("command", ["run", "train"])
def test_size_whose_bytes_pass_the_largest_array_names_the_stage(tmp_path, capsys, command):
    # 2**62 random features fit an array's size but not its float64 bytes:
    # numpy refuses the array at once with a ValueError, which ends, as a
    # failed allocation does, in one line that names the stage.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_sized(_TINY_ALL, "sngp", "rff_dim", 2**62)), encoding="utf-8")
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("uqlab: error: seed=0 method=sngp stage=train: array is too big")


@contextmanager
def _deadline(seconds: float):
    """Fail the test if the block still runs after ``seconds``, rather than wait
    for a loop over a count that passed the load check to end."""

    def expire(*_):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# The smallest ensemble networks: one hidden unit, one epoch, one-sample sets.
_SMALLEST_ENSEMBLE = {
    **_TINY_ALL,
    "methods": ["ensemble"],
    "model": {"hidden_sizes": [1]},
    "ladder": {"n_train": 1, "n_val": 1, "n_ood": 1, "n_novel": 1},
}


@pytest.mark.parametrize("command", ["run", "train"])
@pytest.mark.parametrize(
    "doc, key",
    [(_TINY_ALL, "members"), (_TINY_ALL, "replicates"), (_SMALLEST_ENSEMBLE, "members")],
    ids=["members", "replicates", "members-of-the-smallest-networks"],
)
def test_ensemble_count_past_the_address_space_exit_code_2_at_once(
    tmp_path, capsys, command, doc, key
):
    # 2**40 is within the largest array, but 2**40 tiny networks, or 2**40
    # replicates of two, hold more than a 47-bit address space: their
    # parameters and eval-set logits, and each network's Python objects,
    # which outweigh the smallest network's arrays. Rejected at load, before
    # the plan or a replicate's list of networks is built.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_sized(doc, "ensemble", key, 2**40)), encoding="utf-8")
    with _deadline(1.0):
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"uqlab: error: config.ensemble.{key}: must be <= ")


@pytest.mark.parametrize("command", ["run", "train", "synth"])
def test_ladder_too_large_for_memory_names_its_seed_and_stage(tmp_path, capsys, command):
    # 2**50 ID-validation samples are within the ladder's byte bound, but
    # their 2**49 float64 angles per moon fit no 64-bit address space: numpy
    # refuses the array at once, touching no memory, and the line names the
    # seed and the stage that builds the ladder.
    doc = {**_TINY_DROPOUT, "methods": ["msp"], "ladder": {**_TINY_DROPOUT["ladder"], "n_val": 2**50}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    start = time.monotonic()
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert time.monotonic() - start < 1.0
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("uqlab: error: seed=0 stage=ladder: Unable to allocate ")


@pytest.mark.skipif(sys.platform != "linux", reason="reads the address space from /proc")
def test_plan_too_large_for_memory_names_its_seed_and_stage(tmp_path):
    # 2**34 members of the smallest networks pass the load check, which bounds
    # the address space, not the memory: the list of the replicate's networks
    # fills the 8 MB this process may still map, and the line names the
    # seed, method and stage that builds it.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_sized(_SMALLEST_ENSEMBLE, "ensemble", "members", 2**34)))
    setup = (
        "import resource; "
        "vm = next(int(l.split()[1]) for l in open('/proc/self/status') if l.startswith('VmSize:')); "
        "resource.setrlimit(resource.RLIMIT_AS, "
        "((vm << 10) + (8 << 20), resource.getrlimit(resource.RLIMIT_AS)[1]))"
    )
    done = _uqlab("run", "--config", path, "--out", tmp_path / "o", workers=0, setup=setup)
    assert done.returncode == 2
    assert done.stderr == "uqlab: error: seed=0 method=ensemble stage=train-replicate-0: out of memory\n"


@pytest.mark.parametrize(
    "doc, argv, key",
    [
        ({"methods": ["msp", "msp"]}, [], "config.methods"),
        ({"seeds": [3, 4, 3]}, [], "config.seeds"),
        ({}, ["--methods", "msp,sngp,msp"], "methods"),
    ],
    ids=["config-methods", "config-seeds", "flag-methods"],
)
def test_duplicate_methods_or_seeds_exit_code_2(tmp_path, capsys, doc, argv, key):
    # A repeated method would write one prediction file twice; a repeated
    # seed would add identical runs to every mean and std.
    path = tmp_path / "config.json"
    small = {"seeds": [0], "train": {"epochs": 1}, "ladder": {"n_train": 40, "n_val": 20}}
    path.write_text(json.dumps({"schema_version": 1, **small, **doc}), encoding="utf-8")
    for command in ("run", "train"):
        out = tmp_path / command
        assert main([command, "--config", str(path), "--out", str(out), *argv]) == 2
        assert not out.exists()
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"uqlab: error: {key}: ")


def test_single_class_dataset_shows_undefined_ap(tmp_path, capsys):
    # The external OOD set holds only normal (label 0) samples, so its AP is
    # undefined; the report shows it as "-" and still computes the rest.
    rows = ["0,id-val,msp,0,-1,0,1.0,0.0", "1,id-val,msp,0,-1,1,0.0,1.0"]
    rows += [f"{i},ood-ext,msp,0,-1,0,{0.5 * i},0.0" for i in range(3)]
    path = tmp_path / "preds.csv"
    path.write_text(",".join(HEADER) + "\n" + "\n".join(rows) + "\n", encoding="utf-8")

    assert main(["eval", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    row = lines[lines.index("== ood-ext ==") + 2]
    width, col = len("msp") + 2, 18
    cells = {
        k: row[width + i * col : width + (i + 1) * col].strip() for i, k in enumerate(METRIC_KEYS)
    }
    assert row.startswith("msp") and cells["ap"] == "-"
    assert cells["accuracy"] == "1.000 +/- 0.000"

    assert main(["eval", str(path), "--format", "csv"]) == 0
    table = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    ext = next(r for r in table if r["dataset"] == "ood-ext")
    assert ext["ap_mean"] == ext["ap_std"] == ""
    assert float(next(r for r in table if r["dataset"] == "id-val")["ap_mean"]) == 1.0


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


def test_extreme_logits_write_nothing_to_stderr(tmp_path):
    # The logit difference overflows to -inf, whose exponential is exactly 0;
    # numpy's overflow warning must not reach the user.
    rows = ["0,id-val,msp,0,-1,0,1e308,-1e308", "1,id-val,msp,0,-1,1,-1e308,1e308"]
    rows += ["0,ood-near,msp,0,-1,0,0.5,0.0", "1,ood-near,msp,0,-1,1,0.0,0.5"]
    path = tmp_path / "preds.csv"
    path.write_text(",".join(HEADER) + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    done = _uqlab("eval", path, "--format", "csv")
    assert (done.returncode, done.stderr) == (0, "")
    row = next(csv.DictReader(io.StringIO(done.stdout)))
    assert row["accuracy_mean"] == "1.0"


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


@pytest.mark.parametrize(
    "row, what",
    [
        ("99999999999999999999999,id-val,msp,0,-1,0,0.1,0.2", "sample_id"),
        ("0,id-val,msp,0,-99999999999999999999999,0,0.1,0.2", "component_index"),
        ("0," + "x" * 140_000 + ",msp,0,-1,0,0.1,0.2", "field larger than field limit"),
    ],
    ids=["sample-id-beyond-int64", "component-index-beyond-int64", "over-long-field"],
)
def test_unreadable_prediction_field_exit_code_2(tmp_path, capsys, row, what):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(HEADER) + "\n" + row + "\n", encoding="utf-8")
    assert main(["eval", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"uqlab: error: {path}: line 2: {what}")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_byte_that_is_not_utf8_exit_code_2(tmp_path, capsys):
    # Line 4002 sits far past the text reader's first buffer, whose start the
    # decode error's position counts from.
    rows = [",".join(HEADER)] + [f"{i},id-val,msp,0,-1,{i % 2},0.5,0.25" for i in range(6000)]
    rows[4001] = rows[4001].replace("id-val", "id-val\udcff")
    path = tmp_path / "bad.csv"
    path.write_bytes("\n".join(rows).encode("utf-8", "surrogateescape") + b"\n")
    assert main(["eval", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"uqlab: error: {path}: line 4002: byte 0xff is not UTF-8 (invalid start byte)\n"


def _prediction_file(path, rows):
    """Write a prediction CSV of the header and ``rows``; return its path."""
    path.write_text(",".join(HEADER) + "\n" + "".join(f"{row}\n" for row in rows), encoding="utf-8")
    return path


@pytest.mark.parametrize("command", ["eval", "threshold", "report"])
def test_a_fault_in_a_prediction_file_names_the_file(tmp_path, capsys, command):
    # The first file reads; the second holds a bad label on its line 2.
    good = _prediction_file(tmp_path / "good.csv", ["0,id-val,msp,0,-1,0,1.0,0.0"])
    bad = _prediction_file(tmp_path / "bad.csv", ["0,id-val,msp,0,-1,7,0.0,1.0"])
    out = ["--out", str(tmp_path / "out")] if command == "report" else []
    assert main([command, str(good), str(bad), *out]) == 2
    assert capsys.readouterr().err == f"uqlab: error: {bad}: line 2: label must be 0 or 1, got '7'\n"


def test_a_set_its_method_cannot_hold_names_the_file_and_the_set(tmp_path, capsys):
    bad = _prediction_file(
        tmp_path / "bad.csv", ["0,id-val,msp,0,0,1,0.0,1.0", "0,id-val,msp,0,1,1,0.5,1.0"]
    )
    assert main(["eval", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err == f"uqlab: error: {bad}: id-val/msp/seed 0: msp carries exactly one component\n"


def test_predictions_repeated_in_a_second_file_exit_code_2(tmp_path, capsys):
    # Both files hold the id-val set of msp at seed 0: the second is named.
    rows = ["0,id-val,msp,0,-1,0,1.0,0.0", "1,id-val,msp,0,-1,1,0.0,1.0"]
    first = _prediction_file(tmp_path / "first.csv", rows)
    second = _prediction_file(tmp_path / "second.csv", rows)
    assert main(["eval", str(first), str(second)]) == 2
    err = capsys.readouterr().err
    assert err == f"uqlab: error: {second}: duplicate predictions for method=msp seed=0 tag=id-val\n"


def test_report_on_methods_with_different_datasets(tmp_path, capsys):
    # msp covers the whole ladder, dropout only id-val, ood-near and
    # ood-novel; a method without a cell shows "-" and writes no CSV row.
    rng = np.random.default_rng(0)
    tags = {"msp": ["id-val", "ood-near", "ood-far", "ood-novel"],
            "dropout": ["id-val", "ood-near", "ood-novel"]}
    sets = []
    for method, method_tags in tags.items():
        components = [-1] if method == "msp" else [0, 1]
        for tag in method_tags:
            logits = rng.standard_normal((len(components), 40, 2))
            labels = rng.integers(0, 2, 40)
            sets.append(
                PredictionSet.from_logits(method, 0, tag, labels, logits, components, range(40))
            )
    path = tmp_path / "preds.csv"
    save_predictions(sets, path)

    assert main(["report", str(path), "--out", str(tmp_path / "report")]) == 0
    assert main(["threshold", str(path), "--out", str(tmp_path / "threshold")]) == 0
    for out in ("report", "threshold"):
        lines = (tmp_path / out / "fraction_retained.txt").read_text().splitlines()
        assert lines[1].split() == [
            "ood-near", "(<-ood-far)", "ood-far", "(<-ood-near)", "ood-novel", "(<-ood-near)"
        ]
        msp, dropout = lines[2].split(), lines[3].split()
        assert msp[0] == "msp" and msp.count("+/-") == 3
        assert dropout[:3] == ["dropout", "-", "-"] and dropout[4] == "+/-"
        with open(tmp_path / out / "fraction_retained.csv", encoding="utf-8") as fh:
            rows = [(r["method"], r["target"], r["source"]) for r in csv.DictReader(fh)]
        assert rows == [
            ("msp", "ood-near", "ood-far"),
            ("msp", "ood-far", "ood-near"),
            ("msp", "ood-novel", "ood-near"),
            ("dropout", "ood-novel", "ood-near"),
        ]


@pytest.mark.parametrize(
    "field, value",
    [(2, "../../escaped"), (1, "../../escaped"), (1, "a/b"), (2, "a\\b"), (1, "a\x00b")],
    ids=["method-climbs-out", "dataset-climbs-out", "dataset-slash", "method-backslash", "nul"],
)
@pytest.mark.parametrize("command", ["report", "threshold"])
def test_name_that_is_no_file_name_exit_code_2(tmp_path, capsys, command, field, value):
    # Report files are named after the method and dataset fields, so a
    # name with a path separator or NUL would write outside --out or crash.
    rng = np.random.default_rng(1)
    sets = [
        PredictionSet.from_logits("msp", 0, tag, rng.integers(0, 2, 8),
                                  rng.standard_normal((1, 8, 2)), [-1], range(8))
        for tag in ("id-val", "ood-near")
    ]
    path = tmp_path / "in" / "preds.csv"
    path.parent.mkdir()
    save_predictions(sets, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        if row[1] == "ood-near" or field == 2:
            row[field] = value
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n", encoding="utf-8")
    out = tmp_path / "a" / "b" / "out"
    assert main([command, str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("uqlab: error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == ["preds.csv"]


@pytest.mark.parametrize(
    "name", ["a\nb", "a\tb", "a\x1fb", "a\x7fb"], ids=["lf", "tab", "us", "del"]
)
@pytest.mark.parametrize("field", ["method", "dataset"])
def test_control_character_in_a_report_file_name_exit_code_2(tmp_path, capsys, field, name):
    # A reliability file is named after the method and the dataset, so a
    # control character there would end up in a file name.
    rng = np.random.default_rng(2)
    sets = [
        PredictionSet.from_logits(name if field == "method" else "msp", 0,
                                  name if field == "dataset" and tag != "id-val" else tag,
                                  rng.integers(0, 2, 8), rng.standard_normal((1, 8, 2)),
                                  [-1], range(8))
        for tag in ("id-val", "ood-near")
    ]
    path = tmp_path / "preds.csv"
    save_predictions(sets, path)
    out = tmp_path / "out"
    assert main(["report", str(path), "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("uqlab: error: ") and "cannot name a report file" in line
    assert not out.exists() or not any(p.is_file() for p in out.rglob("*"))


@pytest.mark.parametrize("name", ["a\nb", "a\r\nb", "a\u2028b"], ids=["lf", "crlf", "line-separator"])
def test_error_message_with_a_line_break_stays_on_one_line(tmp_path, capsys, name):
    # The method name comes from the file, and the error names it.
    pred = PredictionSet.from_logits(name, 0, "ood-near", np.array([0, 1]),
                                     np.zeros((2, 2, 2)), [0, 1], range(2))
    path = tmp_path / "preds.csv"
    save_predictions(pred, path)
    assert main(["eval", str(path)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("uqlab: error: ") and "has no 'id-val' predictions" in line


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


BINARY = bytes([0xFF, 0xFE, 0x00, 0x81, 0xC3, 0x28]) * 64


@pytest.mark.parametrize(
    "argv",
    [
        lambda p: ["eval", str(p)],
        lambda p: ["eval", str(p / "binary.bin")],
        lambda p: ["run", "--config", str(p / "binary.bin"), "--out", str(p / "o")],
    ],
    ids=["eval-directory", "eval-binary", "run-binary-config"],
)
def test_unreadable_input_exit_code_2(tmp_path, capsys, argv):
    (tmp_path / "binary.bin").write_bytes(BINARY)
    assert main(argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("uqlab: error: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_eval_csv_matches_report_metrics_csv(tmp_path, tiny_config, capsys):
    # uqlab report on a run's prediction files, given in the run's method
    # order, rewrites every report file of the run byte for byte.
    out = tmp_path / "run"
    assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 0
    predictions = [str(out / "predictions" / f"{m}_run0.csv") for m in ("msp", "sngp")]
    assert sorted(predictions) == sorted(str(p) for p in (out / "predictions").iterdir())
    capsys.readouterr()
    assert main(["eval", *predictions, "--format", "csv"]) == 0
    printed = capsys.readouterr().out
    report_dir = tmp_path / "report"
    assert main(["report", *predictions, "--out", str(report_dir)]) == 0
    assert printed.encode("utf-8") == (report_dir / "metrics.csv").read_bytes()

    def report_files(root):
        return {
            p.relative_to(root).as_posix(): p.read_bytes()
            for p in root.rglob("*")
            if p.is_file() and p.name != "config.json" and p.parent.name != "predictions"
        }

    expected = report_files(out)
    assert len(expected) > 8 and "reliability/sngp_ood-far_run0.csv" in expected
    assert report_files(report_dir) == expected


def test_train_checkpoints_hold_the_models_run_trains(tmp_path, monkeypatch):
    import uqlab.experiment as experiment

    cfg = ExperimentConfig(
        seeds=(0, 1),
        methods=("msp", "dropout", "sngp", "ensemble"),
        hidden_sizes=(8,),
        mc_passes=2,
        sngp_rff_dim=32,
        epochs=2,
        ensemble_members=2,
        ensemble_replicates=3,
        ladder=LadderSpec(n_train=80, n_val=32, n_ood=32, n_novel=16),
    )
    path = tmp_path / "config.json"
    save_config(cfg, path)
    trained = {}
    train_method = experiment.train_method

    def recording(cfg, method, data, seed, replicate=0):
        trained[method, seed, replicate] = train_method(cfg, method, data, seed, replicate)
        return trained[method, seed, replicate]

    monkeypatch.setattr(experiment, "train_method", recording)
    # The recording sees calls in this process only: no worker processes.
    monkeypatch.setattr(experiment, "_pool_size", lambda n_tasks: 0)
    experiment.run_experiment(cfg)
    monkeypatch.undo()

    expected = {}
    for (method, seed, replicate), result in trained.items():
        if method == "ensemble":
            for m, member in enumerate(result.members):
                expected[f"ensemble_rep{replicate}_member{m}.json"] = member
        elif method == "sngp":
            expected[f"sngp_seed{seed}.json"] = result[0]
        else:
            expected[f"{method}_seed{seed}.json"] = result
    assert len(expected) == 2 * 3 + 3 * 2

    out = tmp_path / "models"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 0
    checkpoints = out / "checkpoints"
    assert sorted(p.name for p in checkpoints.iterdir()) == sorted(expected)
    for name, model in expected.items():
        loaded = load_checkpoint(checkpoints / name)
        assert loaded.layer_sizes == model.layer_sizes, name
        for ours, theirs in zip(loaded.layers, model.layers):
            assert np.array_equal(ours.weights, theirs.weights), name
            assert np.array_equal(ours.bias, theirs.bias), name


def test_train_failure_names_seed_method_stage(tmp_path, tiny_config, capsys, monkeypatch):
    import uqlab.experiment as experiment

    def boom(*args, **kwargs):
        raise DataError("deliberate")

    monkeypatch.setattr(experiment, "train_sngp", boom)
    out = tmp_path / "models"
    assert main(["train", "--config", str(tiny_config), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "uqlab: error: seed=0 method=sngp stage=train: deliberate\n"
    assert captured.out == f"wrote {out / 'checkpoints' / 'msp_seed0.json'}\n"


# The config of acceptance criterion 09: every method, two seeds, seconds to run.
CRITERION_09 = ExperimentConfig(
    seeds=(0, 1),
    hidden_sizes=(16, 16),
    mc_passes=8,
    ensemble_members=2,
    ensemble_replicates=2,
    sngp_rff_dim=128,
    epochs=12,
    ladder=LadderSpec(n_train=256, n_val=200, n_ood=200, n_novel=80),
)


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


# Short training and eval sets 25x the training set, with the default
# 1024 random features: the GP head outlasts every dense network.
INFERENCE = ExperimentConfig(
    seeds=(0,),
    hidden_sizes=(8,),
    mc_passes=8,
    ensemble_members=2,
    ensemble_replicates=2,
    epochs=2,
    ladder=LadderSpec(n_train=80, n_val=2000, n_ood=2000, n_novel=1000),
)

# Tiny networks and eval sets 7.5x the training set: the writer thread
# writes every prediction file but the last, with or without workers.
_POOL_WRITES = ExperimentConfig(
    seeds=(0,),
    methods=("msp", "sngp", "ensemble"),
    hidden_sizes=(8,),
    sngp_rff_dim=32,
    epochs=2,
    ensemble_members=2,
    ensemble_replicates=2,
    ladder=LadderSpec(n_train=80, n_val=600, n_ood=600, n_novel=300),
)

# The same on two seeds: the run that fault_seams injects its faults in.
TWO_SEEDS = dataclasses.replace(_POOL_WRITES, seeds=(0, 1))


def _warning(call: str, message: str) -> list[str]:
    """The stderr lines of the warning that the fault_seams line ``call`` shows as ``message``."""
    lines = [line.strip() for line in Path(fault_seams.__file__).read_text().splitlines()]
    return [f"{fault_seams.__file__}:{lines.index(call) + 1}: UserWarning: {message}", f"  {call}"]


def _shown(*positions) -> list[str]:
    """What the TWO_SEEDS runs at ``positions`` show in turn: a run's warnings
    as it trains, then its log record as it predicts."""
    lines = []
    for position in positions:
        method, seed, _ = PLAN[position]
        if method == "sngp":
            lines += _warning('warnings.warn(f"GP head trained on seed {seed}")',
                              f"GP head trained on seed {seed}")
            if seed == 0:  # Python shows a warning once per code location and text
                lines += _warning('warnings.warn("GP head trained")', "GP head trained")
        lines.append(f"handled: {FILES[position]} predicted")
    return lines


class _Outcome(NamedTuple):
    code: int
    out: str
    err: str
    files: dict  # path under --out -> bytes
    running: list  # the processes that trained a network and still ran 10 s after it


def _ended(pid: int, timeout: float) -> bool:
    """Whether process ``pid`` has ended, or ends within ``timeout`` seconds."""
    try:
        fd = os.pidfd_open(pid)
    except ProcessLookupError:
        return True
    try:
        return bool(select.select([fd], [], [], timeout)[0])
    finally:
        os.close(fd)


def _run_with_any_workers(root: Path, cfg, command: str, fault) -> dict[int, _Outcome]:
    """Run ``uqlab command`` on ``cfg`` with 0, 1 and 2 workers at once, each
    with ``--out out`` in a directory of its own (so stdout can match); with a
    ``(kind, at)`` fault, on TWO_SEEDS through ``fault_seams.install``."""
    kind, at = fault or (None, None)
    procs = {}
    for workers in (1, 2) if kind == "death" else (0, 1, 2):
        cwd = root / str(workers)
        cwd.mkdir()
        save_config(cfg, cwd / "config.json")
        if kind in ("write", "late-write", "slow-write"):
            target = cwd / "out" / "predictions" / f"{FILES[at]}.csv"
            target.parent.mkdir(parents=True)
            target.mkdir() if kind == "write" else os.mkfifo(target)
        setup = "" if fault is None else (
            f"sys.path.insert(0, {str(Path(fault_seams.__file__).parent)!r}); import fault_seams; "
            f"fault_seams.install({kind!r}, {at!r})"
        )
        argv = _uqlab_command(command, "--config", "config.json", "--out", "out",
                              workers=workers, setup=setup)
        procs[workers] = subprocess.Popen(**argv, cwd=cwd, stdout=subprocess.PIPE,
                                          stderr=subprocess.PIPE, text=True)
    outcomes = {}
    try:
        for workers, proc in procs.items():
            out, err = proc.communicate(timeout=60)
            cwd = root / str(workers)
            pids = set(map(int, (cwd / "pids").read_text().split())) if (cwd / "pids").exists() else ()
            running = [pid for pid in sorted(pids) if not _ended(pid, 10)]
            outcomes[workers] = _Outcome(proc.returncode, out, err, _tree(cwd / "out"), running)
    finally:
        for proc in procs.values():
            proc.kill()
            proc.wait()
    return outcomes


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    """``outcomes(cfg, command="run", fault=None)``: the outcome by worker count
    of ``uqlab command`` on ``cfg`` (see _run_with_any_workers), run once for
    the module."""
    known = {}

    def outcomes(cfg, command="run", fault=None):
        key = cfg, command, fault
        if key not in known:
            root = tmp_path_factory.mktemp("outcomes")
            known[key] = _run_with_any_workers(root, cfg, command, fault)
        return known[key]

    return outcomes


def _same(outcomes: dict[int, _Outcome]) -> _Outcome:
    """The outcome of any worker count, which must be the same for each."""
    assert outcomes[1] == outcomes[0]
    assert outcomes[2] == outcomes[0]
    return outcomes[0]


def test_outputs_do_not_depend_on_worker_processes(outcomes):
    # Every file, stdout, stderr and the exit code are the same with no
    # worker process, one or two.
    run, train = _same(outcomes(CRITERION_09)), _same(outcomes(CRITERION_09, "train"))
    assert (run.code, run.err, len(run.files)) == (0, "", 49)
    assert (train.code, train.err, len(train.files)) == (0, "", 10)


def test_outputs_do_not_depend_on_workers_writing_the_files(outcomes):
    # The same where writing the prediction files takes longer than training.
    run = _same(outcomes(INFERENCE))
    assert (run.code, run.err, len(run.files)) == (0, "", 34)
    assert sum(name.startswith("predictions/") for name in run.files) == 5


def test_numerical_failure_in_a_worker_gives_the_same_line(tmp_path, capfd, monkeypatch):
    # The NumericalError raised in a worker reaches the parent pickled,
    # and is tagged and reported exactly as when the parent trains.
    cfg = ExperimentConfig(
        seeds=(0,),
        methods=("msp", "dropout"),
        hidden_sizes=(8,),
        epochs=2,
        learning_rate=1e300,
        ladder=LadderSpec(n_train=80, n_val=64, n_ood=64, n_novel=32),
    )
    path = tmp_path / "config.json"
    save_config(cfg, path)
    lines = {}
    for workers in (0, 1, 2):
        monkeypatch.setattr(experiment, "_pool_size", lambda n_tasks: min(workers, n_tasks))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / str(workers))]) == 3
        lines[workers] = capfd.readouterr().err
    # Byte for byte, whether the parent or a worker trains the network.
    assert lines[0] == (
        "uqlab: numerical failure: seed=0 method=msp stage=train: "
        "epoch 1: softmax input contains non-finite logits\n"
    )
    assert lines[1] == lines[2] == lines[0]


def _children(pid: int) -> list[int]:
    """The live processes whose parent is ``pid``, read from /proc."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:  # the process ended while the directory was read
            continue
        if fields[0] != "Z" and int(fields[1]) == pid:
            found.append(int(stat.parent.name))
    return found


def _alive(pid: int) -> bool:
    """Whether ``pid`` is a process that has not ended (a zombie has ended)."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(sys.platform != "linux", reason="reads the process tree from /proc")
@pytest.mark.parametrize("command", ["run", "train"])
def test_sigterm_leaves_no_worker_running(tmp_path, command):
    # SIGTERM ends the parent without running its finally blocks, so it
    # never shuts its pool down; its worker must not outlive it. The work
    # (12 networks in one worker) lasts well past the first file.
    cfg = ExperimentConfig(
        seeds=(0,),
        methods=("msp", "ensemble"),
        hidden_sizes=(8,),
        epochs=3000,
        ensemble_members=4,
        ensemble_replicates=3,
        ladder=LadderSpec(n_train=80, n_val=64, n_ood=64, n_novel=32),
    )
    path = tmp_path / "config.json"
    save_config(cfg, path)
    out = tmp_path / "out"
    first = out / ("predictions/msp_run0.csv" if command == "run" else "checkpoints/msp_seed0.json")
    proc = subprocess.Popen(
        **_uqlab_command(command, "--config", path, "--out", out, workers=1),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    workers = []
    try:
        deadline = time.monotonic() + 60
        while not first.exists():
            assert proc.poll() is None and time.monotonic() < deadline, "no first file"
            time.sleep(0.01)
        workers = _children(proc.pid)
        assert len(workers) == 1 and proc.poll() is None
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == -signal.SIGTERM
        deadline = time.monotonic() + 5
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, workers))
    finally:
        proc.kill()
        proc.wait()
        for pid in filter(_alive, workers):
            os.kill(pid, signal.SIGKILL)


_FORKED_ONLY = pytest.mark.skipif(sys.platform != "linux", reason="workers start on Linux only")
_CLEAN = ("none", 0)


@_FORKED_ONLY
def test_held_log_records_reach_each_handler_once_in_plan_order(outcomes):
    # perfbench counts the clamped variances with a handler on uq.logger. Each
    # run logs a record as it predicts, and the GP runs warn as they train:
    # the handler takes each record once, in plan order, with any workers,
    # and none reaches the last-resort handler (a line without "handled: ").
    run = _same(outcomes(TWO_SEEDS, fault=_CLEAN))
    shown = "".join(f"{line}\n" for line in _shown(*range(len(PLAN))))
    assert (run.code, run.err, run.running) == (0, shown, [])
    assert run.out.endswith("artifacts written to out\n")


@_FORKED_ONLY
def test_writer_thread_writes_the_files_byte_for_byte(tmp_path, outcomes):
    # Every prediction file but the last is written off the main thread. Each
    # holds its own run's sets, with the seed its predictions got, byte for
    # byte as save_predictions writes them.
    files = _same(outcomes(TWO_SEEDS, fault=_CLEAN)).files
    for name, (method, seed, replicate) in zip(FILES, PLAN):
        (tmp_path / name).write_bytes(files[f"predictions/{name}.csv"])
        save_predictions(sets := load_predictions(tmp_path / name), tmp_path / "saved")
        assert (tmp_path / "saved").read_bytes() == files[f"predictions/{name}.csv"]
        seed = derive_seed(seed, method, replicate) if method == "ensemble" else seed
        tags = ["id-val", "ood-near", "ood-far", "ood-novel"]
        assert [(p.tag, p.method, p.seed) for p in sets] == [(t, method, seed) for t in tags]


@_FORKED_ONLY
def test_a_warning_held_for_each_run_shows_once_per_code_location(outcomes):
    # Both GP runs warn with the same text at one code location: Python shows
    # it once, as one process training each run in turn shows it.
    err = _same(outcomes(TWO_SEEDS, fault=_CLEAN)).err.splitlines()
    assert err.count(_warning('warnings.warn("GP head trained")', "GP head trained")[0]) == 1
    assert sum("UserWarning: GP head trained on seed" in line for line in err) == 2


@_FORKED_ONLY
def test_a_held_run_waits_for_the_write_before_it_once_its_predictions_are_done(outcomes):
    # The second msp file's write can start only once the first GP run, which
    # warned as it trained, predicts. That run predicts before it waits for
    # the write, then shows what it held, once: the run ends as the clean run,
    # with the msp file's bytes read through the FIFO at its path.
    clean = _same(outcomes(TWO_SEEDS, fault=_CLEAN))
    files = dict(clean.files)
    files["read.csv"] = files.pop("predictions/msp_run1.csv")
    assert _same(outcomes(TWO_SEEDS, fault=("slow-write", 1))) == clean._replace(files=files)


@_FORKED_ONLY
def test_failed_write_stops_the_run_at_the_same_step_whenever_the_write_ends(outcomes):
    # The first file's write fails at once (a directory at its path), or only
    # once the next run predicts (a FIFO whose reader goes away). Either way
    # the run stops at the same step: after what the first run showed, before
    # anything of the next, with the same files.
    at_once = _same(outcomes(TWO_SEEDS, fault=("write", 0)))
    late = _same(outcomes(TWO_SEEDS, fault=("late-write", 0)))
    assert at_once.err.splitlines()[:-1] == late.err.splitlines()[:-1] == _shown(0)
    assert at_once._replace(err="") == late._replace(err="")


def _error(kind: str, at: int) -> str:
    """The one line that a fault of ``kind`` at plan position ``at`` ends in."""
    method, seed, replicate = PLAN[at]
    if kind == "write":
        return f"uqlab: error: [Errno 21] Is a directory: 'out/predictions/{FILES[at]}.csv'"
    if kind == "late-write":
        return f"uqlab: error: [Errno 32] Broken pipe: 'out/predictions/{FILES[at]}.csv'"
    stage = "predict" if kind == "predict" else "train"
    if method == "ensemble":
        stage += f"-replicate-{replicate}"
    reason = "injected fault"
    if kind == "death":
        reason = ("A process in the process pool was terminated abruptly "
                  "while the future was running or pending.")
    return f"uqlab: error: seed={seed} method={method} stage={stage}: {reason}"


# Each fault and the plan position of the first run it hits.
FAULTS = [
    ("train", 0),  # a worker's error; the GP run trained meanwhile fails too
    ("train", 2),  # the first GP run, trained while the workers train
    ("train", 4),
    ("predict", 2),
    ("write", 0),
    ("write", 2),
    ("write", 4),
    ("write", 5),  # the plan's last file
    ("late-write", 0),
    ("death", 4),
    ("sigterm", 0),
]


@_FORKED_ONLY
@pytest.mark.parametrize("kind, at", FAULTS, ids=[f"{kind}-{FILES[at]}" for kind, at in FAULTS])
def test_a_fault_at_run_k_leaves_the_runs_before_it_and_one_line(outcomes, kind, at):
    # With any workers, a run that meets a fault at run k leaves the files of
    # the runs before k, byte for byte, and shows what they showed, then what
    # run k showed before its fault, then one line naming run k's stage or
    # the file whose write failed. Later runs, whatever they showed or raised
    # meanwhile, show nothing. SIGTERM leaves only the config echo. No process
    # that trained a network outlives the run.
    clean = _same(outcomes(TWO_SEEDS, fault=_CLEAN)).files
    before = {"config.json", *(f"predictions/{name}.csv" for name in FILES[:at])}
    files = {name: data for name, data in clean.items() if name in before}
    if kind == "sigterm":
        expected = _Outcome(-signal.SIGTERM, "", "", files, [])
    else:
        shown = _shown(*range(at))
        if kind == "predict":  # what run k showed as it trained
            shown += _shown(at)[:-1]
        if kind in ("write", "late-write"):  # the run's own write fails
            shown += _shown(at)
        err = "".join(f"{line}\n" for line in [*shown, _error(kind, at)])
        expected = _Outcome(2, "", err, files, [])
    for workers, outcome in outcomes(TWO_SEEDS, fault=(kind, at)).items():
        assert outcome == expected, f"{workers} workers"


# TWO_SEEDS with three networks per ensemble replicate, one more than the workers.
THREE_MEMBERS = dataclasses.replace(TWO_SEEDS, ensemble_members=3)


@_FORKED_ONLY
def test_the_parent_trains_the_networks_no_worker_has_started(tmp_path):
    # Each worker's first ensemble network waits, 10 s at most, until the
    # uqlab process trains a network. While it waits for the first replicate,
    # the uqlab process trains that replicate's networks that no worker has
    # started, from the last; the run ends as in one process.
    outcomes = _run_with_any_workers(tmp_path, THREE_MEMBERS, "run", ("stall", 0))
    run = _same(outcomes)
    shown = "".join(f"{line}\n" for line in _shown(*range(len(PLAN))))
    assert (run.code, run.err, run.running) == (0, shown, [])
    for workers in (1, 2):
        cwd = tmp_path / str(workers)
        trainers = (cwd / "pids").read_text().split()
        assert (cwd / "uqlab.pid").read_text().strip() in trainers, f"{workers} workers"


def _logged(monkeypatch, module, name: str, log: Path) -> None:
    """Log each call of ``module.name`` to ``log``: its name, whether it ran in
    this process, and whether on the main thread. Forked workers log too."""
    fn, parent = getattr(module, name), os.getpid()

    def logged(*args, **kwargs):
        with open(log, "a") as fh:
            main_thread = threading.current_thread() is threading.main_thread()
            fh.write(f"{name} {os.getpid() == parent} {main_thread}\n")
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, logged)


@_FORKED_ONLY
def test_training_prediction_and_saves_traced_by_the_benchmark_stay_in_the_parent(
    tmp_path, monkeypatch
):
    # perfbench captures train_sngp's return value and traces the predict
    # and save_predictions calls on the parent's main thread only. With a
    # worker and the writer thread busy, each of these calls runs there.
    path = tmp_path / "config.json"
    save_config(_POOL_WRITES, path)
    log = tmp_path / "calls.log"
    for name in ("train_sngp", "_predict", "save_predictions"):
        _logged(monkeypatch, experiment, name, log)
    monkeypatch.setattr(experiment, "_pool_size", lambda n_tasks: min(1, n_tasks))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    calls = log.read_text().splitlines()
    assert sorted(calls) == sorted(
        ["train_sngp True True"]
        + ["_predict True True"] * 4 * 4
        + ["save_predictions True True"]
    )

