import csv
import dataclasses
import io
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import uqlab
from uqlab import experiment
from uqlab.cli import main
from uqlab.data import LadderSpec, load_dataset
from uqlab.errors import DataError
from uqlab.experiment import ExperimentConfig, load_config, save_config
from uqlab.metrics import METRIC_KEYS
from uqlab.mlp import load_checkpoint
from uqlab.predfile import HEADER, save_predictions
from uqlab.uq import PredictionSet


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
    code = "; ".join(filter(None, [_WITH_WORKERS, setup, "sys.exit(cli.main(sys.argv[1:]))"]))
    head = ["-m", "uqlab.cli"] if workers is None else ["-c", code, str(workers)]
    return {
        "args": [sys.executable, *head, *map(str, argv)],
        "env": {**os.environ, "PYTHONPATH": path, **dict.fromkeys(experiment._BLAS_THREAD_VARS, "1")},
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


@pytest.mark.parametrize("command", ["run", "train"])
@pytest.mark.parametrize("key", ["members", "replicates"])
def test_ensemble_count_past_the_address_space_exit_code_2_at_once(tmp_path, capsys, command, key):
    # 2**40 is within the largest array, but 2**40 tiny networks, or 2**40
    # replicates of two, hold more parameters and eval-set logits than a
    # 47-bit address space: rejected at load, before the plan or a
    # replicate's list of networks is built.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_sized(_TINY_ALL, "ensemble", key, 2**40)), encoding="utf-8")
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
    assert err.startswith(f"uqlab: error: line 2: {what}")
    assert err.count("\n") == 1 and "Traceback" not in err


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
# 1024 random features: the GP head, trained first, outlasts every dense
# network, so with workers the parent's writer thread writes every
# prediction file but the last.
INFERENCE = ExperimentConfig(
    seeds=(0,),
    hidden_sizes=(8,),
    mc_passes=8,
    ensemble_members=2,
    ensemble_replicates=2,
    epochs=2,
    ladder=LadderSpec(n_train=80, n_val=2000, n_ood=2000, n_novel=1000),
)


def _same_trees_with_any_workers(tmp_path, cfg, commands) -> dict:
    # Every file the commands write is the same byte for byte with no
    # worker processes, one or two, and stderr stays empty.
    path = tmp_path / "config.json"
    save_config(cfg, path)
    trees = {}
    for command in commands:
        for workers in (0, 1, 2):
            out = tmp_path / f"{command}-{workers}"
            done = _uqlab(command, "--config", path, "--out", out, workers=workers)
            assert (done.returncode, done.stderr) == (0, "")
            trees[command, workers] = _tree(out)
        assert trees[command, 1] == trees[command, 0]
        assert trees[command, 2] == trees[command, 0]
    return trees


def test_outputs_do_not_depend_on_worker_processes(tmp_path):
    trees = _same_trees_with_any_workers(tmp_path, CRITERION_09, ("run", "train"))
    assert len(trees["run", 0]) == 49 and len(trees["train", 0]) == 10


def test_outputs_do_not_depend_on_workers_writing_the_files(tmp_path):
    trees = _same_trees_with_any_workers(tmp_path, INFERENCE, ("run",))
    assert len(trees["run", 0]) == 34
    assert sum(name.startswith("predictions/") for name in trees["run", 0]) == 5


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


@pytest.mark.skipif(
    experiment._START_METHOD != "fork", reason="the patch reaches forked workers only"
)
def test_dead_worker_is_one_line_and_keeps_earlier_runs(tmp_path, capfd, monkeypatch):
    # The worker that trains the dropout network dies once the msp run's
    # predictions are on disk; the run stops with one tagged line.
    cfg = ExperimentConfig(
        seeds=(0,),
        methods=("msp", "dropout"),
        hidden_sizes=(8,),
        epochs=2,
        ladder=LadderSpec(n_train=80, n_val=64, n_ood=64, n_novel=32),
    )
    path = tmp_path / "config.json"
    save_config(cfg, path)
    out = tmp_path / "out"
    msp_file = out / "predictions" / "msp_run0.csv"
    train = experiment.train

    def dies_on_dropout(model, data, train_cfg):
        if model.dropout_rate == 0:
            return train(model, data, train_cfg)
        deadline = time.monotonic() + 30
        while not msp_file.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        os._exit(1)

    monkeypatch.setattr(experiment, "train", dies_on_dropout)
    monkeypatch.setattr(experiment, "_pool_size", lambda n_tasks: 2)
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    captured = capfd.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("uqlab: error: seed=0 method=dropout stage=train: ")
    assert "terminated abruptly" in line
    assert sorted(p.name for p in (out / "predictions").iterdir()) == ["msp_run0.csv"]


_FORKED_ONLY = pytest.mark.skipif(
    experiment._START_METHOD != "fork", reason="the patch reaches forked workers only"
)


@_FORKED_ONLY
def test_gp_head_trained_early_fails_after_the_msp_run(tmp_path):
    # The msp network and the GP head both diverge. Without workers the msp
    # run fails first and the GP head never trains. With workers the parent
    # trains the GP head on entry, while a worker trains the msp network;
    # it keeps the GP head's error and its overflow warnings, and the msp
    # failure is all that stderr shows, byte for byte.
    cfg = ExperimentConfig(
        seeds=(0,),
        methods=("msp", "sngp"),
        hidden_sizes=(8,),
        sngp_rff_dim=32,
        epochs=2,
        learning_rate=1e300,
        ladder=LadderSpec(n_train=80, n_val=64, n_ood=64, n_novel=32),
    )
    path = tmp_path / "config.json"
    save_config(cfg, path)
    errs = {}
    for workers in (0, 1, 2):
        mark = tmp_path / f"gp-trained-{workers}"
        setup = (
            "from pathlib import Path; "
            "train_method = experiment.train_method; "
            "experiment.train_method = lambda cfg, m, *a: "
            f"(m == 'sngp' and Path({str(mark)!r}).touch(), train_method(cfg, m, *a))[1]"
        )
        out = tmp_path / f"out-{workers}"
        done = _uqlab("run", "--config", path, "--out", out, workers=workers, setup=setup)
        assert done.returncode == 3
        assert mark.exists() == (workers > 0)
        errs[workers] = done.stderr
    assert errs[0] == (
        "uqlab: numerical failure: seed=0 method=msp stage=train: "
        "epoch 1: softmax input contains non-finite logits\n"
    )
    assert errs[1] == errs[2] == errs[0]
    # Alone, the GP head's training warns before it fails.
    alone = _uqlab("run", "--config", path, "--methods", "sngp", "--out", tmp_path / "gp", workers=1)
    assert alone.returncode == 3 and "RuntimeWarning" in alone.stderr
    assert alone.stderr.endswith(
        "uqlab: numerical failure: seed=0 method=sngp stage=train: "
        "training loss became non-finite at epoch 1\n"
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


def _entries(root: Path) -> list[str]:
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*"))


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
def test_writer_thread_writes_the_files_byte_for_byte(tmp_path, monkeypatch):
    # Every file the prediction writer opens is logged with the process and
    # the thread that opened it.
    from uqlab import predfile

    path = tmp_path / "config.json"
    save_config(_POOL_WRITES, path)
    log = tmp_path / "opened.log"
    parent = os.getpid()

    def logged_open(file, mode, **kwargs):
        with open(log, "a") as fh:
            main_thread = threading.current_thread() is threading.main_thread()
            fh.write(f"{os.getpid() == parent} {main_thread} {Path(file).name}\n")
        return open(file, mode, **kwargs)

    monkeypatch.setattr(predfile, "open", logged_open, raising=False)
    trees, writers = {}, {}
    for workers in (0, 1, 2):
        monkeypatch.setattr(experiment, "_pool_size", lambda n_tasks: min(workers, n_tasks))
        log.unlink(missing_ok=True)
        out = tmp_path / f"out-{workers}"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        trees[workers] = _tree(out)
        writers[workers] = log.read_text().splitlines()
    names = ["msp_run0.csv", "sngp_run0.csv", "ensemble_run0.csv", "ensemble_run1.csv"]
    # The writer thread of this process opens every file but the last, once;
    # the main thread writes the last. The same with no worker, one or two.
    on_thread = [f"True False {name}" for name in names[:-1]]
    assert writers[0] == on_thread + [f"True True {names[-1]}"]
    assert writers[1] == writers[2] == writers[0]
    assert trees[1] == trees[2] == trees[0]


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


@_FORKED_ONLY
def test_failed_write_in_the_writer_thread_gives_the_same_line_and_files(
    tmp_path, capfd, monkeypatch
):
    # A directory where the first ensemble file goes: its write fails in the
    # writer thread while the parent predicts the next run, and the run
    # stops as without workers, with the same line and the same files.
    path = tmp_path / "config.json"
    save_config(_POOL_WRITES, path)
    out = tmp_path / "out"
    results = {}
    for workers in (0, 1, 2):
        monkeypatch.setattr(experiment, "_pool_size", lambda n_tasks: min(workers, n_tasks))
        shutil.rmtree(out, ignore_errors=True)
        (out / "predictions" / "ensemble_run0.csv").mkdir(parents=True)
        code = main(["run", "--config", str(path), "--out", str(out)])
        results[workers] = code, capfd.readouterr().err, _entries(out)
    target = out / "predictions" / "ensemble_run0.csv"
    assert results[0] == (
        2,
        f"uqlab: error: [Errno 21] Is a directory: {str(target)!r}\n",
        [
            "config.json",
            "predictions",
            "predictions/ensemble_run0.csv",
            "predictions/msp_run0.csv",
            "predictions/sngp_run0.csv",
        ],
    )
    assert results[1] == results[2] == results[0]


@_FORKED_ONLY
def test_failed_write_comes_before_a_later_gp_runs_warnings(tmp_path):
    # A directory where the first GP run's file goes: its write fails in the
    # writer thread, and the second GP run warns as it trains. The warning
    # must wait for that write, so stderr shows the failed write only, as
    # in one process writing each file itself. In a subprocess, as pytest
    # would record the warning.
    cfg = dataclasses.replace(_POOL_WRITES, seeds=(0, 1), methods=("msp", "sngp"))
    path = tmp_path / "config.json"
    save_config(cfg, path)
    setup = (
        "import warnings; train_method = experiment.train_method; "
        "experiment.train_method = lambda cfg, m, data, seed, *a: ("
        "m == 'sngp' and seed == 1 and warnings.warn('seed 1 GP head'), "
        "train_method(cfg, m, data, seed, *a))[1]"
    )
    out = tmp_path / "out"
    results = {}
    for workers in (0, 1, 2):
        shutil.rmtree(out, ignore_errors=True)
        (out / "predictions" / "sngp_run0.csv").mkdir(parents=True)
        done = _uqlab("run", "--config", path, "--out", out, workers=workers, setup=setup)
        results[workers] = done.returncode, done.stderr, _entries(out)
    target = out / "predictions" / "sngp_run0.csv"
    assert results[0] == (
        2,
        f"uqlab: error: [Errno 21] Is a directory: {str(target)!r}\n",
        [
            "config.json",
            "predictions",
            "predictions/msp_run0.csv",
            "predictions/msp_run1.csv",
            "predictions/sngp_run0.csv",
        ],
    )
    assert results[1] == results[2] == results[0]


# Makes the GP head's predictions log through uq.logger, as its clamp message
# does: once per eval set, with the base seed plus one as the count.
_LOGGING_GP_PREDICT = (
    "from uqlab import uq; predict = experiment.sngp_predict; "
    "experiment.sngp_predict = lambda model, head, data, seed: ("
    "uq.logger.warning('clamping %d tiny negative variances to 0', seed + 1), "
    "predict(model, head, data, seed=seed))[1]"
)


@_FORKED_ONLY
def test_failed_write_comes_before_a_later_runs_log_records(tmp_path):
    # A directory where the msp run's file goes, and a GP run that logs as it
    # predicts. With workers the parent trains that GP run on entry; its log
    # records must wait for the msp file's write, which fails, so stderr
    # shows the failed write only, as in one process writing each file
    # itself. In a subprocess, as pytest would capture the records.
    path = tmp_path / "config.json"
    save_config(dataclasses.replace(_POOL_WRITES, methods=("msp", "sngp")), path)
    out = tmp_path / "out"
    results = {}
    for workers in (0, 1, 2):
        shutil.rmtree(out, ignore_errors=True)
        (out / "predictions" / "msp_run0.csv").mkdir(parents=True)
        setup = _LOGGING_GP_PREDICT
        done = _uqlab("run", "--config", path, "--out", out, workers=workers, setup=setup)
        results[workers] = done.returncode, done.stderr, _entries(out)
    target = out / "predictions" / "msp_run0.csv"
    assert results[0] == (
        2,
        f"uqlab: error: [Errno 21] Is a directory: {str(target)!r}\n",
        ["config.json", "predictions", "predictions/msp_run0.csv"],
    )
    assert results[1] == results[2] == results[0]


@_FORKED_ONLY
def test_held_log_records_reach_each_handler_once_in_plan_order(tmp_path):
    # perfbench counts the clamped variances with a handler on uq.logger.
    # Each held record reaches it once, in plan order, with no worker, one
    # or two.
    cfg = dataclasses.replace(_POOL_WRITES, seeds=(0, 1), methods=("msp", "sngp"))
    path = tmp_path / "config.json"
    save_config(cfg, path)
    setup = (
        f"{_LOGGING_GP_PREDICT}; import logging; handler = logging.StreamHandler(sys.stdout); "
        "handler.setFormatter(logging.Formatter('handled: %(message)s')); "
        "uq.logger.addHandler(handler)"
    )
    expected = [f"handled: clamping {s} tiny negative variances to 0" for s in (1, 2) for _ in range(4)]
    for workers in (0, 1, 2):
        out = tmp_path / f"out-{workers}"
        done = _uqlab("run", "--config", path, "--out", out, workers=workers, setup=setup)
        assert done.returncode == 0
        handled = [line for line in done.stdout.splitlines() if line.startswith("handled: ")]
        assert handled == expected
        # The handler on uq.logger takes each record: none reaches the
        # last-resort handler on stderr.
        assert done.stderr == ""


@_FORKED_ONLY
def test_a_warning_held_for_each_run_shows_once_per_code_location(tmp_path):
    # The GP head warns at one code location for each of two seeds. Python's
    # default filter shows such a warning once per location, as one process
    # training each run in turn shows it; holding each run's warnings must
    # not reset that record, with no worker, one or two.
    cfg = dataclasses.replace(_POOL_WRITES, seeds=(0, 1), methods=("msp", "sngp"))
    path = tmp_path / "config.json"
    save_config(cfg, path)
    setup = (
        "import warnings; train_method = experiment.train_method; "
        "experiment.train_method = lambda cfg, m, *a: ("
        "m == 'sngp' and warnings.warn('GP head'), train_method(cfg, m, *a))[1]"
    )
    for workers in (0, 1, 2):
        out = tmp_path / f"out-{workers}"
        done = _uqlab("run", "--config", path, "--out", out, workers=workers, setup=setup)
        assert (done.returncode, done.stderr) == (0, "<string>:1: UserWarning: GP head\n")


def test_failed_write_stops_the_run_at_the_same_step_whenever_the_write_ends(
    tmp_path, capfd, monkeypatch
):
    # A directory where the msp file goes: its write fails on the writer
    # thread while the GP run trains and predicts, in one process. Whether
    # the write ends before the GP head's training returns or only once its
    # predictions have started, the run stops at the same step, the GP run's
    # save, with the line and files of one process writing each file itself.
    from uqlab import predfile

    path = tmp_path / "config.json"
    save_config(dataclasses.replace(_POOL_WRITES, methods=("msp", "sngp")), path)
    out = tmp_path / "out"
    monkeypatch.setattr(experiment, "_pool_size", lambda n_tasks: 0)
    write_rows, train_method = predfile._write_rows, experiment.train_method
    sngp_predict = experiment.sngp_predict
    results = {}
    for order in ("write-ends-first", "predictions-start-first"):
        written, predicting, predicted = threading.Event(), threading.Event(), []

        def ordered_write(*args, order=order, written=written, predicting=predicting):
            if order == "predictions-start-first":
                assert predicting.wait(10)
            try:
                return write_rows(*args)
            finally:
                written.set()

        def ordered_training(cfg, method, *args, order=order, written=written):
            if method == "sngp" and order == "write-ends-first":
                assert written.wait(10)
            return train_method(cfg, method, *args)

        def recorded_predict(model, head, data, seed, predicted=predicted, predicting=predicting):
            predicted.append((data.tag, seed))
            predicting.set()
            return sngp_predict(model, head, data, seed=seed)

        monkeypatch.setattr(predfile, "_write_rows", ordered_write)
        monkeypatch.setattr(experiment, "train_method", ordered_training)
        monkeypatch.setattr(experiment, "sngp_predict", recorded_predict)
        shutil.rmtree(out, ignore_errors=True)
        (out / "predictions" / "msp_run0.csv").mkdir(parents=True)
        code = main(["run", "--config", str(path), "--out", str(out)])
        results[order] = code, capfd.readouterr().err, _entries(out), predicted
    target = out / "predictions" / "msp_run0.csv"
    assert results["write-ends-first"] == (
        2,
        f"uqlab: error: [Errno 21] Is a directory: {str(target)!r}\n",
        ["config.json", "predictions", "predictions/msp_run0.csv"],
        [(tag, 0) for tag in ("id-val", "ood-near", "ood-far", "ood-novel")],
    )
    assert results["predictions-start-first"] == results["write-ends-first"]
