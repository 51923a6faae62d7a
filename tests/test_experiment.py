import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uqlab.data import FAR_SHIFT, NEAR_SHIFT, LadderSpec, ShiftConfig
from uqlab import experiment
from uqlab._entry import BLAS_THREAD_VARS
from uqlab.errors import ConfigError, DataError
from uqlab.experiment import (
    ExperimentConfig,
    MethodRun,
    build_report,
    build_transfers,
    load_config,
    run_experiment,
    save_config,
)
from uqlab.predfile import load_predictions
from uqlab.rng import make_rng
from uqlab.uq import PredictionSet, scores_from_logits


def small_config(**overrides):
    base = dict(
        seeds=(0, 1),
        methods=("msp", "dropout", "ensemble", "sngp"),
        hidden_sizes=(16, 16),
        mc_passes=4,
        ensemble_members=2,
        ensemble_replicates=2,
        sngp_rff_dim=64,
        epochs=8,
        ladder=LadderSpec(n_train=160, n_val=120, n_ood=120, n_novel=80),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def synthetic_pred(rng, tag, method="msp", seed=0, n=150, spread=1.0):
    z = rng.standard_normal((n, 2)) * spread
    labels = rng.integers(0, 2, size=n).astype(np.int64)
    probs, unc = scores_from_logits(method, z[None, :, :])
    return PredictionSet(
        method=method,
        seed=seed,
        tag=tag,
        labels=labels,
        component_logits=z[None, :, :],
        component_indices=np.array([-1]),
        sample_ids=np.arange(n),
        probs=probs,
        uncertainty=unc,
    )


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=10,
)


def _key_paths(doc: dict, prefix: tuple = ()):
    """Every key path in a config document, sections and values alike."""
    for key, value in doc.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from _key_paths(value, (*prefix, key))


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        cfg = small_config(ladder=LadderSpec(near=ShiftConfig(translation=(0.5, 0.1))))
        path = tmp_path / "config.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_schema_version_required(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seeds": [1]}), encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(methods=("msp", "mystery"))

    def test_sngp_needs_a_hidden_layer(self):
        with pytest.raises(ConfigError, match="^hidden_sizes: "):
            ExperimentConfig(methods=("msp", "sngp"), hidden_sizes=())
        assert ExperimentConfig(methods=("msp",), hidden_sizes=()).hidden_sizes == ()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("learning_rate", -1.0),
            ("batch_size", 0),
            ("dropout_rate", 1.5),
            ("spectral_bound", 0.0),
            ("mc_passes", 0),
            ("ensemble_members", 1),
            ("sngp_rff_dim", 0),
            ("sngp_length_scale", -2.0),
            ("sngp_ridge", 0.0),
            # Past what a run holds of every replicate's networks.
            ("ensemble_replicates", 2**62),
            ("hidden_sizes", (8, 0)),
            # Sizes past int64, which no array (or list) can hold.
            ("hidden_sizes", (10**30,)),
            ("mc_passes", 10**30),
            ("ensemble_members", 10**30),
            ("ensemble_replicates", 10**30),
            ("sngp_rff_dim", 10**30),
        ],
    )
    def test_out_of_range_field_named(self, field, value):
        # The library's own range checks, reported under the config's field.
        with pytest.raises(ConfigError, match=f"^{field}: ") as exc:
            ExperimentConfig(**{field: value})
        assert exc.value.key == field

    @pytest.mark.parametrize(
        "key, value", [("methods", ["msp", "sngp", "msp"]), ("seeds", [0, 0])]
    )
    def test_duplicate_methods_and_seeds_rejected(self, tmp_path, key, value):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"schema_version": 1, key: value}), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"^config.{key}: "):
            load_config(path)
        with pytest.raises(ConfigError, match=f"^{key}: "):
            ExperimentConfig(**{key: tuple(value)})

    @pytest.mark.parametrize(
        "method, field, value",
        [
            ("dropout", "dropout_rate", 1.5),
            ("dropout", "mc_passes", 0),
            ("ensemble", "ensemble_members", 1),
            ("sngp", "spectral_bound", 0.0),
            ("sngp", "sngp_rff_dim", 0),
            ("sngp", "sngp_length_scale", -2.0),
            ("sngp", "sngp_ridge", 0.0),
        ],
    )
    def test_field_of_unselected_method_not_checked(self, method, field, value):
        # As for hidden_sizes: a method's own keys are range-checked only
        # when the method runs; train.* is read by every method.
        cfg = ExperimentConfig(methods=("msp",), **{field: value})
        assert getattr(cfg, field) == value
        with pytest.raises(ConfigError, match=f"^{field}: "):
            ExperimentConfig(methods=("msp", method), **{field: value})

    def test_defaults_match_protocol(self):
        cfg = ExperimentConfig()
        assert cfg.seeds == (0, 1, 2, 3)
        assert cfg.mc_passes == 32
        assert cfg.dropout_rate == 0.5
        assert cfg.ensemble_members == 4
        assert cfg.ensemble_replicates == 3
        assert cfg.learning_rate == 1e-3
        assert cfg.weight_decay == 1e-5
        assert cfg.epochs == 100

    def test_every_field_round_trips(self, tmp_path):
        cfg = ExperimentConfig(
            seeds=(7, 3),
            methods=("sngp", "msp"),
            hidden_sizes=(5,),
            dropout_rate=0.25,
            mc_passes=3,
            ensemble_members=2,
            ensemble_replicates=5,
            sngp_rff_dim=16,
            sngp_length_scale=1.5,
            sngp_ridge=0.5,
            spectral_bound=2.0,
            learning_rate=0.01,
            weight_decay=0.0,
            epochs=3,
            batch_size=7,
            ladder=LadderSpec(
                n_train=11,
                n_val=12,
                n_ood=13,
                n_novel=14,
                noise=0.2,
                near=ShiftConfig(translation=(1.0, -1.0), rotation=0.1),
                far=ShiftConfig(scale=2.0, noise_inflation=1.5),
            ),
        )
        default = ExperimentConfig()
        assert all(getattr(cfg, f.name) != getattr(default, f.name) for f in dataclasses.fields(cfg))
        path = tmp_path / "config.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_missing_keys_take_their_own_dataclass_defaults(self, tmp_path):
        # A partial ladder.near fills from ShiftConfig(), not from NEAR_SHIFT;
        # an absent one keeps NEAR_SHIFT.
        path = tmp_path / "config.json"
        doc = {"schema_version": 1, "ladder": {"n_val": 9, "near": {"translation": [1, 0]}}}
        path.write_text(json.dumps(doc), encoding="utf-8")
        cfg = load_config(path)
        assert cfg.ladder.near == ShiftConfig(translation=(1, 0))
        assert cfg.ladder.near.noise_inflation == 1.0
        assert cfg.ladder.far == FAR_SHIFT and cfg.ladder.n_train == LadderSpec().n_train
        assert cfg.ladder.n_val == 9
        assert dataclasses.replace(cfg, ladder=LadderSpec()) == ExperimentConfig()
        doc["ladder"] = {"n_val": 9}
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert load_config(path).ladder.near == NEAR_SHIFT

    def test_json_int_in_float_field_is_kept_as_written(self, tmp_path):
        path = tmp_path / "config.json"
        save_config(ExperimentConfig(learning_rate=1), path)
        text = path.read_text(encoding="utf-8")
        assert '"learning_rate": 1,' in text
        cfg = load_config(path)
        assert type(cfg.learning_rate) is int
        save_config(cfg, path)
        assert path.read_text(encoding="utf-8") == text

    def test_int_beyond_float_range_rejected_in_number_field(self, tmp_path):
        # json.load reads integers of any size; a number field needs a finite float.
        path = tmp_path / "config.json"
        doc = {"schema_version": 1, "train": {"learning_rate": 10**400}}
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ConfigError, match="^config.train.learning_rate: expected a finite"):
            load_config(path)

    @pytest.mark.parametrize(
        "text",
        ['{"schema_version": 1, "seeds": [' + "1" * 5000 + "]}", "[" * 200000 + "]" * 200000],
        ids=["over-long-int", "deep-nesting"],
    )
    def test_unreadable_json_rejected(self, tmp_path, text):
        path = tmp_path / "config.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_any_value_at_any_key_loads_or_raises_config_error(self, tmp_path, data):
        path = tmp_path / "config.json"
        save_config(ExperimentConfig(), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        *sections, key = data.draw(st.sampled_from(sorted(_key_paths(doc))))
        node = doc
        for section in sections:
            node = node[section]
        node[key] = data.draw(JSON_VALUES)
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            load_config(path)
        except ConfigError:
            pass


class TestBuildReport:
    def test_identical_id_and_ood_auroc_near_half(self):
        rng = make_rng(0)
        runs = [
            MethodRun(
                "msp",
                0,
                {
                    "id-val": synthetic_pred(rng, "id-val"),
                    "ood-x": synthetic_pred(rng, "ood-x"),
                },
            )
        ]
        report = build_report(runs)
        auroc = report.row("msp", "ood-x").values["auroc_ood"][0]
        assert abs(auroc - 0.5) < 0.1
        assert report.row("msp", "id-val").values["auroc_ood"] is None

    def test_missing_id_val_rejected(self):
        rng = make_rng(1)
        runs = [MethodRun("msp", 0, {"ood-x": synthetic_pred(rng, "ood-x")})]
        with pytest.raises(DataError):
            build_report(runs)


@pytest.fixture(scope="module")
def result_and_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    cfg = small_config()
    return run_experiment(cfg, outdir=out), out, cfg


class TestRunExperiment:
    def test_report_shape(self, result_and_dir):
        result, _, cfg = result_and_dir
        methods = {r.method for r in result.report.rows}
        assert methods == set(cfg.methods)
        datasets = {r.dataset for r in result.report.rows}
        assert datasets == {"id-val", "ood-near", "ood-far", "ood-novel"}
        for row in result.report.rows:
            expected = cfg.ensemble_replicates if row.method == "ensemble" else len(cfg.seeds)
            assert row.n_runs == expected
            if row.dataset == "id-val":
                assert row.values["auroc_ood"] is None
            else:
                assert row.values["auroc_ood"] is not None

    def test_artifacts_on_disk(self, result_and_dir):
        _, out, cfg = result_and_dir
        assert (out / "config.json").exists()
        preds = sorted(p.name for p in (out / "predictions").iterdir())
        assert "msp_run0.csv" in preds and "ensemble_run1.csv" in preds
        for name in ("metrics.csv", "metrics.txt", "transfer.csv", "transfer_accuracy.txt",
                     "fraction_retained.csv", "threshold_bars.csv"):
            assert (out / name).exists()
        assert any((out / "reliability").iterdir())

    def test_self_consistency_with_persisted_predictions(self, result_and_dir):
        result, out, cfg = result_and_dir
        per_run = {}
        for path in (out / "predictions").iterdir():
            for pred in load_predictions(path):
                method, run = path.stem.rsplit("_run", 1)
                per_run.setdefault((method, int(run)), {})[pred.tag] = pred
        runs = [MethodRun(m, r, preds) for (m, r), preds in sorted(per_run.items())]
        rebuilt = build_report(runs)
        for row in result.report.rows:
            other = rebuilt.row(row.method, row.dataset)
            for key, value in row.values.items():
                if value is None:
                    assert other.values[key] is None
                else:
                    assert other.values[key] == value

    def test_transfer_matrices_match_rebuild(self, result_and_dir):
        result, out, cfg = result_and_dir
        transfers = build_transfers(result.runs)
        for method, matrix in result.transfers.items():
            assert transfers[method].cells == matrix.cells

    def test_emitted_cells_parse_back_at_three_decimals(self, result_and_dir):
        import re

        result, out, cfg = result_and_dir
        text = (out / "metrics.txt").read_text()
        lines = iter(text.splitlines())
        dataset = None
        keys = ["accuracy", "ap", "ece", "mce", "max_gap", "auroc_ood"]
        checked = 0
        for line in lines:
            block = re.match(r"== (.+) ==", line)
            if block:
                dataset = block.group(1)
                continue
            cell = re.match(r"(\w+)\s", line)
            if dataset is None or cell is None or cell.group(1) in ("method", ""):
                continue
            method = cell.group(1)
            if method not in cfg.methods:
                continue
            values = re.findall(r"(-|\d\.\d{3} \+/- \d\.\d{3})\*?", line)
            row = result.report.row(method, dataset)
            for key, rendered in zip(keys, values):
                expected = row.values.get(key)
                if rendered == "-":
                    assert expected is None
                else:
                    mean, std = rendered.split(" +/- ")
                    assert mean == f"{expected[0]:.3f}"
                    assert std == f"{expected[1]:.3f}"
                    checked += 1
        assert checked >= len(cfg.methods) * 4 * 5  # 4 datasets, >= 5 metrics each

    def test_determinism_bit_identical_artifacts(self, tmp_path):
        cfg = small_config(seeds=(3,), methods=("msp", "sngp"), ensemble_replicates=1)
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_experiment(cfg, outdir=a)
        run_experiment(cfg, outdir=b)
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_without_outdir_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = small_config(seeds=(0,), epochs=2, ensemble_replicates=1)
        result = run_experiment(cfg)
        assert [(r.method, r.run_index) for r in result.runs] == [
            ("msp", 0), ("dropout", 0), ("sngp", 0), ("ensemble", 0)
        ]
        assert list(tmp_path.iterdir()) == []

    def test_stage_failure_names_seed_method_stage(self, tmp_path, monkeypatch):
        import uqlab.experiment as experiment

        def boom(*args, **kwargs):
            raise DataError("deliberate")

        monkeypatch.setattr(experiment, "train_sngp", boom)
        cfg = small_config(seeds=(5,), methods=("sngp",))
        with pytest.raises(DataError, match="seed=5 method=sngp stage=train"):
            run_experiment(cfg, outdir=tmp_path)
        # Partial results: the config echo survives the failure.
        assert (tmp_path / "config.json").exists()


class TestExternalMode:
    def test_external_predictions_grouping(self, tmp_path):
        from uqlab.predfile import save_predictions

        rng = make_rng(2)
        sets = []
        for seed in (0, 1):
            for tag in ("id-val", "ood-x"):
                sets.append(synthetic_pred(rng, tag, method="msp", seed=seed))
        path = tmp_path / "external.csv"
        save_predictions(sets, path)
        runs = experiment._external_runs([path])
        assert build_report(runs).row("msp", "ood-x").n_runs == 2
        assert "msp" in build_transfers(runs)

    def test_external_empty_rejected(self, tmp_path):
        from uqlab.predfile import HEADER

        path = tmp_path / "empty.csv"
        path.write_text(",".join(HEADER) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="contain no prediction sets"):
            experiment._external_runs([path])


class TestPoolSize:
    @staticmethod
    def _blas_env(monkeypatch, env):
        for var in BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)

    @pytest.mark.parametrize("cpus", [1, 2, 64])
    def test_capped_by_tasks_and_usable_cpus(self, monkeypatch, cpus):
        # Large counts go through the cap only: no process starts here.
        self._blas_env(monkeypatch, {"OPENBLAS_NUM_THREADS": "1"})
        monkeypatch.setattr(experiment, "_usable_cpus", lambda: cpus)
        # This process trains the GP heads on one CPU; workers get the rest.
        assert experiment._pool_size(15) == min(cpus - 1, 15)
        assert experiment._pool_size(3) == min(cpus - 1, 3)
        assert experiment._pool_size(0) == 0

    @pytest.mark.parametrize(
        "env, workers",
        [
            ({"OPENBLAS_NUM_THREADS": "1"}, 7),
            ({"OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": " 1 "}, 7),
            ({}, 0),
            ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 0),
            ({"MKL_NUM_THREADS": "2"}, 0),
        ],
        ids=["openblas-1", "omp-and-mkl-1", "unset", "one-not-1", "mkl-2"],
    )
    def test_workers_only_with_single_threaded_blas(self, monkeypatch, env, workers):
        self._blas_env(monkeypatch, env)
        monkeypatch.setattr(experiment, "_usable_cpus", lambda: 8)
        assert experiment._pool_size(15) == workers
        assert experiment._pool_size(0) == 0

    @pytest.mark.parametrize(
        "cpu_max, workers",
        [
            ("max 100000\n", 7),
            ("400000 100000\n", 3),
            ("200000 100000\n", 1),
            ("150000 100000\n", 0),
            ("50000 100000\n", 0),
            ("1600000 100000\n", 7),
            ("not a quota\n", 7),
            (None, 7),
        ],
        ids=["no-quota", "4-cpus", "2-cpus", "1.5-cpus", "half-a-cpu", "above-affinity", "unreadable", "no-file"],
    )
    def test_capped_by_the_cgroup_cpu_quota(self, tmp_path, monkeypatch, cpu_max, workers):
        # A container's CPU quota can be far below the CPUs its affinity lists.
        self._blas_env(monkeypatch, {"OPENBLAS_NUM_THREADS": "1"})
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        path = tmp_path / "cpu.max"
        if cpu_max is not None:
            path.write_text(cpu_max)
        monkeypatch.setattr(experiment, "_CPU_MAX", path)
        assert experiment._pool_size(15) == workers
