"""Experiment orchestration: configs, seed protocol, and the full pipeline.

One experiment runs every configured method over a synthetic shift
ladder, repeats it across seeds, and aggregates metrics to mean +/- std
with the population standard deviation; :func:`build_report` scores
prediction files of any model the same way. Single-model methods run
once per seed; the ensemble method runs as a fixed number of independent
replicate ensembles, each with freshly derived member seeds, so its
aggregate covers replicates x members distinct initializations.

Every random stream is derived by name from (seed, method, purpose), so
adding or removing a method never changes any other method's results and
the whole pipeline is a pure function of the config. That is also why
the work can be spread out without changing a byte of the results:
worker processes train the dense networks (the parent those of a run it
waits for that no worker started), the parent trains the first GP head
while they train, and a thread of the parent writes every prediction
file but the last. Files still appear in plan order, and whatever a run
shows (warnings, log records, its error) waits for the write before it,
so a failure leaves the same files and reports the same error as in one
process (see :class:`_TrainedRuns`).
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import sys
import warnings
from concurrent.futures import BrokenExecutor, Future
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path

from . import metrics, mlp, predfile, uq
from ._entry import BLAS_THREAD_VARS
from ._schema import _read
from .data import Dataset, LadderSpec, _check_size, make_ladder
from .errors import AllocationError, ConfigError, DataError, UndefinedMetricError, WorkerError
from .mlp import TrainConfig, init_mlp, train
from .predfile import load_predictions, save_predictions
from .rng import derive_seed, make_rng
from .selective import TransferMatrix, aggregate_transfer, transfer_matrix
from .uq import (
    EnsembleSpec,
    PredictionSet,
    ensemble_predict,
    mc_dropout_predict,
    msp_predict,
    sngp_predict,
    train_sngp,
)

__all__ = [
    "ExperimentConfig",
    "MethodRun",
    "MetricsReport",
    "ReportRow",
    "ExperimentResult",
    "run_experiment",
    "build_report",
    "build_transfers",
    "load_config",
    "save_config",
    "train_method",
    "KNOWN_METHODS",
]

CONFIG_SCHEMA_VERSION = 1
KNOWN_METHODS = ("msp", "dropout", "ensemble", "sngp")
# The datasets of the synthetic ladder that every model is evaluated on,
# in make_ladder's order.
_EVAL_TAGS = ("id-val", "ood-near", "ood-far", "ood-novel")
# The bytes of a trained network's Python objects in a run (its plan entry, its
# future, its MlpClassifier with the Layers and array headers): tracemalloc read
# 3.1-3.2 kB a network of one hidden unit with a worker, 1.2 kB in one process.
_NETWORK_OBJECTS = 4096


@dataclass(frozen=True)
class ExperimentConfig:
    seeds: tuple[int, ...] = (0, 1, 2, 3)
    methods: tuple[str, ...] = KNOWN_METHODS
    hidden_sizes: tuple[int, ...] = (64, 64)
    dropout_rate: float = 0.5
    mc_passes: int = uq.MC_PASSES
    ensemble_members: int = 4
    ensemble_replicates: int = 3
    sngp_rff_dim: int = uq.RFF_DIM
    sngp_length_scale: float = uq.RFF_LENGTH_SCALE
    sngp_ridge: float = uq.RIDGE
    spectral_bound: float = 4.0
    learning_rate: float = TrainConfig.learning_rate
    weight_decay: float = TrainConfig.weight_decay
    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    ladder: LadderSpec = field(default_factory=LadderSpec)

    def __post_init__(self):
        for name in ("seeds", "methods"):
            values = getattr(self, name)
            if not values:
                raise ConfigError("must be non-empty", key=name)
            if len(set(values)) < len(values):
                raise ConfigError(f"must not repeat an entry, got {list(values)}", key=name)
        unknown = set(self.methods) - set(KNOWN_METHODS)
        if unknown:
            raise ConfigError(
                f"unknown methods {sorted(unknown)}; known: {KNOWN_METHODS}", key="methods"
            )
        _check_size(self.ensemble_replicates, "ensemble_replicates")
        sizes = (2, *self.hidden_sizes, 2)  # a network's widths: the ladder's 2 features in
        for inputs, size in zip(sizes, self.hidden_sizes):  # each layer's float64 weights
            _check_size(size, "hidden_sizes", per=8 * inputs)
        if "sngp" in self.methods and not self.hidden_sizes:
            raise ConfigError("sngp needs at least one hidden layer", key="hidden_sizes")
        # The ranges the training and prediction code checks, at load, for
        # the methods that read them (as for hidden_sizes above).
        try:
            self.train_config(0)
            if "dropout" in self.methods:
                mlp._check_regularizers(self.dropout_rate, None)
                # Each eval set's dropout predictions: one float64 array of (passes, samples, 2).
                largest = max(self.ladder.n_val, self.ladder.n_ood, self.ladder.n_novel)
                _check_size(self.mc_passes, "mc_passes", per=2 * 8 * largest)
            if "ensemble" in self.methods:
                # What a run holds of each network of every replicate: its float64
                # parameters (workers train them all ahead), its float64 logit pairs
                # on the eval sets (the report reads them all) and its Python objects.
                params = sum(n_in * n_out + n_out for n_in, n_out in zip(sizes, sizes[1:]))
                logits = self.ladder.n_val + 2 * self.ladder.n_ood + self.ladder.n_novel
                network = 8 * params + 16 * logits + _NETWORK_OBJECTS
                members = self.ensemble_members
                _check_size(members, "ensemble_members", least=2, per=network, held=True)
                _check_size(
                    self.ensemble_replicates, "ensemble_replicates", per=members * network, held=True
                )
            if "sngp" in self.methods:
                mlp._check_regularizers(0.0, self.spectral_bound)
                uq._check_rff(self.sngp_rff_dim, self.sngp_length_scale)
                uq._check_ridge(self.sngp_ridge)
        except ConfigError as exc:
            raise ConfigError(exc.reason, key=_FIELD_OF_PARAM.get(exc.key, exc.key)) from None

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.learning_rate,
            weight_decay=self.weight_decay,
            epochs=self.epochs,
            batch_size=self.batch_size,
            seed=seed,
        )


# The ExperimentConfig field behind each library parameter whose name differs.
_FIELD_OF_PARAM = {
    "rff_dim": "sngp_rff_dim",
    "length_scale": "sngp_length_scale",
    "ridge": "sngp_ridge",
}

# Each ExperimentConfig field and its key path in config.json, in the order
# save_config writes them. A nested dataclass (ladder and its near/far
# shifts) is a JSON object keyed by its own field names.
_CONFIG_PATHS = {
    "seeds": ("seeds",),
    "methods": ("methods",),
    "hidden_sizes": ("model", "hidden_sizes"),
    "spectral_bound": ("model", "spectral_bound"),
    "learning_rate": ("train", "learning_rate"),
    "weight_decay": ("train", "weight_decay"),
    "epochs": ("train", "epochs"),
    "batch_size": ("train", "batch_size"),
    "dropout_rate": ("dropout", "rate"),
    "mc_passes": ("dropout", "passes"),
    "ensemble_members": ("ensemble", "members"),
    "ensemble_replicates": ("ensemble", "replicates"),
    "sngp_rff_dim": ("sngp", "rff_dim"),
    "sngp_length_scale": ("sngp", "length_scale"),
    "sngp_ridge": ("sngp", "ridge"),
    "ladder": ("ladder",),
}


def save_config(cfg: ExperimentConfig, path) -> None:
    doc = {"schema_version": CONFIG_SCHEMA_VERSION}
    for name, (*sections, key) in _CONFIG_PATHS.items():
        node = doc
        for section in sections:
            node = node.setdefault(section, {})
        value = getattr(cfg, name)
        node[key] = dataclasses.asdict(value) if dataclasses.is_dataclass(value) else value
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # also over-long ints, deep nesting
            raise ConfigError(f"config is not valid JSON: {exc}") from None
    if type(doc) is not dict:
        raise ConfigError("config must be a JSON object")
    version = doc.pop("schema_version", None)
    if type(version) is not int or version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported config schema_version {version!r}, expected {CONFIG_SCHEMA_VERSION}"
        )
    # Earlier versions wrote a "jitter" block of metadata that no code used,
    # and two retired keys of a report mode, which load at a ladder run's values.
    doc.pop("jitter", None)
    for key, value in (("id_val_tag", "id-val"), ("external_predictions", None)):
        if key in doc and doc[key] == value:
            del doc[key]
    return _read(ExperimentConfig, doc, "config", _CONFIG_PATHS)


@dataclass
class MethodRun:
    """One trained instance of one method, evaluated on every dataset."""

    method: str
    run_index: int
    predictions: dict[str, PredictionSet]  # dataset tag -> predictions


@dataclass(frozen=True)
class ReportRow:
    method: str
    dataset: str
    n_runs: int
    values: dict  # metric key -> (mean, std) or None


@dataclass
class MetricsReport:
    rows: list[ReportRow]
    bins: dict  # (method, dataset, run_index) -> metrics.BinStats

    def row(self, method: str, dataset: str) -> ReportRow:
        for r in self.rows:
            if r.method == method and r.dataset == dataset:
                return r
        raise KeyError((method, dataset))


@dataclass
class ExperimentResult:
    report: MetricsReport
    transfers: dict[str, TransferMatrix]
    runs: list[MethodRun]


@contextmanager
def _stage(seed, method: str | None, stage: str, replicate: int = 0):
    """Tag any package error with the failing (seed, method, stage); ``None`` names no method."""
    if method == "ensemble":
        stage += f"-replicate-{replicate}"
    try:
        yield
    except Exception as exc:
        where = f"seed={seed} method={method}" if method else f"seed={seed}"
        message = f"{where} stage={stage}: {exc}"
        # numpy refuses an array whose bytes pass the largest size with a ValueError.
        if isinstance(exc, MemoryError) or str(exc).startswith("array is too big"):
            # numpy's message ignores exc.args; Python's own MemoryError has no message.
            raise AllocationError(message if str(exc) else message + "out of memory") from exc
        exc.args = (message,)
        raise


def _ladder(spec: LadderSpec, seed: int) -> dict[str, Dataset]:
    """``make_ladder(spec, seed)``, whose failure names the seed and ``stage=ladder``."""
    with _stage(seed, None, "ladder"):
        return make_ladder(spec, seed)


def train_method(cfg: ExperimentConfig, method: str, data: Dataset, seed: int, replicate: int = 0):
    """Train ``method`` on ``data`` under the seed protocol of base ``seed``.

    Returns the trained classifier for "msp" and "dropout", the
    ``(model, head)`` pair for "sngp", and for "ensemble" the EnsembleSpec
    of replicate ``replicate``. Every seed is derived by name from
    (seed, method[, replicate, member]), so ``uqlab train`` checkpoints
    hold the models that ``uqlab run`` trains.
    """
    if method == "sngp":
        return train_sngp(
            data,
            cfg.train_config(derive_seed(seed, method)),
            hidden_sizes=cfg.hidden_sizes,
            spectral_bound=cfg.spectral_bound,
            rff_dim=cfg.sngp_rff_dim,
            length_scale=cfg.sngp_length_scale,
            ridge=cfg.sngp_ridge,
        )
    if method not in KNOWN_METHODS:
        raise ConfigError(f"unknown method {method!r}; known: {KNOWN_METHODS}")
    networks = _dense_networks(cfg, method, seed, replicate)
    return _assemble(method, [_train_mlp(cfg, data, *net) for net in networks])


def _dense_networks(cfg: ExperimentConfig, method: str, seed: int, replicate: int):
    """``(dropout_rate, run_seed)`` of each dense network one run of ``method`` trains."""
    if method == "ensemble":
        return [
            (0.0, derive_seed(seed, "ensemble", replicate, "member", m))
            for m in range(cfg.ensemble_members)
        ]
    return [(cfg.dropout_rate if method == "dropout" else 0.0, derive_seed(seed, method))]


def _assemble(method: str, models):
    """The trained object of one dense run from its networks' models."""
    return EnsembleSpec(models) if method == "ensemble" else models[0]


def _train_mlp(cfg: ExperimentConfig, data: Dataset, dropout_rate: float, run_seed: int):
    d = data.features.shape[1]
    model = init_mlp(
        [d, *cfg.hidden_sizes, 2], dropout_rate, None, seed=derive_seed(run_seed, "init")
    )
    return train(model, data, cfg.train_config(derive_seed(run_seed, "train")))


def _predict(cfg: ExperimentConfig, method: str, trained, data: Dataset, seed: int, replicate: int):
    if method == "msp":
        return msp_predict(trained, data, seed=seed)
    if method == "dropout":
        rng = make_rng(derive_seed(derive_seed(seed, "dropout"), "predict", data.tag))
        return mc_dropout_predict(trained, data, cfg.mc_passes, rng=rng, seed=seed)
    if method == "sngp":
        model, head = trained
        return sngp_predict(model, head, data, seed=seed)
    return ensemble_predict(trained, data, seed=derive_seed(seed, "ensemble", replicate))


# Workers are forked on Linux. A one-seed default run took the same time
# with fork, forkserver and spawn, within the machine's noise; but spawn
# and forkserver import numpy and uqlab again in every worker, and re-run
# the caller's __main__ module, which breaks a script without a main
# guard. macOS and Windows keep their own default, spawn.
_START_METHOD = "fork" if sys.platform == "linux" else "spawn"


# The CPU quota of this process's cgroup (v2): "<quota> <period>", or "max <period>".
_CPU_MAX = Path("/sys/fs/cgroup/cpu.max")


def _usable_cpus() -> int:
    """The CPUs this process may use: its affinity set, capped by its cgroup's CPU quota.

    In a container limited to 2 CPUs the affinity set can still list every
    CPU of the host; the quota says 2.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    with suppress(OSError, ValueError):
        quota, period = _CPU_MAX.read_text().split()
        if quota != "max":
            cpus = min(cpus, max(1, int(quota) // int(period)))
    return cpus


def _pool_size(n_tasks: int) -> int:
    """The number of worker processes that train ``n_tasks`` dense networks; 0 starts none.

    One worker per usable CPU but the one this process needs for the GP
    heads (and the networks no worker has started when it waits for them),
    never more than the tasks, and only when BLAS is pinned to one
    thread: every BLAS thread variable that is set says 1, and one is set
    (the ``uqlab`` command sets them when none is, see ``uqlab._entry``).
    BLAS threads in several processes at once take the CPUs from each
    other: with OpenBLAS left at its default of one thread per CPU, two
    workers made a one-seed default run 3-4x slower than training in one
    process. On 2 CPUs, a second worker made that run no faster and added
    ~30 MB of resident memory.
    """
    values = {os.environ[var].strip() for var in BLAS_THREAD_VARS if os.environ.get(var)}
    return min(_usable_cpus() - 1, n_tasks) if values == {"1"} else 0


# prctl's option number for "signal me when my parent exits" (linux/prctl.h).
_PR_SET_PDEATHSIG = 1


def _end_with_parent(parent: int) -> None:
    """Worker initializer: the worker is killed when the process that started it ends.

    A parent stopped by a signal (SIGTERM, SIGKILL) runs no ``finally``
    and so never shuts the pool down, while its idle workers wait on their
    call queue for ever. On Linux the kernel sends the worker SIGKILL when
    its parent exits (``prctl(PR_SET_PDEATHSIG)``); a worker whose parent
    ended before that took hold exits at once. If the request fails, the
    worker runs as it would without it. Elsewhere this does nothing.
    """
    if sys.platform != "linux":
        return
    import ctypes

    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)


_taken = None  # in a worker, _TrainedRuns._taken, set by _start_worker


def _start_worker(parent: int, taken) -> None:
    """Worker initializer: keep the flags of the networks taken, and end with ``parent``."""
    global _taken
    _taken = taken
    _end_with_parent(parent)


def _take(taken, index: int, timeout: float | None = None) -> bool:
    """Set flag ``index`` of ``taken`` if no process set it: whether this call set it. False
    too without the lock in ``timeout`` s: a worker killed holding it never releases it."""
    if not taken.get_lock().acquire(timeout=timeout):
        return False
    first, taken[index] = not taken[index], 1
    taken.get_lock().release()
    return first


def _train_untaken(cfg: ExperimentConfig, data: Dataset, index: int, dropout_rate: float, run_seed: int):
    """Worker task: train dense network ``index``, or return None if the parent took it first."""
    return _train_mlp(cfg, data, dropout_rate, run_seed) if _take(_taken, index) else None


def _hold(fn, *args):
    """Call ``fn(*args)`` and hold what it shows: ``(result, error, held)``.

    ``held`` lists its ``warnings.showwarning`` arguments and ``uq.logger``
    records in order. (``warnings.catch_warnings`` would reset every
    module's record of the warnings it showed once per code location.)
    """
    held, showwarning = [], warnings.showwarning
    warnings.showwarning = lambda *warning: held.append(warning)
    uq.logger.addFilter(held.append)  # returns None: the record is held, not handled
    try:
        return fn(*args), None, held
    except Exception as exc:
        return None, exc, held
    finally:
        uq.logger.removeFilter(held.append)
        warnings.showwarning = showwarning


class _TrainedRuns:
    """The runs of one experiment in plan order, trained here or in worker processes.

    Enter it to start the workers (when ``_pool_size`` allows any), and
    iterate it for ``(method, run_index, seed, replicate, result)`` per run:
    its trained object, or with ``predict`` its predictions by tag. Each
    method runs once per seed, method by method; then ensemble replicate
    ``r`` runs on base seed ``seeds[r % len(seeds)]``. The workers train
    the dense networks (msp, dropout and each ensemble member), all handed
    to them up front; this process trains the GP heads (sngp), the plan's
    first one on entering when dense runs come before it, and while it
    waits for a dense run, that run's networks no worker has started (a
    shared flag per network says who took it). Two rules make a failing
    run leave the same files and report the same error as one process
    writing each file in turn:

    - :meth:`save` hands every prediction file but the plan's last to one
      writer thread, with workers or without, and writes the last itself;
      the next run goes on during a write (numpy releases the GIL in the
      formatter's loops). The thread calls only private ``predfile``
      functions: what perfbench traces stays on this process's main thread.
    - At its turn, what this process does for a run (its training, or
      taking its networks from the workers, then its predictions) runs in
      one :func:`_hold`, which holds its warnings, ``uq.logger`` records
      and error; the GP run trained on entering adds its predictions to
      what it held then. The run then waits for the write before it, so a
      failed write comes first, and shows what it held.
    """

    def __init__(self, cfg: ExperimentConfig, predict: bool = False):
        self.cfg = cfg
        self.predict = predict
        seeds = cfg.seeds
        self.ladders = {seed: _ladder(cfg.ladder, seed) for seed in seeds}
        plan = [(m, i, seed, 0) for m in cfg.methods if m != "ensemble" for i, seed in enumerate(seeds)]
        if "ensemble" in cfg.methods:
            plan += [("ensemble", r, seeds[r % len(seeds)], r) for r in range(cfg.ensemble_replicates)]
        self.plan = plan
        self._pool = self._taken = None  # the workers; a flag per dense network, set by its trainer
        self._training = {}  # dense run -> (flag index, network, future) per network
        self._early = {}  # the GP run trained on entering -> what _hold returned
        self._write = None  # the future of the write handed to the writer thread

    def __enter__(self):
        from concurrent.futures import ThreadPoolExecutor  # ~1 ms, not paid by every uqlab start

        # Its thread starts at the first write, after the fork pool started
        # every worker at its first submit: nothing forks while it runs.
        self._writer = ThreadPoolExecutor(1)
        cfg = self.cfg
        dense = {}
        for run in self.plan:
            method, _, seed, replicate = run
            if method != "sngp":
                with _stage(seed, method, "train", replicate):
                    dense[run] = _dense_networks(cfg, method, seed, replicate)
        networks = [(run, net) for run, nets in dense.items() for net in nets]
        workers = _pool_size(len(networks))
        if not workers:
            return self
        # Imported here, not with uqlab: they add ~25 ms to every uqlab start.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context(_START_METHOD)
        self._taken = context.Array("b", len(networks))
        self._pool = ProcessPoolExecutor(
            workers, context, initializer=_start_worker, initargs=(os.getpid(), self._taken)
        )
        try:
            for i, (run, net) in enumerate(networks):
                future = self._pool.submit(_train_untaken, cfg, self.ladders[run[2]]["id-train"], i, *net)
                self._training.setdefault(run, []).append((i, net, future))
            # The plan's first GP run trains now, while the workers train
            # the dense runs that come before it.
            gp = next((run for run in self.plan if run[0] == "sngp"), self.plan[0])
            if gp != self.plan[0]:
                self._early[gp] = _hold(self._train, gp)
        except BaseException:
            self._pool.shutdown(cancel_futures=True)
            raise
        return self

    def __exit__(self, *exc_info):
        try:
            self._finish_write()
        finally:
            self._writer.shutdown()
            if self._pool is not None:
                self._pool.shutdown(cancel_futures=True)
        return False

    def __iter__(self):
        for run in self.plan:
            trained, error, held = self._early.pop(run, None) or (None, None, [])
            if error is None:
                result, error, more = _hold(self._step, run, trained)
                held += more
            self._finish_write()
            for item in held:
                if isinstance(item, tuple):
                    warnings.showwarning(*item)
                else:
                    uq.logger.handle(item)
            if error is not None:
                raise error
            yield *run, result

    def _train(self, run):
        method, _, seed, replicate = run
        with _stage(seed, method, "train", replicate):
            data = self.ladders[seed]["id-train"]
            if run not in self._training:
                return train_method(self.cfg, method, data, seed, replicate)
            # Train the networks no worker has started, from the last (workers start in order).
            networks = self._training[run]
            for k, (i, net, _) in reversed(list(enumerate(networks))):
                if not _take(self._taken, i, timeout=1.0):  # a worker holds it for a flag only
                    break
                networks[k] = i, net, (own := Future())  # its error, raised in network order
                try:
                    own.set_result(_train_mlp(self.cfg, data, *net))
                except Exception as exc:
                    own.set_exception(exc)
            try:
                return _assemble(method, [future.result() for *_, future in networks])
            except BrokenExecutor as exc:  # a worker died
                raise WorkerError(str(exc)) from None

    def _step(self, run, trained):
        """Train ``run``, unless ``trained`` holds it, and with ``predict`` predict every eval set."""
        if trained is None:
            trained = self._train(run)
        if not self.predict:
            return trained
        method, _, seed, replicate = run
        with _stage(seed, method, "predict", replicate):
            return {t: _predict(self.cfg, method, trained, self.ladders[seed][t], seed, replicate)
                    for t in _EVAL_TAGS}

    def save(self, sets: list[PredictionSet], path: Path, last: bool) -> None:
        """Write ``sets`` to the prediction file ``path``: on the writer thread, which the
        next run waits for, or here if it is the plan's ``last`` (nothing is left to overlap)."""
        if last:
            save_predictions(sets, path)
        else:
            self._write = self._writer.submit(predfile._write_rows, path, sets)

    def _finish_write(self) -> None:
        """Wait for the write the thread has, if any; raise its error."""
        if self._write is not None:
            future, self._write = self._write, None
            future.result()


def _synthetic_runs(cfg: ExperimentConfig, outdir: Path | None) -> list[MethodRun]:
    runs = []
    with _TrainedRuns(cfg, predict=True) as trained_runs:
        for method, run_index, _, _, preds in trained_runs:
            runs.append(MethodRun(method, run_index, preds))
            if outdir is not None:
                pred_dir = Path(outdir) / "predictions"
                pred_dir.mkdir(parents=True, exist_ok=True)
                last = len(runs) == len(trained_runs.plan)
                trained_runs.save(list(preds.values()), pred_dir / f"{method}_run{run_index}.csv", last)
    return runs


def _external_runs(paths) -> list[MethodRun]:
    """The runs of the prediction files ``paths``: one per (method, seed) they hold."""
    sets = []
    for path in paths:
        sets.extend(load_predictions(path))
    groups: dict[tuple[str, int], dict[str, PredictionSet]] = {}
    for pred in sets:
        key = (pred.method, pred.seed)
        groups.setdefault(key, {})
        if pred.tag in groups[key]:
            raise DataError(
                f"duplicate predictions for method={pred.method} seed={pred.seed} tag={pred.tag}"
            )
        groups[key][pred.tag] = pred
    runs = []
    counters: dict[str, int] = {}
    for (method, _seed), preds in groups.items():
        idx = counters.get(method, 0)
        counters[method] = idx + 1
        runs.append(MethodRun(method, idx, preds))
    if not runs:
        raise DataError("external prediction files contain no prediction sets")
    return runs


def build_report(runs: list[MethodRun], id_val_tag: str = "id-val") -> MetricsReport:
    """Aggregate per-run metrics to mean +/- std rows plus reliability bins."""
    methods = list(dict.fromkeys(r.method for r in runs))
    rows = []
    bins = {}
    for method in methods:
        method_runs = [r for r in runs if r.method == method]
        tags = list(dict.fromkeys(t for r in method_runs for t in r.predictions))
        per_tag: dict[str, dict[str, list[float]]] = {
            t: {k: [] for k in metrics.METRIC_KEYS} for t in tags
        }
        for r in method_runs:
            if id_val_tag not in r.predictions:
                raise DataError(
                    f"method={method} run={r.run_index} has no {id_val_tag!r} predictions"
                )
            id_unc = r.predictions[id_val_tag].uncertainty
            for tag, pred in r.predictions.items():
                per_tag[tag]["accuracy"].append(metrics.accuracy(pred))
                with suppress(UndefinedMetricError):  # AP averages the runs where it is defined
                    ap = metrics.average_precision(pred.probs[:, 1], pred.labels)
                    per_tag[tag]["ap"].append(ap)
                stats = bins[(method, tag, r.run_index)] = metrics.bin_stats(pred)
                per_tag[tag]["ece"].append(metrics.ece(stats))
                per_tag[tag]["mce"].append(metrics.mce(stats))
                per_tag[tag]["max_gap"].append(metrics.max_gap_unweighted(stats))
                if tag != id_val_tag:
                    per_tag[tag]["auroc_ood"].append(metrics.auroc_ood(id_unc, pred.uncertainty))
        for tag in tags:
            values = {
                key: (metrics._mean_std(vals)[:2] if vals else None)
                for key, vals in per_tag[tag].items()
            }
            rows.append(ReportRow(method, tag, len(method_runs), values))
    return MetricsReport(rows=rows, bins=bins)


def build_transfers(runs: list[MethodRun], id_val_tag: str = "id-val") -> dict[str, TransferMatrix]:
    """Per-method aggregated threshold-transfer matrices."""
    methods = list(dict.fromkeys(r.method for r in runs))
    out = {}
    for method in methods:
        per_seed = [
            transfer_matrix(r.predictions, id_val_tag) for r in runs if r.method == method
        ]
        out[method] = aggregate_transfer(method, per_seed)
    return out


def run_experiment(cfg: ExperimentConfig, outdir=None) -> ExperimentResult:
    """Run the full pipeline: data, training, prediction, aggregation.

    When ``outdir`` is given, every PredictionSet is persisted under
    ``outdir/predictions/`` as it is produced (so partial results survive
    a failing stage), the config echo is written, and the report files
    are emitted. The result is a pure function of the config.
    """
    from .report import emit_report

    out = Path(outdir) if outdir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        save_config(cfg, out / "config.json")
    runs = _synthetic_runs(cfg, out)
    report = build_report(runs)
    transfers = build_transfers(runs)
    if out is not None:
        emit_report(report, transfers, out)
    return ExperimentResult(report, transfers, runs)
