"""Faults for a two-seed msp/sngp/ensemble uqlab run, whatever its workers.

``install(kind, at)`` runs in the uqlab process before its command, where
its ``config.json`` is, with ``--out out``. It wraps ``experiment.train``,
``experiment.train_method`` and the predict functions ``experiment``
imports. Each process that trains a network adds its pid to ``pids``. Each
run logs ``<file> predicted`` through ``uq.logger`` as it predicts, to a
handler that writes ``handled: <message>`` to stderr, and each GP run warns
as it trains. From plan position ``at`` on, each run meets the fault
``kind``: "train" or "predict" (an error there), "death" (its worker dies
once the run before it has predicted), "sigterm" (to the uqlab process, as
run 0 trains), "late-write" (a FIFO at its file's path lets the write start
only once the next run predicts, then fails it) or "slow-write" (as late,
but a reader copies the whole write to ``out/read.csv``).
"""

import logging
import multiprocessing
import os
import select
import shutil
import signal
import sys
import threading
import warnings

from uqlab import experiment, uq
from uqlab.errors import DataError
from uqlab.experiment import load_config
from uqlab.rng import derive_seed

# The run's plan, (method, seed, replicate) per run, and the prediction file
# of each run: the first GP run comes after two dense runs.
PLAN = [("msp", 0, 0), ("msp", 1, 0), ("sngp", 0, 0), ("sngp", 1, 0), ("ensemble", 0, 0),
        ("ensemble", 1, 1)]
FILES = ["msp_run0", "msp_run1", "sngp_run0", "sngp_run1", "ensemble_run0", "ensemble_run1"]


def install(kind: str, at: int) -> None:
    cfg = load_config("config.json")
    # The plan position of each dense network, by the seed it trains with.
    trains = {
        derive_seed(run_seed, "train"): position
        for position, (method, seed, replicate) in enumerate(PLAN) if method != "sngp"
        for _, run_seed in experiment._dense_networks(cfg, method, seed, replicate)
    }
    uqlab_pid, predicted = os.getpid(), multiprocessing.get_context("fork").Event()
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("handled: %(message)s"))
    uq.logger.addHandler(handler)

    def fault(where, position):
        if kind == where and position >= at:
            raise DataError("injected fault")

    def train_seam(train):
        def seam(model, data, train_cfg):
            position = trains[train_cfg.seed]
            with open("pids", "a") as fh:
                fh.write(f"{os.getpid()}\n")
            if kind == "sigterm":
                os.kill(uqlab_pid, signal.SIGTERM)
            if kind == "death" and position >= at:
                predicted.wait(60)
                os._exit(1)
            fault("train", position)
            return train(model, data, train_cfg)
        return seam

    def train_method_seam(train_method):
        def seam(cfg, method, data, seed, replicate=0):
            if method == "sngp":
                fault("train", PLAN.index((method, seed, replicate)))
                warnings.warn(f"GP head trained on seed {seed}")
                warnings.warn("GP head trained")
            return train_method(cfg, method, data, seed, replicate)
        return seam

    def release(path):
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        select.select([fd], [], [], 60)  # the write has begun
        os.close(fd)  # its next block finds no reader

    def read_whole(path):
        with open(path, "rb") as fifo, open("out/read.csv", "wb") as fh:
            shutil.copyfileobj(fifo, fh)

    def predict_seam(name, predict):
        # A method's runs predict in plan order, each its eval sets in turn.
        runs, calls = [p for p, run in enumerate(PLAN) if f"{run[0]}_predict" == name], []

        def seam(*args, **kwargs):
            position = runs[len(calls) // 4]  # a call per eval set
            calls.append(position)
            fault("predict", position)
            if position == at + 1 and calls.count(position) == 1:
                fifo = f"out/predictions/{FILES[at]}.csv"
                if kind == "late-write":
                    release(fifo)
                if kind == "slow-write":
                    threading.Thread(target=read_whole, args=(fifo,)).start()
            pred = predict(*args, **kwargs)
            if kind == "death" and position == at - 1:
                predicted.set()
            if pred.tag == "id-val":
                uq.logger.warning("%s predicted", FILES[position])
            return pred
        return seam

    experiment.train = train_seam(experiment.train)
    experiment.train_method = train_method_seam(experiment.train_method)
    for name in ("msp_predict", "sngp_predict", "ensemble_predict"):
        setattr(experiment, name, predict_seam(name, getattr(experiment, name)))
