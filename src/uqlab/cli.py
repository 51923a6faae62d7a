"""Command-line interface.

Subcommands: ``synth`` (write ladder dataset CSVs), ``train`` (train
models and save checkpoints), ``eval`` (metric report from prediction
files), ``threshold`` (Youden thresholds, selective prediction, transfer
matrices from prediction files), ``report`` (all report artifacts from
prediction files), ``run`` (full pipeline). Exit codes: 0 success, 1
usage error, 2 data or parse error (or a training worker process that
died, or an array too large to allocate), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .data import save_dataset
from .errors import NumericalError, UqlabError
from .experiment import ExperimentConfig, _ladder, _TrainedRuns, load_config, run_experiment
from .experiment import _external_runs, build_report, build_transfers
from .mlp import save_checkpoint
from .report import emit_report, format_metrics_table, format_transfer_table, write_metrics_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load_cfg(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seeds=(args.seed,))
    if getattr(args, "methods", None):
        cfg = dataclasses.replace(cfg, methods=tuple(args.methods.split(",")))
    return cfg


def _cmd_synth(args) -> int:
    cfg = _load_cfg(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for seed in cfg.seeds:
        ladder = _ladder(cfg.ladder, seed)
        for tag, ds in ladder.items():
            path = out / f"{tag}_seed{seed}.csv"
            save_dataset(ds, path)
            print(f"wrote {path} ({len(ds)} samples)")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = _load_cfg(args)
    out = Path(args.out) / "checkpoints"
    out.mkdir(parents=True, exist_ok=True)
    with _TrainedRuns(cfg) as trained_runs:
        for method, _, seed, replicate, trained in trained_runs:
            if method == "ensemble":
                for m, member in enumerate(trained.members):
                    _save(member, out / f"ensemble_rep{replicate}_member{m}.json")
            else:
                model = trained[0] if method == "sngp" else trained  # sngp: (model, head)
                _save(model, out / f"{method}_seed{seed}.json")
    return EXIT_OK


def _save(model, path) -> None:
    save_checkpoint(model, path)
    print(f"wrote {path}")


def _run_external(args):
    """The report and transfer matrices of the prediction files, against ``--id-val``."""
    runs = _external_runs(args.predictions)
    return build_report(runs, args.id_val), build_transfers(runs, args.id_val)


def _cmd_eval(args) -> int:
    report = build_report(_external_runs(args.predictions), args.id_val)
    if args.format == "table":
        print(format_metrics_table(report), end="")
    else:
        write_metrics_csv(report, sys.stdout)
    return EXIT_OK


def _cmd_threshold(args) -> int:
    if args.out:
        report, transfers = _run_external(args)
    else:  # prints the transfer matrices only
        transfers = build_transfers(_external_runs(args.predictions), args.id_val)
    for matrix in transfers.values():
        print(format_transfer_table(matrix, "accuracy"))
        print(format_transfer_table(matrix, "ap"))
    if args.out:
        emit_report(report, transfers, args.out, id_val_tag=args.id_val)
        print(f"wrote report files to {args.out}")
    return EXIT_OK


def _cmd_report(args) -> int:
    report, transfers = _run_external(args)
    written = emit_report(report, transfers, args.out, id_val_tag=args.id_val)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = _load_cfg(args)
    result = run_experiment(cfg, outdir=args.out)
    print(format_metrics_table(result.report), end="")
    print(f"artifacts written to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="uqlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate ladder dataset CSVs")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--seed", type=int, help="use a single seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train models, save checkpoints")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--seed", type=int, help="use a single seed")
    p.add_argument("--methods", help="comma-separated method list")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="metrics from prediction files")
    p.add_argument("predictions", nargs="+", help="prediction CSV files")
    p.add_argument("--format", choices=("csv", "table"), default="table")
    p.add_argument("--id-val", default="id-val", help="tag of the ID validation dataset")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser(
        "threshold", help="Youden thresholds and transfer matrices"
    )
    p.add_argument("predictions", nargs="+", help="prediction CSV files")
    p.add_argument("--id-val", default="id-val")
    p.add_argument("--out", help="also write report files here")
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("report", help="all report artifacts from predictions")
    p.add_argument("predictions", nargs="+", help="prediction CSV files")
    p.add_argument("--id-val", default="id-val")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("run", help="full pipeline")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--seed", type=int, help="override: use this single seed")
    p.add_argument("--methods", help="comma-separated method list")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        kind, code, message = "numerical failure", EXIT_NUMERICAL, str(exc)
    except (UqlabError, OSError, UnicodeDecodeError) as exc:
        kind, code, message = "error", EXIT_DATA, str(exc)
    except MemoryError as exc:  # an array larger than memory or the address space
        kind, code, message = "error", EXIT_DATA, str(exc) or "out of memory"
    # One line, even when the message quotes a name with a line break from a file.
    print(f"uqlab: {kind}: " + "\\n".join(message.splitlines()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
