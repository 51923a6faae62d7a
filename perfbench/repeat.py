"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --workload NAME --seeds 1-10 [--trace 0|1] [--out FILE]

Each seed is one run of ``run.py`` with the ``run_seconds`` of
BENCHMARK.json. For every metric this prints the median, the quartiles
and the spread (interquartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles), next to the
metric's bound. ``--out`` also writes the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10 or 3,7,9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs, values, units = [], {}, {}
    for seed in args.seeds:
        cmd = [sys.executable, *bench["command"][1:], "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    summary = {}
    for name, xs in values.items():
        q1, median, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"unit": units[name], "median": median, "q1": q1, "q3": q3,
                         "spread": spread, "values": xs}
        bound = bounds.get(name)
        note = f"bound {bound}" + (" (spread above bound/3)" if spread > bound / 3 else "") \
            if bound is not None else ""
        print(f"{name:42s} median {median:12.6g} {units[name]:7s} spread {spread:.4f} {note}")
    if args.out:
        doc = {"workload": args.workload, "trace": args.trace, "runs": runs, "metrics": summary}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
