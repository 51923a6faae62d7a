"""Write one workload's inputs for a seed.

    python3 perfbench/make_inputs.py --workload NAME --seed N --out DIR

``run.py`` starts this in a fresh interpreter and times it, so the
benchmark's set-up time covers interpreter start, ``import uqlab`` and
input generation.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import uqlab  # noqa: E402,F401  -- the import is part of the timed set-up

from workloads import WORKLOADS, make_inputs  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    make_inputs(WORKLOADS[args.workload], args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
