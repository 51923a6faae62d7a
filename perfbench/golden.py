"""Golden SHA-256 manifests of every file a uqlab run writes.

    python3 perfbench/golden.py [--config criterion-09|default] [--check]

Runs ``uqlab run`` on the named config into ``.bench_results/golden/``
and writes the manifest there. With ``--check`` it compares against the
manifest committed under ``perfbench/golden/`` and exits 1 on any
difference; a refactor that must not change behaviour passes this check.
``criterion-09`` is the small config of acceptance criterion 09 (a few
seconds); ``default`` is ``ExperimentConfig()``, all four seeds (about
1.5 minutes).
"""

import envinfo

envinfo.pin_blas_threads()  # before numpy loads; BLAS sums depend on threads

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from workloads import CRITERION_09  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = {
    "criterion-09": {"schema_version": 1, **CRITERION_09.config},
    "default": {"schema_version": 1},
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", choices=sorted(CONFIGS), default="criterion-09")
    parser.add_argument("--check", action="store_true", help="compare with the committed manifest")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    from uqlab.cli import main as uqlab_main

    work = ROOT / ".bench_results" / "golden" / args.config
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.json"
    config.write_text(json.dumps(CONFIGS[args.config], indent=2) + "\n", encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        code = uqlab_main(["run", "--config", str(config), "--out", str(work / "out")])
    if code != 0:
        print(f"golden: uqlab run exited with code {code}", file=sys.stderr)
        return 1
    manifest = checks.tree_sha256(work / "out")
    checks.write_manifest(manifest, work / "manifest.sha256")
    print(f"{len(manifest)} files; manifest in {work / 'manifest.sha256'}")
    if not args.check:
        return 0
    committed = {}
    for line in (ROOT / "perfbench" / "golden" / f"{args.config}.sha256").read_text().splitlines():
        digest, rel = line.split("  ", 1)
        committed[rel] = digest
    errors = checks.compare_manifests(committed, manifest, "the committed manifest")
    for err in errors:
        print(f"golden: {err}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
