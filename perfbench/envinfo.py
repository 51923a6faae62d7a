"""BLAS thread pinning and the environment record stored with every result."""

import contextlib
import hashlib
import os
import platform
import subprocess
from pathlib import Path

# One BLAS thread, no more than nproc: the single-threaded baseline, and
# a core left for the rest of the machine.
BLAS_THREADS = 1
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_blas_threads() -> None:
    """Set every BLAS thread variable; call before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def source_sha256(root: Path) -> str:
    """One digest over every uqlab source file, standing for the code version."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "uqlab").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root: Path) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    commit = "unavailable: not a git checkout"
    if (root / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or commit
    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": BLAS_THREADS,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": source_sha256(root),
    }
