"""The ``uqlab`` command: pins BLAS to one thread, then runs ``uqlab.cli``.

This module imports no numpy, so that the variables it sets reach BLAS
when numpy loads. With BLAS at one thread a run trains its dense
networks in worker processes (``experiment._pool_size``); with OpenBLAS
left at one thread per CPU it starts none and runs slower. A BLAS thread
variable that the user set wins: then nothing is set. Library callers
(``run_experiment``, ``python -m uqlab.cli``, ``uqlab.cli.main``) are not
touched.
"""

import os
import sys

# Every variable that sets a BLAS library's thread count.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# The ones the command sets: numpy's wheels bundle OpenBLAS, and the
# others cover builds against an OpenMP BLAS or MKL.
_PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Set BLAS to one thread, unless a thread variable is set or numpy has loaded."""
    if "numpy" in sys.modules or any(os.environ.get(var) for var in BLAS_THREAD_VARS):
        return
    for var in _PINNED:
        os.environ[var] = "1"


def main() -> int:
    pin_blas_threads()
    from .cli import main as cli_main

    return cli_main()
