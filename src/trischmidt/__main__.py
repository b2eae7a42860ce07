"""``trischmidt`` and ``python -m trischmidt``: the command line, at one BLAS thread.

Threaded BLAS products sum in another order, so a report's last digits would
move with the thread count; ``main`` pins it before anything loads numpy.
A command's garbage does not grow with its input, so ``main`` also runs it
with the cyclic collector off, and freezes the heap before exit so that
finalization's collection walks none of what numpy made.
"""

import gc
import os
import sys


def main() -> int:
    gc.disable()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    from . import cli

    try:
        return cli.main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
