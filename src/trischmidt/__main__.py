"""``trischmidt`` and ``python -m trischmidt``: the command line, at one BLAS thread.

Threaded BLAS products sum in another order, so a report's last digits would
move with the thread count; ``main`` pins it before anything loads numpy.
"""

import os
import sys


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    from . import cli

    return cli.main()


if __name__ == "__main__":
    sys.exit(main())
