"""Entry point of the ``hhtelm`` command.

OpenBLAS, OpenMP and MKL read their thread counts once, when numpy and
scipy load them. This module sets those counts to one before it imports
the package, unless the caller has set them. On a small machine the
default count makes small solves many times slower than one thread, and
it can change the low bits of a solve. It lives outside the package so
that importing ``hhtelm`` leaves the environment alone.

Run it as ``hhtelm ...`` once installed, or ``python -m hhtelm_entry ...``
with ``src`` on the path.
"""
import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run():
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    from hhtelm.cli import main

    sys.exit(main())


if __name__ == "__main__":
    run()
