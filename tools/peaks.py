"""Print the memory peaks of README's table.

    python tools/peaks.py

Runs three commands through ``hhtelm.cli.main`` in a temporary directory:
``synth --n-per-class 200 --seed 42``, ``features`` on those 400 trials,
and ``features`` on their first 20 trials, which is ``perfbench``'s chunk
0 of that seed. Each command runs once to warm up and once under
``tracemalloc``, and the peak of the allocations of that second run is
printed in MiB. As ``tools/artifacts.py`` does, it sets one BLAS thread
unless the caller has set the thread variables. It takes about 7 s with
one BLAS thread on a shared 2-vCPU machine.
"""
import os
import sys
import tempfile
import tracemalloc
from itertools import islice

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHUNK_TRIALS = 20


def peak_mib(run, argv):
    """The tracemalloc peak, in MiB, of the second of two runs of argv."""
    argv = [*argv, "--quiet"]
    if run(argv) != 0:
        raise SystemExit(f"peaks: {' '.join(argv)} failed")
    tracemalloc.start()
    try:
        code = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if code != 0:
        raise SystemExit(f"peaks: {' '.join(argv)} failed")
    return peak / 2**20


def first_trials(trials, out, count):
    """Copy the comment lines, the header and the first count trials of the
    trials CSV ``trials`` to ``out``, as ``perfbench`` makes its chunks."""
    with open(trials) as source, open(out, "w") as chunk:
        line = source.readline()
        while line.startswith("#"):
            chunk.write(line)
            line = source.readline()
        chunk.write(line)
        chunk.writelines(islice(source, count))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        print("usage: python tools/peaks.py", file=sys.stderr)
        return 1
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from hhtelm_entry import THREAD_VARS

    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    # Imported only now: BLAS reads its thread count when numpy loads.
    from hhtelm.cli import main as hhtelm_main

    with tempfile.TemporaryDirectory() as work:
        trials = os.path.join(work, "trials.csv")
        chunk = os.path.join(work, "chunk.csv")
        out = os.path.join(work, "features.csv")
        synth = ("synth", "--n-per-class", "200", "--seed", "42", "--out", trials)
        print(f"{' '.join(synth[:5])}: {peak_mib(hhtelm_main, synth):.2f} MiB")
        first_trials(trials, chunk, CHUNK_TRIALS)
        for label, source in (("400", trials), (f"the first {CHUNK_TRIALS}", chunk)):
            peak = peak_mib(hhtelm_main, ("features", "--in", source, "--out", out))
            print(f"features on {label} trials: {peak:.2f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
