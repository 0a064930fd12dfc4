"""Run every ``hhtelm`` command on fixed inputs and list what they wrote.

    python tools/artifacts.py OUT

Runs ``COMMANDS`` in order through ``hhtelm.cli.main``, inside the new or
empty directory OUT, then writes OUT/MANIFEST: one line per artifact with
its sha256, its size in bytes and its path under OUT, sorted by path. The
first commands synthesize the inputs the later ones read. As the
``hhtelm`` command does (``hhtelm_entry``), it sets one BLAS thread unless
the caller has set the thread variables. Run it at two commits and diff
the two manifests: no output means every artifact is byte-identical. It
takes about 10 s with one BLAS thread on a shared 2-vCPU machine.
"""
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_KERNELS = ("svd", "hessenberg", "lu")


def _evaluate(layers, kernel, ridge):
    name = f"evaluate_{layers.replace(',', '-')}_{kernel}_{ridge}.json"
    return ("evaluate", "--features", "features_200.csv", "--layers", layers,
            "--kernel", kernel, "--ridge", ridge, "--out", name)


COMMANDS = (
    ("synth", "--n-per-class", "200", "--seed", "42", "--out", "trials_200.csv"),
    ("synth", "--n-per-class", "50", "--seed", "42", "--out", "trials_50.csv"),
    ("features", "--in", "trials_200.csv", "--out", "features_200.csv"),
    ("features", "--in", "trials_50.csv", "--out", "features_50.csv"),
    ("decompose", "--in", "trials_200.csv", "--trial-id", "synth-0001",
     "--trial-id", "synth-0050", "--trial-id", "synth-0100", "--out", "decompose_ids"),
    # 100 trials: two blocks of the block loop.
    ("decompose", "--in", "trials_50.csv", "--out", "decompose_all"),
    *(
        _evaluate(layers, kernel, ridge)
        for layers in ("40,30", "200,200", "100,340", "500,500")
        for kernel in _KERNELS
        for ridge in ("1e-3", "1e-8")
    ),
    # The bench slice of the sweep workload.
    ("sweep", "--features", "features_50.csv", "--min", "20", "--max", "70", "--step", "10",
     "--depth", "2", "--k", "5", "--out", "sweep_slice.csv"),
    ("sweep", "--features", "features_200.csv", "--min", "100", "--max", "500", "--step", "200",
     "--depth", "2", "--out", "sweep_default_3x3.csv"),
    ("sweep", "--features", "features_50.csv", "--depth", "3", "--budget", "6",
     "--out", "sweep_budget_depth3.csv"),
    ("sweep", "--features", "features_50.csv", "--depth", "2", "--budget", "8", "--kernel", "lu",
     "--out", "sweep_budget_lu.csv"),
)


def _manifest(out):
    """``sha256  size  path`` per file under ``out``, sorted by path."""
    entries = []
    for directory, _, names in os.walk(out):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                digest = hashlib.sha256(handle.read()).hexdigest()
            entries.append((os.path.relpath(path, out), digest, os.path.getsize(path)))
    return [f"{digest}  {size}  {path}" for path, digest, size in sorted(entries)]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python tools/artifacts.py OUT", file=sys.stderr)
        return 1
    out = os.path.abspath(argv[0])
    os.makedirs(out, exist_ok=True)
    if os.listdir(out):
        print(f"artifacts: {out} is not empty", file=sys.stderr)
        return 1
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from hhtelm_entry import THREAD_VARS

    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    # Imported only now: BLAS reads its thread count when numpy loads.
    from hhtelm.cli import main as hhtelm_main

    os.chdir(out)
    for command in COMMANDS:
        code = hhtelm_main([*command, "--quiet"])
        if code != 0:
            print(f"artifacts: exit {code} from {' '.join(command)}", file=sys.stderr)
            return 1
    lines = _manifest(out)
    with open(os.path.join(out, "MANIFEST"), "w", encoding="utf-8") as handle:
        handle.write("".join(line + "\n" for line in lines))
    print(f"artifacts: {len(lines)} files, {len(COMMANDS)} commands -> {out}/MANIFEST")
    return 0


if __name__ == "__main__":
    sys.exit(main())
