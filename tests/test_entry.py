"""Tests for the ``hhtelm`` command's entry module.

BLAS reads its thread count once, when numpy loads it, so each case runs
in a child process with the thread variables it names.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hhtelm import SynthConfig, save_trials_csv, synth_scp
from hhtelm_entry import THREAD_VARS

SRC = str(Path(__file__).resolve().parents[1] / "src")


def child(args, **thread_vars):
    """Run ``python args`` with ``src`` on the path and only the given
    thread variables set; returns stdout, failing on a non-zero exit."""
    env = {name: value for name, value in os.environ.items() if name not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(thread_vars)
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=False
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_the_package_leaves_the_thread_variables_unset():
    code = (
        "import os, hhtelm, hhtelm.cli, hhtelm_entry; "
        "print([name for name in hhtelm_entry.THREAD_VARS if name in os.environ])"
    )
    assert child(["-c", code]).strip() == "[]"


@pytest.mark.parametrize(
    "given, expected",
    [({}, "1,1,1"), ({"OMP_NUM_THREADS": "3"}, "1,3,1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2,1,1")],
    ids=["unset", "omp-set", "openblas-set"],
)
def test_entry_sets_one_thread_unless_the_caller_chose(given, expected):
    # No subcommand: main returns the usage error 1 without loading data.
    code = (
        "import os, sys, hhtelm_entry\n"
        "sys.argv = ['hhtelm']\n"
        "try:\n"
        "    hhtelm_entry.run()\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 1, exc.code\n"
        "print(','.join(os.environ[name] for name in hhtelm_entry.THREAD_VARS))\n"
    )
    assert child(["-c", code], **given).strip() == expected


@pytest.fixture(scope="module")
def trials_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("entry") / "trials.csv"
    save_trials_csv(synth_scp(SynthConfig(n_per_class=20, fs=64.0, seed=4)), str(path))
    return path


# Runs each command given as a JSON list of argv lists through the entry
# point, in one process, so the thread variables take effect once.
RUN_COMMANDS = """
import json, sys, hhtelm_entry
for argv in json.loads(sys.argv[1]):
    sys.argv = ["hhtelm", *argv, "--quiet"]
    try:
        hhtelm_entry.run()
    except SystemExit as exc:
        assert exc.code == 0, (argv, exc.code)
"""


def test_artifacts_do_not_depend_on_the_thread_variables(trials_csv, tmp_path):
    outputs = {}
    settings = {"unset": {}, "one": dict.fromkeys(THREAD_VARS, "1")}
    for name, thread_vars in settings.items():
        out = tmp_path / name
        out.mkdir()
        features = str(out / "features.csv")
        # 40 trials in 5 folds train on 32 rows, so width 48 takes the dual solve.
        commands = [
            ["features", "--in", str(trials_csv), "--taps", "65", "--out", features],
            ["evaluate", "--features", features, "--layers", "48,8", "--out", str(out / "hess.json")],
            ["evaluate", "--features", features, "--layers", "48", "--kernel", "svd",
             "--out", str(out / "svd.json")],
            ["evaluate", "--features", features, "--layers", "12", "--kernel", "lu",
             "--out", str(out / "lu.json")],
            ["sweep", "--features", features, "--min", "8", "--max", "40", "--step", "16",
             "--k", "3", "--out", str(out / "sweep.csv")],
        ]
        child(["-c", RUN_COMMANDS, json.dumps(commands)], **thread_vars)
        outputs[name] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert sorted(outputs["unset"]) == ["features.csv", "hess.json", "lu.json", "svd.json", "sweep.csv"]
    assert outputs["one"] == outputs["unset"]
