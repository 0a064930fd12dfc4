"""End-to-end tests for the command-line interface.

Everything runs in-process through cli.main(argv) so exit codes and
stdout/stderr can be checked directly against temp-directory artifacts.
"""
import json
import os

import numpy as np
import pytest

from hhtelm import (
    FilterSpec,
    SynthConfig,
    TrialSet,
    load_features_csv,
    load_report,
    load_trials_csv,
    lowpass_filter,
    save_features_csv,
    save_trials_csv,
    synth_scp,
)
from hhtelm.cli import main

NEG, POS = "negativity", "positivity"

SYNTH_FLAGS = ["--n-per-class", "4", "--fs", "64", "--seed", "1"]


@pytest.fixture(scope="module")
def trials_csv(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "trials.csv")
    assert main(["synth", *SYNTH_FLAGS, "--out", path, "--quiet"]) == 0
    return path


@pytest.fixture(scope="module")
def features_csv(tmp_path_factory, trials_csv):
    path = str(tmp_path_factory.mktemp("cli") / "features.csv")
    rc = main(["features", "--in", trials_csv, "--taps", "65", "--out", path, "--quiet"])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def blob_csv(tmp_path_factory):
    """A feature CSV of well-separated clouds, for model-facing commands."""
    rng = np.random.default_rng(8)
    x = rng.standard_normal((48, 6))
    labels = [NEG, POS] * 24
    for i, label in enumerate(labels):
        x[i] += 1.5 if label == POS else -1.5
    path = str(tmp_path_factory.mktemp("cli") / "blobs.csv")
    save_features_csv(x, tuple(f"f{i}" for i in range(6)), labels, path)
    return path


def read_lines(path):
    with open(path) as handle:
        return handle.read().splitlines()


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_trials_with_config_echo(tmp_path, capsys):
    path = str(tmp_path / "t.csv")
    assert main(["synth", *SYNTH_FLAGS, "--out", path]) == 0
    assert "synth: wrote 8 trials" in capsys.readouterr().out
    first = read_lines(path)[0]
    assert first.startswith("# ")
    echo = json.loads(first[2:])
    assert echo["command"] == "synth"
    assert echo["seed"] == 1
    assert len(load_trials_csv(path).trials) == 8


def test_synth_reruns_are_byte_identical(tmp_path):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    assert main(["synth", *SYNTH_FLAGS, "--out", a, "--quiet"]) == 0
    assert main(["synth", *SYNTH_FLAGS, "--out", b, "--quiet"]) == 0
    with open(a, "rb") as handle:
        blob_a = handle.read()
    with open(b, "rb") as handle:
        blob_b = handle.read()
    assert blob_a == blob_b


def test_synth_quiet_suppresses_log(tmp_path, capsys):
    path = str(tmp_path / "t.csv")
    assert main(["synth", *SYNTH_FLAGS, "--out", path, "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_synth_rejects_bad_config(tmp_path, capsys):
    path = str(tmp_path / "t.csv")
    rc = main(["synth", "--n-per-class", "0", "--out", path])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err
    assert not os.path.exists(path)


@pytest.mark.parametrize(
    "flags",
    [["--fs", "inf"], ["--fs", "nan"], ["--fs", "0.1"], ["--drift", "nan"], ["--noise", "inf"]],
)
def test_synth_rejects_values_that_cannot_make_trials(tmp_path, capsys, flags):
    path = str(tmp_path / "t.csv")
    assert main(["synth", "--n-per-class", "2", *flags, "--out", path]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not os.path.exists(path)


# ---------------------------------------------------------------------------
# argument parsing


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["evaluate", "--out", str(tmp_path / "r.json")]) == 1
    assert main([
        "evaluate", "--features", "x.csv", "--kernel", "qr",
        "--out", str(tmp_path / "r.json"),
    ]) == 1
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# decompose


def test_decompose_reconstructs_the_filtered_signal(tmp_path, trials_csv, capsys):
    out_dir = str(tmp_path / "modes")
    rc = main(["decompose", "--in", trials_csv, "--taps", "65", "--out", out_dir])
    assert rc == 0
    log = capsys.readouterr().out
    assert "cutoff=10" in log
    trial = load_trials_csv(trials_csv).trials[0]
    lines = read_lines(os.path.join(out_dir, f"{trial.trial_id}.csv"))
    assert lines[0].startswith("# ")
    header = lines[1].split(",")
    assert header[0] == "imf_1" and header[-1] == "residual"
    table = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    filtered = lowpass_filter(trial.signal(), FilterSpec(cutoff=10.0, taps=65))
    assert table.shape == (filtered.samples.size, len(header))
    recombined = np.sum(table, axis=1)
    assert np.max(np.abs(recombined - filtered.samples)) <= 1e-8 * np.max(np.abs(filtered.samples))


def test_decompose_trial_id_selection(tmp_path, trials_csv):
    out_dir = str(tmp_path / "one")
    rc = main([
        "decompose", "--in", trials_csv, "--trial-id", "synth-0002",
        "--taps", "65", "--out", out_dir, "--quiet",
    ])
    assert rc == 0
    assert sorted(os.listdir(out_dir)) == ["synth-0002.csv"]


def test_decompose_missing_trial_id_exits_2(tmp_path, trials_csv, capsys):
    rc = main([
        "decompose", "--in", trials_csv, "--trial-id", "nope",
        "--out", str(tmp_path / "d"), "--quiet",
    ])
    assert rc == 2
    assert "data error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# features


def test_features_matrix_shape(features_csv):
    values, layout, labels = load_features_csv(features_csv)
    assert values.shape == (8, 132)
    assert len(layout) == 132
    assert labels.count(NEG) == 4 and labels.count(POS) == 4
    first = read_lines(features_csv)[0]
    assert json.loads(first[2:])["command"] == "features"


def test_features_empty_input_exits_2(tmp_path, capsys):
    empty = str(tmp_path / "empty.csv")
    save_trials_csv(TrialSet(trials=[], fs=None), empty)
    rc = main(["features", "--in", empty, "--out", str(tmp_path / "f.csv"), "--quiet"])
    assert rc == 2
    assert "data error" in capsys.readouterr().err


def test_non_finite_sample_exits_2(tmp_path, trials_csv, capsys):
    lines = read_lines(trials_csv)
    fields = lines[3].split(",")
    fields[10] = "nan"
    lines[3] = ",".join(fields)
    bad = str(tmp_path / "nan.csv")
    with open(bad, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    for command in ("features", "decompose"):
        rc = main([command, "--in", bad, "--out", str(tmp_path / command), "--quiet"])
        assert rc == 2, command
        assert "row 2 has a non-finite sample s6" in capsys.readouterr().err


def test_non_finite_rate_exits_2(tmp_path, trials_csv, capsys):
    lines = read_lines(trials_csv)
    fields = lines[3].split(",")
    fields[3] = "inf"
    lines[3] = ",".join(fields)
    bad = str(tmp_path / "inf.csv")
    with open(bad, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    for command in ("features", "decompose"):
        rc = main([command, "--in", bad, "--out", str(tmp_path / command), "--quiet"])
        assert rc == 2, command
        assert "row 2: fs must be finite" in capsys.readouterr().err


def test_features_missing_input_exits_2(tmp_path):
    rc = main([
        "features", "--in", str(tmp_path / "absent.csv"),
        "--out", str(tmp_path / "f.csv"), "--quiet",
    ])
    assert rc == 2


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_separable_features(tmp_path, blob_csv, capsys):
    report_path = str(tmp_path / "report.json")
    rc = main([
        "evaluate", "--features", blob_csv, "--layers", "8",
        "--k", "2", "--seed", "0", "--out", report_path,
    ])
    assert rc == 0
    assert "evaluate: mean accuracy" in capsys.readouterr().out
    report = load_report(report_path)
    assert report.k == 2
    assert report.mean.accuracy >= 95.0


def test_evaluate_rerun_byte_identical(tmp_path, blob_csv):
    flags = ["evaluate", "--features", blob_csv, "--layers", "6,4",
             "--k", "2", "--seed", "3", "--quiet"]
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    assert main([*flags, "--out", a]) == 0
    assert main([*flags, "--out", b]) == 0
    with open(a, "rb") as handle:
        blob_a = handle.read()
    with open(b, "rb") as handle:
        blob_b = handle.read()
    assert blob_a == blob_b


def test_evaluate_full_pipeline_chain(tmp_path, features_csv):
    """synth -> features -> evaluate wiring at a deliberately tiny size."""
    report_path = str(tmp_path / "report.json")
    rc = main([
        "evaluate", "--features", features_csv, "--layers", "8",
        "--k", "2", "--seed", "0", "--out", report_path, "--quiet",
    ])
    assert rc == 0
    report = load_report(report_path)
    assert report.predictions.shape == (8,)
    assert report.mean.accuracy is not None
    assert 0.0 <= report.mean.accuracy <= 100.0


def test_evaluate_bad_layers_exits_1(tmp_path, blob_csv, capsys):
    rc = main([
        "evaluate", "--features", blob_csv, "--layers", "a,b",
        "--out", str(tmp_path / "r.json"), "--quiet",
    ])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err


def test_evaluate_too_many_folds_exits_2(tmp_path, blob_csv):
    rc = main([
        "evaluate", "--features", blob_csv, "--layers", "8",
        "--k", "30", "--out", str(tmp_path / "r.json"), "--quiet",
    ])
    assert rc == 2


# ---------------------------------------------------------------------------
# sweep


def test_sweep_grid_is_ranked(tmp_path, blob_csv):
    out = str(tmp_path / "sweep.csv")
    rc = main([
        "sweep", "--features", blob_csv, "--min", "4", "--max", "6",
        "--step", "2", "--depth", "2", "--k", "2", "--out", out, "--quiet",
    ])
    assert rc == 0
    lines = read_lines(out)
    assert lines[0].startswith("# ")
    assert lines[1].startswith("layers,accuracy_mean")
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 4
    accuracies = [float(row[1]) for row in rows]
    assert accuracies == sorted(accuracies, reverse=True)


def test_sweep_budget_limits_the_grid(tmp_path, blob_csv):
    out = str(tmp_path / "sweep.csv")
    rc = main([
        "sweep", "--features", blob_csv, "--min", "4", "--max", "6",
        "--step", "2", "--depth", "2", "--k", "2", "--budget", "3",
        "--out", out, "--quiet",
    ])
    assert rc == 0
    assert len(read_lines(out)) == 2 + 3


def test_sweep_rejects_bad_grid(tmp_path, blob_csv):
    rc = main([
        "sweep", "--features", blob_csv, "--min", "0",
        "--out", str(tmp_path / "s.csv"), "--quiet",
    ])
    assert rc == 1


# ---------------------------------------------------------------------------
# solver-bench


def test_solver_bench_reports_matching_kernels(tmp_path, capsys):
    out = str(tmp_path / "bench.csv")
    rc = main(["solver-bench", "--sizes", "8,12", "--out", out])
    assert rc == 0
    assert "solver-bench: svd size=8" in capsys.readouterr().out
    lines = read_lines(out)
    assert lines[1] == "kernel,size,seconds,deviation"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 6
    for kernel, size, seconds, deviation in rows:
        assert kernel in ("svd", "hessenberg", "lu")
        assert int(size) in (8, 12)
        assert float(seconds) >= 0.0
        assert float(deviation) < 1e-8


def test_solver_bench_rejects_bad_flags(tmp_path):
    out = str(tmp_path / "bench.csv")
    assert main(["solver-bench", "--sizes", "2,8", "--out", out, "--quiet"]) == 1
    assert main(["solver-bench", "--ridge", "0.0", "--out", out, "--quiet"]) == 1


# ---------------------------------------------------------------------------
# config echo


def test_config_echo_lines_are_pinned(tmp_path, trials_csv, features_csv, blob_csv):
    """The leading `#` line of every artifact: full key set, values, byte form."""
    pipeline = {"cutoff": 10.0, "taps": 65, "sd_threshold": 0.2, "max_siftings": 100, "max_imfs": 6}
    cases = {
        "synth": (
            ["synth", *SYNTH_FLAGS, "--out", str(tmp_path / "t.csv")],
            str(tmp_path / "t.csv"),
            {"command": "synth", "n_per_class": 4, "drift_amplitude": 10.0, "noise_sigma": 1.0,
             "alpha_amplitude": 2.0, "fs": 64.0, "seed": 1},
        ),
        "features": (
            None,
            features_csv,
            {"command": "features", **pipeline, "seed": 0},
        ),
        "decompose": (
            ["decompose", "--in", trials_csv, "--trial-id", "synth-0001", "--taps", "65",
             "--max-imfs", "3", "--seed", "4", "--out", str(tmp_path / "d")],
            str(tmp_path / "d" / "synth-0001.csv"),
            {"command": "decompose", **pipeline, "max_imfs": 3, "seed": 4},
        ),
        "sweep": (
            ["sweep", "--features", blob_csv, "--min", "4", "--max", "6", "--step", "2",
             "--k", "2", "--budget", "2", "--seed", "5", "--out", str(tmp_path / "s.csv")],
            str(tmp_path / "s.csv"),
            {"command": "sweep", "min": 4, "max": 6, "step": 2, "depth": 2, "budget": 2,
             "kernel": "hessenberg", "ridge": 0.001, "k": 2, "seed": 5},
        ),
        "solver-bench": (
            ["solver-bench", "--sizes", "8,12", "--ridge", "0.01", "--out", str(tmp_path / "b.csv")],
            str(tmp_path / "b.csv"),
            {"command": "solver-bench", "sizes": [8, 12], "ridge": 0.01, "seed": 0},
        ),
    }
    for command, (argv, path, expected) in cases.items():
        if argv is not None:
            assert main([*argv, "--quiet"]) == 0, command
        first = read_lines(path)[0]
        assert json.loads(first[2:]) == expected, command
        assert first == "# " + json.dumps(expected, sort_keys=True), command
