"""End-to-end tests for the command-line interface.

Everything runs in-process through cli.main(argv) so exit codes and
stdout/stderr can be checked directly against temp-directory artifacts.
"""
import argparse
import json
import os

import numpy as np
import pytest

from hhtelm import (
    FilterSpec,
    SynthConfig,
    load_features_csv,
    load_report,
    load_trials_csv,
    lowpass_filter,
    save_features_csv,
    save_trials_csv,
    synth_scp,
)
from hhtelm import cli
from hhtelm.cli import build_parser, main

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
    assert len(load_trials_csv(path)) == 8


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


def test_synth_refuses_a_rate_above_the_sample_cap(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("trials were drawn")

    monkeypatch.setattr(cli, "synth_scp", fail)
    path = str(tmp_path / "t.csv")
    assert main(["synth", "--n-per-class", "2", "--fs", "1e7", "--out", path]) == 1
    assert "more than 16384" in capsys.readouterr().err
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
    # The EMD stop rule and mode cap are fixed, and features and decompose
    # use no seed.
    out = ["--in", "t.csv", "--out", str(tmp_path / "o")]
    assert main(["features", *out, "--sd-threshold", "0.3"]) == 1
    assert main(["features", *out, "--max-siftings", "50"]) == 1
    assert main(["features", *out, "--max-imfs", "6"]) == 1
    assert main(["decompose", *out, "--seed", "4"]) == 1
    assert main(["decompose", *out, "--max-imfs", "3"]) == 1
    assert "error" in capsys.readouterr().err
    # No command times the kernels; perfbench does.
    assert main(["solver-bench", "--sizes", "8", "--out", str(tmp_path / "b.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("hhtelm: error: argument command: invalid choice: 'solver-bench'")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "command",
    [
        ["synth", "--n-per-class", "2", "--seed", "-1"],
        ["evaluate", "--seed", "-1"],
        ["sweep", "--budget", "2", "--seed", "-3"],
    ],
    ids=lambda command: command[0],
)
def test_negative_seed_exits_1(tmp_path, blob_csv, capsys, command):
    if command[0] in ("evaluate", "sweep"):
        command = [*command, "--features", blob_csv]
    out = tmp_path / "out"
    assert main([*command, "--out", str(out), "--quiet"]) == 1
    assert "argument --seed: must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [
        # a 6 x 10**15 first layer: 42.6 PiB of float64
        ["evaluate", "--layers", "1000000000000000", "--k", "2"],
    ],
    ids=lambda command: command[0],
)
def test_allocation_too_large_exits_1(tmp_path, blob_csv, capsys, command):
    """The array exceeds the 128 TiB user address space of a 64-bit
    machine, so numpy refuses it before any memory is touched."""
    command = [*command, "--features", blob_csv]
    out = tmp_path / "out"
    assert main([*command, "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("hhtelm: usage error: out of memory: Unable to allocate")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# decompose


def test_decompose_reconstructs_the_filtered_signal(tmp_path, trials_csv, capsys):
    out_dir = str(tmp_path / "modes")
    rc = main(["decompose", "--in", trials_csv, "--taps", "65", "--out", out_dir])
    assert rc == 0
    log = capsys.readouterr().out
    assert "cutoff=10" in log
    trial = load_trials_csv(trials_csv)[0]
    lines = read_lines(os.path.join(out_dir, f"{trial.trial_id}.csv"))
    assert lines[0].startswith("# ")
    header = lines[1].split(",")
    assert header[0] == "imf_1" and header[-1] == "residual"
    table = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    filtered = lowpass_filter(trial.samples, trial.fs, FilterSpec(cutoff=10.0, taps=65))
    assert table.shape == (filtered.size, len(header))
    recombined = np.sum(table, axis=1)
    assert np.max(np.abs(recombined - filtered)) <= 1e-8 * np.max(np.abs(filtered))


def test_decompose_trial_id_selection(tmp_path, trials_csv):
    out_dir = str(tmp_path / "one")
    rc = main([
        "decompose", "--in", trials_csv, "--trial-id", "synth-0002",
        "--taps", "65", "--out", out_dir, "--quiet",
    ])
    assert rc == 0
    assert sorted(os.listdir(out_dir)) == ["synth-0002.csv"]


def test_decompose_repeated_trial_id_runs_once(tmp_path, trials_csv, capsys):
    out_dir = str(tmp_path / "once")
    rc = main([
        "decompose", "--in", trials_csv, "--trial-id", "synth-0002",
        "--trial-id", "synth-0002", "--taps", "65", "--out", out_dir,
    ])
    assert rc == 0
    assert sorted(os.listdir(out_dir)) == ["synth-0002.csv"]
    assert capsys.readouterr().out.splitlines() == [
        "decompose: cutoff=10 Hz taps=65 -> 1 trial(s)",
        f"decompose: wrote 1 file(s) under {out_dir}",
    ]


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


def test_features_of_chunks_join_to_the_whole(tmp_path):
    # 80 trials make more than one block of sifted rows; chunks of 7 group
    # the trials differently, and trials are independent.
    trials = synth_scp(SynthConfig(n_per_class=40, fs=64.0, seed=6))
    whole = str(tmp_path / "trials.csv")
    save_trials_csv(trials, whole)
    assert main(["features", "--in", whole, "--taps", "65", "--out", str(tmp_path / "all.csv"), "--quiet"]) == 0
    joined = []
    for start in range(0, len(trials), 7):
        chunk = str(tmp_path / f"trials_{start}.csv")
        out = str(tmp_path / f"features_{start}.csv")
        save_trials_csv(trials[start : start + 7], chunk)
        assert main(["features", "--in", chunk, "--taps", "65", "--out", out, "--quiet"]) == 0
        joined += read_lines(out)[2:]
    assert read_lines(str(tmp_path / "all.csv"))[2:] == joined
    out_dir = str(tmp_path / "modes")
    assert main(["decompose", "--in", whole, "--taps", "65", "--out", out_dir, "--quiet"]) == 0
    alone = str(tmp_path / "alone")
    last = trials[-1].trial_id
    argv = ["decompose", "--in", whole, "--trial-id", last, "--taps", "65", "--out", alone, "--quiet"]
    assert main(argv) == 0
    assert read_lines(os.path.join(alone, f"{last}.csv")) == read_lines(os.path.join(out_dir, f"{last}.csv"))


def test_features_empty_input_exits_2(tmp_path, capsys):
    empty = str(tmp_path / "empty.csv")
    save_trials_csv([], empty)
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


def test_decompose_rejects_an_id_that_leaves_the_output_directory(tmp_path, capsys):
    bad = tmp_path / "data" / "escaping.csv"
    bad.parent.mkdir()
    with open(bad, "w") as handle:
        handle.write("trial_id,session,label,fs,s0,s1,s2,s3\n")
        handle.write("../escaped,1,negativity,4.0,0.0,1.0,0.0,1.0\n")
    out_dir = tmp_path / "found" / "out" / "modes"
    rc = main(["decompose", "--in", str(bad), "--taps", "33", "--out", str(out_dir), "--quiet"])
    assert rc == 2
    assert "row 1: trial_id '../escaped'" in capsys.readouterr().err
    written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())
    assert written == [os.path.join("data", "escaping.csv")]


def test_repeated_trial_id_exits_2(tmp_path, trials_csv, capsys):
    lines = read_lines(trials_csv)
    fields = lines[4].split(",")
    fields[0] = lines[2].split(",")[0]
    lines[4] = ",".join(fields)
    bad = str(tmp_path / "repeated.csv")
    with open(bad, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    for command in ("features", "decompose"):
        out = tmp_path / command
        rc = main([command, "--in", bad, "--taps", "65", "--out", str(out), "--quiet"])
        assert rc == 2, command
        assert "row 3 repeats trial_id 'synth-0001' of row 1" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["features", "decompose", "evaluate", "sweep"])
def test_input_that_is_not_text_exits_2(tmp_path, capsys, command):
    bad = tmp_path / "binary.csv"
    bad.write_bytes(b"\xfftrial_id,session,label,fs,s0\n")
    source = "--features" if command in ("evaluate", "sweep") else "--in"
    out = tmp_path / "out"
    assert main([command, source, str(bad), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"hhtelm: data error: {bad}: not a text file: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


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


def test_evaluate_too_many_folds_exits_2(tmp_path, blob_csv, capsys):
    rc = main([
        "evaluate", "--features", blob_csv, "--layers", "8",
        "--k", "30", "--out", str(tmp_path / "r.json"), "--quiet",
    ])
    assert rc == 2
    assert "data error: class 'negativity' has 24 members but k=30" in capsys.readouterr().err


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


def test_sweep_budget_picks_match_the_materialized_grid(tmp_path, blob_csv):
    """A budget draws its picks by index into the 64000-point grid and decodes
    them in itertools.product order; the file is the one the same flags gave
    when the whole grid was built as a list first."""
    out = str(tmp_path / "sweep.csv")
    rc = main([
        "sweep", "--features", blob_csv, "--min", "1", "--max", "40", "--step", "1",
        "--depth", "3", "--k", "2", "--budget", "4", "--seed", "9", "--out", out, "--quiet",
    ])
    assert rc == 0
    assert read_lines(out)[1:] == [
        "layers,accuracy_mean,accuracy_std,sensitivity_mean,selectivity_mean",
        "12-19-37,100.0,0.0,100.0,100.0",
        "17-35-18,100.0,0.0,100.0,100.0",
        "35-33-15,100.0,0.0,100.0,100.0",
        "39-18-26,100.0,0.0,100.0,100.0",
    ]


def test_sweep_budget_rejects_a_grid_too_large_to_index(tmp_path, blob_csv, capsys):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--features", blob_csv, "--min", "1", "--max", "10000000", "--step", "1",
        "--depth", "3", "--budget", "2", "--out", str(out), "--quiet",
    ])
    assert rc == 1
    assert "--budget picks from at most 2**63 - 1 configs" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_refuses_a_grid_above_the_cap_without_budget(tmp_path, blob_csv, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the grid ran")

    monkeypatch.setattr(cli, "_cross_validate_grid", fail)
    # 101 widths at depth 2: 10,201 configurations, just above the cap.
    assert 101**2 > cli._MAX_GRID_CONFIGS >= 1681
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--features", blob_csv, "--min", "1", "--max", "101", "--step", "1",
        "--depth", "2", "--out", str(out), "--quiet",
    ])
    assert rc == 1
    assert "--budget N evaluates N of them and lifts this cap" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_bad_grid(tmp_path, blob_csv):
    rc = main([
        "sweep", "--features", blob_csv, "--min", "0",
        "--out", str(tmp_path / "s.csv"), "--quiet",
    ])
    assert rc == 1


# ---------------------------------------------------------------------------
# determinism

# Flags for a tiny run of every subcommand; "{trials}" and "{blobs}" stand
# for the module's trials and blob feature files.
RERUNS = {
    "synth": ["synth", *SYNTH_FLAGS],
    "decompose": ["decompose", "--in", "{trials}", "--taps", "65"],
    "features": ["features", "--in", "{trials}", "--taps", "65"],
    "evaluate": ["evaluate", "--features", "{blobs}", "--layers", "6,4", "--k", "2", "--seed", "3"],
    "sweep": ["sweep", "--features", "{blobs}", "--min", "4", "--max", "6", "--step", "2",
              "--k", "2", "--budget", "2", "--seed", "5"],
}


def artifact_bytes(path):
    """The bytes of a file, or of every file of a directory by name."""
    if os.path.isdir(path):
        return {name: artifact_bytes(os.path.join(path, name)) for name in os.listdir(path)}
    with open(path, "rb") as handle:
        return handle.read()


@pytest.mark.parametrize("command", sorted(RERUNS))
def test_every_command_reruns_byte_identical(tmp_path, trials_csv, blob_csv, command):
    (subcommands,) = (
        action.choices for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert set(RERUNS) == set(subcommands)
    argv = [arg.format(trials=trials_csv, blobs=blob_csv) for arg in RERUNS[command]]
    outputs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for out in outputs:
        assert main([*argv, "--out", out, "--quiet"]) == 0
    first, second = (artifact_bytes(out) for out in outputs)
    assert first and first == second


# ---------------------------------------------------------------------------
# config echo


def test_config_echo_lines_are_pinned(tmp_path, trials_csv, features_csv, blob_csv):
    """The leading `#` line of every artifact: full key set, values, byte form."""
    pipeline = {"cutoff": 10.0, "taps": 65}
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
            {"command": "features", **pipeline},
        ),
        "decompose": (
            ["decompose", "--in", trials_csv, "--trial-id", "synth-0001", "--taps", "65",
             "--out", str(tmp_path / "d")],
            str(tmp_path / "d" / "synth-0001.csv"),
            {"command": "decompose", **pipeline},
        ),
        "sweep": (
            ["sweep", "--features", blob_csv, "--min", "4", "--max", "6", "--step", "2",
             "--k", "2", "--budget", "2", "--seed", "5", "--out", str(tmp_path / "s.csv")],
            str(tmp_path / "s.csv"),
            {"command": "sweep", "min": 4, "max": 6, "step": 2, "depth": 2, "budget": 2,
             "kernel": "hessenberg", "ridge": 0.001, "k": 2, "seed": 5},
        ),
    }
    for command, (argv, path, expected) in cases.items():
        if argv is not None:
            assert main([*argv, "--quiet"]) == 0, command
        first = read_lines(path)[0]
        assert json.loads(first[2:]) == expected, command
        assert first == "# " + json.dumps(expected, sort_keys=True), command
