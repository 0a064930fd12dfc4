"""Tests for trial records, the synthetic generator, filtering, and file I/O."""
import json
import os

import numpy as np
import pytest

from hhtelm import (
    FilterSpec,
    Signal,
    SolverKind,
    SynthConfig,
    TrainConfig,
    TrialRecord,
    TrialSet,
    cross_validate,
    load_features_csv,
    load_report,
    load_trials_csv,
    lowpass_filter,
    save_features_csv,
    save_report,
    save_trials_csv,
    segment_phases,
    synth_scp,
)
from hhtelm.dataio import (
    BASELINE_SECONDS,
    SESSION_COUNT,
    TRIAL_SECONDS,
    atomic_write_text,
)
from hhtelm.errors import (
    FormatError,
    InvalidConfig,
    InvalidLabel,
    ParseError,
    ShapeMismatch,
)

NEG, POS = "negativity", "positivity"


def make_trial(samples, trial_id="t1", session=1, label=NEG, fs=4.0):
    return TrialRecord(trial_id=trial_id, session=session, label=label, fs=fs, samples=samples)


# ---------------------------------------------------------------------------
# TrialRecord


def test_trial_record_validation():
    good = make_trial([0.0, 1.0, 2.0])
    assert good.samples.dtype == float
    with pytest.raises(InvalidConfig):
        make_trial([0.0], trial_id="")
    with pytest.raises(InvalidConfig):
        make_trial([0.0], session=0)
    with pytest.raises(InvalidConfig):
        make_trial([0.0], session=SESSION_COUNT + 1)
    with pytest.raises(InvalidLabel):
        make_trial([0.0], label="other")
    with pytest.raises(InvalidConfig):
        make_trial([0.0], fs=0.0)
    with pytest.raises(ShapeMismatch):
        make_trial([])
    with pytest.raises(ShapeMismatch):
        make_trial([[0.0, 1.0], [2.0, 3.0]])


def test_trial_record_signal_view():
    trial = make_trial([0.0, 1.0, 2.0, 3.0], fs=32.0)
    sig = trial.signal()
    assert isinstance(sig, Signal)
    assert sig.fs == 32.0
    assert np.array_equal(sig.samples, trial.samples)


# ---------------------------------------------------------------------------
# SynthConfig and the generator


def test_synth_config_validation():
    with pytest.raises(InvalidConfig):
        SynthConfig(n_per_class=0)
    with pytest.raises(InvalidConfig):
        SynthConfig(drift_amplitude=-1.0)
    with pytest.raises(InvalidConfig):
        SynthConfig(noise_sigma=-0.5)
    with pytest.raises(InvalidConfig):
        SynthConfig(alpha_amplitude=-2.0)
    with pytest.raises(InvalidConfig):
        SynthConfig(fs=0.0)
    # zero amplitudes are degenerate but allowed
    SynthConfig(drift_amplitude=0.0, noise_sigma=0.0, alpha_amplitude=0.0)


def test_synth_config_rejects_values_that_cannot_make_trials():
    for name in ("drift_amplitude", "noise_sigma", "alpha_amplitude", "fs"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(InvalidConfig, match=f"{name} must be finite"):
                SynthConfig(**{name: bad})
    with pytest.raises(InvalidConfig, match="fewer than 4 samples"):
        SynthConfig(fs=0.1)
    # the smallest rate that still gives a Signal-sized trial
    trial = synth_scp(SynthConfig(n_per_class=1, fs=0.5)).trials[0]
    assert trial.samples.size == 4
    assert trial.signal().samples.size == 4


def test_synth_noiseless_trials_are_exact():
    """Without noise or oscillation the active phase is exactly +-drift."""
    cfg = SynthConfig(n_per_class=2, drift_amplitude=10.0, noise_sigma=0.0,
                      alpha_amplitude=0.0, seed=7)
    trial_set = synth_scp(cfg)
    n_flat = int(round((BASELINE_SECONDS - 0.25) * cfg.fs))
    for trial in trial_set.trials:
        base, act = segment_phases(trial)
        sign = -1.0 if trial.label == NEG else 1.0
        assert np.all(act == sign * 10.0)
        assert np.all(base[:n_flat] == 0.0)
        assert abs(np.mean(base)) < 0.07 * 10.0
    neg = [t for t in trial_set.trials if t.label == NEG][0]
    pos = [t for t in trial_set.trials if t.label == POS][0]
    assert np.array_equal(neg.samples, -pos.samples)


def test_synth_threshold_classifier_oracle():
    """A bare mean-shift threshold should separate the default classes.

    This pins the generated data to the advertised structure without going
    through any of the model code: the active-phase mean minus the baseline
    mean is negative for negativity trials and positive for positivity ones.
    """
    trial_set = synth_scp(SynthConfig(n_per_class=50, seed=3))
    hits = 0
    for trial in trial_set.trials:
        base, act = segment_phases(trial)
        shift = np.mean(act) - np.mean(base)
        predicted = NEG if shift < 0.0 else POS
        hits += predicted == trial.label
    assert hits >= 0.99 * len(trial_set.trials)


def test_synth_balanced_sessions_and_ids():
    cfg = SynthConfig(n_per_class=6, seed=0)
    trial_set = synth_scp(cfg)
    assert trial_set.fs == cfg.fs
    labels = [t.label for t in trial_set.trials]
    assert labels.count(NEG) == 6 and labels.count(POS) == 6
    ids = [t.trial_id for t in trial_set.trials]
    assert len(set(ids)) == len(ids)
    sessions = [t.session for t in trial_set.trials]
    assert sessions == [i % SESSION_COUNT + 1 for i in range(12)]
    expected = int(round(TRIAL_SECONDS * cfg.fs))
    assert all(t.samples.size == expected for t in trial_set.trials)


def test_synth_seeded_determinism():
    a = synth_scp(SynthConfig(n_per_class=3, seed=5))
    b = synth_scp(SynthConfig(n_per_class=3, seed=5))
    c = synth_scp(SynthConfig(n_per_class=3, seed=6))
    for ta, tb in zip(a.trials, b.trials):
        assert ta.trial_id == tb.trial_id
        assert ta.label == tb.label
        assert np.array_equal(ta.samples, tb.samples)
    assert not np.array_equal(a.trials[0].samples, c.trials[0].samples)


# ---------------------------------------------------------------------------
# segment_phases


def test_segment_phases_split_sizes():
    cfg = SynthConfig(n_per_class=1, fs=128.0, seed=0)
    trial = synth_scp(cfg).trials[0]
    base, act = segment_phases(trial)
    assert base.size == 256
    assert act.size == 768
    assert np.array_equal(np.concatenate([base, act]), trial.samples)


def test_segment_phases_rejects_wrong_length():
    trial = make_trial(np.zeros(100), fs=4.0)
    with pytest.raises(FormatError):
        segment_phases(trial)


# ---------------------------------------------------------------------------
# FilterSpec and lowpass_filter


def test_filter_spec_validation():
    with pytest.raises(InvalidConfig):
        FilterSpec(cutoff=0.0)
    with pytest.raises(InvalidConfig):
        FilterSpec(taps=31)
    with pytest.raises(InvalidConfig):
        FilterSpec(taps=256)
    FilterSpec(cutoff=10.0, taps=33)


def test_lowpass_unit_dc_gain():
    sig = Signal(samples=np.full(300, 3.7), fs=128.0)
    out = lowpass_filter(sig)
    assert out.fs == sig.fs
    assert out.samples.size == sig.samples.size
    assert np.allclose(out.samples, 3.7, atol=1e-12)


def test_lowpass_is_linear():
    rng = np.random.default_rng(0)
    spec = FilterSpec(cutoff=8.0, taps=65)
    for _ in range(5):
        x = rng.standard_normal(400)
        y = rng.standard_normal(400)
        a, b = rng.uniform(-2.0, 2.0, 2)
        combined = lowpass_filter(Signal(samples=a * x + b * y, fs=64.0), spec)
        separate = a * lowpass_filter(Signal(samples=x, fs=64.0), spec).samples \
            + b * lowpass_filter(Signal(samples=y, fs=64.0), spec).samples
        assert np.allclose(combined.samples, separate, atol=1e-9)


def test_lowpass_passes_slow_tone_without_delay():
    fs = 256.0
    t = np.arange(1024) / fs
    x = np.sin(2.0 * np.pi * 1.0 * t)
    out = lowpass_filter(Signal(samples=x, fs=fs)).samples
    core = slice(129, -129)
    err = np.sqrt(np.mean((out[core] - x[core]) ** 2))
    assert err < 0.01 * np.sqrt(np.mean(x[core] ** 2))
    assert np.argmax(out[core]) == np.argmax(x[core])


def test_lowpass_attenuates_fast_tone():
    fs = 256.0
    t = np.arange(1024) / fs
    x = np.sin(2.0 * np.pi * 50.0 * t)
    out = lowpass_filter(Signal(samples=x, fs=fs)).samples
    core = slice(129, -129)
    assert np.sqrt(np.mean(out[core] ** 2)) < 0.01 * np.sqrt(np.mean(x[core] ** 2))


def test_lowpass_rejects_cutoff_at_nyquist():
    sig = Signal(samples=np.zeros(400), fs=256.0)
    with pytest.raises(InvalidConfig):
        lowpass_filter(sig, FilterSpec(cutoff=128.0))


def test_lowpass_rejects_short_signal():
    sig = Signal(samples=np.zeros(50), fs=256.0)
    with pytest.raises(InvalidConfig):
        lowpass_filter(sig, FilterSpec(taps=257))


# ---------------------------------------------------------------------------
# trials CSV round trip


def test_trials_csv_round_trip_exact(tmp_path):
    path = str(tmp_path / "trials.csv")
    original = synth_scp(SynthConfig(n_per_class=2, fs=64.0, seed=11))
    save_trials_csv(original, path, config_note="n_per_class=2 seed=11")
    with open(path) as handle:
        first = handle.readline()
    assert first.startswith("# ")
    loaded = load_trials_csv(path)
    assert loaded.fs == original.fs
    assert len(loaded.trials) == len(original.trials)
    for got, want in zip(loaded.trials, original.trials):
        assert got.trial_id == want.trial_id
        assert got.session == want.session
        assert got.label == want.label
        assert got.fs == want.fs
        assert np.array_equal(got.samples, want.samples)


def test_trials_csv_empty_set(tmp_path):
    path = str(tmp_path / "empty.csv")
    save_trials_csv(TrialSet(trials=[], fs=None), path)
    loaded = load_trials_csv(path)
    assert loaded.trials == []
    assert loaded.fs is None


def test_trials_csv_skips_comment_lines(tmp_path):
    path = str(tmp_path / "commented.csv")
    path2 = str(tmp_path / "plain.csv")
    trial_set = synth_scp(SynthConfig(n_per_class=1, fs=4.0, seed=0))
    save_trials_csv(trial_set, path2)
    with open(path2) as handle:
        body = handle.read()
    lines = body.splitlines()
    lines.insert(0, "# leading note")
    lines.insert(2, "  # interleaved note")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    loaded = load_trials_csv(path)
    assert len(loaded.trials) == 2


def write_lines(path, lines):
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def test_trials_csv_parse_error_names_the_row(tmp_path):
    path = str(tmp_path / "bad.csv")
    write_lines(path, [
        "trial_id,session,label,fs,s0,s1",
        "a,1,negativity,4.0,0.0,0.5",
        "b,1,negativity,4.0,oops,0.5",
    ])
    with pytest.raises(ParseError, match="row 2"):
        load_trials_csv(path)


def test_trials_csv_rejects_non_finite_samples(tmp_path):
    path = str(tmp_path / "nonfinite.csv")
    for bad in ("nan", "inf", "-inf"):
        write_lines(path, [
            "trial_id,session,label,fs,s0,s1",
            "a,1,negativity,4.0,0.0,0.5",
            f"b,1,negativity,4.0,0.0,{bad}",
        ])
        with pytest.raises(ParseError, match="row 2 has a non-finite sample s1"):
            load_trials_csv(path)


def test_trials_csv_rejects_non_finite_rate(tmp_path):
    path = str(tmp_path / "rate.csv")
    for bad in ("nan", "inf", "-inf"):
        write_lines(path, [
            "trial_id,session,label,fs,s0,s1",
            "a,1,negativity,4.0,0.0,0.5",
            f"b,1,negativity,{bad},0.0,0.5",
        ])
        with pytest.raises(ParseError, match="row 2: fs must be finite"):
            load_trials_csv(path)


def test_trials_csv_rejects_mixed_rates(tmp_path):
    path = str(tmp_path / "mixed.csv")
    write_lines(path, [
        "trial_id,session,label,fs,s0,s1",
        "a,1,negativity,4.0,0.0,0.5",
        "b,1,positivity,8.0,0.0,0.5",
    ])
    with pytest.raises(FormatError, match="row 2"):
        load_trials_csv(path)


def test_trials_csv_rejects_bad_header(tmp_path):
    path = str(tmp_path / "header.csv")
    write_lines(path, ["id,session,label,fs,s0", "a,1,negativity,4.0,0.0"])
    with pytest.raises(FormatError):
        load_trials_csv(path)


def test_trials_csv_rejects_short_row(tmp_path):
    path = str(tmp_path / "short.csv")
    write_lines(path, [
        "trial_id,session,label,fs,s0,s1",
        "a,1,negativity,4.0,0.0",
    ])
    with pytest.raises(ParseError, match="fields"):
        load_trials_csv(path)


def test_trials_csv_rejects_unknown_label(tmp_path):
    path = str(tmp_path / "label.csv")
    write_lines(path, [
        "trial_id,session,label,fs,s0,s1",
        "a,1,resting,4.0,0.0,0.5",
    ])
    with pytest.raises(ParseError, match="row 1"):
        load_trials_csv(path)


def test_trials_csv_rejects_out_of_range_session(tmp_path):
    path = str(tmp_path / "session.csv")
    write_lines(path, [
        "trial_id,session,label,fs,s0,s1",
        "a,9,negativity,4.0,0.0,0.5",
    ])
    with pytest.raises(ParseError, match="row 1"):
        load_trials_csv(path)


def test_trials_csv_missing_file_is_oserror(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_trials_csv(str(tmp_path / "nope.csv"))


# ---------------------------------------------------------------------------
# features CSV round trip


def test_features_csv_round_trip_exact(tmp_path):
    path = str(tmp_path / "features.csv")
    rng = np.random.default_rng(2)
    values = rng.standard_normal((5, 7)) * 1e3
    layout = tuple(f"f{i}" for i in range(7))
    labels = [NEG, POS, POS, NEG, POS]
    save_features_csv(values, layout, labels, path, config_note="demo")
    got_values, got_layout, got_labels = load_features_csv(path)
    assert np.array_equal(got_values, values)
    assert got_layout == layout
    assert got_labels == labels


def test_features_csv_empty_matrix(tmp_path):
    path = str(tmp_path / "none.csv")
    save_features_csv(np.zeros((0, 3)), ("a", "b", "c"), [], path)
    values, layout, labels = load_features_csv(path)
    assert values.shape == (0, 3)
    assert layout == ("a", "b", "c")
    assert labels == []


def test_features_csv_save_validation(tmp_path):
    path = str(tmp_path / "x.csv")
    values = np.zeros((2, 3))
    layout = ("a", "b", "c")
    with pytest.raises(ShapeMismatch):
        save_features_csv(np.zeros(3), layout, [NEG], path)
    with pytest.raises(ShapeMismatch):
        save_features_csv(values, ("a", "b"), [NEG, POS], path)
    with pytest.raises(ShapeMismatch):
        save_features_csv(values, layout, [NEG], path)
    with pytest.raises(InvalidLabel):
        save_features_csv(values, layout, [NEG, "other"], path)


def test_features_csv_load_errors(tmp_path):
    bad_float = str(tmp_path / "f1.csv")
    write_lines(bad_float, ["a,b,label", "0.0,oops,negativity"])
    with pytest.raises(ParseError, match="row 1"):
        load_features_csv(bad_float)

    bad_label = str(tmp_path / "f2.csv")
    write_lines(bad_label, ["a,b,label", "0.0,1.0,resting"])
    with pytest.raises(ParseError, match="row 1"):
        load_features_csv(bad_label)

    bad_header = str(tmp_path / "f3.csv")
    write_lines(bad_header, ["a,b,c", "0.0,1.0,2.0"])
    with pytest.raises(FormatError):
        load_features_csv(bad_header)

    short_row = str(tmp_path / "f4.csv")
    write_lines(short_row, ["a,b,label", "0.0,negativity"])
    with pytest.raises(ParseError, match="fields"):
        load_features_csv(short_row)


# ---------------------------------------------------------------------------
# report round trip and atomic writes


def small_report():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((24, 6))
    labels = np.array([NEG, POS] * 12)
    x[labels == POS] += 1.5
    x[labels == NEG] -= 1.5
    config = TrainConfig(layer_sizes=(8,), kernel=SolverKind("hessenberg", ridge=1e-3), seed=0)
    return cross_validate(x, labels, config, k=2, seed=0)


def test_report_round_trip(tmp_path):
    path = str(tmp_path / "report.json")
    report = small_report()
    save_report(report, path)
    loaded = load_report(path)
    assert loaded.to_dict() == report.to_dict()
    with open(path) as handle:
        payload = json.load(handle)
    assert isinstance(payload, dict)


def test_report_bytes_are_stable(tmp_path):
    report = small_report()
    first = str(tmp_path / "a.json")
    second = str(tmp_path / "b.json")
    save_report(report, first)
    save_report(report, second)
    with open(first, "rb") as handle:
        blob_a = handle.read()
    with open(second, "rb") as handle:
        blob_b = handle.read()
    assert blob_a == blob_b


def test_atomic_write_creates_directories_and_leaves_no_temp(tmp_path):
    path = str(tmp_path / "deep" / "nested" / "out.txt")
    atomic_write_text(path, "payload\n")
    with open(path) as handle:
        assert handle.read() == "payload\n"
    leftovers = [n for n in os.listdir(os.path.dirname(path)) if n.endswith(".tmp")]
    assert leftovers == []
