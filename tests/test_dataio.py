"""Tests for trial records, the synthetic generator, filtering, and file I/O."""
import csv
import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hhtelm import (
    CLASS_NAMES,
    FilterSpec,
    SolverKind,
    SynthConfig,
    TrainConfig,
    TrialRecord,
    cross_validate,
    find_extrema,
    load_features_csv,
    load_report,
    load_trials_csv,
    lowpass_filter,
    save_features_csv,
    save_report,
    save_trials_csv,
    synth_scp,
)
from hhtelm.dataio import (
    BASELINE_SECONDS,
    SESSION_COUNT,
    TRIAL_SECONDS,
    _MAX_TRIAL_SAMPLES,
    _read_csv,
    atomic_write_text,
    write_csv,
)
from hhtelm.errors import (
    FormatError,
    InvalidConfig,
    InvalidLabel,
    InvalidMatrix,
    ParseError,
    PipelineError,
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
    # Ids a trials CSV line cannot hold, and ids that name a file outside
    # decompose's output directory.
    for trial_id in ("a,b", 'a"b', "a\nb", "a\rb", "#a", " #a", "../escaped", "/abs", "a\\b"):
        with pytest.raises(InvalidConfig, match="trial_id"):
            make_trial([0.0], trial_id=trial_id)
    for trial_id in (5, b"ab", ("a",), None):
        with pytest.raises(InvalidConfig, match="trial_id must be a string"):
            make_trial([0.0], trial_id=trial_id)
    # A lone surrogate has no UTF-8 form, so no trials CSV can hold it.
    with pytest.raises(InvalidConfig, match="does not encode as UTF-8"):
        make_trial([0.0], trial_id="a\ud800")
    with pytest.raises(InvalidConfig):
        make_trial([0.0], session=0)
    with pytest.raises(InvalidConfig):
        make_trial([0.0], session=SESSION_COUNT + 1)
    # A session the trials CSV would write other than as given.
    for session in (1.5, 1.0, "1", None, True):
        with pytest.raises(InvalidConfig, match="session must be an integer"):
            make_trial([0.0], session=session)
    assert make_trial([0.0], session=np.int64(3)).session == 3
    with pytest.raises(InvalidLabel):
        make_trial([0.0], label="other")
    with pytest.raises(InvalidConfig):
        make_trial([0.0], fs=0.0)
    for fs in ("256", None, True, 1j):
        with pytest.raises(InvalidConfig, match="fs must be a real number"):
            make_trial([0.0], fs=fs)
    assert make_trial([0.0], fs=np.float32(4.0)).fs == 4.0
    with pytest.raises(ShapeMismatch):
        make_trial([])
    with pytest.raises(ShapeMismatch):
        make_trial([[0.0, 1.0], [2.0, 3.0]])


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
    with pytest.raises(InvalidConfig, match="seed must be >= 0"):
        SynthConfig(seed=-1)
    for bad in (2.5, "3", None, True):
        with pytest.raises(InvalidConfig, match="n_per_class must be an integer"):
            SynthConfig(n_per_class=bad)
    with pytest.raises(InvalidConfig, match="seed must be an integer"):
        SynthConfig(seed=1.0)
    for name in ("drift_amplitude", "noise_sigma", "alpha_amplitude", "fs"):
        with pytest.raises(InvalidConfig, match=f"{name} must be a real number"):
            SynthConfig(**{name: "1"})
    # zero amplitudes are degenerate but allowed
    SynthConfig(drift_amplitude=0.0, noise_sigma=0.0, alpha_amplitude=0.0)
    # numpy integers are held as ints, so the config echo stays JSON
    cfg = SynthConfig(n_per_class=np.int64(3), seed=np.int64(4))
    assert type(cfg.n_per_class) is int and type(cfg.seed) is int


def test_synth_config_rejects_values_that_cannot_make_trials():
    for name in ("drift_amplitude", "noise_sigma", "alpha_amplitude", "fs"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(InvalidConfig, match=f"{name} must be finite"):
                SynthConfig(**{name: bad})
    with pytest.raises(InvalidConfig, match="fewer than 4 samples"):
        SynthConfig(fs=0.1)
    # the smallest rate that still gives a trial the decomposition accepts
    trial = synth_scp(SynthConfig(n_per_class=1, fs=0.5))[0]
    assert trial.samples.size == 4
    find_extrema(trial.samples)


def test_synth_config_caps_the_samples_per_trial():
    # Constructing the config draws nothing, so no test allocates a trial this long.
    SynthConfig(fs=_MAX_TRIAL_SAMPLES / TRIAL_SECONDS)
    for fs in (2048.1, 1e7, 1e300):
        with pytest.raises(InvalidConfig, match=f"more than {_MAX_TRIAL_SAMPLES}"):
            SynthConfig(fs=fs)


def test_synth_noiseless_trials_are_exact():
    """Without noise or oscillation the active phase is exactly +-drift."""
    cfg = SynthConfig(n_per_class=2, drift_amplitude=10.0, noise_sigma=0.0,
                      alpha_amplitude=0.0, seed=7)
    trials = synth_scp(cfg)
    n_flat = int(round((BASELINE_SECONDS - 0.25) * cfg.fs))
    for trial in trials:
        split = int(round(BASELINE_SECONDS * trial.fs))
        base, act = trial.samples[:split], trial.samples[split:]
        sign = -1.0 if trial.label == NEG else 1.0
        assert np.all(act == sign * 10.0)
        assert np.all(base[:n_flat] == 0.0)
        assert abs(np.mean(base)) < 0.07 * 10.0
    neg = [t for t in trials if t.label == NEG][0]
    pos = [t for t in trials if t.label == POS][0]
    assert np.array_equal(neg.samples, -pos.samples)


def test_synth_threshold_classifier_oracle():
    """A bare mean-shift threshold should separate the default classes.

    This pins the generated data to the advertised structure without going
    through any of the model code: the active-phase mean minus the baseline
    mean is negative for negativity trials and positive for positivity ones.
    """
    trials = synth_scp(SynthConfig(n_per_class=50, seed=3))
    hits = 0
    for trial in trials:
        split = int(round(BASELINE_SECONDS * trial.fs))
        base, act = trial.samples[:split], trial.samples[split:]
        shift = np.mean(act) - np.mean(base)
        predicted = NEG if shift < 0.0 else POS
        hits += predicted == trial.label
    assert hits >= 0.99 * len(trials)


def test_synth_balanced_sessions_and_ids():
    cfg = SynthConfig(n_per_class=6, seed=0)
    trials = synth_scp(cfg)
    assert all(t.fs == cfg.fs for t in trials)
    labels = [t.label for t in trials]
    assert labels.count(NEG) == 6 and labels.count(POS) == 6
    ids = [t.trial_id for t in trials]
    assert len(set(ids)) == len(ids)
    sessions = [t.session for t in trials]
    assert sessions == [i % SESSION_COUNT + 1 for i in range(12)]
    expected = int(round(TRIAL_SECONDS * cfg.fs))
    assert all(t.samples.size == expected for t in trials)


def test_synth_seeded_determinism():
    a = synth_scp(SynthConfig(n_per_class=3, seed=5))
    b = synth_scp(SynthConfig(n_per_class=3, seed=5))
    c = synth_scp(SynthConfig(n_per_class=3, seed=6))
    for ta, tb in zip(a, b):
        assert ta.trial_id == tb.trial_id
        assert ta.label == tb.label
        assert np.array_equal(ta.samples, tb.samples)
    assert not np.array_equal(a[0].samples, c[0].samples)


# ---------------------------------------------------------------------------
# FilterSpec and lowpass_filter


def test_filter_spec_validation():
    with pytest.raises(InvalidConfig):
        FilterSpec(cutoff=0.0)
    with pytest.raises(InvalidConfig):
        FilterSpec(taps=31)
    with pytest.raises(InvalidConfig):
        FilterSpec(taps=256)
    for taps in (33.0, "33", True):
        with pytest.raises(InvalidConfig, match="taps must be an integer"):
            FilterSpec(taps=taps)
    for cutoff in ("a", None, False):
        with pytest.raises(InvalidConfig, match="cutoff must be a real number"):
            FilterSpec(cutoff=cutoff)
    FilterSpec(cutoff=10.0, taps=33)
    assert type(FilterSpec(taps=np.int64(65)).taps) is int


def test_lowpass_unit_dc_gain():
    x = np.full(300, 3.7)
    out = lowpass_filter(x, 128.0)
    assert isinstance(out, np.ndarray)
    assert out.shape == x.shape
    assert np.allclose(out, 3.7, atol=1e-12)


def test_lowpass_is_linear():
    rng = np.random.default_rng(0)
    spec = FilterSpec(cutoff=8.0, taps=65)
    for _ in range(5):
        x = rng.standard_normal(400)
        y = rng.standard_normal(400)
        a, b = rng.uniform(-2.0, 2.0, 2)
        combined = lowpass_filter(a * x + b * y, 64.0, spec)
        separate = a * lowpass_filter(x, 64.0, spec) + b * lowpass_filter(y, 64.0, spec)
        assert np.allclose(combined, separate, atol=1e-9)


def test_lowpass_passes_slow_tone_without_delay():
    fs = 256.0
    t = np.arange(1024) / fs
    x = np.sin(2.0 * np.pi * 1.0 * t)
    out = lowpass_filter(x, fs)
    core = slice(129, -129)
    err = np.sqrt(np.mean((out[core] - x[core]) ** 2))
    assert err < 0.01 * np.sqrt(np.mean(x[core] ** 2))
    assert np.argmax(out[core]) == np.argmax(x[core])


def test_lowpass_attenuates_fast_tone():
    fs = 256.0
    t = np.arange(1024) / fs
    x = np.sin(2.0 * np.pi * 50.0 * t)
    out = lowpass_filter(x, fs)
    core = slice(129, -129)
    assert np.sqrt(np.mean(out[core] ** 2)) < 0.01 * np.sqrt(np.mean(x[core] ** 2))


def test_lowpass_rejects_cutoff_at_nyquist():
    with pytest.raises(InvalidConfig):
        lowpass_filter(np.zeros(400), 256.0, FilterSpec(cutoff=128.0))


def test_lowpass_rejects_short_signal():
    with pytest.raises(InvalidConfig):
        lowpass_filter(np.zeros(50), 256.0, FilterSpec(taps=257))


@pytest.mark.parametrize("fs", [np.inf, np.nan, 0.0, -256.0])
def test_lowpass_rejects_bad_rate(fs):
    with pytest.raises(InvalidConfig, match="fs must be finite and > 0"):
        lowpass_filter(np.zeros(400), fs)


def test_lowpass_rejects_bad_samples():
    with pytest.raises(ShapeMismatch):
        lowpass_filter(np.zeros((2, 400)), 256.0)
    x = np.zeros(400)
    for bad in (np.nan, np.inf):
        x[100] = bad
        with pytest.raises(InvalidConfig, match="samples must be finite"):
            lowpass_filter(x, 256.0)


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
    assert len(loaded) == len(original)
    for got, want in zip(loaded, original):
        assert got.trial_id == want.trial_id
        assert got.session == want.session
        assert got.label == want.label
        assert got.fs == want.fs
        assert np.array_equal(got.samples, want.samples)


@st.composite
def trial_lists(draw):
    """Lists of trials sharing one rate and width, with distinct ids and any
    id, session, label and finite samples that a TrialRecord accepts."""
    fs = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    width = draw(st.integers(1, 6))
    samples = st.lists(
        st.floats(allow_nan=False, allow_infinity=False), min_size=width, max_size=width
    )
    trials = []
    for trial_id in draw(st.lists(st.text(min_size=1, max_size=8), max_size=4, unique=True)):
        try:
            trials.append(
                TrialRecord(
                    trial_id=trial_id,
                    session=draw(st.integers(1, SESSION_COUNT)),
                    label=draw(st.sampled_from(CLASS_NAMES)),
                    fs=fs,
                    samples=np.array(draw(samples)),
                )
            )
        except InvalidConfig:
            assume(False)
    return trials


@settings(max_examples=60, deadline=None, database=None)
@given(trials=trial_lists())
def test_trials_csv_round_trip_property(tmp_path_factory, trials):
    path = str(tmp_path_factory.getbasetemp() / "generated_trials.csv")
    save_trials_csv(trials, path)
    loaded = load_trials_csv(path)
    assert len(loaded) == len(trials)
    for got, want in zip(loaded, trials):
        assert got.trial_id == want.trial_id
        assert got.session == want.session
        assert got.label == want.label
        assert got.fs == want.fs
        # Bit for bit, so -0.0 stays -0.0.
        assert got.samples.tobytes() == want.samples.tobytes()


def test_trials_csv_empty_set(tmp_path):
    path = str(tmp_path / "empty.csv")
    save_trials_csv([], path)
    assert load_trials_csv(path) == []


def test_trials_csv_skips_comment_lines(tmp_path):
    path = str(tmp_path / "commented.csv")
    path2 = str(tmp_path / "plain.csv")
    trials = synth_scp(SynthConfig(n_per_class=1, fs=4.0, seed=0))
    save_trials_csv(trials, path2)
    with open(path2) as handle:
        body = handle.read()
    lines = body.splitlines()
    lines.insert(0, "# leading note")
    lines.insert(2, "  # interleaved note")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    loaded = load_trials_csv(path)
    assert len(loaded) == 2


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as handle:
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


def test_trials_csv_rejects_repeated_ids(tmp_path):
    path = str(tmp_path / "repeated.csv")
    write_lines(path, [
        "trial_id,session,label,fs,s0,s1",
        "a,1,negativity,4.0,0.0,0.5",
        "b,1,positivity,4.0,0.0,0.5",
        "a,2,positivity,4.0,0.0,0.5",
    ])
    with pytest.raises(FormatError, match="row 3 repeats trial_id 'a' of row 1"):
        load_trials_csv(path)


def test_save_trials_csv_rejects_repeated_ids(tmp_path):
    path = tmp_path / "repeated.csv"
    trials = [
        TrialRecord(trial_id=tid, session=1, label="negativity", fs=4.0, samples=np.zeros(4))
        for tid in ("a", "b", "a")
    ]
    with pytest.raises(FormatError, match="row 3 repeats trial_id 'a' of row 1"):
        save_trials_csv(trials, str(path))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "trials, error, match",
    [
        (
            [make_trial(np.zeros(2), "a"), make_trial(np.zeros(2), "b", fs=8.0)],
            FormatError,
            "row 2 has fs 8.0, other rows use 4.0",
        ),
        (
            [make_trial(np.zeros(2), "a"), make_trial(np.zeros(3), "b")],
            ParseError,
            "row 2 has 7 fields, expected 6",
        ),
        ([make_trial([0.0, np.nan], "a")], ParseError, "row 1 has a non-finite sample s1"),
    ],
    ids=["mixed-fs", "mixed-sample-counts", "nan-sample"],
)
def test_save_trials_csv_refuses_what_the_loader_refuses(tmp_path, trials, error, match):
    with pytest.raises(error, match=match):
        save_trials_csv(trials, str(tmp_path / "trials.csv"))
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize(
    "load, text",
    [
        (load_trials_csv, b"trial_id,session,label,fs,s0\na,1,negativity,4.0,0.0\n"),
        (load_features_csv, b"f0,label\n0.5,negativity\n"),
    ],
    ids=["trials", "features"],
)
@pytest.mark.parametrize("at", ["start", "later-row"])
def test_csv_readers_reject_bytes_that_are_not_text(tmp_path, load, text, at):
    path = tmp_path / "binary.csv"
    path.write_bytes(b"\xff" + text if at == "start" else text + b"\xff\n")
    with pytest.raises(ParseError, match="binary.csv: not a text file: .*byte 0xff"):
        load(str(path))


def test_trials_csv_rejects_unknown_label(tmp_path):
    path = str(tmp_path / "label.csv")
    write_lines(path, [
        "trial_id,session,label,fs,s0,s1",
        "a,1,resting,4.0,0.0,0.5",
    ])
    with pytest.raises(ParseError, match="row 1: unknown label 'resting'"):
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
# the CSV line reader


def read_rows(path):
    """What ``_read_csv`` yields, as the header followed by the data rows,
    each split on commas."""
    rows = _read_csv(path)
    header = next(rows)
    return [header, *(line.split(",") for _, line in rows)]


# Fields write_csv can write: text (no lone surrogate) without a comma, a
# quote or a line break.
csv_fields = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\r\n'), max_size=6
)


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data(), width=st.integers(1, 4))
def test_read_csv_splits_what_write_csv_wrote_as_csv_reader_does(tmp_path_factory, data, width):
    rows = data.draw(st.lists(st.lists(csv_fields, min_size=width, max_size=width), min_size=1, max_size=5))
    note = data.draw(st.none() | csv_fields)
    path = str(tmp_path_factory.getbasetemp() / "generated.csv")
    write_csv(path, rows[0], rows[1:], note)
    with open(path, newline="") as handle:
        comments_skipped = (line for line in handle if not line.lstrip().startswith("#"))
        expected = [row for row in csv.reader(comments_skipped) if row]
    if expected:
        assert read_rows(path) == expected
    else:
        with pytest.raises(FormatError, match="empty file"):
            read_rows(path)


@pytest.mark.parametrize(
    "text",
    [
        "a,b\r\n1,2\r\n3,4\r\n",
        "a,b\n1,2\n3,4",
        "\n\na,b\n\n1,2\n\n\n3,4\n\n",
        "  # note\na,b\n\t# note\n1,2\n   #3,4\n3,4\n",
        "# note\r\na,b\r\n\r\n1,2\r\n3,4",
    ],
    ids=["crlf", "no-final-newline", "blank-lines", "indented-comments", "crlf-comment-blank"],
)
def test_read_csv_line_forms(tmp_path, text):
    path = tmp_path / "lines.csv"
    path.write_bytes(text.encode())
    assert read_rows(str(path)) == [["a", "b"], ["1", "2"], ["3", "4"]]


def test_read_csv_counts_a_whitespace_only_line_as_a_row(tmp_path):
    path = str(tmp_path / "spaces.csv")
    write_lines(path, ["a,b", "1,2", "   ", "3,4"])
    with pytest.raises(ParseError, match="row 2 has 1 fields, expected 2"):
        read_rows(path)


def test_read_csv_has_no_field_size_limit(tmp_path):
    # Python's csv module refuses fields over 131072 characters.
    path = str(tmp_path / "long.csv")
    write_lines(path, ["a,b,label", "0." + "0" * 200_000 + "1,2.0,negativity"])
    values, _, _ = load_features_csv(path)
    assert values.tolist() == [[0.0, 2.0]]


def test_read_csv_keeps_quotes_as_ordinary_characters(tmp_path):
    # No writer quotes a field, so a quote is part of its field and a
    # quoted number does not parse.
    path = str(tmp_path / "quoted.csv")
    write_lines(path, ["a,b,label", '"0.5",1.0,negativity'])
    assert read_rows(path)[1] == ['"0.5"', "1.0", "negativity"]
    with pytest.raises(ParseError, match="row 1: could not convert"):
        load_features_csv(path)
    write_lines(path, ["a,b,label", '"0,5",1.0,negativity'])
    with pytest.raises(ParseError, match="row 1 has 4 fields, expected 3"):
        load_features_csv(path)


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
    # Names a header line cannot hold, and values the loader refuses.
    for name in ("a,b", 'a"b', "a\nb", "a\rb", "#a", " #a", "a\ud800", "", 5):
        with pytest.raises(InvalidConfig, match="feature name"):
            save_features_csv(values, ("a", name, "c"), [NEG, POS], path)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidMatrix, match="non-finite"):
            save_features_csv(np.full((1, 1), bad), ("a",), [NEG], path)
    assert list(tmp_path.iterdir()) == []


# Floats whose text a looser or a stricter reader would get wrong: signed
# zero, subnormals and the extreme exponents.
edge_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308, -1e-300, 1e22]
)

# Layout names of any text, with the ones a header line cannot hold mixed in.
feature_names = st.text(max_size=4) | st.sampled_from(
    ["a,b", 'a"b', "a\nb", "a\rb", "a\r\nb", "#a", " #a", "a\ud800", "", "label", "\u2028", "\x85"]
)


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data(), rows=st.integers(0, 3), width=st.integers(0, 3))
def test_features_csv_loads_back_every_table_the_writer_accepts(tmp_path_factory, data, rows, width):
    row = st.lists(st.floats() | edge_floats, min_size=width, max_size=width)
    values = np.array(data.draw(st.lists(row, min_size=rows, max_size=rows))).reshape(rows, width)
    layout = tuple(data.draw(st.lists(feature_names, min_size=width, max_size=width)))
    labels = data.draw(st.lists(st.sampled_from(CLASS_NAMES), min_size=rows, max_size=rows))
    path = str(tmp_path_factory.getbasetemp() / "generated_features.csv")
    try:
        save_features_csv(values, layout, labels, path)
    except PipelineError:
        return
    got_values, got_layout, got_labels = load_features_csv(path)
    assert got_values.shape == values.shape
    assert got_values.tobytes() == values.tobytes()  # bit for bit, so -0.0 stays -0.0
    assert got_layout == layout
    assert got_labels == labels


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

    for bad in ("nan", "inf", "-inf"):
        non_finite = str(tmp_path / "f5.csv")
        write_lines(non_finite, ["a,b,label", "0.0,1.0,negativity", f"0.0,{bad},positivity"])
        with pytest.raises(ParseError, match="row 2 has a non-finite value in b"):
            load_features_csv(non_finite)


def test_features_csv_reports_the_first_bad_row_before_reading_on(tmp_path):
    # The number in row 1 fails before row 2's label is looked at, and an
    # empty field of a one-column file is an error, not a skipped line.
    path = str(tmp_path / "order.csv")
    write_lines(path, ["a,b,label", "0.0,oops,negativity", "0.0,1.0,resting"])
    with pytest.raises(ParseError, match="row 1: could not convert string 'oops'"):
        load_features_csv(path)
    write_lines(path, ["a,label", "0.5,negativity", ",positivity", "1.5,negativity"])
    with pytest.raises(ParseError, match="row 2: could not convert string ''"):
        load_features_csv(path)


def test_empty_csv_files_load_without_warnings(tmp_path):
    # numpy warns when its reader is handed no data; the loaders never do that.
    no_rows = str(tmp_path / "no_rows.csv")
    no_columns = str(tmp_path / "no_columns.csv")
    no_trials = str(tmp_path / "no_trials.csv")
    save_features_csv(np.zeros((0, 3)), ("a", "b", "c"), [], no_rows)
    save_features_csv(np.zeros((2, 0)), (), [NEG, POS], no_columns)
    save_trials_csv([], no_trials)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load_features_csv(no_rows)[0].shape == (0, 3)
        values, layout, labels = load_features_csv(no_columns)
        assert values.shape == (2, 0) and layout == () and labels == [NEG, POS]
        assert load_trials_csv(no_trials) == []


def reference_float(field):
    """The number grammar of the CSV readers: Python's float without digit
    underscores and non-ASCII digits."""
    if "_" in field or any(c.isdecimal() and not c.isascii() for c in field):
        raise ValueError(f"could not convert {field!r}")
    return float(field)


def reference_features(lines):
    """A per-row reading of the data lines of a features file: ``(kind, row)``
    of the first error, or the values."""
    values = []
    for number, line in enumerate(lines, start=1):
        *fields, label = line.split(",")
        if label not in CLASS_NAMES:
            return "unknown label", number
        try:
            row = [reference_float(field) for field in fields]
        except ValueError:
            return "could not convert", number
        if not np.isfinite(row).all():
            return "non-finite value", number
        values.append(row)
    return values


CORRUPTIONS = ["oops", "", "nan", "-inf", "1_0", "\u0661\u0662", " 1.5 ", "+1.5", "1e400", "0x10"]


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data(), rows=st.integers(1, 3), width=st.integers(1, 3))
def test_features_csv_corrupted_field_matches_a_per_row_reference(tmp_path_factory, data, rows, width):
    values = data.draw(st.lists(st.lists(edge_floats, min_size=width, max_size=width), min_size=rows, max_size=rows))
    lines = [",".join([*map(repr, row), NEG]) for row in values]
    row, column = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, width - 1))
    fields = lines[row].split(",")
    fields[column] = data.draw(st.sampled_from(CORRUPTIONS))
    lines[row] = ",".join(fields)
    path = str(tmp_path_factory.getbasetemp() / "corrupted.csv")
    write_lines(path, [",".join([*(f"f{i}" for i in range(width)), "label"]), *lines])
    expected = reference_features(lines)
    if isinstance(expected, tuple):
        kind, number = expected
        with pytest.raises(ParseError, match=f"row {number}\\b.*{kind}"):
            load_features_csv(path)
    else:
        assert load_features_csv(path)[0].tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize(
    "fs, sample, match",
    [
        ("4.0", "1_0", "row 2: could not convert string '1_0'"),
        ("\u0661\u0662", "0.5", "row 2: could not convert string"),
        ("4.0", "", "row 2: could not convert string ''"),
        ("4.0", " ", "row 2: could not convert string ' '"),
    ],
    ids=["underscore", "arabic-digits", "empty", "blank"],
)
def test_trials_csv_refuses_numbers_outside_the_grammar(tmp_path, fs, sample, match):
    # A word, a non-finite value and a wrong field count have their own tests above.
    path = str(tmp_path / "bad.csv")
    write_lines(path, [
        "trial_id,session,label,fs,s0,s1",
        "a,1,negativity,4.0,0.0,0.5",
        f"b,1,negativity,{fs},0.0,{sample}",
    ])
    with pytest.raises(ParseError, match=match):
        load_trials_csv(path)


def test_trials_csv_reads_signs_and_padding_as_float_does(tmp_path):
    path = str(tmp_path / "padded.csv")
    write_lines(path, ["trial_id,session,label,fs,s0,s1", "a,1,negativity, 4.0 ,+1.5, -0.0"])
    trial = load_trials_csv(path)[0]
    assert trial.fs == 4.0 and type(trial.fs) is float
    assert trial.samples.tobytes() == np.array([1.5, -0.0]).tobytes()


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
    assert loaded.mean == report.mean
    np.testing.assert_array_equal(loaded.predictions, report.predictions)
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


@pytest.fixture()
def edited_report(tmp_path):
    """Save a two-fold report, then return a helper that rewrites the file
    with an edited copy of its JSON document and loads it back."""
    path = tmp_path / "report.json"
    save_report(small_report(), str(path))
    doc = json.loads(path.read_text())

    def load_edited(edit):
        edited = json.loads(json.dumps(doc))
        edit(edited)
        path.write_text(json.dumps(edited))
        return load_report(str(path))

    return load_edited


def test_load_report_accepts_undefined_metrics(edited_report):
    report = edited_report(lambda d: d["folds"][0].update(sensitivity=None))
    assert report.folds[0].sensitivity is None


def test_load_report_rejects_other_format_marker(edited_report, tmp_path):
    with pytest.raises(InvalidConfig, match="not a cv-report file"):
        edited_report(lambda d: d.update(format="deep-elm-model"))
    path = tmp_path / "list.json"
    path.write_text("[]")
    with pytest.raises(InvalidConfig, match="not a cv-report file"):
        load_report(str(path))


def test_load_report_rejects_truncated_file(tmp_path):
    path = tmp_path / "report.json"
    save_report(small_report(), str(path))
    path.write_text(path.read_text()[:-40])
    with pytest.raises(FormatError, match="report.json: not valid JSON"):
        load_report(str(path))


@pytest.mark.parametrize(
    "edit, match",
    [
        pytest.param(lambda d: d.update(version=99), "version 99", id="version"),
        pytest.param(lambda d: d.pop("mean"), "missing key 'mean'", id="missing-key"),
        pytest.param(lambda d: d["mean"].pop("accuracy"), "missing key 'accuracy'", id="missing-metric"),
        pytest.param(lambda d: d.update(folds=7), "malformed", id="malformed-entry"),
        pytest.param(lambda d: d["predictions"].pop(), "predictions", id="short-predictions"),
        pytest.param(lambda d: d.update(k=7), "2 folds, expected k = 7", id="fold-count"),
        pytest.param(lambda d: d["fold_assignments"].__setitem__(0, 2), r"0\.\.1", id="assignment-high"),
        pytest.param(lambda d: d["fold_assignments"].__setitem__(0, -1), r"0\.\.1", id="assignment-negative"),
        pytest.param(lambda d: d["predictions"].__setitem__(0, "rest"), r"unknown labels \['rest'\]", id="label"),
        pytest.param(lambda d: d["mean"].update(accuracy="x"), "accuracy 'x'", id="metric-text"),
        pytest.param(lambda d: d["std"].update(selectivity=True), "selectivity True", id="metric-bool"),
        pytest.param(lambda d: d["folds"][1].update(accuracy=100.5), "accuracy 100.5", id="metric-range"),
        pytest.param(lambda d: d["folds"][0].update(sensitivity=float("nan")), "sensitivity nan", id="metric-nan"),
        pytest.param(lambda d: d.update(k="2"), "integer, got '2'", id="k-text"),
        pytest.param(lambda d: d.update(k=2.0), "integer, got 2.0", id="k-float"),
        pytest.param(lambda d: d.update(seed=1.9), "integer, got 1.9", id="seed-float"),
        pytest.param(lambda d: d["fold_assignments"].__setitem__(0, 0.7), "integer, got 0.7", id="assignment-float"),
        pytest.param(lambda d: d["fold_assignments"].__setitem__(0, True), "integer, got True", id="assignment-bool"),
        pytest.param(lambda d: d["fold_assignments"].__setitem__(0, 2**70), "malformed report entry: .*too large", id="assignment-huge"),
        pytest.param(lambda d: d.update(config=[1, 2]), r"report.json: config must be a JSON object, got \[1, 2\]", id="config-list"),
        pytest.param(lambda d: d.update(config="40,30"), "config must be a JSON object, got '40,30'", id="config-text"),
        pytest.param(lambda d: d.update(config=None), "config must be a JSON object, got None", id="config-null"),
        pytest.param(lambda d: d.update(k=0, folds=[], fold_assignments=[], predictions=[]), "k must be >= 2, got 0", id="k-zero"),
        pytest.param(lambda d: d.update(k=1), "k must be >= 2, got 1", id="k-one"),
        pytest.param(lambda d: d.update(fold_assignments=[], predictions=[]), "fold 0 has no assigned trial", id="no-trials"),
        pytest.param(lambda d: d.update(fold_assignments=[0] * len(d["fold_assignments"])), "fold 1 has no assigned trial", id="empty-fold"),
        pytest.param(lambda d: d.update(seed=-5), "seed must be >= 0, got -5", id="seed-negative"),
    ],
)
def test_load_report_rejects_malformed_file(edited_report, edit, match):
    with pytest.raises(FormatError, match=match):
        edited_report(edit)


def test_atomic_write_creates_directories_and_leaves_no_temp(tmp_path):
    path = str(tmp_path / "deep" / "nested" / "out.txt")
    atomic_write_text(path, "payload\n")
    with open(path) as handle:
        assert handle.read() == "payload\n"
    leftovers = [n for n in os.listdir(os.path.dirname(path)) if n.endswith(".tmp")]
    assert leftovers == []
