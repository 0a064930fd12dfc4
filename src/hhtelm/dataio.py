"""Trial records, the synthetic generator, filtering, and file formats.

Trials are slow-cortical-potential style: 8 s at a fixed sampling rate,
a 2 s baseline followed by a 6 s active phase, one of two labels. The
synthetic generator produces class-separable trials for pipeline checks;
all file formats round-trip exactly (floats are written with shortest
round-trip repr) and writes are atomic (temp file + rename).
"""
from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    FormatError,
    InvalidConfig,
    InvalidLabel,
    ParseError,
    ShapeMismatch,
)
from .hht import Signal

LABEL_NEGATIVITY = "negativity"
LABEL_POSITIVITY = "positivity"
CLASS_NAMES = (LABEL_NEGATIVITY, LABEL_POSITIVITY)

TRIAL_SECONDS = 8.0
BASELINE_SECONDS = 2.0
SESSION_COUNT = 8

_FIXED_COLUMNS = ("trial_id", "session", "label", "fs")


@dataclass(frozen=True)
class TrialRecord:
    """One recorded trial: id, session 1-8, class label, rate, samples."""

    trial_id: str
    session: int
    label: str
    fs: float
    samples: np.ndarray

    def __post_init__(self):
        if not self.trial_id:
            raise InvalidConfig("trial_id must be non-empty")
        if not 1 <= int(self.session) <= SESSION_COUNT:
            raise InvalidConfig(f"session must be in 1..{SESSION_COUNT}, got {self.session}")
        if self.label not in CLASS_NAMES:
            raise InvalidLabel(f"unknown label {self.label!r}")
        if not (math.isfinite(self.fs) and self.fs > 0.0):
            raise InvalidConfig("fs must be finite and > 0")
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size < 1:
            raise ShapeMismatch("samples must be a non-empty 1-D array")
        object.__setattr__(self, "samples", samples)

    def signal(self):
        return Signal(samples=self.samples, fs=self.fs)


@dataclass
class TrialSet:
    """Homogeneous collection of trials sharing fs and sample count."""

    trials: list
    fs: float | None


@dataclass(frozen=True)
class SynthConfig:
    """Controls for the synthetic slow-drift generator."""

    n_per_class: int = 200
    drift_amplitude: float = 10.0
    noise_sigma: float = 1.0
    alpha_amplitude: float = 2.0
    fs: float = 256.0
    seed: int = 0

    def __post_init__(self):
        for name, value in asdict(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidConfig(f"{name} must be finite, got {value}")
        if self.n_per_class < 1:
            raise InvalidConfig("n_per_class must be >= 1")
        if self.drift_amplitude < 0.0 or self.noise_sigma < 0.0 or self.alpha_amplitude < 0.0:
            raise InvalidConfig("amplitudes must be >= 0")
        # A trial becomes a Signal downstream, which needs at least 4 samples.
        if int(round(TRIAL_SECONDS * self.fs)) < 4:
            raise InvalidConfig(
                f"fs {self.fs} Hz gives fewer than 4 samples in a {TRIAL_SECONDS:g} s trial"
            )


@dataclass(frozen=True)
class FilterSpec:
    """Low-pass FIR design: cutoff in Hz and an odd tap count >= 33."""

    cutoff: float = 10.0
    taps: int = 257

    def __post_init__(self):
        if not self.cutoff > 0.0:
            raise InvalidConfig("cutoff must be > 0")
        if self.taps < 33 or self.taps % 2 == 0:
            raise InvalidConfig("taps must be odd and >= 33")


def lowpass_filter(signal, spec=None):
    """Zero-phase windowed-sinc low-pass.

    Hamming-windowed sinc kernel normalized to unit DC gain, applied to a
    reflect-padded copy of the input so the output has the same length
    with the group delay removed.
    """
    if spec is None:
        spec = FilterSpec()
    if not spec.cutoff < signal.fs / 2.0:
        raise InvalidConfig(
            f"cutoff {spec.cutoff} Hz must sit below the Nyquist rate {signal.fs / 2.0} Hz"
        )
    mid = spec.taps // 2
    if mid >= signal.samples.size:
        raise InvalidConfig("signal too short for the requested tap count")
    k = np.arange(spec.taps) - mid
    fc = spec.cutoff / signal.fs
    kernel = 2.0 * fc * np.sinc(2.0 * fc * k)
    kernel *= np.hamming(spec.taps)
    kernel /= np.sum(kernel)
    padded = np.pad(signal.samples, mid, mode="reflect")
    return Signal(samples=np.convolve(padded, kernel, mode="valid"), fs=signal.fs)


def segment_phases(trial):
    """Split a standard 8 s trial into (baseline, active) sample views."""
    expected = int(round(TRIAL_SECONDS * trial.fs))
    if trial.samples.size != expected:
        raise FormatError(
            f"trial {trial.trial_id!r} has {trial.samples.size} samples, "
            f"expected {expected} for {TRIAL_SECONDS:g} s at {trial.fs:g} Hz"
        )
    split = int(round(BASELINE_SECONDS * trial.fs))
    return trial.samples[:split], trial.samples[split:]


ONSET_RAMP_SECONDS = 0.25
POWER_MODULATION_DEPTH = 0.7


def synth_scp(config=None):
    """Synthetic two-class slow-drift trials.

    Each trial is a near-zero baseline followed by an active-phase DC
    drift (negative for negativity, positive for positivity), plus a
    10 Hz oscillation with random phase and seeded Gaussian noise.
    The drift rises over a smooth 0.25 s onset ramp placed at the end
    of the baseline, so the active-phase mean of a noiseless trial is
    exactly ``drift_amplitude`` in magnitude.

    The oscillation and the noise are task-modulated: their power drops
    by a fixed fraction (``POWER_MODULATION_DEPTH``) once the drift is
    up, the way ongoing rhythms desynchronize during a sustained shift.
    The modulation is identical for both classes; only the drift sign
    separates them. Classes are balanced at ``n_per_class`` and
    sessions cycle 1..8.

    Returns
    -------
    TrialSet
    """
    cfg = config if config is not None else SynthConfig()
    rng = np.random.default_rng(cfg.seed)
    n = int(round(TRIAL_SECONDS * cfg.fs))
    t = np.arange(n) / cfg.fs
    ramp_start = BASELINE_SECONDS - ONSET_RAMP_SECONDS
    ramp = np.clip((t - ramp_start) / ONSET_RAMP_SECONDS, 0.0, 1.0)
    onset = 0.5 - 0.5 * np.cos(np.pi * ramp)
    calm = 1.0 - POWER_MODULATION_DEPTH * onset
    trials = []
    counter = 0
    for label, sign in ((LABEL_NEGATIVITY, -1.0), (LABEL_POSITIVITY, 1.0)):
        for _ in range(cfg.n_per_class):
            phase = rng.uniform(0.0, 2.0 * np.pi)
            alpha = cfg.alpha_amplitude * calm * np.sin(2.0 * np.pi * 10.0 * t + phase)
            noise = rng.normal(0.0, cfg.noise_sigma, n) * calm
            samples = sign * cfg.drift_amplitude * onset + alpha + noise
            counter += 1
            trials.append(
                TrialRecord(
                    trial_id=f"synth-{counter:04d}",
                    session=(counter - 1) % SESSION_COUNT + 1,
                    label=label,
                    fs=cfg.fs,
                    samples=samples,
                )
            )
    return TrialSet(trials=trials, fs=cfg.fs)


def atomic_write_text(path, text):
    """Write text to path via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(value):
    return repr(float(value))


def config_note(command, *configs, **fields):
    """The reproducibility echo of an artifact: sorted-key JSON of the
    command name, every field of each config dataclass, then ``fields``."""
    echo = {"command": command}
    for config in configs:
        echo.update(asdict(config))
    echo.update(fields)
    return json.dumps(echo, sort_keys=True)


def write_csv(path, header, rows, config_note=None):
    """Write a CSV artifact atomically from already-formatted fields.

    ``config_note`` becomes a single leading ``#`` comment line (the
    reproducibility echo); readers skip comment lines. ``header`` is a
    sequence of column names and each row a sequence of strings.
    """
    lines = ["# " + config_note] if config_note else []
    lines.append(",".join(header))
    lines.extend(",".join(row) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


def _read_csv(path):
    """Header and data rows of a CSV artifact, comment and blank lines skipped.

    Raises FormatError for a file without a header row and ParseError
    (with the data row number) for a row whose field count differs.
    """
    with open(path, "r", newline="") as handle:
        rows = [row for row in csv.reader(_skip_comments(handle)) if row]
    if not rows:
        raise FormatError(f"{path}: empty file, expected a header row")
    header = rows[0]
    for number, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise ParseError(
                f"{path}: row {number} has {len(row)} fields, expected {len(header)}"
            )
    return header, rows[1:]


def _skip_comments(handle):
    for line in handle:
        if not line.lstrip().startswith("#"):
            yield line


def save_trials_csv(trial_set, path, config_note=None):
    """Write trials as CSV: header trial_id,session,label,fs,s0,...

    ``config_note`` is the leading ``#`` echo line (see ``write_csv``).
    Floats use shortest round-trip repr so a load restores values exactly.
    """
    width = trial_set.trials[0].samples.size if trial_set.trials else 0
    header = [*_FIXED_COLUMNS, *(f"s{i}" for i in range(width))]
    rows = (
        [trial.trial_id, str(int(trial.session)), trial.label, _fmt(trial.fs)]
        + [_fmt(v) for v in trial.samples]
        for trial in trial_set.trials
    )
    write_csv(path, header, rows, config_note)


def load_trials_csv(path):
    """Parse a trials CSV written by save_trials_csv.

    Raises ParseError (with the offending data row number) for malformed
    rows, non-finite samples and rates included, and FormatError when rows
    disagree on fs.
    """
    header, rows = _read_csv(path)
    if header[: len(_FIXED_COLUMNS)] != list(_FIXED_COLUMNS):
        raise FormatError(
            f"{path}: header must start with {','.join(_FIXED_COLUMNS)}"
        )
    trials = []
    fs = None
    for number, row in enumerate(rows, start=1):
        trial_id, session_text, label, fs_text = row[:4]
        if label not in CLASS_NAMES:
            raise ParseError(f"{path}: row {number} has unknown label {label!r}")
        try:
            session = int(session_text)
            row_fs = float(fs_text)
            samples = np.array([float(v) for v in row[4:]])
        except ValueError as exc:
            raise ParseError(f"{path}: row {number}: {exc}") from exc
        bad = np.flatnonzero(~np.isfinite(samples))
        if bad.size:
            raise ParseError(f"{path}: row {number} has a non-finite sample s{bad[0]}")
        try:
            trial = TrialRecord(
                trial_id=trial_id, session=session, label=label, fs=row_fs, samples=samples
            )
        except (InvalidConfig, InvalidLabel, ShapeMismatch) as exc:
            raise ParseError(f"{path}: row {number}: {exc}") from exc
        if fs is None:
            fs = row_fs
        elif row_fs != fs:
            raise FormatError(
                f"{path}: row {number} has fs {row_fs}, other rows use {fs}"
            )
        trials.append(trial)
    return TrialSet(trials=trials, fs=fs)


def save_features_csv(values, layout, labels, path, config_note=None):
    """Write a feature matrix with a trailing label column."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] != len(labels):
        raise ShapeMismatch("values must be 2-D with one row per label")
    if values.shape[1] != len(layout):
        raise ShapeMismatch("layout length must match the feature width")
    for label in labels:
        if label not in CLASS_NAMES:
            raise InvalidLabel(f"unknown label {label!r}")
    rows = ([*map(_fmt, row), label] for row, label in zip(values, labels))
    write_csv(path, [*layout, "label"], rows, config_note)


def load_features_csv(path):
    """Read a feature CSV back as (values, layout, labels)."""
    header, rows = _read_csv(path)
    if header[-1] != "label":
        raise FormatError(f"{path}: last column must be 'label'")
    layout = tuple(header[:-1])
    values = []
    labels = []
    for number, row in enumerate(rows, start=1):
        label = row[-1]
        if label not in CLASS_NAMES:
            raise ParseError(f"{path}: row {number} has unknown label {label!r}")
        try:
            values.append([float(v) for v in row[:-1]])
        except ValueError as exc:
            raise ParseError(f"{path}: row {number}: {exc}") from exc
        labels.append(label)
    matrix = np.array(values) if values else np.zeros((0, len(layout)))
    return matrix, layout, labels


def save_report(report, path):
    """Serialize a cross-validation report to stable, exact JSON."""
    atomic_write_text(path, json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")


def load_report(path):
    """Load a report written by save_report."""
    from .evaluation import CvReport

    with open(path, "r") as handle:
        payload = json.load(handle)
    return CvReport.from_dict(payload)
