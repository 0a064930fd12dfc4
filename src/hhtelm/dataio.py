"""Trial and report records, the synthetic generator, filtering, and file formats.

Trials are slow-cortical-potential style: 8 s at a fixed sampling rate,
a 2 s baseline followed by a 6 s active phase, one of two labels. The
synthetic generator produces class-separable trials for pipeline checks;
all file formats round-trip exactly (floats are written with shortest
round-trip repr) and writes are atomic (temp file + rename). A CSV row is
its fields joined by commas and never quoted, so a reader counts a line's
fields by its commas and hands the numeric ones to numpy's C reader
(``np.loadtxt``), whose grammar is Python's ``float`` without digit
underscores and non-ASCII digits. The cross-validation report records live
here with their JSON file, so ``save_report`` and ``load_report`` are the
only code that knows it.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass, fields
from numbers import Real

import numpy as np

from .errors import (
    FormatError,
    InvalidConfig,
    InvalidLabel,
    InvalidMatrix,
    ParseError,
    ShapeMismatch,
)

LABEL_NEGATIVITY = "negativity"
LABEL_POSITIVITY = "positivity"
CLASS_NAMES = (LABEL_NEGATIVITY, LABEL_POSITIVITY)

TRIAL_SECONDS = 8.0
BASELINE_SECONDS = 2.0
SESSION_COUNT = 8

# The most samples a synthetic trial may hold: 8 s at 2048 Hz, eight times
# the default rate. `features` on 4 trials of this length peaked at 10.7 MB
# of allocations (1.6 MB at 256 Hz), so one block of cli._BLOCK_TRIALS
# trials stays near 170 MB.
_MAX_TRIAL_SAMPLES = 16384

_FIXED_COLUMNS = ("trial_id", "session", "label", "fs")


def _check_int(value, name, minimum):
    """``value`` as an int; InvalidConfig unless it is an integer, not a bool,
    and at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidConfig(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidConfig(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _check_real(value, name):
    """InvalidConfig unless ``value`` is a real number and not a bool."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise InvalidConfig(f"{name} must be a real number, got {value!r}")


def _floats(values, name, error=InvalidConfig):
    """``np.asarray(values, dtype=float)``, raising ``error`` for values that
    are not all numbers."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise error(f"{name} must hold numbers only") from None


def _check_field(value, name):
    """InvalidConfig unless ``value`` can stand unquoted as a CSV field at
    the start of a line: a non-empty string without a comma, a quote or a
    line break, not starting with '#', that encodes as UTF-8."""
    if not isinstance(value, str):
        raise InvalidConfig(f"{name} must be a string, got {value!r}")
    if not value:
        raise InvalidConfig(f"{name} must be non-empty")
    if set(value) & set(',"\r\n') or value.lstrip().startswith("#"):
        raise InvalidConfig(
            f"{name} {value!r} holds a comma, a quote or a line break, or starts with '#'"
        )
    # Artifacts are UTF-8, which cannot hold a lone surrogate.
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise InvalidConfig(f"{name} {value!r} does not encode as UTF-8") from None


@dataclass(frozen=True)
class TrialRecord:
    """One recorded trial: id, session 1-8, class label, rate, samples."""

    trial_id: str
    session: int
    label: str
    fs: float
    samples: np.ndarray

    def __post_init__(self):
        _check_field(self.trial_id, "trial_id")
        # decompose names a file after the id.
        if set(self.trial_id) & set("/\\"):
            raise InvalidConfig(f"trial_id {self.trial_id!r} holds a slash")
        if _check_int(self.session, "session", 1) > SESSION_COUNT:
            raise InvalidConfig(f"session must be in 1..{SESSION_COUNT}, got {self.session}")
        if self.label not in CLASS_NAMES:
            raise InvalidLabel(f"unknown label {self.label!r}")
        _check_real(self.fs, "fs")
        if not (math.isfinite(self.fs) and self.fs > 0.0):
            raise InvalidConfig("fs must be finite and > 0")
        samples = _floats(self.samples, "samples")
        if samples.ndim != 1 or samples.size < 1:
            raise ShapeMismatch("samples must be a non-empty 1-D array")
        object.__setattr__(self, "samples", samples)


@dataclass(frozen=True)
class MetricsReport:
    """Percentages; None marks a metric whose denominator was zero."""

    selectivity: float | None
    sensitivity: float | None
    accuracy: float | None


@dataclass
class CvReport:
    """Cross-validation outcome: per-fold metrics plus aggregates.

    ``fold_assignments`` maps every trial to its held-out fold and
    ``predictions`` holds the label each trial received when tested.
    """

    folds: list
    mean: MetricsReport
    std: MetricsReport
    fold_assignments: np.ndarray
    predictions: np.ndarray
    seed: int
    k: int
    config: dict

    def to_dict(self):
        return {
            "seed": int(self.seed),
            "k": int(self.k),
            "config": self.config,
            "fold_assignments": [int(f) for f in self.fold_assignments],
            "predictions": [str(p) for p in self.predictions],
            "folds": [asdict(f) for f in self.folds],
            "mean": asdict(self.mean),
            "std": asdict(self.std),
        }


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
        for name in ("drift_amplitude", "noise_sigma", "alpha_amplitude", "fs"):
            value = getattr(self, name)
            _check_real(value, name)
            if not math.isfinite(value):
                raise InvalidConfig(f"{name} must be finite, got {value}")
        object.__setattr__(self, "n_per_class", _check_int(self.n_per_class, "n_per_class", 1))
        object.__setattr__(self, "seed", _check_int(self.seed, "seed", 0))
        if self.drift_amplitude < 0.0 or self.noise_sigma < 0.0 or self.alpha_amplitude < 0.0:
            raise InvalidConfig("amplitudes must be >= 0")
        # find_extrema, and so the decomposition, needs at least 4 samples.
        samples = int(round(TRIAL_SECONDS * self.fs))
        if samples < 4:
            raise InvalidConfig(
                f"fs {self.fs} Hz gives fewer than 4 samples in a {TRIAL_SECONDS:g} s trial"
            )
        if samples > _MAX_TRIAL_SAMPLES:
            raise InvalidConfig(
                f"fs {self.fs} Hz gives {samples} samples in a {TRIAL_SECONDS:g} s trial, "
                f"more than {_MAX_TRIAL_SAMPLES}"
            )


@dataclass(frozen=True)
class FilterSpec:
    """Low-pass FIR design: a finite cutoff in Hz and an odd tap count >= 33."""

    cutoff: float = 10.0
    taps: int = 257

    def __post_init__(self):
        _check_real(self.cutoff, "cutoff")
        if not (math.isfinite(self.cutoff) and self.cutoff > 0.0):
            raise InvalidConfig(f"cutoff must be finite and > 0, got {self.cutoff}")
        object.__setattr__(self, "taps", _check_int(self.taps, "taps", 33))
        if self.taps % 2 == 0:
            raise InvalidConfig("taps must be odd and >= 33")


def lowpass_filter(samples, fs, spec=None):
    """Zero-phase windowed-sinc low-pass of one series sampled at ``fs`` Hz.

    Hamming-windowed sinc kernel normalized to unit DC gain, applied to a
    reflect-padded copy of the input so the output has the same length
    with the group delay removed. Raises ShapeMismatch unless ``samples``
    is 1-D, and InvalidConfig for a rate that is not a finite positive
    number, a ``spec`` that is not a FilterSpec, a non-finite sample, a
    cutoff at or above the Nyquist rate, or a series no longer than half
    the tap count.
    """
    if spec is None:
        spec = FilterSpec()
    elif not isinstance(spec, FilterSpec):
        raise InvalidConfig(f"spec must be a FilterSpec, got {type(spec).__name__}")
    _check_real(fs, "fs")
    if not (math.isfinite(fs) and fs > 0.0):
        raise InvalidConfig(f"fs must be finite and > 0, got {fs}")
    x = _floats(samples, "samples")
    if x.ndim != 1:
        raise ShapeMismatch("lowpass_filter takes one 1-D series")
    if not np.all(np.isfinite(x)):
        raise InvalidConfig("signal samples must be finite")
    if not spec.cutoff < fs / 2.0:
        raise InvalidConfig(
            f"cutoff {spec.cutoff} Hz must sit below the Nyquist rate {fs / 2.0} Hz"
        )
    mid = spec.taps // 2
    if mid >= x.size:
        raise InvalidConfig("signal too short for the requested tap count")
    k = np.arange(spec.taps) - mid
    fc = spec.cutoff / fs
    kernel = 2.0 * fc * np.sinc(2.0 * fc * k)
    kernel *= np.hamming(spec.taps)
    kernel /= np.sum(kernel)
    padded = np.pad(x, mid, mode="reflect")
    return np.convolve(padded, kernel, mode="valid")


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
    list of TrialRecord
    """
    cfg = config if config is not None else SynthConfig()
    if not isinstance(cfg, SynthConfig):
        raise InvalidConfig(f"config must be a SynthConfig, got {type(cfg).__name__}")
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
    return trials


def atomic_write_text(path, text):
    """Write text to path via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
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
    """The lines of a CSV artifact, comment and blank lines skipped, read
    one at a time: yields the header split on commas, then ``(number,
    line)`` per data row, so a caller parses each row before the next one
    is read. Each line loses its line ending; its fields are what lies
    between commas, and no writer of this package quotes a field, so a
    quote is an ordinary character here.

    Raises FormatError for a file without a header row, and ParseError for
    bytes that do not decode as text or (with the data row number) for a
    row whose field count differs.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        try:
            lines = (line.rstrip("\r\n") for line in handle)
            lines = (line for line in lines if line and not line.lstrip().startswith("#"))
            header = next(lines, None)
            if header is None:
                raise FormatError(f"{path}: empty file, expected a header row")
            header = header.split(",")
            yield header
            for number, line in enumerate(lines, start=1):
                count = line.count(",") + 1
                if count != len(header):
                    raise ParseError(
                        f"{path}: row {number} has {count} fields, expected {len(header)}"
                    )
                yield number, line
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not a text file: {exc}") from exc


def _parse_floats(path, rows, width):
    """The numbers of ``rows``, pairs ``(number, text)`` whose text holds
    ``width`` comma-separated fields, as one ``(rows, width)`` array.

    numpy's C reader (``np.loadtxt``) parses the texts as ``rows`` yields
    them, one at a time, so the checks a caller makes while yielding run in
    row order and no row's text outlives its parse. Its grammar is Python's
    ``float`` without digit underscores and non-ASCII digits. Raises
    ParseError naming the first row with a field outside that grammar.
    """
    if width == 0:
        return np.zeros((sum(1 for _ in rows), 0))
    number = None

    def texts():
        nonlocal number
        for number, text in rows:
            # loadtxt would skip an empty line, and with it the row.
            if not text:
                raise ParseError(f"{path}: row {number}: could not convert string '' to float64")
            yield text

    lines = texts()
    first = next(lines, None)
    if first is None:  # loadtxt warns when it is handed no data
        return np.zeros((0, width))
    try:
        return np.loadtxt(
            itertools.chain((first,), lines), delimiter=",", dtype=float, comments=None, ndmin=2
        )
    except ValueError as exc:
        # loadtxt reads no line ahead, so the row that failed is the last one drawn.
        reason = str(exc).partition(" at row ")[0]
        raise ParseError(f"{path}: row {number}: {reason}") from exc


def _checked_trials(path, rows):
    """Each ``(number, trial_id, session, label, fs, samples)`` of ``rows`` as a
    TrialRecord, held to the rules of a trials CSV, so that what
    ``save_trials_csv`` writes ``load_trials_csv`` reads. Raises ParseError
    for a row of another sample count than the first, a non-finite sample
    or a field ``TrialRecord`` refuses, and FormatError for a row of
    another fs than the first or a repeated id, each naming the row.
    """
    first = None
    id_rows = {}
    for number, trial_id, session, label, fs, samples in rows:
        if first is not None and samples.size != first.samples.size:
            fixed = len(_FIXED_COLUMNS)
            raise ParseError(
                f"{path}: row {number} has {fixed + samples.size} fields, "
                f"expected {fixed + first.samples.size}"
            )
        if not np.isfinite(samples).all():
            bad = np.flatnonzero(~np.isfinite(samples))[0]
            raise ParseError(f"{path}: row {number} has a non-finite sample s{bad}")
        try:
            trial = TrialRecord(
                trial_id=trial_id, session=session, label=label, fs=fs, samples=samples
            )
        except (InvalidConfig, InvalidLabel, ShapeMismatch) as exc:
            raise ParseError(f"{path}: row {number}: {exc}") from exc
        if first is None:
            first = trial
        elif fs != first.fs:
            raise FormatError(f"{path}: row {number} has fs {fs}, other rows use {first.fs}")
        if trial_id in id_rows:
            raise FormatError(
                f"{path}: row {number} repeats trial_id {trial_id!r} of row {id_rows[trial_id]}"
            )
        id_rows[trial_id] = number
        yield trial


def save_trials_csv(trials, path, config_note=None):
    """Write trials as CSV: header trial_id,session,label,fs,s0,...

    ``config_note`` is the leading ``#`` echo line (see ``write_csv``).
    Floats use shortest round-trip repr so a load restores values exactly.
    Raises, before anything is written, what ``load_trials_csv`` would
    raise for the file.
    """
    given = (
        (number, trial.trial_id, trial.session, trial.label, float(trial.fs), trial.samples)
        for number, trial in enumerate(trials, start=1)
    )
    trials = list(_checked_trials(path, given))
    width = trials[0].samples.size if trials else 0
    header = [*_FIXED_COLUMNS, *(f"s{i}" for i in range(width))]
    rows = (
        [trial.trial_id, str(int(trial.session)), trial.label, _fmt(trial.fs)]
        + [_fmt(v) for v in trial.samples]
        for trial in trials
    )
    write_csv(path, header, rows, config_note)


def load_trials_csv(path):
    """Parse a trials CSV written by save_trials_csv into a list of TrialRecord.

    Raises ParseError (with the offending data row number) for malformed
    rows, non-finite samples and rates included, and FormatError when rows
    disagree on fs or repeat a trial id.
    """
    rows = _read_csv(path)
    header = next(rows)
    if header[: len(_FIXED_COLUMNS)] != list(_FIXED_COLUMNS):
        raise FormatError(
            f"{path}: header must start with {','.join(_FIXED_COLUMNS)}"
        )

    def parsed():
        width = len(header) - len(_FIXED_COLUMNS) + 1
        for number, line in rows:
            trial_id, session_text, label, numbers = line.split(",", 3)
            try:
                session = int(session_text)
            except ValueError as exc:
                raise ParseError(f"{path}: row {number}: {exc}") from exc
            values = _parse_floats(path, ((number, numbers),), width)[0]
            yield number, trial_id, session, label, float(values[0]), values[1:]

    return list(_checked_trials(path, parsed()))


def save_features_csv(values, layout, labels, path, config_note=None):
    """Write a feature matrix with a trailing label column.

    Raises, before anything is written, for a table ``load_features_csv``
    would not read back: InvalidConfig for a name that is empty, holds a
    comma, a quote or a line break, or starts with '#', and InvalidMatrix
    for a value that is not a finite number.
    """
    values = _floats(values, "values", InvalidMatrix)
    if values.ndim != 2 or values.shape[0] != len(labels):
        raise ShapeMismatch("values must be 2-D with one row per label")
    if values.shape[1] != len(layout):
        raise ShapeMismatch("layout length must match the feature width")
    for name in layout:
        _check_field(name, "feature name")
    if not np.isfinite(values).all():
        raise InvalidMatrix("values contains non-finite entries")
    for label in labels:
        if label not in CLASS_NAMES:
            raise InvalidLabel(f"unknown label {label!r}")
    rows = ([*map(_fmt, row), label] for row, label in zip(values, labels))
    write_csv(path, [*layout, "label"], rows, config_note)


def load_features_csv(path):
    """Read a feature CSV back as (values, layout, labels).

    Raises ParseError (with the offending data row number) for malformed
    rows, unknown labels and non-finite values included.
    """
    rows = _read_csv(path)
    header = next(rows)
    if header[-1] != "label":
        raise FormatError(f"{path}: last column must be 'label'")
    layout = tuple(header[:-1])
    labels = []

    def numbers():
        for number, line in rows:
            text, _, label = line.rpartition(",")
            if label not in CLASS_NAMES:
                raise ParseError(f"{path}: row {number} has unknown label {label!r}")
            labels.append(label)
            yield number, text

    values = _parse_floats(path, numbers(), len(layout))
    if not np.isfinite(values).all():
        row, bad = np.argwhere(~np.isfinite(values))[0]
        raise ParseError(f"{path}: row {row + 1} has a non-finite value in {layout[bad]}")
    return values, layout, labels


def _json_int(value):
    """``value`` if it is a JSON integer; ValueError for a bool, a float or a string."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


_REPORT_FORMAT = "cv-report"
_REPORT_VERSION = 1


def save_report(report, path):
    """Serialize a cross-validation report to stable, exact JSON: the format
    marker, the version and ``report.to_dict()``, keys sorted."""
    if not isinstance(report, CvReport):
        raise InvalidConfig(f"report must be a CvReport, got {type(report).__name__}")
    document = {"format": _REPORT_FORMAT, "version": _REPORT_VERSION, **report.to_dict()}
    atomic_write_text(path, json.dumps(document, indent=2, sort_keys=True) + "\n")


def load_report(path):
    """Load a report written by save_report.

    Raises InvalidConfig for a file that is not a report, and FormatError
    for one that is not valid JSON, of another version, with a missing or
    malformed entry, with a config that is not a JSON object, with fold
    assignments and predictions of unequal length, with ``k`` below 2 or
    a negative seed, with a fold count other than ``k``, with an
    assignment outside ``0..k-1`` or a fold with none, with an unknown
    label, or with a metric that is neither None nor a finite percentage.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except ValueError as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != _REPORT_FORMAT:
        raise InvalidConfig(f"{path}: not a {_REPORT_FORMAT} file")
    if payload.get("version") != _REPORT_VERSION:
        raise FormatError(
            f"{path}: unsupported {_REPORT_FORMAT} version {payload.get('version')!r}"
        )
    names = [field.name for field in fields(MetricsReport)]

    def metrics_of(entry):
        return MetricsReport(**{name: entry[name] for name in names})

    try:
        report = CvReport(
            folds=[metrics_of(entry) for entry in payload["folds"]],
            mean=metrics_of(payload["mean"]),
            std=metrics_of(payload["std"]),
            fold_assignments=np.array([_json_int(f) for f in payload["fold_assignments"]], dtype=int),
            predictions=np.array(payload["predictions"]),
            seed=_json_int(payload["seed"]),
            k=_json_int(payload["k"]),
            config=payload["config"],
        )
    except KeyError as exc:
        raise FormatError(f"{path}: missing key {exc}") from exc
    # OverflowError: a fold assignment beyond int64.
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: malformed report entry: {exc}") from exc
    if not isinstance(report.config, dict):
        raise FormatError(f"{path}: config must be a JSON object, got {report.config!r}")
    assignments, predictions = report.fold_assignments, report.predictions
    if assignments.ndim != 1 or assignments.shape != predictions.shape:
        raise FormatError(
            f"{path}: {assignments.size} fold assignments but {predictions.size} predictions"
        )
    if report.k < 2:
        raise FormatError(f"{path}: k must be >= 2, got {report.k}")
    if report.seed < 0:
        raise FormatError(f"{path}: seed must be >= 0, got {report.seed}")
    if len(report.folds) != report.k:
        raise FormatError(f"{path}: {len(report.folds)} folds, expected k = {report.k}")
    if np.any((assignments < 0) | (assignments >= report.k)):
        raise FormatError(f"{path}: fold assignments must lie in 0..{report.k - 1}")
    empty = np.flatnonzero(np.bincount(assignments, minlength=report.k) == 0)
    if empty.size:
        raise FormatError(f"{path}: fold {empty[0]} has no assigned trial")
    unknown = sorted({str(p) for p in predictions.tolist() if p not in CLASS_NAMES})
    if unknown:
        raise FormatError(f"{path}: unknown labels {unknown}")
    for entry in (*report.folds, report.mean, report.std):
        for name, value in asdict(entry).items():
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            # NaN fails the range test too.
            if value is not None and not (number and 0.0 <= value <= 100.0):
                raise FormatError(f"{path}: {name} {value!r} is not a percentage or null")
    return report
