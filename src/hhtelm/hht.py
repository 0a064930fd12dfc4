"""Hilbert-Huang analysis: empirical mode decomposition and per-mode features.

A trial is sifted into intrinsic mode functions (IMFs) by repeatedly
subtracting the mean of its upper/lower cubic-spline envelopes, then each
mode is summarized by a fixed block of 11 statistics computed twice: once
on the raw mode and once on its instantaneous amplitude from the analytic
signal.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import (
    InsufficientExtrema,
    InvalidConfig,
    ShapeMismatch,
)

STAT_NAMES = (
    "mean",
    "std",
    "min",
    "max",
    "skewness",
    "kurtosis",
    "mode",
    "moment5",
    "cumulant4",
    "corr",
    "cov",
)


@dataclass(frozen=True)
class Signal:
    """A uniformly sampled series with its sampling rate in Hz."""

    samples: np.ndarray
    fs: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size < 4:
            raise ShapeMismatch("a signal needs at least 4 samples in one dimension")
        _finite_samples(samples)
        if not self.fs > 0.0:
            raise InvalidConfig("sampling rate must be > 0")
        object.__setattr__(self, "samples", samples)


def _finite_samples(signal):
    """Samples of a Signal or of raw array_like input; InvalidConfig unless all finite."""
    x = signal.samples if isinstance(signal, Signal) else np.asarray(signal, dtype=float)
    if not np.all(np.isfinite(x)):
        raise InvalidConfig("signal samples must be finite")
    return x


@dataclass(frozen=True)
class EmdConfig:
    """Sifting controls for the decomposition."""

    sd_threshold: float = 0.2
    max_siftings: int = 100
    max_imfs: int = 6

    def __post_init__(self):
        if not self.sd_threshold > 0.0:
            raise InvalidConfig("sd_threshold must be > 0")
        if self.max_siftings < 1 or self.max_imfs < 1:
            raise InvalidConfig("max_siftings and max_imfs must be >= 1")


@dataclass
class ImfSet:
    """Decomposition output: modes ordered fast to slow, plus the residual."""

    imfs: list
    residual: np.ndarray


@dataclass
class AnalyticSeries:
    """Instantaneous amplitude/phase/frequency derived from the analytic signal."""

    amplitude: np.ndarray
    phase: np.ndarray
    inst_freq: np.ndarray


@dataclass
class FeatureVector:
    values: np.ndarray
    layout: tuple


def find_extrema(samples):
    """Indices of strict local maxima and minima.

    Three-point comparison; a plateau of equal values flanked by strictly
    lower (or higher) neighbors contributes its midpoint index. Returns
    ``(maxima, minima)`` as int arrays.
    """
    x = samples.samples if isinstance(samples, Signal) else np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 4:
        raise ShapeMismatch("need a 1-D series of at least 4 samples")
    dx = np.diff(x)
    nz = np.flatnonzero(dx)
    empty = np.array([], dtype=int)
    if nz.size < 2:
        return empty, empty
    s = np.sign(dx[nz])
    flip = s[:-1] != s[1:]
    starts = nz[:-1][flip] + 1
    ends = nz[1:][flip]
    mids = (starts + ends) // 2
    is_max = s[:-1][flip] > 0
    return mids[is_max], mids[~is_max]


def spline_envelope(indices, values, n):
    """Natural cubic spline through extrema, evaluated at 0..n-1.

    Boundary knots come from the two extrema nearest each edge, reflected
    across the edge along their own line (so collinear extrema reproduce
    their line exactly and a constant pair stays constant).
    """
    idx = np.asarray(indices, dtype=float)
    val = np.asarray(values, dtype=float)
    if idx.shape != val.shape or idx.ndim != 1:
        raise ShapeMismatch("indices and values must be 1-D and the same length")
    if idx.size < 2:
        raise InsufficientExtrema(f"need at least 2 extrema, got {idx.size}")
    if n < 2:
        raise InvalidConfig("n must be >= 2")
    xs = [idx]
    ys = [val]
    lx, ly = _mirrored_pair(idx[0], idx[1], val[0], val[1], edge=0.0)
    keep = lx < idx[0]
    if np.any(keep):
        xs.insert(0, lx[keep][::-1])
        ys.insert(0, ly[keep][::-1])
    rx, ry = _mirrored_pair(idx[-1], idx[-2], val[-1], val[-2], edge=float(n - 1))
    keep = rx > idx[-1]
    if np.any(keep):
        xs.append(rx[keep])
        ys.append(ry[keep])
    spline = CubicSpline(np.concatenate(xs), np.concatenate(ys), bc_type="natural")
    return spline(np.arange(n, dtype=float))


def _mirrored_pair(i0, i1, v0, v1, edge):
    """Reflect the two extrema nearest ``edge`` through the point where
    their line crosses the edge; ordered nearest-the-edge first."""
    c = v0 + (v1 - v0) * (edge - i0) / (i1 - i0)
    return (
        np.array([2.0 * edge - i0, 2.0 * edge - i1]),
        np.array([2.0 * c - v0, 2.0 * c - v1]),
    )


def emd(signal, config=None):
    """Empirical mode decomposition by envelope-mean sifting.

    Parameters
    ----------
    signal : Signal or array_like
        The series to decompose (the sampling rate is not needed here).
    config : EmdConfig, optional
        Sifting controls; defaults match the trial pipeline.

    Returns
    -------
    ImfSet
        Extracted modes (possibly empty) and the residual. The input is
        always exactly the sum of the modes and the residual because each
        accepted mode is subtracted from the running residual.

    Sifting of one candidate stops when SD = sum(mean^2) / sum(h^2) drops
    below ``sd_threshold`` and the candidate is a proper mode (its extrema
    and zero-crossing counts differ by at most one), or ``max_siftings``
    is reached; the whole decomposition stops when the residual no longer
    has two maxima and two minima (monotone or flat) or ``max_imfs`` modes
    were extracted.
    """
    x = _finite_samples(signal)
    if config is None:
        config = EmdConfig()
    n = x.size
    residual = x.astype(float).copy()
    imfs = []
    for _ in range(config.max_imfs):
        maxima, minima = find_extrema(residual)
        if maxima.size < 2 or minima.size < 2:
            break
        h = residual.copy()
        for _ in range(config.max_siftings):
            upper = spline_envelope(maxima, h[maxima], n)
            lower = spline_envelope(minima, h[minima], n)
            env_mean = 0.5 * (upper + lower)
            denom = float(np.dot(h, h))
            if denom == 0.0:
                break
            sd = float(np.dot(env_mean, env_mean)) / denom
            h = h - env_mean
            maxima, minima = find_extrema(h)
            if maxima.size < 2 or minima.size < 2:
                break
            counts_ok = abs(maxima.size + minima.size - _zero_crossings(h)) <= 1
            if sd < config.sd_threshold and counts_ok:
                break
        imfs.append(h)
        residual = residual - h
    return ImfSet(imfs=imfs, residual=residual)


def _zero_crossings(x):
    """Sign changes in x, ignoring exact zeros."""
    nonzero = x[x != 0.0]
    if nonzero.size < 2:
        return 0
    negative = np.signbit(nonzero)
    return int(np.count_nonzero(negative[:-1] != negative[1:]))


def analytic_signal(x):
    """Analytic signal via FFT bin gating.

    Negative-frequency bins are zeroed, strictly positive ones doubled,
    DC (and Nyquist, for even length) kept as is. The real part of the
    result reproduces the input to rounding.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 4:
        raise ShapeMismatch("need a 1-D series of at least 4 samples")
    n = x.size
    spec = np.fft.fft(x)
    gain = np.zeros(n)
    gain[0] = 1.0
    if n % 2 == 0:
        gain[n // 2] = 1.0
        gain[1 : n // 2] = 2.0
    else:
        gain[1 : (n + 1) // 2] = 2.0
    return np.fft.ifft(spec * gain)


def instantaneous_frequency(phase, fs):
    """Instantaneous frequency in Hz from an unwrapped phase series.

    Central differences in the interior, one-sided at the edges.
    """
    phase = np.asarray(phase, dtype=float)
    if phase.ndim != 1 or phase.size < 2:
        raise ShapeMismatch("need a 1-D phase series of at least 2 samples")
    if not fs > 0.0:
        raise InvalidConfig("sampling rate must be > 0")
    return np.gradient(phase) * (fs / (2.0 * np.pi))


def analytic_series(x, fs):
    """Bundle amplitude, unwrapped phase, and instantaneous frequency."""
    z = analytic_signal(x)
    phase = np.unwrap(np.angle(z))
    return AnalyticSeries(
        amplitude=np.abs(z),
        phase=phase,
        inst_freq=instantaneous_frequency(phase, fs),
    )


def stat_features(series, reference):
    """The 11-statistic block for one series against a reference.

    Order: mean, sample std (n-1), min, max, skewness, kurtosis (raw 4th
    standardized moment), mode (midpoint of the fullest of 64 equal-width
    histogram bins), 5th central moment, 4th cumulant (m4 - 3 m2^2),
    Pearson correlation with the reference, sample covariance with the
    reference. Skewness, kurtosis, and correlation are defined as 0
    whenever the relevant standard deviation is 0.
    """
    x = np.asarray(series, dtype=float)
    r = np.asarray(reference, dtype=float)
    if x.shape != r.shape or x.ndim != 1:
        raise ShapeMismatch("series and reference must be 1-D and the same length")
    if x.size < 2:
        raise ShapeMismatch("need at least 2 samples")
    n = x.size
    mean = float(np.mean(x))
    d = x - mean
    m2 = float(np.mean(d * d))
    m3 = float(np.mean(d**3))
    m4 = float(np.mean(d**4))
    m5 = float(np.mean(d**5))
    std = float(np.std(x, ddof=1))
    if m2 > 0.0:
        skew = m3 / m2**1.5
        kurt = m4 / (m2 * m2)
    else:
        skew = 0.0
        kurt = 0.0
    counts, edges = np.histogram(x, bins=64)
    fullest = int(np.argmax(counts))
    mode = 0.5 * (edges[fullest] + edges[fullest + 1])
    cum4 = m4 - 3.0 * m2 * m2
    rd = r - float(np.mean(r))
    cross = float(np.dot(d, rd))
    cov = cross / (n - 1)
    sx = float(np.sqrt(np.dot(d, d)))
    sr = float(np.sqrt(np.dot(rd, rd)))
    corr = cross / (sx * sr) if sx > 0.0 and sr > 0.0 else 0.0
    return np.array(
        [mean, std, float(np.min(x)), float(np.max(x)), skew, kurt, mode, m5, cum4, corr, cov]
    )


def feature_layout(max_imfs):
    """Feature names in storage order: mode, then source (raw mode, then its
    instantaneous amplitude), then statistic."""
    return tuple(
        f"imf{k + 1}_{source}_{stat}"
        for k in range(max_imfs)
        for source in ("imf", "amplitude")
        for stat in STAT_NAMES
    )


def trial_feature_vector(signal, emd_config=None):
    """Feature vector for one (already filtered) trial.

    Parameters
    ----------
    signal : Signal or array_like
        The filtered trial. Its samples double as the reference series
        for the correlation and covariance statistics.
    emd_config : EmdConfig, optional

    Returns
    -------
    FeatureVector
        ``max_imfs * 2 * 11`` values: per mode, the statistics of the mode
        and then of its instantaneous amplitude. Slots for modes beyond
        what the decomposition produced stay zero, so width is fixed per
        configuration.
    """
    if emd_config is None:
        emd_config = EmdConfig()
    x = _finite_samples(signal)
    modes = emd(x, emd_config)
    values = np.zeros((emd_config.max_imfs, 2, len(STAT_NAMES)))
    for k, imf in enumerate(modes.imfs):
        values[k, 0] = stat_features(imf, x)
        values[k, 1] = stat_features(np.abs(analytic_signal(imf)), x)
    return FeatureVector(values=values.ravel(), layout=feature_layout(emd_config.max_imfs))
