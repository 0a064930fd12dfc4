"""Hilbert-Huang analysis: empirical mode decomposition and per-mode features.

A trial is sifted into intrinsic mode functions (IMFs) by repeatedly
subtracting the mean of its upper/lower cubic-spline envelopes, then each
mode is summarized by a fixed block of 11 statistics computed twice: once
on the raw mode and once on its instantaneous amplitude from the analytic
signal. The feature path also takes a ``(rows, samples)`` matrix of
trials: rows are independent, and each sifting step builds the envelopes
of every row still sifting with one block-diagonal spline solve.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

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


# The SD stop rule of Huang et al. 1998 (Proc. R. Soc. A 454): sifting a
# candidate mode stops once SD between two siftings falls below
# _SD_THRESHOLD, or after _MAX_SIFTINGS siftings. A decomposition stops
# after _MAX_IMFS modes, which fixes the feature width.
_SD_THRESHOLD = 0.2
_MAX_SIFTINGS = 100
_MAX_IMFS = 6

# Feature names in storage order: mode, then source (raw mode, then its
# instantaneous amplitude), then statistic.
FEATURE_NAMES = tuple(
    f"imf{k + 1}_{source}_{stat}"
    for k in range(_MAX_IMFS)
    for source in ("imf", "amplitude")
    for stat in STAT_NAMES
)


@dataclass
class ImfSet:
    """Decomposition output: modes ordered fast to slow, plus the residual."""

    imfs: list
    residual: np.ndarray


def find_extrema(samples):
    """Indices of strict local maxima and minima.

    Three-point comparison; a plateau of equal values flanked by strictly
    lower (or higher) neighbors contributes its midpoint index. Returns
    ``(maxima, minima)`` as int arrays.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 4:
        raise ShapeMismatch("need a 1-D series of at least 4 samples")
    dx = x[1:] - x[:-1]
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

    ``indices`` and ``values`` are either one set of extrema (two 1-D
    arrays; returns shape ``(n,)``) or equal-length sequences of such sets
    (returns shape ``(sets, n)``, one envelope per set). Boundary knots come
    from the two extrema nearest each edge, reflected across the edge along
    their own line (so collinear extrema reproduce their line exactly and a
    constant pair stays constant).

    The envelopes equal scipy's ``CubicSpline(bc_type="natural")`` bit for
    bit: the same slope system and Hermite coefficients, with every set's
    system stacked into one block-diagonal tridiagonal solve.

    Raises ShapeMismatch for index and value arrays that do not pair up,
    InsufficientExtrema for a set of fewer than 2 extrema, and
    InvalidConfig for ``n < 2``, non-finite extrema or indices that do not
    strictly increase.
    """
    batched = isinstance(indices, (list, tuple)) and len(indices) > 0 and np.ndim(indices[0]) == 1
    if batched:
        if not isinstance(values, (list, tuple)) or len(values) != len(indices):
            raise ShapeMismatch("need one value array per index array")
        sets = zip(indices, values)
    else:
        sets = [(indices, values)]
    checked = [_check_extrema(idx, val) for idx, val in sets]
    if n < 2:
        raise InvalidConfig("n must be >= 2")
    envelopes = _natural_splines(checked, n)
    return envelopes if batched else envelopes[0]


def _check_extrema(indices, values):
    idx = np.asarray(indices, dtype=float)
    val = np.asarray(values, dtype=float)
    if idx.shape != val.shape or idx.ndim != 1:
        raise ShapeMismatch("indices and values must be 1-D and the same length")
    if idx.size < 2:
        raise InsufficientExtrema(f"need at least 2 extrema, got {idx.size}")
    return idx, val


def _natural_splines(sets, n):
    """Natural cubic splines through each (indices, values) set of extrema
    and their mirror images, evaluated at 0..n-1 into a ``(sets, n)`` array."""
    x, y, sizes = _mirrored_knots(sets, n)
    last = np.cumsum(sizes) - 1
    first = last - sizes + 1
    has_next = np.ones(x.size, dtype=bool)
    has_next[last] = False
    has_prev = np.ones(x.size, dtype=bool)
    has_prev[first] = False
    left = np.flatnonzero(has_next)
    inner = np.flatnonzero(has_next & has_prev)
    # Width and slope of the interval each knot starts (zero at a set's
    # last knot, which starts none).
    width = np.zeros(x.size)
    width[left] = x[left + 1] - x[left]
    slope = np.zeros(x.size)
    slope[left] = (y[left + 1] - y[left]) / width[left]
    # scipy's natural-spline system in the knot slopes, one block per set;
    # the entries that would couple two blocks stay zero, so the solve
    # treats every block exactly as it would alone.
    band = np.zeros((3, x.size))
    rhs = np.empty(x.size)
    band[1, inner] = 2 * (width[inner - 1] + width[inner])
    band[0, inner + 1] = width[inner - 1]
    band[2, inner - 1] = width[inner]
    rhs[inner] = 3 * (width[inner] * slope[inner - 1] + width[inner - 1] * slope[inner])
    band[1, first] = 2 * width[first]
    band[0, first + 1] = width[first]
    rhs[first] = 3 * (y[first + 1] - y[first])
    band[1, last] = 2 * width[last - 1]
    band[2, last - 1] = width[last - 1]
    rhs[last] = 3 * (y[last] - y[last - 1])
    d = solve_banded((1, 1), band, rhs, overwrite_ab=True, overwrite_b=True, check_finite=False)
    # Per interval: its left knot, then the Hermite coefficients as
    # CubicHermiteSpline forms them, highest power first. scipy evaluates
    # c3 + c2*s + c1*(s*s) + c0*(s*s*s) with s measured from the left knot,
    # starting its sum at 0.0, which turns a -0.0 height into 0.0; so does
    # the + 0.0 here.
    dx = width[left]
    m = slope[left]
    t = (d[left] + d[left + 1] - 2 * m) / dx
    pieces = np.stack([x[left], t / dx, (m - d[left]) / dx - t, d[left], y[left] + 0.0])
    # Sample g lies in the interval of the last knot <= g, clamped to the
    # first and last interval as scipy extrapolates; so an interval holds
    # the samples from its left knot up to its right one, with a set's
    # first interval reaching down to 0 and its last one up to n.
    below = np.clip(np.ceil(x), 0, n).astype(np.intp)
    set_first = first - np.arange(sizes.size)
    set_end = last - np.arange(sizes.size)
    lower = below[left]
    lower[set_first] = 0
    upper = below[left + 1]
    upper[set_end - 1] = n
    counts = upper - lower
    grid = np.arange(n, dtype=float)
    out = np.empty((sizes.size, n))
    # One set at a time into its row of ``out``: spreading every set's
    # pieces over its n samples at once holds several (sets, n) arrays.
    for row, start, stop in zip(out, set_first, set_end):
        knot, cube, square, linear, const = np.repeat(
            pieces[:, start:stop], counts[start:stop], axis=1
        )
        s = grid - knot
        np.multiply(linear, s, out=row)
        row += const
        power = s * s
        square *= power
        row += square
        power *= s
        cube *= power
        row += cube
    return out


def _mirrored_knots(sets, n):
    """Every set's extrema, preceded by the mirror images of its two
    extrema nearest sample 0 that fall before the first of them and
    followed by those of its two nearest sample n - 1 that fall after the
    last. Returns the knots, their heights and each set's knot count."""
    sizes = np.array([idx.size for idx, _ in sets])
    ends = np.cumsum(sizes)
    starts = ends - sizes
    idx = np.concatenate([idx for idx, _ in sets])
    val = np.concatenate([val for _, val in sets])
    rises = idx[1:] > idx[:-1]
    rises[ends[:-1] - 1] = True  # across two sets
    if not (np.all(rises) and np.all(np.isfinite(idx)) and np.all(np.isfinite(val))):
        raise InvalidConfig("extrema must be finite, at strictly increasing indices")
    # A set's knots fill the slots between two extra slots on each side;
    # mirror images that do not fall beyond the extrema drop out.
    slots = starts + 4 * np.arange(sizes.size)
    x = np.empty(idx.size + 4 * sizes.size)
    y = np.empty_like(x)
    keep = np.zeros(x.size, dtype=bool)
    at = np.repeat(slots - starts + 2, sizes) + np.arange(idx.size)
    x[at] = idx
    y[at] = val
    keep[at] = True
    first, second = starts, starts + 1
    lx, ly = _mirrored_pair(idx[first], idx[second], val[first], val[second], edge=0.0)
    for k, at in enumerate((slots + 1, slots)):
        x[at], y[at], keep[at] = lx[k], ly[k], lx[k] < idx[first]
    last, second = ends - 1, ends - 2
    rx, ry = _mirrored_pair(idx[last], idx[second], val[last], val[second], edge=float(n - 1))
    for k, at in enumerate((slots + sizes + 2, slots + sizes + 3)):
        x[at], y[at], keep[at] = rx[k], ry[k], rx[k] > idx[last]
    return x[keep], y[keep], np.add.reduceat(keep, slots, dtype=np.intp)


def _mirrored_pair(i0, i1, v0, v1, edge):
    """Reflect the two extrema nearest ``edge`` through the point where
    their line crosses the edge; ordered nearest-the-edge first. Collinear
    extrema so reproduce their line exactly, and a constant pair stays
    constant. Works elementwise on arrays of pairs."""
    c = v0 + (v1 - v0) * (edge - i0) / (i1 - i0)
    return (
        np.array([2.0 * edge - i0, 2.0 * edge - i1]),
        np.array([2.0 * c - v0, 2.0 * c - v1]),
    )


def emd(signal):
    """Empirical mode decomposition by envelope-mean sifting.

    Parameters
    ----------
    signal : array_like
        The series to decompose, or a ``(rows, samples)`` matrix of series
        decomposed together.

    Returns
    -------
    ImfSet, or a list with one ImfSet per row of a matrix
        Extracted modes (possibly empty) and the residual. The input is
        always exactly the sum of the modes and the residual because each
        accepted mode is subtracted from the running residual.

    Sifting of one candidate stops when SD = sum(mean^2) / sum(h^2) drops
    below 0.2 and the candidate is a proper mode (its extrema and
    zero-crossing counts differ by at most one), or after 100 siftings;
    the whole decomposition stops when the residual no longer has two
    maxima and two minima (monotone or flat) or 6 modes were extracted.
    Rows are independent: each sifting step builds the envelopes of every
    row still sifting in one ``spline_envelope`` call, and a row's modes
    equal those of the row decomposed alone.
    """
    x = np.asarray(signal, dtype=float)
    if not np.all(np.isfinite(x)):
        raise InvalidConfig("signal samples must be finite")
    if x.ndim not in (1, 2):
        raise ShapeMismatch("need one series or a (rows, samples) matrix")
    rows = np.atleast_2d(x)
    n = rows.shape[1]
    residuals = [np.array(row, dtype=float) for row in rows]
    imfs = [[] for _ in residuals]
    # Row -> (candidate mode, its maxima, its minima, siftings done).
    sifting = {}

    def start_mode(r):
        if len(imfs[r]) < _MAX_IMFS:
            maxima, minima = find_extrema(residuals[r])
            if maxima.size >= 2 and minima.size >= 2:
                sifting[r] = (residuals[r].copy(), maxima, minima, 0)

    def accept_mode(r, h):
        imfs[r].append(h)
        residuals[r] = residuals[r] - h
        del sifting[r]
        start_mode(r)

    for r in range(len(residuals)):
        start_mode(r)
    while sifting:
        active = list(sifting.items())
        knot_sets = [ext for _, (_, maxima, minima, _) in active for ext in (maxima, minima)]
        heights = [h[ext] for _, (h, maxima, minima, _) in active for ext in (maxima, minima)]
        envelopes = spline_envelope(knot_sets, heights, n)
        for j, (r, (h, _, _, done)) in enumerate(active):
            env_mean = 0.5 * (envelopes[2 * j] + envelopes[2 * j + 1])
            denom = float(np.dot(h, h))
            if denom == 0.0:
                accept_mode(r, h)
                continue
            sd = float(np.dot(env_mean, env_mean)) / denom
            h = h - env_mean
            done += 1
            maxima, minima = find_extrema(h)
            if (
                maxima.size < 2
                or minima.size < 2
                or (sd < _SD_THRESHOLD and abs(maxima.size + minima.size - _zero_crossings(h)) <= 1)
                or done == _MAX_SIFTINGS
            ):
                accept_mode(r, h)
            else:
                sifting[r] = (h, maxima, minima, done)
    sets = [ImfSet(imfs=modes, residual=residual) for modes, residual in zip(imfs, residuals)]
    return sets if x.ndim == 2 else sets[0]


def _zero_crossings(x):
    """Sign changes in x, ignoring exact zeros."""
    nonzero = x[x != 0.0]
    if nonzero.size < 2:
        return 0
    negative = np.signbit(nonzero)
    return int(np.count_nonzero(negative[:-1] != negative[1:]))


def analytic_signal(x):
    """Analytic signal via FFT bin gating, along the last axis.

    Negative-frequency bins are zeroed, strictly positive ones doubled,
    DC (and Nyquist, for even length) kept as is. The real part of the
    result reproduces the input to rounding. Each row of a matrix gets
    the result of its own 1-D transform.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] < 4:
        raise ShapeMismatch("need a 1-D series (or rows of series) of at least 4 samples")
    n = x.shape[-1]
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


def stat_features(series, reference):
    """The 11-statistic block of each series against a reference.

    ``series`` is one series, or a ``(m, n)`` matrix of them, and
    ``reference`` one series of the same length, shared by every row.
    Returns ``(11,)`` for one series, ``(m, 11)`` for a matrix; each row
    is computed on its own.

    Order: mean, sample std (n-1), min, max, skewness, kurtosis (raw 4th
    standardized moment), mode (midpoint of the fullest of 64 equal-width
    histogram bins, binned as ``np.histogram`` bins), 5th central moment,
    4th cumulant (m4 - 3 m2^2), Pearson correlation with the reference,
    sample covariance with the reference. Skewness, kurtosis, and
    correlation are defined as 0 whenever the relevant series is constant
    up to rounding: its second central moment is at most ``(n * eps)**2``
    times its mean square.
    """
    x = np.asarray(series, dtype=float)
    r = np.asarray(reference, dtype=float)
    if x.ndim not in (1, 2) or r.shape != x.shape[-1:]:
        raise ShapeMismatch("reference must be one series of the series' length")
    if x.shape[-1] < 2:
        raise ShapeMismatch("need at least 2 samples")
    single = x.ndim == 1
    x = np.atleast_2d(x)
    n = x.shape[1]
    mean = np.mean(x, axis=1)
    d = x - mean[:, None]
    power = d * d
    sum_sq = np.sum(power, axis=1)
    m2 = sum_sq / n
    std = np.sqrt(sum_sq / (n - 1))
    power *= d
    m3 = np.mean(power, axis=1)
    power *= d
    m4 = np.mean(power, axis=1)
    power *= d
    m5 = np.mean(power, axis=1)
    # The mean of n values can be off by about n * eps of their magnitude,
    # and every deviation from it inherits that error.
    rounding = (n * np.finfo(float).eps) ** 2
    flat_x = m2 <= rounding * (m2 + mean * mean)
    skew = np.divide(m3, m2**1.5, out=np.zeros_like(m3), where=~flat_x)
    kurt = np.divide(m4, m2 * m2, out=np.zeros_like(m4), where=~flat_x)
    cum4 = m4 - 3.0 * m2 * m2
    r_mean = float(np.mean(r))
    rd = r - r_mean
    # Row by row through np.dot: a matrix product or a row-axis sum rounds
    # differently in the last bit.
    cross = np.array([np.dot(row, rd) for row in d])
    sx = np.sqrt([np.dot(row, row) for row in d])
    sr = float(np.sqrt(np.dot(rd, rd)))
    cov = cross / (n - 1)
    r_m2 = sr * sr / n
    flat_r = r_m2 <= rounding * (r_m2 + r_mean * r_mean)
    corr = np.divide(cross, sx * sr, out=np.zeros_like(cross), where=~(flat_x | flat_r))
    lo = np.min(x, axis=1)
    hi = np.max(x, axis=1)
    stats = np.column_stack(
        [mean, std, lo, hi, skew, kurt, _histogram_mode(x, lo, hi), m5, cum4, corr, cov]
    )
    return stats[0] if single else stats


_MODE_BINS = 64


def _histogram_mode(x, lo, hi):
    """Midpoint of the fullest of ``_MODE_BINS`` equal-width bins per row,
    binned exactly as ``np.histogram(row, bins=_MODE_BINS)``: edges from
    ``linspace``, an index from the scaled offset corrected by one where
    it disagrees with the edges, the last bin closed on the right, and
    the first of equally full bins."""
    bins = _MODE_BINS
    flat = lo == hi
    lo = np.where(flat, lo - 0.5, lo)
    hi = np.where(flat, hi + 0.5, hi)
    edges = np.linspace(lo, hi, bins + 1, axis=1).ravel()
    row_edges = np.arange(x.shape[0])[:, None] * (bins + 1)
    index = ((x - lo[:, None]) / (hi - lo)[:, None] * bins).astype(np.intp)
    index[index == bins] -= 1
    index -= x < edges[index + row_edges]
    index += (x >= edges[index + row_edges + 1]) & (index != bins - 1)
    row_bins = np.arange(x.shape[0])[:, None] * bins
    counts = np.bincount((index + row_bins).ravel(), minlength=x.shape[0] * bins)
    fullest = np.argmax(counts.reshape(-1, bins), axis=1) + row_edges[:, 0]
    return 0.5 * (edges[fullest] + edges[fullest + 1])


def trial_feature_vector(signal):
    """Feature vector for one (already filtered) trial, or one per row.

    Parameters
    ----------
    signal : array_like
        The filtered trial, or a ``(trials, samples)`` matrix of them,
        decomposed together. A trial's samples double as the reference
        series for the correlation and covariance statistics.

    Returns
    -------
    numpy.ndarray
        132 values in ``FEATURE_NAMES`` order, one row per trial of a
        matrix: per mode, the statistics of the mode and then of its
        instantaneous amplitude. Slots for modes beyond what the
        decomposition produced stay zero, so the width is fixed. A row
        equals the vector of that trial alone.
    """
    x = np.asarray(signal, dtype=float)
    trials = np.atleast_2d(x)
    values = np.zeros((trials.shape[0], _MAX_IMFS, 2, len(STAT_NAMES)))
    for trial, modes, out in zip(trials, emd(trials), values):
        k = len(modes.imfs)
        if k:
            imfs = np.array(modes.imfs)
            amplitude = np.abs(analytic_signal(imfs))
            stats = stat_features(np.concatenate([imfs, amplitude]), trial)
            out[:k, 0] = stats[:k]
            out[:k, 1] = stats[k:]
    values = values.reshape(trials.shape[0], -1)
    return values if x.ndim == 2 else values[0]
