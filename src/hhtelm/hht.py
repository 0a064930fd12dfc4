"""Hilbert-Huang analysis: empirical mode decomposition and per-mode features.

A trial is sifted into intrinsic mode functions (IMFs) by repeatedly
subtracting the mean of its upper/lower cubic-spline envelopes, then each
mode is summarized by a fixed block of 11 statistics computed twice: once
on the raw mode and once on its instantaneous amplitude from the analytic
signal. The feature path also takes a ``(rows, samples)`` matrix of
trials: rows are independent, and each sifting step builds the envelopes
of every row still sifting together. Their knots lie end to end in one
array, the bands of every set's natural-spline slope system are shifted
slices of it, and one LAPACK ``dgtsv`` call solves the block-diagonal
tridiagonal system.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from .dataio import _check_int, _check_real, _floats
from .errors import (
    InsufficientExtrema,
    InvalidConfig,
    NumericalFailure,
    ShapeMismatch,
)


class _RowFailure(NumericalFailure):
    """A numerical failure of one row of a batch of series: ``row`` is its
    index and ``reason`` says what failed, so a caller can name the row."""

    def __init__(self, row, reason):
        super().__init__(f"row {row}: {reason}")
        self.row = row
        self.reason = reason


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
    ``(maxima, minima)`` as int arrays. Raises InvalidConfig for a sample
    that is not finite.
    """
    x = _floats(samples, "samples")
    if x.ndim != 1 or x.size < 4:
        raise ShapeMismatch("need a 1-D series of at least 4 samples")
    if not np.isfinite(x).all():
        raise InvalidConfig("samples must be finite")
    dx = x[1:] - x[:-1]
    if dx.all():
        # No plateau: the extrema are where the step changes sign, maxima
        # and minima in turn. All 1385 series that emd passes here for 80
        # pinned trials take this path; the plateau path below gave the same
        # indices on them but took 26-28 us a call against 11-12 us for this
        # one (one BLAS thread, 2-vCPU machine), so both paths stay.
        up = dx > 0
        turns = np.flatnonzero(up[:-1] != up[1:]) + 1
        skip = 0 if turns.size and up[turns[0] - 1] else 1
        return turns[skip::2], turns[1 - skip :: 2]
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
    constant pair stays constant); a mirror knot that does not fall beyond
    the extrema drops out.

    The envelopes equal scipy's ``CubicSpline(bc_type="natural")`` bit for
    bit: the same slope system and Hermite coefficients. All sets' knots
    lie end to end in one array, the bands and right-hand side of every
    set's slope system are shifted slices of it, and one ``dgtsv`` call,
    the LAPACK routine behind scipy's ``solve_banded((1, 1), ...)``,
    solves them all.

    Raises ShapeMismatch for index and value arrays that do not pair up,
    InsufficientExtrema for a set of fewer than 2 extrema, and
    InvalidConfig for an ``n`` that is not an integer >= 2, extrema that
    are not finite numbers or indices that do not strictly increase.
    """
    batched = isinstance(indices, (list, tuple)) and _floats(indices[:1], "indices").ndim == 2
    if batched:
        if not isinstance(values, (list, tuple)) or len(values) != len(indices):
            raise ShapeMismatch("need one value array per index array")
        sets = zip(indices, values)
    else:
        sets = [(indices, values)]
    idx, val = zip(*[_check_extrema(i, v) for i, v in sets])
    n = _check_int(n, "n", 2)
    envelopes = _natural_splines(idx, val, n)
    return envelopes if batched else envelopes[0]


def _check_extrema(indices, values):
    idx = _floats(indices, "indices")
    val = _floats(values, "values")
    if idx.shape != val.shape or idx.ndim != 1:
        raise ShapeMismatch("indices and values must be 1-D and the same length")
    if idx.size < 2:
        raise InsufficientExtrema(f"need at least 2 extrema, got {idx.size}")
    return idx, val


def _natural_splines(indices, values, n):
    """Natural cubic splines through each set of extrema and their mirror
    knots, evaluated at 0..n-1 into a ``(sets, n)`` array."""
    pieces, counts, first, last = _spline_pieces(indices, values, n)
    grid = np.arange(n, dtype=float)
    out = np.empty((first.size, n))
    # One set at a time into its row of ``out``: spreading every set's
    # pieces over its n samples at once holds several (sets, n) arrays.
    for row, start, stop in zip(out, first.tolist(), last.tolist()):
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


def _spline_pieces(indices, values, n):
    """Every set's spline as pieces laid end to end: piece j runs from knot
    j to knot j + 1 and holds its left knot, then its coefficients highest
    power first, and ``counts[j]`` of the samples 0..n-1. Set s holds the
    pieces ``first[s]`` up to ``last[s]``; the piece between two sets is
    never read. Returns ``(pieces, counts, first, last)``."""
    idx = np.concatenate(indices)
    val = np.concatenate(values)
    ends = np.cumsum([len(i) for i in indices])
    rises = idx[1:] > idx[:-1]
    rises[ends[:-1] - 1] = True  # across two sets
    if not (rises.all() and np.isfinite(idx).all() and np.isfinite(val).all()):
        raise InvalidConfig("extrema must be finite, at strictly increasing indices")
    # A set's knots: two mirror images, its extrema, two mirror images.
    last = ends + 4 * np.arange(1, ends.size + 1) - 1
    first = last - np.diff(ends, prepend=0) - 3
    mirrors = (first, first + 1, last - 1, last)
    x = np.empty(last[-1] + 1)
    y = np.empty_like(x)
    keep = np.ones(x.size, dtype=bool)
    for slot in mirrors:
        keep[slot] = False
    x[keep], y[keep] = idx, val
    # The two extrema nearest each edge, reflected through the point where
    # their line crosses it, nearest first: collinear extrema so reproduce
    # their line exactly, and a constant pair stays constant.
    for near, far, edge, slots in (
        (first + 2, first + 3, 0.0, mirrors[1::-1]),
        (last - 2, last - 3, float(n - 1), mirrors[2:]),
    ):
        c = y[near] + (y[far] - y[near]) * (edge - x[near]) / (x[far] - x[near])
        for slot, at in zip(slots, (near, far)):
            x[slot] = 2.0 * edge - x[at]
            y[slot] = 2.0 * c - y[at]
    # A mirror image that does not fall beyond the extrema drops out; in
    # emd none does, as find_extrema never returns sample 0 or n - 1.
    kept = [x[slot] < x[first + 2] for slot in mirrors[:2]]
    kept += [x[slot] > x[last - 2] for slot in mirrors[2:]]
    if not all(k.all() for k in kept):
        for slot, k in zip(mirrors, kept):
            keep[slot] = k
        last = np.cumsum(keep)[last] - 1
        first = np.concatenate(([0], last[:-1] + 1))
        x, y = x[keep], y[keep]
    # Width and slope of the interval each knot starts.
    width = x[1:] - x[:-1]
    slope = y[1:] - y[:-1]
    slope /= width
    d = _knot_slopes(width, slope, y, first, last)
    # The Hermite coefficients as CubicHermiteSpline forms them. scipy
    # evaluates c3 + c2*s + c1*(s*s) + c0*(s*s*s) with s measured from the
    # left knot, starting its sum at 0.0, which turns a -0.0 height into
    # 0.0; so does the + 0.0 here.
    t = (d[:-1] + d[1:] - 2 * slope) / width
    pieces = np.stack([x[:-1], t / width, (slope - d[:-1]) / width - t, d[:-1], y[:-1] + 0.0])
    # Sample g lies in the interval of the last knot <= g, clamped to the
    # first and last interval as scipy extrapolates; so an interval holds
    # the samples from its left knot up to its right one, with a set's
    # first interval reaching down to 0 and its last one up to n (a set
    # has at least two intervals, as at least one mirror image stays).
    below = np.clip(np.ceil(x), 0, n).astype(np.intp)
    counts = below[1:] - below[:-1]
    counts[first] = below[first + 1]
    counts[last - 1] = n - below[last - 1]
    return pieces, counts, first, last


def _knot_slopes(width, slope, y, first, last):
    """The knot slopes from scipy's natural-spline system, its bands and
    right-hand side built from shifted slices with each set's first and
    last rows overwritten. The entries that would couple two sets are
    zero, so the solve treats every set's block exactly as it would alone."""
    diag = np.empty(y.size)
    diag[1:-1] = 2 * (width[:-1] + width[1:])
    diag[first] = 2 * width[first]
    diag[last] = 2 * width[last - 1]
    upper = np.empty(width.size)
    upper[1:] = width[:-1]
    upper[first] = width[first]
    upper[last[:-1]] = 0.0
    lower = np.empty(width.size)
    lower[:-1] = width[1:]
    lower[last - 1] = width[last - 1]
    lower[last[:-1]] = 0.0
    rhs = np.empty(y.size)
    rhs[1:-1] = 3 * (width[1:] * slope[:-1] + width[:-1] * slope[1:])
    rhs[first] = 3 * (y[first + 1] - y[first])
    rhs[last] = 3 * (y[last] - y[last - 1])
    *_, d, info = dgtsv(lower, diag, upper, rhs, 1, 1, 1, 1)
    if info > 0:
        raise NumericalFailure("envelope slope system is singular")
    return d


# An overflow shows as a mode energy that is not finite, which emd refuses.
@np.errstate(over="ignore", invalid="ignore")
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
    A candidate whose sum(h^2) overflows raises NumericalFailure naming
    its row. Rows are independent: each sifting step builds the envelopes
    of every row still sifting in one ``spline_envelope`` call, and a row's
    modes equal those of the row decomposed alone.
    """
    x = _floats(signal, "signal")
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
            if not math.isfinite(denom):
                raise _RowFailure(r, "the energy of a mode overflows; scale the samples down")
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
        # Freed before the next step builds its own.
        del active, envelopes
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
    x = _floats(x, "x")
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
    spec *= gain
    return np.fft.ifft(spec)


def instantaneous_frequency(phase, fs):
    """Instantaneous frequency in Hz from an unwrapped phase series.

    Central differences in the interior, one-sided at the edges.
    """
    phase = _floats(phase, "phase")
    if phase.ndim != 1 or phase.size < 2:
        raise ShapeMismatch("need a 1-D phase series of at least 2 samples")
    _check_real(fs, "sampling rate", 0)
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
    times its mean square. A series or reference that is not finite raises
    InvalidConfig.
    """
    x = _floats(series, "series")
    r = _floats(reference, "reference")
    if x.ndim not in (1, 2) or r.shape != x.shape[-1:]:
        raise ShapeMismatch("reference must be one series of the series' length")
    if x.shape[-1] < 2:
        raise ShapeMismatch("need at least 2 samples")
    if not (np.isfinite(x).all() and np.isfinite(r).all()):
        raise InvalidConfig("series and reference must be finite")
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
    # One table of edges per row, whose last upper edge is +inf: the last
    # bin so holds its upper edge, and no index moves past it.
    edges = np.linspace(lo, hi, bins + 1, axis=1)
    edges[:, bins] = np.inf
    edges = edges.ravel()
    row_edges = np.arange(x.shape[0])[:, None] * (bins + 1)
    index = ((x - lo[:, None]) / (hi - lo)[:, None] * bins).astype(np.intp)
    np.minimum(index, bins - 1, out=index)
    index += row_edges
    index -= x < edges.take(index)
    index += x >= edges.take(index + 1)
    counts = np.bincount((index - np.arange(x.shape[0])[:, None]).ravel(), minlength=x.shape[0] * bins)
    fullest = np.argmax(counts.reshape(-1, bins), axis=1)
    upper = np.where(fullest == bins - 1, hi, edges.take(fullest + 1 + row_edges[:, 0]))
    return 0.5 * (edges.take(fullest + row_edges[:, 0]) + upper)


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

    Raises NumericalFailure, naming the row, for a trial whose samples are
    so large that a statistic overflows.
    """
    x = _floats(signal, "signal")
    trials = np.atleast_2d(x)
    values = np.zeros((trials.shape[0], _MAX_IMFS, 2, len(STAT_NAMES)))
    # Only the modes are read, so the residuals are let go of here.
    mode_lists = [modes.imfs for modes in emd(trials)]
    # An overflow shows as a value that is not finite, refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        for trial, modes, out in zip(trials, mode_lists, values):
            k = len(modes)
            if k:
                imfs = np.array(modes)
                amplitude = np.abs(analytic_signal(imfs))
                stats = stat_features(np.concatenate([imfs, amplitude]), trial)
                out[:k, 0] = stats[:k]
                out[:k, 1] = stats[k:]
    values = values.reshape(trials.shape[0], -1)
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise _RowFailure(int(bad[0]), "a feature overflows; scale the samples down")
    return values if x.ndim == 2 else values[0]
