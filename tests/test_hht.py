"""Tests for decomposition, analytic-signal construction, and features.

Independent oracles used here: a scalar python extrema scan, the scipy
Hilbert transformer (different code path than the in-package FFT gating),
scipy's natural ``CubicSpline`` for the envelopes and a sifting loop built
on it, closed-form phase derivatives, ``np.histogram``, and statistics
recomputed inline from their definitions.
"""
import statistics
from collections import Counter

import numpy as np
import pytest
import scipy.signal
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from hhtelm import (
    FEATURE_NAMES,
    FilterSpec,
    SynthConfig,
    analytic_signal,
    emd,
    instantaneous_frequency,
    lowpass_filter,
    synth_scp,
    trial_feature_vector,
)
from hhtelm import cli, hht
from hhtelm.hht import (
    _MAX_IMFS,
    _MAX_SIFTINGS,
    STAT_NAMES,
    ImfSet,
    find_extrema,
    spline_envelope,
    stat_features,
)
from hhtelm.errors import InvalidConfig, ShapeMismatch


def scan_extrema(x):
    """Brute-force three-point extrema scan with plateau midpoints."""
    maxima, minima = [], []
    n = len(x)
    i = 1
    while i < n - 1:
        if x[i] == x[i - 1]:
            i += 1
            continue
        j = i
        while j + 1 < n and x[j + 1] == x[i]:
            j += 1
        if j >= n - 1:
            break
        mid = (i + j) // 2
        if x[i] > x[i - 1] and x[j] > x[j + 1]:
            maxima.append(mid)
        elif x[i] < x[i - 1] and x[j] < x[j + 1]:
            minima.append(mid)
        i = j + 1
    return np.array(maxima, dtype=int), np.array(minima, dtype=int)


def reference_envelope(indices, values, n):
    """The envelope as a textbook natural spline: the extrema plus the
    mirror images of the two nearest each edge that fall beyond it,
    through scipy's ``CubicSpline(bc_type="natural")``."""
    idx = np.asarray(indices, dtype=float)
    val = np.asarray(values, dtype=float)
    xs, ys = [idx], [val]
    for near, far, edge in ((0, 1, 0.0), (-1, -2, float(n - 1))):
        c = val[near] + (val[far] - val[near]) * (edge - idx[near]) / (idx[far] - idx[near])
        mx = np.array([2.0 * edge - idx[near], 2.0 * edge - idx[far]])
        my = np.array([2.0 * c - val[near], 2.0 * c - val[far]])
        if near == 0:
            keep = mx < idx[0]
            xs.insert(0, mx[keep][::-1])
            ys.insert(0, my[keep][::-1])
        else:
            keep = mx > idx[-1]
            xs.append(mx[keep])
            ys.append(my[keep])
    spline = CubicSpline(np.concatenate(xs), np.concatenate(ys), bc_type="natural")
    return spline(np.arange(n, dtype=float))


def reference_emd(x, max_imfs=6):
    """Huang's sifting, one series at a time, on ``reference_envelope``."""
    residual = np.array(x, dtype=float)
    imfs = []
    for _ in range(max_imfs):
        maxima, minima = find_extrema(residual)
        if maxima.size < 2 or minima.size < 2:
            break
        h = residual.copy()
        for _ in range(100):
            mean = 0.5 * (
                reference_envelope(maxima, h[maxima], x.size)
                + reference_envelope(minima, h[minima], x.size)
            )
            denom = float(np.dot(h, h))
            if denom == 0.0:
                break
            sd = float(np.dot(mean, mean)) / denom
            h = h - mean
            maxima, minima = find_extrema(h)
            if maxima.size < 2 or minima.size < 2:
                break
            signs = np.signbit(h[h != 0.0])
            crossings = int(np.count_nonzero(signs[:-1] != signs[1:]))
            if sd < 0.2 and abs(maxima.size + minima.size - crossings) <= 1:
                break
        imfs.append(h)
        residual = residual - h
    return imfs, residual


def filtered_synth_trials(n_per_class, seed):
    trials = synth_scp(SynthConfig(n_per_class=n_per_class, seed=seed))
    return np.array([lowpass_filter(t.samples, t.fs, FilterSpec()) for t in trials])


def interior(mask_len, fraction=0.9):
    """Slice selecting the central `fraction` of a sequence."""
    skip = int(round(mask_len * (1.0 - fraction) / 2.0))
    return slice(skip, mask_len - skip)


# ---------------------------------------------------------------------------
# find_extrema


def test_extrema_monotone_ramp_empty():
    maxima, minima = find_extrema(np.linspace(0.0, 1.0, 64))
    assert maxima.size == 0 and minima.size == 0


def test_extrema_single_sine_period():
    x = np.sin(2.0 * np.pi * np.arange(16) / 16.0)
    maxima, minima = find_extrema(x)
    assert list(maxima) == [4]
    assert list(minima) == [12]


def test_extrema_plateau_midpoint():
    x = np.array([0.0, 1.0, 2.0, 2.0, 2.0, 1.0, 0.0, -1.0, -1.0, 0.0])
    maxima, minima = find_extrema(x)
    assert list(maxima) == [3]
    # even-length valley plateau lands on the lower middle index
    assert list(minima) == [7]


def test_extrema_matches_scan_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = rng.standard_normal(256)
        if rng.random() < 0.3:
            x = np.round(x, 1)  # provoke plateaus
        maxima, minima = find_extrema(x)
        ref_max, ref_min = scan_extrema(x)
        np.testing.assert_array_equal(maxima, ref_max)
        np.testing.assert_array_equal(minima, ref_min)
        for i in maxima:
            assert x[i] >= x[i - 1] and x[i] >= x[i + 1]
        for i in minima:
            assert x[i] <= x[i - 1] and x[i] <= x[i + 1]


def assert_extrema_match_scan(x):
    maxima, minima = find_extrema(x)
    ref_max, ref_min = scan_extrema(x)
    np.testing.assert_array_equal(maxima, ref_max)
    np.testing.assert_array_equal(minima, ref_min)
    # spline_envelope takes these sets unchecked: with every index strictly
    # increasing and in 1..n-2, every mirror knot falls beyond its set.
    for indices in (maxima, minima):
        assert np.all(np.diff(indices) > 0)
        assert np.all((indices >= 1) & (indices <= x.size - 2))


@settings(max_examples=100, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 300))
def test_extrema_of_series_without_ties_match_scan_oracle(seed, n):
    """Series with no zero step take the sign-change path."""
    x = np.random.default_rng(seed).standard_normal(n)
    assert np.all(x[1:] != x[:-1])
    assert_extrema_match_scan(x)


@settings(max_examples=200, deadline=None, database=None)
@given(values=st.lists(st.integers(-2, 2), min_size=4, max_size=60))
@example(values=[0, 0, 0, 0])  # constant
@example(values=[1, 1, 0, 2])  # plateaus at either end
@example(values=[2, 0, 1, 1])
@example(values=[1, 1, 0, 2, 2, 2, 1, 1])
@example(values=[0, 1, 0, 1])  # the 4-sample minimum, without ties
@example(values=[1, 0, 1, 0])
def test_extrema_of_small_integer_series_match_scan_oracle(values):
    """Small integers tie often, so most series take the plateau path."""
    assert_extrema_match_scan(np.array(values, dtype=float))


# ---------------------------------------------------------------------------
# spline_envelope


def envelope(indices, values, n):
    """The envelope of one set of extrema, from a batch of one."""
    return spline_envelope([indices], [values], n)[0]


def test_envelope_constant():
    env = envelope(np.array([3, 11]), np.array([2.0, 2.0]), 16)
    np.testing.assert_allclose(env, 2.0, atol=1e-10)


def test_envelope_collinear_extrema_reproduce_line():
    idx = np.array([2, 7, 13, 19])
    values = 0.5 * idx + 1.0
    env = envelope(idx, values, 24)
    expected = 0.5 * np.arange(24) + 1.0
    np.testing.assert_allclose(env, expected, atol=1e-10)


def test_envelope_of_sine_maxima_near_one():
    fs = 64.0
    t = np.arange(int(10 * fs)) / fs  # 10 periods of a 1 Hz tone
    x = np.sin(2.0 * np.pi * t)
    maxima, _ = find_extrema(x)
    env = envelope(maxima, x[maxima], len(x))
    inner = interior(len(x))
    assert np.all(env[inner] > 0.98)
    assert np.all(env[inner] < 1.02)


def test_batched_envelopes_equal_scipy_natural_spline_bit_for_bit():
    rng = np.random.default_rng(43)
    for _ in range(30):
        n = int(rng.integers(8, 2500))
        indices, values = [], []
        for _ in range(int(rng.integers(1, 10))):
            # Extrema anywhere find_extrema finds them: from sample 1 to n - 2.
            low = 1 if rng.random() < 0.3 else int(rng.integers(1, n // 3))
            high = n - 1 if rng.random() < 0.3 else int(rng.integers(2 * n // 3, n - 1))
            count = int(rng.integers(2, min(high - low, 60) + 1))
            idx = np.sort(rng.choice(np.arange(low, high), size=count, replace=False))
            val = rng.standard_normal(count) * 10.0 ** rng.uniform(-3, 3)
            if rng.random() < 0.2:
                val[:] = val[0]
            indices.append(idx)
            values.append(val)
        batch = spline_envelope(indices, values, n)
        assert batch.shape == (len(indices), n)
        for row, idx, val in zip(batch, indices, values):
            expected = reference_envelope(idx, val, n)
            np.testing.assert_array_equal(row, expected)
            np.testing.assert_array_equal(envelope(idx, val, n), expected)


def assert_batch_equals_scipy(indices, values, n):
    batch = spline_envelope(indices, values, n)
    assert batch.shape == (len(indices), n)
    for row, idx, val in zip(batch, indices, values):
        np.testing.assert_array_equal(row, reference_envelope(idx, val, n))


def test_envelopes_at_fractional_indices_equal_scipy_natural_spline_bit_for_bit():
    """Knots between samples, anywhere from sample 1 to n - 2."""
    rng = np.random.default_rng(44)
    for _ in range(30):
        n = int(rng.integers(8, 600))
        indices, values = [], []
        for _ in range(int(rng.integers(1, 8))):
            idx = np.unique(rng.uniform(1.0, n - 2.0, size=int(rng.integers(2, 40))))
            assert idx.size >= 2 and np.any(idx != np.round(idx))
            indices.append(idx)
            values.append(rng.standard_normal(idx.size) * 10.0 ** rng.uniform(-3, 3))
        assert_batch_equals_scipy(indices, values, n)


def test_envelope_needs_two_extrema(monkeypatch):
    # spline_envelope takes its sets unchecked: emd builds envelopes only
    # through sets of at least two extrema, one set per index array, and a
    # series with fewer maxima or minima is its own residual, with no mode.
    sizes = []

    def spy(indices, values, n):
        assert len(indices) == len(values)
        sizes.extend(idx.size for idx in indices)
        return spline_envelope(indices, values, n)

    monkeypatch.setattr(hht, "spline_envelope", spy)
    t = np.linspace(0.0, 1.0, 256)
    emd(np.sin(2.0 * np.pi * 9.0 * t) + t)
    assert sizes and min(sizes) >= 2
    sizes.clear()
    for few in (t, np.sin(2.0 * np.pi * t), np.sin(3.0 * np.pi * t)):
        out = emd(few)
        assert out.imfs == [] and np.array_equal(out.residual, few)
    assert sizes == []


# ---------------------------------------------------------------------------
# emd


def test_emd_monotone_ramp_no_imfs():
    x = np.linspace(-1.0, 1.0, 128)
    modes = emd(x)
    assert modes.imfs == []
    np.testing.assert_array_equal(modes.residual, x)


def test_emd_constant_signal_no_imfs():
    x = np.full(64, 3.0)
    modes = emd(x)
    assert modes.imfs == []
    np.testing.assert_array_equal(modes.residual, x)


def test_emd_two_tone_separation():
    fs = 256.0
    t = np.arange(int(8 * fs)) / fs
    fast = np.sin(2.0 * np.pi * 20.0 * t)
    slow = np.sin(2.0 * np.pi * 2.0 * t)
    modes = emd(fast + slow)
    assert len(modes.imfs) >= 2
    inner = interior(len(t))
    corr = np.corrcoef(modes.imfs[0][inner], fast[inner])[0, 1]
    assert corr >= 0.95, corr


def test_emd_completeness_random_signals():
    rng = np.random.default_rng(13)
    for _ in range(10):
        t = np.arange(1024) / 256.0
        x = rng.standard_normal(1024) * 0.5
        for _ in range(int(rng.integers(1, 4))):
            f = rng.uniform(1.0, 40.0)
            x = x + rng.uniform(0.5, 2.0) * np.sin(2.0 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
        modes = emd(x)
        recon = np.sum(modes.imfs, axis=0) + modes.residual if modes.imfs else modes.residual
        assert np.max(np.abs(x - recon)) <= 1e-8 * np.max(np.abs(x))


def test_batched_emd_equals_reference_sifting_bit_for_bit():
    # The acceptance suite's decomposition corpus, then synthetic trials.
    rng = np.random.default_rng(2024)
    t = np.arange(2048) / 256.0
    corpus = []
    for _ in range(100):
        x = np.zeros(t.size)
        for _ in range(int(rng.integers(2, 5))):
            amplitude = rng.uniform(0.5, 2.0)
            freq = rng.uniform(0.5, 40.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            x += amplitude * np.sin(2.0 * np.pi * freq * t + phase)
        x += rng.normal(0.0, 0.2, t.size)
        corpus.append(x)
    for batch in (np.array(corpus), filtered_synth_trials(6, 42)):
        for x, modes in zip(batch, emd(batch)):
            imfs, residual = reference_emd(x)
            assert len(modes.imfs) == len(imfs)
            for got, want in zip(modes.imfs, imfs):
                np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(modes.residual, residual)


def test_emd_of_one_row_equals_emd_of_the_series():
    x = filtered_synth_trials(1, 5)[0]
    (batched,) = emd(x[None])
    alone = emd(x)
    assert isinstance(alone.imfs, list) and len(alone.imfs) == len(batched.imfs)
    for a, b in zip(alone.imfs, batched.imfs):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(alone.residual, batched.residual)
    assert alone.siftings == batched.siftings


def test_emd_keeps_the_sifting_count_of_each_mode():
    # The pinned trials, sifted in the blocks that features sifts them in.
    assert ImfSet(imfs=[], residual=np.zeros(4)).siftings == []
    trials = filtered_synth_trials(200, 42)
    blocks = range(0, len(trials), cli._BLOCK_TRIALS)
    sets = [modes for at in blocks for modes in emd(trials[at : at + cli._BLOCK_TRIALS])]
    assert Counter(len(modes.imfs) for modes in sets) == {4: 307, 5: 93}
    assert all(len(modes.siftings) == len(modes.imfs) for modes in sets)
    counts = [count for modes in sets for count in modes.siftings]
    assert len(counts) == 1693 and min(counts) >= 1
    assert counts.count(_MAX_SIFTINGS) == 3
    assert statistics.median(counts) == 2


def test_sifting_in_place_leaves_the_input_alone():
    # emd sifts copies in place: the caller's samples keep their bytes, and
    # no returned array shares memory with them or with another.
    trials = filtered_synth_trials(2, 7)
    for signal in (trials[0], trials):
        before = signal.tobytes()
        result = emd(signal)
        assert signal.tobytes() == before
        sets = result if isinstance(result, list) else [result]
        arrays = [array for modes in sets for array in (*modes.imfs, modes.residual)]
        assert len(arrays) > len(sets)
        for i, array in enumerate(arrays):
            assert not np.shares_memory(array, signal)
            assert not any(np.shares_memory(array, other) for other in arrays[:i])
        trial_feature_vector(signal)
        assert signal.tobytes() == before


def test_emd_imf_count_capped():
    # White noise holds more than six modes, so the cap binds.
    rng = np.random.default_rng(17)
    x = rng.standard_normal(2048)
    modes = emd(x)
    assert len(modes.imfs) == 6
    assert all(extrema.size >= 2 for extrema in find_extrema(modes.residual))


tones = st.lists(
    st.tuples(
        st.floats(0.1, 2.0),  # amplitude
        st.floats(0.2, 60.0),  # frequency in Hz at 256 Hz sampling
        st.floats(0.0, 2.0 * np.pi),  # phase
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=40, deadline=None, database=None)
@given(tones=tones, n=st.integers(32, 2048))
def test_emd_is_complete_and_capped_on_multi_tone_signals(tones, n):
    t = np.arange(n) / 256.0
    x = sum(a * np.sin(2.0 * np.pi * f * t + p) for a, f, p in tones)
    modes = emd(x)
    assert len(modes.imfs) <= _MAX_IMFS
    recombined = modes.residual + sum(modes.imfs)
    assert np.max(np.abs(x - recombined)) <= 1e-8 * np.max(np.abs(x))


def test_emd_imfs_ordered_by_frequency():
    # characteristic frequency should drop (or hold) from one mode to the next
    rng = np.random.default_rng(19)
    ordered = 0
    total = 0
    for _ in range(10):
        t = np.arange(2048) / 256.0
        x = (
            np.sin(2.0 * np.pi * 25.0 * t)
            + np.sin(2.0 * np.pi * 6.0 * t + 1.0)
            + 0.3 * rng.standard_normal(2048)
        )
        modes = emd(x)
        freqs = []
        inner = interior(2048)
        for imf in modes.imfs:
            phase = np.unwrap(np.angle(analytic_signal(imf)))
            freqs.append(float(np.mean(instantaneous_frequency(phase, 256.0)[inner])))
        total += max(len(freqs) - 1, 0)
        ordered += sum(1 for a, b in zip(freqs, freqs[1:]) if a >= b)
    assert ordered >= 0.9 * total, (ordered, total)


# ---------------------------------------------------------------------------
# analytic_signal / instantaneous_frequency


def test_analytic_pure_tone_amplitude():
    fs = 256.0
    t = np.arange(int(8 * fs)) / fs
    z = analytic_signal(np.cos(2.0 * np.pi * 5.0 * t))
    inner = interior(len(t))
    np.testing.assert_allclose(np.abs(z)[inner], 1.0, rtol=0.01)


def test_analytic_constant_is_dc():
    z = analytic_signal(np.full(32, -2.5))
    np.testing.assert_allclose(z.real, -2.5, atol=1e-12)
    np.testing.assert_allclose(z.imag, 0.0, atol=1e-12)
    np.testing.assert_allclose(np.abs(z), 2.5, atol=1e-12)


def test_analytic_real_part_fidelity():
    rng = np.random.default_rng(23)
    for _ in range(10):
        x = rng.standard_normal(int(rng.integers(8, 512)))
        z = analytic_signal(x)
        assert np.max(np.abs(z.real - x)) <= 1e-9 * max(np.max(np.abs(x)), 1e-30)
        assert np.all(np.abs(z) >= 0.0)


def test_analytic_matches_scipy_hilbert():
    rng = np.random.default_rng(29)
    x = rng.standard_normal(512)
    z = analytic_signal(x)
    ref = scipy.signal.hilbert(x)
    np.testing.assert_allclose(z, ref, atol=1e-9)


def test_analytic_rows_equal_their_own_transform():
    rng = np.random.default_rng(47)
    rows = rng.standard_normal((5, 301))
    z = analytic_signal(rows)
    assert z.shape == rows.shape
    for row, got in zip(rows, z):
        np.testing.assert_array_equal(got, analytic_signal(row))


def test_inst_freq_linear_phase():
    fs = 256.0
    t = np.arange(2048) / fs
    freq = instantaneous_frequency(2.0 * np.pi * 5.0 * t, fs)
    np.testing.assert_allclose(freq, 5.0, atol=1e-9)


def test_inst_freq_constant_phase():
    freq = instantaneous_frequency(np.full(100, 1.234), 256.0)
    np.testing.assert_allclose(freq, 0.0, atol=1e-12)


def test_inst_freq_quadratic_phase():
    fs = 128.0
    t = np.arange(512) / fs
    phase = 0.7 * t * t
    freq = instantaneous_frequency(phase, fs)
    expected = 2.0 * 0.7 * t / (2.0 * np.pi)  # d(phase)/dt / 2 pi
    np.testing.assert_allclose(freq[1:-1], expected[1:-1], atol=1e-6)


def test_chirp_instantaneous_frequency_tracks_ramp():
    fs = 256.0
    seconds = 8.0
    t = np.arange(int(seconds * fs)) / fs
    f0, f1 = 2.0, 10.0
    phase = 2.0 * np.pi * (f0 * t + (f1 - f0) * t * t / (2.0 * seconds))
    z = analytic_signal(np.cos(phase))
    freq = instantaneous_frequency(np.unwrap(np.angle(z)), fs)
    expected = f0 + (f1 - f0) * t / seconds
    inner = interior(len(t))
    rel = np.abs(freq[inner] - expected[inner]) / expected[inner]
    assert np.max(rel) < 0.05, np.max(rel)


# ---------------------------------------------------------------------------
# stat_features


def stats_of(series, reference):
    """The statistics of one series by name, from a matrix of one row."""
    return dict(zip(STAT_NAMES, stat_features(series[None], reference)[0]))


def test_stats_constant_series_conventions():
    series = np.full(10, 4.0)
    reference = np.arange(10.0)
    got = stats_of(series, reference)
    assert got["mean"] == 4.0
    assert got["std"] == 0.0
    assert got["min"] == 4.0 and got["max"] == 4.0
    assert got["skewness"] == 0.0
    assert got["kurtosis"] == 0.0
    assert got["corr"] == 0.0
    assert got["cov"] == 0.0


def test_stats_rounding_noise_counts_as_constant():
    # 0.1 + 0.2 is not exactly 0.3, so the computed mean leaves ~1e-17
    # deviations; 1e-13 noise on 5 is below n * eps * 5 ~ 2e-12 as well.
    noise = np.random.default_rng(37).standard_normal(2048)
    reference = np.sin(np.arange(2048.0))
    for series in (np.full(2048, 0.1) + 0.2, 5.0 + 1e-13 * noise):
        for x, ref in ((series, reference), (reference, series)):
            got = stats_of(x, ref)
            assert got["corr"] == 0.0
        got = stats_of(series, reference)
        assert got["skewness"] == 0.0
        assert got["kurtosis"] == 0.0


def test_stats_self_correlation():
    rng = np.random.default_rng(31)
    x = rng.standard_normal(50)
    got = stats_of(x, x)
    assert abs(got["corr"] - 1.0) < 1e-12
    assert abs(got["cov"] - np.var(x, ddof=1)) < 1e-12


def test_stats_small_series_frozen_values():
    got = stats_of(np.array([1.0, 2.0, 3.0, 4.0]), np.array([2.0, 4.0, 6.0, 8.0]))
    assert got["mean"] == 2.5
    assert abs(got["std"] - 1.2909944487358056) < 1e-15
    assert got["min"] == 1.0 and got["max"] == 4.0
    assert got["skewness"] == 0.0
    assert abs(got["kurtosis"] - 1.64) < 1e-12  # m4 / m2^2 for this series
    assert got["moment5"] == 0.0
    assert abs(got["cumulant4"] - (-2.125)) < 1e-12  # m4 - 3 m2^2
    assert abs(got["corr"] - 1.0) < 1e-12
    assert abs(got["cov"] - 10.0 / 3.0) < 1e-12


def test_stats_match_definition_oracle():
    rng = np.random.default_rng(37)
    for _ in range(15):
        n = int(rng.integers(4, 200))
        x = rng.standard_normal(n) * rng.uniform(0.5, 5.0)
        ref = rng.standard_normal(n)
        got = stats_of(x, ref)
        m = np.mean(x)
        centered = x - m
        m2 = np.mean(centered**2)
        assert abs(got["mean"] - m) < 1e-12
        assert abs(got["std"] - np.std(x, ddof=1)) < 1e-12
        assert got["min"] == np.min(x) and got["max"] == np.max(x)
        assert abs(got["skewness"] - np.mean(centered**3) / m2**1.5) < 1e-10
        assert abs(got["kurtosis"] - np.mean(centered**4) / m2**2) < 1e-10
        assert abs(got["moment5"] - np.mean(centered**5)) < 1e-10
        assert abs(got["cumulant4"] - (np.mean(centered**4) - 3.0 * m2**2)) < 1e-10
        assert abs(got["corr"] - np.corrcoef(x, ref)[0, 1]) < 1e-10
        assert abs(got["cov"] - np.cov(x, ref, ddof=1)[0, 1]) < 1e-10
        counts, edges = np.histogram(x, bins=64)
        top = int(np.argmax(counts))
        assert abs(got["mode"] - 0.5 * (edges[top] + edges[top + 1])) < 1e-10


def test_stats_rows_equal_their_own_statistics():
    rng = np.random.default_rng(53)
    rows = rng.standard_normal((6, 200)) * rng.uniform(0.1, 10.0, (6, 1))
    rows[2] = 3.0
    reference = rng.standard_normal(200)
    stats = stat_features(rows, reference)
    assert stats.shape == (6, len(STAT_NAMES))
    for row, got in zip(rows, stats):
        np.testing.assert_array_equal(got, stat_features(row[None], reference)[0])


def test_stats_mode_matches_np_histogram():
    rng = np.random.default_rng(59)
    bins = np.histogram_bin_edges(np.array([-2.0, 5.0]), bins=64)
    rows = [
        bins,  # every value on a bin edge, the last on the closed right end
        rng.choice(bins, 300),
        np.repeat(bins[[3, 40, 41]], [5, 7, 7]),  # a tie goes to the first bin
        np.full(50, -1.25),
        np.full(50, 0.0),
        np.array([1e-300, 2e-300, 2e-300]),
        rng.standard_normal(300),
        np.round(rng.standard_normal(300), 1),
    ]
    for row in rows:
        matrix = np.vstack([row, row[::-1]])
        got = stat_features(matrix, np.arange(row.size, dtype=float))
        for series, stats in zip(matrix, got):
            counts, edges = np.histogram(series, bins=64)
            top = int(np.argmax(counts))
            assert stats[STAT_NAMES.index("mode")] == 0.5 * (edges[top] + edges[top + 1])


# ---------------------------------------------------------------------------
# trial_feature_vector


def test_feature_vector_monotone_trial_is_zero():
    x = np.linspace(0.0, 2.0, 2048)
    vec = trial_feature_vector(x)
    assert vec.shape == (132,)
    np.testing.assert_array_equal(vec, np.zeros(132))


def test_feature_vector_deterministic():
    rng = np.random.default_rng(41)
    x = rng.standard_normal(2048)
    a = trial_feature_vector(x)
    b = trial_feature_vector(x)
    np.testing.assert_array_equal(a, b)


def test_feature_rows_equal_single_trial_vectors():
    trials = filtered_synth_trials(4, 42)
    batch = trial_feature_vector(trials)
    assert batch.shape == (8, 132)
    for row, trial in zip(batch, trials):
        np.testing.assert_array_equal(row, trial_feature_vector(trial))


def test_feature_vector_layout_and_width():
    layout = FEATURE_NAMES
    assert len(layout) == 132
    assert layout[0] == "imf1_imf_mean"
    assert layout[11] == "imf1_amplitude_mean"
    assert layout[-1] == "imf6_amplitude_cov"


def test_feature_vector_two_tone_amplitude_std():
    # IMF 1 of a clean two-tone is a near-constant-amplitude 20 Hz mode; the
    # amplitude-std feature slot should match a scipy-based recomputation.
    fs = 256.0
    t = np.arange(int(8 * fs)) / fs
    x = np.sin(2.0 * np.pi * 20.0 * t) + np.sin(2.0 * np.pi * 2.0 * t)
    vec = trial_feature_vector(x)
    slot = FEATURE_NAMES.index("imf1_amplitude_std")
    modes = emd(x)
    oracle_amp = np.abs(scipy.signal.hilbert(modes.imfs[0]))
    oracle_std = np.std(oracle_amp, ddof=1)
    assert abs(vec[slot] - oracle_std) <= 0.1 * oracle_std


def test_feature_vector_zero_pads_missing_imfs():
    fs = 256.0
    t = np.arange(2048) / fs
    x = np.sin(2.0 * np.pi * 5.0 * t)  # single tone: one or two modes at most
    vec = trial_feature_vector(x)
    modes = emd(x)
    present = len(modes.imfs)
    assert present < 6
    tail = vec[present * 22:]
    np.testing.assert_array_equal(tail, np.zeros_like(tail))


# ---------------------------------------------------------------------------
# validation


def test_signal_validation():
    # The filter checks its own input (tests/test_dataio.py); the
    # decomposition needs 4 samples of one series or rows of series, and
    # emd refuses fewer itself, as find_extrema does not check.
    for short in (np.array([1.0, 2.0]), np.ones((3, 2)), np.array([0.0, 1.0, 0.0]), np.ones((2, 3))):
        for call in (emd, trial_feature_vector):
            with pytest.raises(ShapeMismatch, match="^need a 1-D series of at least 4 samples$"):
                call(short)
    with pytest.raises(ShapeMismatch):
        emd(np.zeros((2, 2, 8)))


def test_raw_non_finite_input_is_rejected():
    x = np.sin(np.linspace(0.0, 20.0, 256))
    for bad in (np.nan, np.inf):
        x[100] = bad
        with pytest.raises(InvalidConfig, match="finite"):
            emd(x)
        with pytest.raises(InvalidConfig, match="finite"):
            trial_feature_vector(x)
