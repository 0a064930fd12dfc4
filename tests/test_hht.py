"""Tests for decomposition, analytic-signal construction, and features.

Independent oracles used here: a scalar python extrema scan, the scipy
Hilbert transformer (different code path than the in-package FFT gating),
closed-form phase derivatives, and statistics recomputed inline from their
definitions.
"""
import numpy as np
import pytest
import scipy.signal

from hhtelm import (
    EmdConfig,
    Signal,
    analytic_series,
    analytic_signal,
    emd,
    feature_layout,
    find_extrema,
    instantaneous_frequency,
    spline_envelope,
    stat_features,
    trial_feature_vector,
)
from hhtelm.hht import STAT_NAMES
from hhtelm.errors import InsufficientExtrema, InvalidConfig, ShapeMismatch


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


# ---------------------------------------------------------------------------
# spline_envelope


def test_envelope_constant():
    env = spline_envelope(np.array([3, 11]), np.array([2.0, 2.0]), 16)
    np.testing.assert_allclose(env, 2.0, atol=1e-10)


def test_envelope_collinear_extrema_reproduce_line():
    idx = np.array([2, 7, 13, 19])
    values = 0.5 * idx + 1.0
    env = spline_envelope(idx, values, 24)
    expected = 0.5 * np.arange(24) + 1.0
    np.testing.assert_allclose(env, expected, atol=1e-10)


def test_envelope_of_sine_maxima_near_one():
    fs = 64.0
    t = np.arange(int(10 * fs)) / fs  # 10 periods of a 1 Hz tone
    x = np.sin(2.0 * np.pi * t)
    maxima, _ = find_extrema(x)
    env = spline_envelope(maxima, x[maxima], len(x))
    inner = interior(len(x))
    assert np.all(env[inner] > 0.98)
    assert np.all(env[inner] < 1.02)


def test_envelope_needs_two_extrema():
    with pytest.raises(InsufficientExtrema):
        spline_envelope(np.array([5]), np.array([1.0]), 20)


# ---------------------------------------------------------------------------
# emd


def test_emd_monotone_ramp_no_imfs():
    x = np.linspace(-1.0, 1.0, 128)
    modes = emd(Signal(samples=x, fs=128.0))
    assert modes.imfs == []
    np.testing.assert_array_equal(modes.residual, x)


def test_emd_constant_signal_no_imfs():
    x = np.full(64, 3.0)
    modes = emd(Signal(samples=x, fs=64.0))
    assert modes.imfs == []
    np.testing.assert_array_equal(modes.residual, x)


def test_emd_two_tone_separation():
    fs = 256.0
    t = np.arange(int(8 * fs)) / fs
    fast = np.sin(2.0 * np.pi * 20.0 * t)
    slow = np.sin(2.0 * np.pi * 2.0 * t)
    modes = emd(Signal(samples=fast + slow, fs=fs))
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
        modes = emd(Signal(samples=x, fs=256.0))
        recon = np.sum(modes.imfs, axis=0) + modes.residual if modes.imfs else modes.residual
        assert np.max(np.abs(x - recon)) <= 1e-8 * np.max(np.abs(x))


def test_emd_imf_count_capped():
    rng = np.random.default_rng(17)
    x = rng.standard_normal(2048)
    for cap in (1, 3):
        modes = emd(Signal(samples=x, fs=256.0), EmdConfig(max_imfs=cap))
        assert len(modes.imfs) <= cap


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
        modes = emd(Signal(samples=x, fs=256.0))
        freqs = []
        inner = interior(2048)
        for imf in modes.imfs:
            series = analytic_series(imf, 256.0)
            freqs.append(float(np.mean(series.inst_freq[inner])))
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
    series = analytic_series(np.cos(phase), fs)
    expected = f0 + (f1 - f0) * t / seconds
    inner = interior(len(t))
    rel = np.abs(series.inst_freq[inner] - expected[inner]) / expected[inner]
    assert np.max(rel) < 0.05, np.max(rel)


# ---------------------------------------------------------------------------
# stat_features


def test_stats_constant_series_conventions():
    series = np.full(10, 4.0)
    reference = np.arange(10.0)
    got = dict(zip(STAT_NAMES, stat_features(series, reference)))
    assert got["mean"] == 4.0
    assert got["std"] == 0.0
    assert got["min"] == 4.0 and got["max"] == 4.0
    assert got["skewness"] == 0.0
    assert got["kurtosis"] == 0.0
    assert got["corr"] == 0.0
    assert got["cov"] == 0.0


def test_stats_self_correlation():
    rng = np.random.default_rng(31)
    x = rng.standard_normal(50)
    got = dict(zip(STAT_NAMES, stat_features(x, x)))
    assert abs(got["corr"] - 1.0) < 1e-12
    assert abs(got["cov"] - np.var(x, ddof=1)) < 1e-12


def test_stats_small_series_frozen_values():
    got = dict(zip(STAT_NAMES, stat_features(np.array([1.0, 2.0, 3.0, 4.0]), np.array([2.0, 4.0, 6.0, 8.0]))))
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
        got = dict(zip(STAT_NAMES, stat_features(x, ref)))
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


def test_stats_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        stat_features(np.arange(4.0), np.arange(5.0))


# ---------------------------------------------------------------------------
# trial_feature_vector


def test_feature_vector_monotone_trial_is_zero():
    x = np.linspace(0.0, 2.0, 2048)
    vec = trial_feature_vector(Signal(samples=x, fs=256.0))
    assert vec.values.shape == (132,)
    np.testing.assert_array_equal(vec.values, np.zeros(132))


def test_feature_vector_deterministic():
    rng = np.random.default_rng(41)
    x = rng.standard_normal(2048)
    a = trial_feature_vector(Signal(samples=x, fs=256.0))
    b = trial_feature_vector(Signal(samples=x, fs=256.0))
    np.testing.assert_array_equal(a.values, b.values)
    assert a.layout == b.layout


def test_feature_vector_layout_and_width():
    layout = feature_layout(6)
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
    sig = Signal(samples=x, fs=fs)
    vec = trial_feature_vector(sig)
    names = list(vec.layout)
    slot = names.index("imf1_amplitude_std")
    modes = emd(sig)
    oracle_amp = np.abs(scipy.signal.hilbert(modes.imfs[0]))
    oracle_std = np.std(oracle_amp, ddof=1)
    assert abs(vec.values[slot] - oracle_std) <= 0.1 * oracle_std


def test_feature_vector_zero_pads_missing_imfs():
    fs = 256.0
    t = np.arange(2048) / fs
    x = np.sin(2.0 * np.pi * 5.0 * t)  # single tone: one or two modes at most
    vec = trial_feature_vector(Signal(samples=x, fs=fs))
    modes = emd(Signal(samples=x, fs=fs))
    present = len(modes.imfs)
    assert present < 6
    tail = vec.values[present * 22:]
    np.testing.assert_array_equal(tail, np.zeros_like(tail))


# ---------------------------------------------------------------------------
# validation


def test_signal_validation():
    with pytest.raises(ShapeMismatch):
        Signal(samples=np.array([1.0, 2.0]), fs=256.0)
    with pytest.raises(InvalidConfig):
        Signal(samples=np.array([1.0, 2.0, 3.0, np.nan]), fs=256.0)
    with pytest.raises(InvalidConfig):
        Signal(samples=np.arange(8.0), fs=0.0)


def test_raw_non_finite_input_is_rejected():
    x = np.sin(np.linspace(0.0, 20.0, 256))
    for bad in (np.nan, np.inf):
        x[100] = bad
        with pytest.raises(InvalidConfig, match="finite"):
            emd(x)
        with pytest.raises(InvalidConfig, match="finite"):
            trial_feature_vector(x)


def test_emd_config_validation():
    with pytest.raises(InvalidConfig):
        EmdConfig(sd_threshold=0.0)
    with pytest.raises(InvalidConfig):
        EmdConfig(max_imfs=0)
