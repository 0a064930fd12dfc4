"""Acceptance checks: ten end-to-end properties of the whole package.

Each test prints a single ``criterion NN: PASS/FAIL (detail)`` line, so
running ``pytest tests/test_acceptance.py -s`` reads as a checklist. The
tolerances in the assertions are the contract; nothing here is tuned to
the implementation internals.
"""
import numpy as np
import pytest

from hhtelm import (
    ContingencyTable,
    SolverKind,
    SynthConfig,
    TrainConfig,
    analytic_signal,
    cross_validate,
    draw_layers,
    elm_train,
    emd,
    hessenberg_reduce,
    instantaneous_frequency,
    lowpass_filter,
    metrics,
    save_report,
    solve_output_weights,
    svd_pseudoinverse,
    synth_scp,
    trial_feature_vector,
)

FS = 256.0

PIPELINE_SYNTH = SynthConfig(n_per_class=200, seed=42)
PIPELINE_LAYERS = (40, 30)
PIPELINE_RIDGE = 1e-3
PIPELINE_MODEL_SEED = 0
PIPELINE_CV_SEED = 0
PIPELINE_FOLDS = 5


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d}: {status} ({detail})")
    assert ok, f"criterion {number:02d}: {detail}"


def count_extrema(x):
    """Independent extremum count: compress plateaus, count slope flips."""
    compressed = x[np.concatenate(([True], np.diff(x) != 0.0))]
    if compressed.size < 3:
        return 0
    slopes = np.sign(np.diff(compressed))
    return int(np.count_nonzero(slopes[:-1] != slopes[1:]))


def count_zero_crossings(x):
    """Sign changes, ignoring exact zeros."""
    nonzero = x[x != 0.0]
    if nonzero.size < 2:
        return 0
    return int(np.count_nonzero(np.sign(nonzero[:-1]) != np.sign(nonzero[1:])))


@pytest.fixture(scope="module")
def decomposition_corpus():
    """100 random multi-tone plus noise signals and their decompositions."""
    rng = np.random.default_rng(2024)
    t = np.arange(2048) / FS
    corpus = []
    for _ in range(100):
        x = np.zeros(t.size)
        for _ in range(int(rng.integers(2, 5))):
            amplitude = rng.uniform(0.5, 2.0)
            freq = rng.uniform(0.5, 40.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            x += amplitude * np.sin(2.0 * np.pi * freq * t + phase)
        x += rng.normal(0.0, 0.2, t.size)
        corpus.append((x, emd(x)))
    return corpus


def pipeline_features(synth=PIPELINE_SYNTH):
    rows = []
    labels = []
    for trial in synth_scp(synth):
        rows.append(trial_feature_vector(lowpass_filter(trial.samples, trial.fs)))
        labels.append(trial.label)
    return np.vstack(rows), labels


def pipeline_cv(features, labels, variant):
    config = TrainConfig(
        layer_sizes=PIPELINE_LAYERS,
        kernel=SolverKind(variant, ridge=PIPELINE_RIDGE),
        seed=PIPELINE_MODEL_SEED,
    )
    return cross_validate(features, labels, config, k=PIPELINE_FOLDS, seed=PIPELINE_CV_SEED)


@pytest.fixture(scope="module")
def pinned_pipeline():
    features, labels = pipeline_features()
    return features, labels, pipeline_cv(features, labels, "hessenberg")


def test_criterion_01_decomposition_is_complete(decomposition_corpus):
    worst = 0.0
    for x, modes in decomposition_corpus:
        recombined = modes.residual + (np.sum(modes.imfs, axis=0) if modes.imfs else 0.0)
        worst = max(worst, np.max(np.abs(x - recombined)) / np.max(np.abs(x)))
    report(1, worst <= 1e-8, f"worst reconstruction error {worst:.2e} of max amplitude, limit 1e-8")


def test_criterion_02_modes_are_well_formed(decomposition_corpus):
    worst = 0
    total = 0
    for _, modes in decomposition_corpus:
        for imf in modes.imfs:
            total += 1
            deviation = abs(count_extrema(imf) - count_zero_crossings(imf))
            worst = max(worst, deviation)
    report(2, worst <= 2, f"worst |extrema - zero crossings| {worst} over {total} modes, limit 2")


def test_criterion_03_analytic_estimates_track_a_pure_tone():
    t = np.arange(int(8.0 * FS)) / FS
    z = analytic_signal(np.cos(2.0 * np.pi * 5.0 * t))
    inst_freq = instantaneous_frequency(np.unwrap(np.angle(z)), FS)
    margin = t.size // 20
    core = slice(margin, t.size - margin)
    amp_err = np.max(np.abs(np.abs(z[core]) - 1.0))
    freq_err = np.max(np.abs(inst_freq[core] - 5.0))
    ok = amp_err <= 0.01 and freq_err <= 0.02 * 5.0
    report(3, ok, f"interior amplitude off by {amp_err:.2e} (limit 0.01), "
                  f"frequency off by {freq_err:.2e} Hz (limit 0.1)")


def test_criterion_04_pseudoinverse_satisfies_penrose_conditions():
    rng = np.random.default_rng(7)
    worst = 0.0
    for i in range(50):
        m = int(rng.integers(2, 201))
        n = int(rng.integers(2, 201))
        if i % 3 == 0:
            r = max(1, min(m, n) // 3)
            a = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        else:
            a = rng.standard_normal((m, n))
        p = svd_pseudoinverse(a)
        ap = a @ p
        pa = p @ a
        errors = (
            np.linalg.norm(a @ p @ a - a) / max(np.linalg.norm(a), 1e-30),
            np.linalg.norm(p @ a @ p - p) / max(np.linalg.norm(p), 1e-30),
            np.linalg.norm(ap - ap.T) / max(np.linalg.norm(ap), 1e-30),
            np.linalg.norm(pa - pa.T) / max(np.linalg.norm(pa), 1e-30),
        )
        worst = max(worst, *errors)
    report(4, worst <= 1e-8, f"worst relative Penrose deviation {worst:.2e} on 50 matrices, limit 1e-8")


def test_criterion_05_solver_kernels_agree():
    worst_pair = 0.0
    for ridge in (1e-6, 1e-3, 1.0):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            h = rng.standard_normal((40, 12))
            t = rng.standard_normal((40, 3))
            betas = [
                solve_output_weights(h, t, SolverKind(variant, ridge=ridge))
                for variant in ("svd", "hessenberg", "lu")
            ]
            for i in range(3):
                for j in range(i + 1, 3):
                    scale = max(np.linalg.norm(betas[i]), np.linalg.norm(betas[j]), 1e-30)
                    worst_pair = max(worst_pair, np.linalg.norm(betas[i] - betas[j]) / scale)
    rng = np.random.default_rng(55)
    c = rng.standard_normal((30, 30))
    a = c + c.T
    fact = hessenberg_reduce(a)
    scale = np.linalg.norm(a)
    recon = np.linalg.norm(fact.q @ fact.u @ fact.q.T - a)
    off_tri = max(np.max(np.abs(np.triu(fact.u, 2))), np.max(np.abs(np.tril(fact.u, -2))))
    ok = worst_pair <= 1e-8 and recon <= 1e-10 * scale and off_tri <= 1e-10 * scale
    report(5, ok, f"worst pairwise kernel distance {worst_pair:.2e} (limit 1e-8), symmetric "
                  f"reconstruction {recon:.2e} and off-tridiagonal {off_tri:.2e} "
                  f"(limit {1e-10 * scale:.2e})")


def test_criterion_06_elm_interpolates_when_square():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((50, 20))
    targets = rng.standard_normal((50, 3))
    (layer,) = draw_layers(20, (50,), seed=1)
    beta = elm_train(x, targets, layer, SolverKind("svd", ridge=0.0))
    mse = float(np.mean((layer.hidden(x) @ beta - targets) ** 2))
    report(6, mse <= 1e-6, f"training MSE {mse:.2e} with 50 samples and 50 hidden units, limit 1e-6")


def test_criterion_07_pipeline_accuracy(pinned_pipeline):
    _, _, hess_report = pinned_pipeline
    accuracy = hess_report.mean.accuracy
    report(7, accuracy is not None and accuracy >= 95.0,
           f"mean accuracy {accuracy:.2f}% over {PIPELINE_FOLDS} folds, needed >= 95%")


def test_criterion_08_kernel_swap_is_stable(pinned_pipeline):
    features, labels, hess_report = pinned_pipeline
    svd_report = pipeline_cv(features, labels, "svd")
    delta = abs(svd_report.mean.accuracy - hess_report.mean.accuracy)
    flips = int(np.sum(svd_report.predictions != hess_report.predictions))
    limit = 0.01 * len(labels)
    ok = delta <= 2.0 and flips <= limit
    report(8, ok, f"accuracy moved {delta:.2f} points (limit 2.00), "
                  f"{flips}/{len(labels)} labels changed (limit {limit:.0f})")


def test_criterion_09_metrics_arithmetic():
    table = ContingencyTable(tp=40, fp=5, tn=45, fn=10)
    result = metrics(table)
    ok = result.selectivity == 90.0 and result.sensitivity == 80.0 and result.accuracy == 85.0
    report(9, ok, f"selectivity {result.selectivity} sensitivity {result.sensitivity} "
                  f"accuracy {result.accuracy}, expected exactly 90/80/85")


def test_criterion_10_pipeline_is_deterministic(tmp_path):
    paths = []
    for name in ("first.json", "second.json"):
        features, labels = pipeline_features()
        cv_report = pipeline_cv(features, labels, "hessenberg")
        path = tmp_path / name
        save_report(cv_report, str(path))
        paths.append(path)
    blobs = [path.read_bytes() for path in paths]
    ok = blobs[0] == blobs[1]
    report(10, ok, f"two full reruns wrote {'identical' if ok else 'differing'} "
                   f"report files of {len(blobs[0])} bytes")


# Criterion 7 sits near 98%, where a feature regression barely moves it.
# With weak drift in strong noise the same pipeline scores well below
# that, identically for every kernel (89.5% when this band was recorded);
# with no drift there is nothing to learn, so it stays near chance
# (53.0% when recorded).
UNSATURATED_SYNTH = SynthConfig(n_per_class=100, seed=42, drift_amplitude=0.5, noise_sigma=3.0)
UNSATURATED_BAND = (87.0, 92.0)
CONTROL_SYNTH = SynthConfig(n_per_class=100, seed=42, drift_amplitude=0.0)
CHANCE_BAND = (40.0, 60.0)


def regime_accuracies(synth):
    features, labels = pipeline_features(synth)
    return {
        variant: pipeline_cv(features, labels, variant).mean.accuracy
        for variant in ("svd", "hessenberg", "lu")
    }


def test_unsaturated_regime_accuracy_stays_in_its_band():
    low, high = UNSATURATED_BAND
    for variant, accuracy in regime_accuracies(UNSATURATED_SYNTH).items():
        assert low <= accuracy <= high, f"{variant}: {accuracy}% outside {UNSATURATED_BAND}"


def test_driftless_control_stays_near_chance():
    low, high = CHANCE_BAND
    for variant, accuracy in regime_accuracies(CONTROL_SYNTH).items():
        assert low <= accuracy <= high, f"{variant}: {accuracy}% outside {CHANCE_BAND}"
