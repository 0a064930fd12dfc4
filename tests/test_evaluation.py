"""Tests for metrics, balancing, fold construction, and cross-validation."""
import itertools

import numpy as np
import pytest

from hhtelm import (
    ContingencyTable,
    SolverKind,
    TrainConfig,
    balance_train_set,
    contingency,
    cross_validate,
    deep_elm_predict,
    deep_elm_train,
    metrics,
    random_orthogonal,
    stratified_kfold,
)
from hhtelm.evaluation import _cross_validate_grid
from hhtelm.errors import (
    DegenerateLabels,
    InsufficientClassMembers,
    InvalidConfig,
    InvalidLabel,
    InvalidMatrix,
    ShapeMismatch,
)

NEG, POS = "negativity", "positivity"
HESS = SolverKind("hessenberg", ridge=1e-3)


def tally_oracle(predicted, actual):
    """One-pass brute-force contingency tally, positivity = positive."""
    tp = fp = tn = fn = 0
    for p, a in zip(predicted, actual):
        if a == POS:
            if p == POS:
                tp += 1
            else:
                fn += 1
        else:
            if p == POS:
                fp += 1
            else:
                tn += 1
    return tp, fp, tn, fn


def blob_features(n_per_class, d=10, sep=1.5, seed=0):
    """Two well-separated Gaussian clouds, labels interleaved.

    The class shift is spread over every dimension so that no single
    feature has to carry the whole separation.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2 * n_per_class, d))
    labels = np.array([NEG, POS] * n_per_class)
    x[labels == POS] += sep
    x[labels == NEG] -= sep
    return x, labels


# ---------------------------------------------------------------------------
# contingency


def test_contingency_perfect_prediction():
    actual = np.array([NEG, POS, POS, NEG])
    table = contingency(actual, actual)
    assert table.fp == 0 and table.fn == 0
    assert table.tp == 2 and table.tn == 2


def test_contingency_total_inversion():
    actual = np.array([NEG, POS, POS, NEG])
    flipped = np.where(actual == NEG, POS, NEG)
    table = contingency(flipped, actual)
    assert table.tp == 0 and table.tn == 0
    assert table.fp == 2 and table.fn == 2


def test_contingency_matches_tally_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        actual = rng.choice([NEG, POS], size=100)
        predicted = rng.choice([NEG, POS], size=100)
        table = contingency(predicted, actual)
        assert (table.tp, table.fp, table.tn, table.fn) == tally_oracle(predicted, actual)


def test_contingency_length_mismatch():
    with pytest.raises(ShapeMismatch):
        contingency(np.array([NEG]), np.array([NEG, POS]))


def test_contingency_unknown_label():
    with pytest.raises(InvalidLabel):
        contingency(np.array(["yes"]), np.array([NEG]))
    with pytest.raises(InvalidLabel):
        contingency(np.array([NEG]), np.array(["no"]))


# ---------------------------------------------------------------------------
# metrics


def test_metrics_perfect_table():
    report = metrics(ContingencyTable(tp=50, fp=0, tn=50, fn=0))
    assert report.selectivity == 100.0
    assert report.sensitivity == 100.0
    assert report.accuracy == 100.0


def test_metrics_reference_table_exact():
    report = metrics(ContingencyTable(tp=40, fn=10, tn=45, fp=5))
    # integer-ratio cases must come out exact, no floating fuzz
    assert report.selectivity == 90.0
    assert report.sensitivity == 80.0
    assert report.accuracy == 85.0


def test_metrics_match_formula_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        tp, fp, tn, fn = (int(v) for v in rng.integers(0, 40, size=4))
        if tp + fp + tn + fn == 0:
            continue
        report = metrics(ContingencyTable(tp=tp, fp=fp, tn=tn, fn=fn))
        expected_sens = None if tp + fn == 0 else 100.0 * tp / (tp + fn)
        expected_sel = None if tn + fp == 0 else 100.0 * tn / (tn + fp)
        expected_acc = 100.0 * (tp + tn) / (tp + fp + tn + fn)
        assert report.sensitivity == expected_sens
        assert report.selectivity == expected_sel
        assert abs(report.accuracy - expected_acc) < 1e-12


def test_metrics_undefined_never_clamped():
    report = metrics(ContingencyTable(tp=0, fp=3, tn=5, fn=0))
    assert report.sensitivity is None  # no actual positives at all
    assert report.selectivity == 62.5
    report = metrics(ContingencyTable(tp=4, fp=0, tn=0, fn=2))
    assert report.selectivity is None


def test_metrics_empty_table_rejected():
    with pytest.raises(InvalidConfig):
        metrics(ContingencyTable(tp=0, fp=0, tn=0, fn=0))


def test_metrics_rejects_what_is_not_a_table():
    for table in ("x", 5, None, (1, 0, 1, 0)):
        with pytest.raises(InvalidConfig, match="ContingencyTable"):
            metrics(table)


def test_contingency_table_rejects_negative_counts():
    with pytest.raises(InvalidConfig):
        ContingencyTable(tp=-1, fp=0, tn=0, fn=1)


# ---------------------------------------------------------------------------
# stratified_kfold


def test_kfold_exact_stratification():
    labels = np.array([NEG] * 5 + [POS] * 5)
    assignment = stratified_kfold(labels, 5, seed=0)
    for fold in range(5):
        picked = labels[assignment == fold]
        assert len(picked) == 2
        assert sorted(picked) == [NEG, POS]


def test_kfold_103_items_fold_sizes():
    labels = np.array([NEG] * 52 + [POS] * 51)
    assignment = stratified_kfold(labels, 5, seed=11)
    sizes = sorted(np.sum(assignment == fold) for fold in range(5))
    assert sizes == [20, 20, 21, 21, 21]
    assert set(assignment) == set(range(5))
    assert assignment.shape == labels.shape


def test_kfold_partition_and_balance_properties():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n_neg = int(rng.integers(6, 60))
        n_pos = int(rng.integers(6, 60))
        k = int(rng.integers(2, 6))
        labels = np.array([NEG] * n_neg + [POS] * n_pos)
        rng.shuffle(labels)
        assignment = stratified_kfold(labels, k, seed=int(rng.integers(0, 999)))
        assert assignment.min() >= 0 and assignment.max() < k
        for cls in (NEG, POS):
            counts = [int(np.sum((assignment == f) & (labels == cls))) for f in range(k)]
            assert max(counts) - min(counts) <= 1, (cls, counts)
        total = [int(np.sum(assignment == f)) for f in range(k)]
        n = len(labels)
        assert sorted(total) == sorted(
            [n // k + 1] * (n % k) + [n // k] * (k - n % k)
        )


def test_kfold_deterministic():
    labels = np.array([NEG] * 20 + [POS] * 15)
    a = stratified_kfold(labels, 4, seed=5)
    b = stratified_kfold(labels, 4, seed=5)
    np.testing.assert_array_equal(a, b)
    c = stratified_kfold(labels, 4, seed=6)
    assert not np.array_equal(a, c)


def test_kfold_small_class_rejected():
    labels = np.array([NEG] * 10 + [POS] * 3)
    with pytest.raises(InsufficientClassMembers):
        stratified_kfold(labels, 5, seed=0)


@pytest.mark.parametrize("dtype", [object, str], ids=["object", "unicode"])
def test_kfold_small_class_message_names_the_plain_class(dtype):
    labels = np.array(["negativity"] * 10 + ["positivity"] * 3, dtype=dtype)
    with pytest.raises(InsufficientClassMembers, match=r"^class 'positivity' has 3 members but k=5$"):
        stratified_kfold(labels, 5, seed=0)


def test_kfold_k_validation():
    labels = np.array([NEG] * 5 + [POS] * 5)
    with pytest.raises(InvalidConfig):
        stratified_kfold(labels, 1, seed=0)


# ---------------------------------------------------------------------------
# balance_train_set


def test_balance_subsamples_majority():
    labels = np.array([NEG] * 7 + [POS] * 3)
    picked = balance_train_set(np.arange(10), labels, seed=0)
    assert len(picked) == 6
    assert int(np.sum(labels[picked] == NEG)) == 3
    assert int(np.sum(labels[picked] == POS)) == 3
    assert set(picked) <= set(range(10))


def test_balance_already_balanced_unchanged():
    labels = np.array([NEG, POS, NEG, POS])
    picked = balance_train_set(np.array([0, 1, 2, 3]), labels, seed=9)
    np.testing.assert_array_equal(picked, np.array([0, 1, 2, 3]))


def test_balance_counts_over_random_draws():
    rng = np.random.default_rng(17)
    for _ in range(15):
        n_neg = int(rng.integers(2, 50))
        n_pos = int(rng.integers(2, 50))
        labels = np.array([NEG] * n_neg + [POS] * n_pos)
        order = rng.permutation(len(labels))
        labels = labels[order]
        picked = balance_train_set(np.arange(len(labels)), labels, seed=int(rng.integers(0, 99)))
        smaller = min(n_neg, n_pos)
        assert int(np.sum(labels[picked] == NEG)) == smaller
        assert int(np.sum(labels[picked] == POS)) == smaller
        assert len(set(picked.tolist())) == len(picked)  # no repeats


def test_balance_deterministic():
    labels = np.array([NEG] * 9 + [POS] * 4)
    a = balance_train_set(np.arange(13), labels, seed=3)
    b = balance_train_set(np.arange(13), labels, seed=3)
    np.testing.assert_array_equal(a, b)


def test_balance_missing_class_rejected():
    labels = np.array([NEG] * 5)
    with pytest.raises(DegenerateLabels):
        balance_train_set(np.arange(5), labels, seed=0)


def test_balance_rejects_indices_outside_the_labels():
    labels = np.array([NEG, POS] * 3)
    for indices in ([0, 1, 6], [-1, 0, 1, 2]):
        with pytest.raises(ShapeMismatch, match="0..5"):
            balance_train_set(indices, labels, seed=0)


def test_balance_rejects_non_integer_indices():
    # Float indices were truncated (1.5 picked row 1); they are refused instead.
    labels = np.array([NEG, POS] * 3)
    for indices in ([0.0, 1.5, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0], [True, False, True, True]):
        with pytest.raises(InvalidConfig, match="integers"):
            balance_train_set(indices, labels, seed=0)


def test_balance_respects_subset():
    # only the passed indices participate; class counts measured inside them
    labels = np.array([NEG] * 10 + [POS] * 10)
    subset = np.array([0, 1, 2, 10, 11])  # 3 negativity, 2 positivity
    picked = balance_train_set(subset, labels, seed=1)
    assert len(picked) == 4
    assert set(picked) <= set(subset.tolist())


# ---------------------------------------------------------------------------
# cross_validate


def test_cv_separable_blobs_high_accuracy():
    x, labels = blob_features(40)
    report = cross_validate(x, labels, TrainConfig(layer_sizes=(8, 5), kernel=HESS, seed=0), k=5, seed=0)
    assert report.mean.accuracy is not None
    assert report.mean.accuracy >= 95.0, report.mean.accuracy


def test_cv_reports_k_folds_and_aggregates():
    x, labels = blob_features(20)
    report = cross_validate(x, labels, TrainConfig(layer_sizes=(6,), kernel=HESS, seed=0), k=5, seed=2)
    assert report.k == 5
    assert len(report.folds) == 5
    accs = [f.accuracy for f in report.folds]
    assert min(accs) <= report.mean.accuracy <= max(accs)
    np.testing.assert_allclose(report.mean.accuracy, np.mean(accs), atol=1e-12)
    np.testing.assert_allclose(report.std.accuracy, np.std(accs), atol=1e-12)


def test_cv_every_trial_predicted_once():
    x, labels = blob_features(15)
    report = cross_validate(x, labels, TrainConfig(layer_sizes=(5,), kernel=HESS, seed=1), k=3, seed=4)
    assert report.predictions.shape == labels.shape
    assert set(report.predictions) <= {NEG, POS}
    assert report.fold_assignments.shape == labels.shape
    # fold assignment is a partition: every index sits in exactly one fold
    assert set(report.fold_assignments) == set(range(3))


def test_cv_deterministic():
    x, labels = blob_features(12)
    config = TrainConfig(layer_sizes=(4,), kernel=HESS, seed=7)
    a = cross_validate(x, labels, config, k=4, seed=5)
    b = cross_validate(x, labels, config, k=4, seed=5)
    assert a.to_dict() == b.to_dict()


def test_cv_folds_reproducible_from_public_pieces():
    # Rebuild every fold with the public API: same fold assignment, train on
    # the complement, predict the held-out rows. With class counts that
    # divide evenly into the folds the training portions are already
    # balanced, so the subsampling step is a no-op and the whole run is
    # reproducible from outside. Equality here also proves the held-out rows
    # never influence their own fold's model.
    from hhtelm import deep_elm_predict, deep_elm_train, stratified_kfold

    x, labels = blob_features(12, seed=3)  # 12 per class, k=3: 4+4 per fold
    config = TrainConfig(layer_sizes=(4,), kernel=HESS, seed=0)
    report = cross_validate(x, labels, config, k=3, seed=1)
    assignment = stratified_kfold(labels, 3, seed=1)
    np.testing.assert_array_equal(report.fold_assignments, assignment)
    for fold in range(3):
        train = assignment != fold
        model = deep_elm_train(x[train], labels[train], config)
        predicted, _ = deep_elm_predict(model, x[~train])
        np.testing.assert_array_equal(report.predictions[~train], predicted)


def test_cv_draws_the_random_layers_once(monkeypatch):
    from hhtelm import elm

    draws = []

    def counting(rows, cols, seed):
        draws.append((rows, cols))
        return random_orthogonal(rows, cols, seed)

    monkeypatch.setattr(elm, "random_orthogonal", counting)
    x, labels = blob_features(20)
    cross_validate(x, labels, TrainConfig(layer_sizes=(6, 4), kernel=HESS, seed=3), k=5, seed=1)
    assert draws == [(10, 6), (6, 4)]


@pytest.mark.parametrize("variant", ["svd", "hessenberg", "lu"])
def test_cv_fold_models_equal_standalone_training(monkeypatch, variant):
    # Unequal classes, so each fold's balancing drops rows, and a first
    # layer wider than the ~19 training rows, so the Gram kernels take
    # their dual path as well.
    from hhtelm import evaluation

    fits = []

    def recording(x, labels, config, **private):
        model = deep_elm_train(x, labels, config, **private)
        fits.append((x, labels, model))
        return model

    monkeypatch.setattr(evaluation, "deep_elm_train", recording)
    x, labels = blob_features(15, seed=4)
    keep = np.ones(labels.size, dtype=bool)
    keep[np.flatnonzero(labels == POS)[-3:]] = False
    x, labels = x[keep], labels[keep]
    config = TrainConfig(layer_sizes=(30, 5), kernel=SolverKind(variant, ridge=1e-3), seed=6)
    cross_validate(x, labels, config, k=5, seed=2)
    assert len(fits) == 5
    for rows, row_labels, model in fits:
        assert np.sum(row_labels == NEG) == np.sum(row_labels == POS) < 15
        assert rows.shape[0] < 30
        alone = deep_elm_train(rows, row_labels, config)
        for name in ("feature_mean", "feature_std", "readout"):
            np.testing.assert_array_equal(getattr(model, name), getattr(alone, name))
        assert len(model.ae_layers) == len(alone.ae_layers) == 2
        for ours, theirs in zip(model.ae_layers, alone.ae_layers):
            np.testing.assert_array_equal(ours.beta, theirs.beta)


def test_cv_rejects_bad_inputs():
    x, labels = blob_features(10)
    with pytest.raises(InvalidConfig):
        cross_validate(x, labels, "not a config", k=3, seed=0)
    with pytest.raises(ShapeMismatch):
        cross_validate(x[:5], labels, TrainConfig(layer_sizes=(4,), kernel=HESS), k=3, seed=0)
    with pytest.raises(InvalidMatrix, match="features is not numeric"):
        cross_validate(np.full(x.shape, "a"), labels, TrainConfig(layer_sizes=(4,), kernel=HESS))


@pytest.mark.parametrize(
    "k, seed",
    [(2.5, 0), (3.0, 0), (True, 0), ("3", 0), (3, -1), (3, 1.5), (3, False)],
    ids=["float-k", "integral-float-k", "bool-k", "str-k", "negative-seed", "float-seed", "bool-seed"],
)
def test_cv_rejects_non_integer_k_and_bad_seeds(k, seed):
    x, labels = blob_features(10)
    with pytest.raises(InvalidConfig):
        cross_validate(x, labels, TrainConfig(layer_sizes=(4,), kernel=HESS), k=k, seed=seed)


# ---------------------------------------------------------------------------
# the grid walk behind sweep


def cross_validate_one_at_a_time(x, labels, config, k, seed):
    """Fold metrics and predictions of one configuration, every fold fitted
    from scratch by ``deep_elm_train``: the reference the grid walk must
    match bit for bit."""
    assignment = stratified_kfold(labels, k, seed)
    balance_seeds = np.random.SeedSequence(seed).spawn(k)
    predictions = np.empty(labels.size, dtype=labels.dtype)
    folds = []
    for fold in range(k):
        held_out = assignment == fold
        balanced = balance_train_set(np.flatnonzero(~held_out), labels, balance_seeds[fold])
        model = deep_elm_train(x[balanced], labels[balanced], config)
        predicted, _ = deep_elm_predict(model, x[held_out])
        predictions[held_out] = predicted
        folds.append(metrics(contingency(predicted, labels[held_out])))
    return folds, predictions


def _budget_subset():
    # A shuffled pick from a larger depth-3 grid, as a --budget subset is
    # (cmd_sweep passes its picks sorted; the walk sorts them itself).
    grid = list(itertools.product(range(2, 30, 3), repeat=3))
    picks = np.random.default_rng(11).choice(len(grid), size=6, replace=False)
    return [grid[i] for i in picks]


# 30 rows in 3 folds leave 20 training rows, so width 25 takes the dual path.
# "shared" gives every configuration one first width, so a fold starts on
# the path the previous fold ended on, and mixes depths.
GRIDS = {
    "depth2": list(itertools.product((3, 25, 8), repeat=2)),
    "depth3": list(itertools.product((4, 25), repeat=3)),
    "budget": _budget_subset(),
    "shared": [(25, 8, 3), (25,), (25, 3), (25, 8), (25, 8)],
}


@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("variant", ["svd", "hessenberg", "lu"])
def test_grid_equals_per_config_cross_validation(variant, grid):
    x, labels = blob_features(15, sep=0.4, seed=5)
    kernel = SolverKind(variant, ridge=1e-3)
    configs = [TrainConfig(layer_sizes=sizes, kernel=kernel, seed=4) for sizes in GRIDS[grid]]
    pairs = list(_cross_validate_grid(x, labels, configs, 3, 8))
    assert [config for config, _ in pairs] == sorted(configs, key=lambda c: c.layer_sizes)
    accuracies = set()
    for config, report in pairs:
        folds, predictions = cross_validate_one_at_a_time(x, labels, config, 3, 8)
        assert report.folds == folds
        np.testing.assert_array_equal(report.predictions, predictions)
        assert report.predictions.dtype == predictions.dtype
        assert report.to_dict() == cross_validate(x, labels, config, k=3, seed=8).to_dict()
        accuracies.add(report.mean.accuracy)
    assert len(accuracies) > 1  # the configurations are told apart


def test_grid_draws_each_layer_of_the_tree_once(monkeypatch):
    # A depth-2 grid over widths W has |W| first layers and |W|**2 second
    # ones; each is drawn once, however many folds are fitted on it.
    from hhtelm import elm

    draws = []

    def counting(rows, cols, seed):
        draws.append((rows, cols))
        return random_orthogonal(rows, cols, seed)

    monkeypatch.setattr(elm, "random_orthogonal", counting)
    x, labels = blob_features(15, seed=5)
    widths = (3, 25, 8)
    grid = list(itertools.product(widths, repeat=2))
    configs = [TrainConfig(layer_sizes=sizes, kernel=HESS, seed=4) for sizes in grid]
    list(_cross_validate_grid(x, labels, configs, 3, 8))
    assert len(draws) == len(widths) + len(widths) ** 2
    assert sorted(draws) == sorted([(10, w) for w in widths] + grid)


def test_grid_passes_each_fit_the_stages_it_shares_with_the_last(monkeypatch):
    # Configurations are fitted in width order, each in every fold before
    # the next; a fit gets fitted stages for the widths it shares with the
    # configuration before it, and a lone configuration gets none.
    from hhtelm import evaluation

    given = []

    def recording(x, labels, config, **private):
        given.append((config.layer_sizes, len(private["_start"].kept)))
        return deep_elm_train(x, labels, config, **private)

    monkeypatch.setattr(evaluation, "deep_elm_train", recording)
    x, labels = blob_features(15, seed=5)
    configs = [TrainConfig(layer_sizes=sizes, kernel=HESS, seed=4) for sizes in GRIDS["shared"]]
    list(_cross_validate_grid(x, labels, configs, 3, 8))
    shared = [((25,), 0), ((25, 3), 1), ((25, 8), 1), ((25, 8), 2), ((25, 8, 3), 2)]
    assert given == [fit for fit in shared for _ in range(3)]
    given.clear()
    cross_validate(x, labels, configs[0], k=3, seed=8)
    assert given == [((25, 8, 3), 0)] * 3


def test_grid_yields_each_configuration_when_its_folds_are_fitted(monkeypatch):
    from hhtelm import evaluation

    fits = []

    def counting(x, labels, config, **private):
        fits.append(config.layer_sizes)
        return deep_elm_train(x, labels, config, **private)

    monkeypatch.setattr(evaluation, "deep_elm_train", counting)
    x, labels = blob_features(15, seed=5)
    configs = [TrainConfig(layer_sizes=sizes, kernel=HESS, seed=4) for sizes in GRIDS["depth2"]]
    walk = _cross_validate_grid(x, labels, configs, 3, 8)
    config, report = next(walk)
    assert config.layer_sizes == (3, 3)
    assert fits == [(3, 3)] * 3
    assert report.to_dict() == cross_validate(x, labels, config, k=3, seed=8).to_dict()


def test_grid_rejects_configs_that_differ_beyond_their_widths():
    x, labels = blob_features(10)
    base = TrainConfig(layer_sizes=(4,), kernel=HESS, seed=0)
    for other in (
        TrainConfig(layer_sizes=(5,), kernel=SolverKind("lu", ridge=1e-3), seed=0),
        TrainConfig(layer_sizes=(5,), kernel=HESS, seed=1),
    ):
        with pytest.raises(InvalidConfig):
            list(_cross_validate_grid(x, labels, [base, other], 3, 0))
    with pytest.raises(InvalidConfig):
        list(_cross_validate_grid(x, labels, [], 3, 0))


def _first_stage_forwards(monkeypatch, rows, inputs):
    """Count calls of ``AutoencoderLayer.forward`` on ``rows`` rows by stages
    that take ``inputs`` columns."""
    from hhtelm.elm import AutoencoderLayer

    calls = []
    forward = AutoencoderLayer.forward

    def counting(self, x):
        if x.shape[0] == rows and self.beta.shape[1] == inputs:
            calls.append(self.beta.shape[0])
        return forward(self, x)

    monkeypatch.setattr(AutoencoderLayer, "forward", counting)
    return calls


def test_grid_runs_each_kept_stage_once_per_fold_on_the_training_rows(monkeypatch):
    # 30 balanced rows in 3 folds: 20 training rows, 10 held out. A kept
    # first stage hands each later fit its activations, so it runs on the
    # training rows k * |W| times; a fit per configuration would be k * |W|**2.
    x, labels = blob_features(15, seed=5)
    widths, k = (3, 25, 8), 3
    training = _first_stage_forwards(monkeypatch, 20, x.shape[1])
    held_out = _first_stage_forwards(monkeypatch, 10, x.shape[1])
    configs = [TrainConfig(layer_sizes=sizes, kernel=HESS, seed=4)
               for sizes in itertools.product(widths, repeat=2)]
    pairs = list(_cross_validate_grid(x, labels, configs, k, 8))
    assert sorted(training) == sorted(widths * k)
    assert len(held_out) == k * len(widths) ** 2  # held-out rows are not cached
    for config, report in pairs[:: len(widths) + 1]:
        assert report.to_dict() == cross_validate(x, labels, config, k=k, seed=8).to_dict()


def test_single_configuration_cross_validate_caches_nothing(monkeypatch):
    from hhtelm import evaluation

    starts = []

    def recording(x, labels, config, **private):
        model = deep_elm_train(x, labels, config, **private)
        starts.append(private["_start"])
        return model

    monkeypatch.setattr(evaluation, "deep_elm_train", recording)
    x, labels = blob_features(15, seed=5)
    training = _first_stage_forwards(monkeypatch, 20, x.shape[1])
    cross_validate(x, labels, TrainConfig(layer_sizes=(25, 8, 3), kernel=HESS, seed=4), k=3, seed=8)
    assert len(starts) == 3
    assert all(start.keep == 0 and start.kept == [] for start in starts)
    assert training == [25] * 3


def test_grid_walk_to_a_new_first_width_frees_the_old_activations(monkeypatch):
    import weakref

    from hhtelm import evaluation

    held = []  # (first width, weak reference to kept activations)
    checked = []

    def recording(x, labels, config, **private):
        first = config.layer_sizes[0]
        alive = [width for width, ref in held if width != first and ref() is not None]
        checked.append((first, alive))
        model = deep_elm_train(x, labels, config, **private)
        held.extend((first, weakref.ref(rows)) for _, rows in private["_start"].kept)
        return model

    monkeypatch.setattr(evaluation, "deep_elm_train", recording)
    x, labels = blob_features(15, seed=5)
    configs = [TrainConfig(layer_sizes=sizes, kernel=HESS, seed=4) for sizes in GRIDS["depth3"]]
    for _ in _cross_validate_grid(x, labels, configs, 3, 8):
        pass
    assert {first for first, _ in checked} == {4, 25}
    assert held  # activations were kept, and
    assert all(alive == [] for _, alive in checked)  # none of another first width outlived it
    assert all(ref() is None for _, ref in held)  # nor the walk
