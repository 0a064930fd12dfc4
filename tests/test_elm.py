"""Tests for the single-layer machine, the autoencoder, and the deep stack."""
import numpy as np
import pytest

from hhtelm import (
    FilterSpec,
    SolverKind,
    SynthConfig,
    TrainConfig,
    deep_elm_predict,
    deep_elm_train,
    draw_layers,
    elm_train,
    lowpass_filter,
    synth_scp,
    trial_feature_vector,
)
from hhtelm import elm as elm_module
from hhtelm import solvers
from hhtelm.elm import elm_ae_train, sigmoid
from hhtelm.errors import (
    DegenerateLabels,
    InvalidConfig,
    InvalidLabel,
    InvalidMatrix,
    ShapeMismatch,
)


@pytest.fixture(scope="module")
def separable_features():
    """Small synthetic trial set pushed through the feature pipeline once."""
    cfg = SynthConfig(n_per_class=60, seed=1)
    rows, labels = [], []
    for trial in synth_scp(cfg):
        filtered = lowpass_filter(trial.samples, trial.fs, FilterSpec())
        rows.append(trial_feature_vector(filtered))
        labels.append(trial.label)
    return np.vstack(rows), np.array(labels)


HESS = SolverKind("hessenberg", ridge=1e-3)


def drawn(inputs, hidden, seed):
    """The one random layer of a single ELM."""
    (layer,) = draw_layers(inputs, (hidden,), seed)
    return layer


# ---------------------------------------------------------------------------
# activation


def test_sigmoid_bounds_and_midpoint():
    z = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
    assert z[0] >= 0.0 and z[2] <= 1.0
    assert abs(z[1] - 0.5) < 1e-15
    assert np.all(np.isfinite(sigmoid(np.array([1e300, -1e300]))))


# ---------------------------------------------------------------------------
# elm_train


def test_elm_interpolation_regime():
    # hidden units = samples, no ridge: training error collapses to zero
    rng = np.random.default_rng(0)
    x = rng.standard_normal((50, 20))
    t = rng.standard_normal((50, 2))
    layer = drawn(20, 50, seed=3)
    beta = elm_train(x, t, layer, SolverKind("svd", ridge=0.0))
    h = layer.hidden(x)
    mse = float(np.mean((h @ beta - t) ** 2))
    assert mse <= 1e-6, mse


def test_elm_single_sample():
    x = np.array([[0.3]])
    t = np.array([[2.0]])
    layer = drawn(1, 1, seed=0)
    beta = elm_train(x, t, layer, SolverKind("svd", ridge=0.0))
    h = layer.hidden(x)
    assert h.shape == (1, 1)
    np.testing.assert_allclose(h @ beta, t, atol=1e-9)


def test_elm_xor():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    labels = np.array(["negativity", "positivity", "positivity", "negativity"])
    t = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    layer = drawn(2, 10, seed=5)
    beta = elm_train(x, t, layer, SolverKind("svd", ridge=0.0))
    scores = layer.hidden(x) @ beta
    predicted = np.where(np.argmax(scores, axis=1) == 0, "negativity", "positivity")
    assert list(predicted) == list(labels)


def test_elm_deterministic():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((20, 5))
    t = rng.standard_normal((20, 2))
    la, lb = drawn(5, 8, seed=11), drawn(5, 8, seed=11)
    ba, bb = elm_train(x, t, la, HESS), elm_train(x, t, lb, HESS)
    np.testing.assert_array_equal(ba, bb)
    np.testing.assert_array_equal(la.input_weights, lb.input_weights)
    np.testing.assert_array_equal(la.biases, lb.biases)


def test_elm_layer_geometry():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((12, 4))
    t = rng.standard_normal((12, 2))
    # more hidden units than inputs: the 4x6 weight matrix can only have
    # orthonormal rows
    layer = drawn(4, 6, seed=1)
    beta = elm_train(x, t, layer, HESS)
    assert layer.input_weights.shape == (4, 6)
    assert layer.biases.shape == (6,)
    assert abs(np.linalg.norm(layer.biases) - 1.0) < 1e-12
    w = layer.input_weights
    np.testing.assert_allclose(w @ w.T, np.eye(4), atol=1e-10)
    assert beta.shape == (6, 2)
    # fewer hidden units than inputs: columns are orthonormal
    narrow = drawn(4, 3, seed=1)
    np.testing.assert_allclose(
        narrow.input_weights.T @ narrow.input_weights, np.eye(3), atol=1e-10
    )


def test_elm_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        elm_train(np.zeros((4, 2)), np.zeros((5, 1)), drawn(2, 3, seed=0), HESS)
    with pytest.raises(ShapeMismatch):
        elm_train(np.zeros((4, 2)), np.zeros((4, 1)), drawn(3, 3, seed=0), HESS)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_elm_rejects_non_finite_inputs_and_targets(bad):
    layer = drawn(2, 3, seed=0)
    spoiled = np.ones((4, 2))
    spoiled[1, 0] = bad
    with pytest.raises(InvalidMatrix, match="x contains non-finite"):
        elm_train(spoiled, np.ones((4, 1)), layer, HESS)
    with pytest.raises(InvalidMatrix, match="t contains non-finite"):
        elm_train(np.ones((4, 2)), spoiled, layer, HESS)


# ---------------------------------------------------------------------------
# elm_ae_train


def test_ae_exact_reconstruction_square_case():
    rng = np.random.default_rng(13)
    n = 12
    x = rng.standard_normal((n, n))
    layer = elm_ae_train(x, drawn(n, n, seed=2), SolverKind("svd", ridge=0.0))
    # rebuild H the way training does, then check H beta == x
    from hhtelm.solvers import random_orthogonal

    rng2 = np.random.default_rng(2)
    w = random_orthogonal(n, n, rng2)
    b = rng2.standard_normal(n)
    b /= np.linalg.norm(b)
    h = sigmoid(x @ w + b)
    rel = np.linalg.norm(h @ layer.beta - x) / np.linalg.norm(x)
    assert rel <= 1e-6, rel


def test_ae_fit_checks_its_input_once_and_the_solve_once(monkeypatch):
    calls = []
    check = solvers._check_matrix

    def counted(a, name="matrix"):
        calls.append(name)
        return check(a, name)

    monkeypatch.setattr(elm_module, "_check_matrix", counted)
    monkeypatch.setattr(solvers, "_check_matrix", counted)
    # x is checked once, as the targets t; svd with a ridge factors h itself,
    # so no kernel adds a check of its own.
    elm_ae_train(np.ones((4, 2)), drawn(2, 3, seed=0), SolverKind("svd", ridge=1e-3))
    assert calls == ["h", "t"]


def test_ae_deterministic():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((30, 8))
    a = elm_ae_train(x, drawn(8, 5, seed=21), HESS)
    b = elm_ae_train(x, drawn(8, 5, seed=21), HESS)
    np.testing.assert_array_equal(a.beta, b.beta)


def test_ae_ridge_shrinkage_hurts_reconstruction():
    rng = np.random.default_rng(19)
    x = rng.standard_normal((100, 20))

    def recon_error(lam):
        layer = elm_ae_train(x, drawn(20, 40, seed=4), SolverKind("svd", ridge=lam))
        rng2 = np.random.default_rng(4)
        from hhtelm.solvers import random_orthogonal

        w = random_orthogonal(20, 40, rng2)
        b = rng2.standard_normal(40)
        b /= np.linalg.norm(b)
        h = sigmoid(x @ w + b)
        return np.linalg.norm(h @ layer.beta - x)

    assert recon_error(1e-3) < recon_error(10.0)


def test_ae_forward_width():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((15, 6))
    layer = elm_ae_train(x, drawn(6, 3, seed=0), HESS)
    assert layer.beta.shape == (3, 6)
    assert layer.forward(x).shape == (15, 3)
    assert np.all(layer.forward(x) >= 0.0) and np.all(layer.forward(x) <= 1.0)


# ---------------------------------------------------------------------------
# deep_elm_train / deep_elm_predict


def test_deep_shapes_three_layers():
    rng = np.random.default_rng(29)
    x = rng.standard_normal((40, 25))
    labels = np.array(["negativity", "positivity"] * 20)
    config = TrainConfig(layer_sizes=(370, 430, 260), kernel=HESS, seed=0)
    model = deep_elm_train(x, labels, config)
    assert [layer.beta.shape[0] for layer in model.ae_layers] == [370, 430, 260]
    assert model.readout.shape == (260, 2)
    predicted, scores = deep_elm_predict(model, x)
    assert predicted.shape == (40,)
    assert scores.shape == (40, 2)


def test_deep_separable_training_accuracy(separable_features):
    feats, labels = separable_features
    config = TrainConfig(layer_sizes=(40, 30), kernel=HESS, seed=0)
    model = deep_elm_train(feats, labels, config)
    predicted, _ = deep_elm_predict(model, feats)
    accuracy = float(np.mean(predicted == labels)) * 100.0
    assert accuracy >= 99.0, accuracy


def test_deep_empty_layer_list_rejected():
    with pytest.raises(InvalidConfig):
        TrainConfig(layer_sizes=(), kernel=HESS, seed=0)


def test_deep_too_many_layers_rejected():
    with pytest.raises(InvalidConfig):
        TrainConfig(layer_sizes=(4,) * 9, kernel=HESS, seed=0)


@pytest.mark.parametrize(
    "sizes, seed",
    [((4.7,), 0), ((4, 3.0), 0), ((True,), 0), (("4",), 0), (4, 0), (None, 0),
     ((4,), -1), ((4,), True), ((4,), 1.0), ((4,), "1")],
    ids=["float-width", "integral-float-width", "bool-width", "str-width", "int-widths",
         "none-widths", "negative-seed", "bool-seed", "float-seed", "str-seed"],
)
def test_train_config_rejects_non_integer_widths_and_bad_seeds(sizes, seed):
    with pytest.raises(InvalidConfig):
        TrainConfig(layer_sizes=sizes, kernel=HESS, seed=seed)


def test_train_config_takes_numpy_integers_as_ints():
    config = TrainConfig(layer_sizes=(np.int64(4), np.int32(3)), kernel=HESS, seed=np.int64(7))
    assert config.layer_sizes == (4, 3) and config.seed == 7
    assert all(type(value) is int for value in (*config.layer_sizes, config.seed))


def test_deep_single_class_rejected():
    rng = np.random.default_rng(31)
    x = rng.standard_normal((10, 4))
    with pytest.raises(DegenerateLabels):
        deep_elm_train(x, np.array(["negativity"] * 10), TrainConfig(layer_sizes=(4,), kernel=HESS))


def test_deep_unknown_label_rejected():
    rng = np.random.default_rng(37)
    x = rng.standard_normal((4, 3))
    labels = np.array(["negativity", "positivity", "negativity", "artifact"])
    with pytest.raises(InvalidLabel):
        deep_elm_train(x, labels, TrainConfig(layer_sizes=(3,), kernel=HESS))
    with pytest.raises(ShapeMismatch, match="labels must be 1-D"):
        deep_elm_train(x, labels[:, None], TrainConfig(layer_sizes=(3,), kernel=HESS))


def test_deep_deterministic(separable_features):
    feats, labels = separable_features
    config = TrainConfig(layer_sizes=(10, 6), kernel=HESS, seed=9)
    m1 = deep_elm_train(feats, labels, config)
    m2 = deep_elm_train(feats, labels, config)
    p1, s1 = deep_elm_predict(m1, feats)
    p2, s2 = deep_elm_predict(m2, feats)
    np.testing.assert_array_equal(p1, p2)
    np.testing.assert_array_equal(s1, s2)
    np.testing.assert_array_equal(m1.readout, m2.readout)


def test_deep_prediction_stateless_on_duplicates():
    rng = np.random.default_rng(41)
    x = rng.standard_normal((16, 5))
    labels = np.array(["negativity", "positivity"] * 8)
    model = deep_elm_train(x, labels, TrainConfig(layer_sizes=(6,), kernel=HESS, seed=0))
    row = x[3:4]
    stacked = np.vstack([row, row, row])
    predicted, scores = deep_elm_predict(model, stacked)
    assert predicted[0] == predicted[1] == predicted[2]
    np.testing.assert_array_equal(scores[0], scores[1])
    np.testing.assert_array_equal(scores[1], scores[2])


def test_deep_single_sample_prediction():
    rng = np.random.default_rng(43)
    x = rng.standard_normal((10, 4))
    labels = np.array(["negativity", "positivity"] * 5)
    model = deep_elm_train(x, labels, TrainConfig(layer_sizes=(4,), kernel=HESS, seed=0))
    predicted, scores = deep_elm_predict(model, x[:1])
    assert predicted.shape == (1,)
    assert predicted[0] in ("negativity", "positivity")


def test_deep_width_mismatch():
    rng = np.random.default_rng(47)
    x = rng.standard_normal((10, 4))
    labels = np.array(["negativity", "positivity"] * 5)
    model = deep_elm_train(x, labels, TrainConfig(layer_sizes=(4,), kernel=HESS, seed=0))
    with pytest.raises(ShapeMismatch):
        deep_elm_predict(model, np.zeros((2, 5)))


def test_deep_constant_feature_column_is_harmless():
    rng = np.random.default_rng(53)
    x = rng.standard_normal((20, 4))
    x[:, 2] = 7.0  # zero variance column must not divide by zero
    labels = np.array(["negativity", "positivity"] * 10)
    model = deep_elm_train(x, labels, TrainConfig(layer_sizes=(5,), kernel=HESS, seed=1))
    predicted, scores = deep_elm_predict(model, x)
    assert np.all(np.isfinite(scores))


def test_deep_kernel_swap_labels_agree(separable_features):
    feats, labels = separable_features
    base = TrainConfig(layer_sizes=(20, 10), kernel=HESS, seed=6)
    swap = TrainConfig(layer_sizes=(20, 10), kernel=SolverKind("svd", ridge=1e-3), seed=6)
    pa, _ = deep_elm_predict(deep_elm_train(feats, labels, base), feats)
    pb, _ = deep_elm_predict(deep_elm_train(feats, labels, swap), feats)
    agreement = float(np.mean(pa == pb))
    assert agreement >= 0.99, agreement


@pytest.mark.parametrize(
    "inputs, widths, seed",
    [
        (4, (2.5,), 0),
        (4, 5, 0),
        (4, (3, 0), 0),
        (4, (3,), -1),
        (2.5, (3,), 0),
        (True, (3,), 0),
        (0, (3,), 0),
        (4, (3,), 1.5),
        (4, (3,), "a"),
    ],
    ids=[
        "float-width",
        "bare-int-widths",
        "zero-width",
        "negative-seed",
        "float-inputs",
        "bool-inputs",
        "zero-inputs",
        "float-seed",
        "str-seed",
    ],
)
def test_draw_layers_rejects_bad_widths_and_seeds(inputs, widths, seed):
    with pytest.raises(InvalidConfig):
        draw_layers(inputs, widths, seed)


def test_deep_predict_rejects_what_is_not_a_model():
    x = np.ones((3, 4))
    for model in (None, "model", {"feature_mean": np.zeros(4)}):
        with pytest.raises(InvalidConfig, match="DeepElmModel"):
            deep_elm_predict(model, x)
