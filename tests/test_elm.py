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
    elm_ae_train,
    elm_train,
    load_model,
    lowpass_filter,
    one_hot,
    save_model,
    synth_scp,
    trial_feature_vector,
)
from hhtelm.elm import activate
from hhtelm.errors import (
    DegenerateLabels,
    FormatError,
    InvalidConfig,
    InvalidLabel,
    ShapeMismatch,
)


@pytest.fixture(scope="module")
def separable_features():
    """Small synthetic trial set pushed through the feature pipeline once."""
    cfg = SynthConfig(n_per_class=60, seed=1)
    rows, labels = [], []
    for trial in synth_scp(cfg).trials:
        filtered = lowpass_filter(trial.signal(), FilterSpec())
        rows.append(trial_feature_vector(filtered).values)
        labels.append(trial.label)
    return np.vstack(rows), np.array(labels)


HESS = SolverKind("hessenberg", ridge=1e-3)


# ---------------------------------------------------------------------------
# activation


def test_activate_sigmoid_bounds_and_midpoint():
    z = activate(np.array([-1000.0, 0.0, 1000.0]), "sigmoid")
    assert z[0] >= 0.0 and z[2] <= 1.0
    assert abs(z[1] - 0.5) < 1e-15
    assert np.all(np.isfinite(activate(np.array([1e300, -1e300]), "sigmoid")))


def test_activate_linear_identity():
    x = np.array([-3.0, 0.0, 7.5])
    np.testing.assert_array_equal(activate(x, "linear"), x)


def test_activate_unknown_name():
    with pytest.raises(InvalidConfig):
        activate(np.zeros(3), "tanh")


# ---------------------------------------------------------------------------
# elm_train


def test_elm_interpolation_regime():
    # hidden units = samples, no ridge: training error collapses to zero
    rng = np.random.default_rng(0)
    x = rng.standard_normal((50, 20))
    t = rng.standard_normal((50, 2))
    layer, beta = elm_train(x, t, hidden=50, kernel=SolverKind("svd", ridge=0.0), seed=3)
    h = layer.hidden(x)
    mse = float(np.mean((h @ beta - t) ** 2))
    assert mse <= 1e-6, mse


def test_elm_single_sample():
    x = np.array([[0.3]])
    t = np.array([[2.0]])
    layer, beta = elm_train(x, t, hidden=1, kernel=SolverKind("svd", ridge=0.0), seed=0)
    h = layer.hidden(x)
    assert h.shape == (1, 1)
    np.testing.assert_allclose(h @ beta, t, atol=1e-9)


def test_elm_xor():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    labels = np.array(["negativity", "positivity", "positivity", "negativity"])
    t = one_hot(labels)
    layer, beta = elm_train(x, t, hidden=10, kernel=SolverKind("svd", ridge=0.0), seed=5)
    scores = layer.hidden(x) @ beta
    predicted = np.where(np.argmax(scores, axis=1) == 0, "negativity", "positivity")
    assert list(predicted) == list(labels)


def test_elm_deterministic():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((20, 5))
    t = rng.standard_normal((20, 2))
    la, ba = elm_train(x, t, hidden=8, kernel=HESS, seed=11)
    lb, bb = elm_train(x, t, hidden=8, kernel=HESS, seed=11)
    np.testing.assert_array_equal(ba, bb)
    np.testing.assert_array_equal(la.input_weights, lb.input_weights)
    np.testing.assert_array_equal(la.biases, lb.biases)


def test_elm_layer_geometry():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((12, 4))
    t = rng.standard_normal((12, 2))
    # more hidden units than inputs: the 4x6 weight matrix can only have
    # orthonormal rows
    layer, beta = elm_train(x, t, hidden=6, kernel=HESS, seed=1)
    assert layer.input_weights.shape == (4, 6)
    assert layer.biases.shape == (6,)
    assert abs(np.linalg.norm(layer.biases) - 1.0) < 1e-12
    w = layer.input_weights
    np.testing.assert_allclose(w @ w.T, np.eye(4), atol=1e-10)
    assert beta.shape == (6, 2)
    # fewer hidden units than inputs: columns are orthonormal
    narrow, _ = elm_train(x, t, hidden=3, kernel=HESS, seed=1)
    np.testing.assert_allclose(
        narrow.input_weights.T @ narrow.input_weights, np.eye(3), atol=1e-10
    )


def test_elm_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        elm_train(np.zeros((4, 2)), np.zeros((5, 1)), hidden=3, kernel=HESS, seed=0)


# ---------------------------------------------------------------------------
# elm_ae_train


def test_ae_exact_reconstruction_square_case():
    rng = np.random.default_rng(13)
    n = 12
    x = rng.standard_normal((n, n))
    layer = elm_ae_train(x, hidden=n, kernel=SolverKind("svd", ridge=0.0), seed=2)
    # rebuild H the way training does, then check H beta == x
    from hhtelm.solvers import random_orthogonal

    rng2 = np.random.default_rng(2)
    w = random_orthogonal(n, n, rng2)
    b = rng2.standard_normal(n)
    b /= np.linalg.norm(b)
    h = activate(x @ w + b, "sigmoid")
    rel = np.linalg.norm(h @ layer.beta - x) / np.linalg.norm(x)
    assert rel <= 1e-6, rel


def test_ae_deterministic():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((30, 8))
    a = elm_ae_train(x, hidden=5, kernel=HESS, seed=21)
    b = elm_ae_train(x, hidden=5, kernel=HESS, seed=21)
    np.testing.assert_array_equal(a.beta, b.beta)


def test_ae_ridge_shrinkage_hurts_reconstruction():
    rng = np.random.default_rng(19)
    x = rng.standard_normal((100, 20))

    def recon_error(lam):
        layer = elm_ae_train(x, hidden=40, kernel=SolverKind("svd", ridge=lam), seed=4)
        rng2 = np.random.default_rng(4)
        from hhtelm.solvers import random_orthogonal

        w = random_orthogonal(20, 40, rng2)
        b = rng2.standard_normal(40)
        b /= np.linalg.norm(b)
        h = activate(x @ w + b, "sigmoid")
        return np.linalg.norm(h @ layer.beta - x)

    assert recon_error(1e-3) < recon_error(10.0)


def test_ae_forward_width():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((15, 6))
    layer = elm_ae_train(x, hidden=3, kernel=HESS, seed=0)
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


# ---------------------------------------------------------------------------
# one_hot


def test_one_hot_layout():
    t = one_hot(np.array(["negativity", "positivity", "negativity"]))
    np.testing.assert_array_equal(t, np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))


def test_one_hot_rejects_unknown():
    with pytest.raises(InvalidLabel):
        one_hot(np.array(["negativity", "unknown"]))


# ---------------------------------------------------------------------------
# serialization


def test_model_round_trip(tmp_path, separable_features):
    feats, labels = separable_features
    config = TrainConfig(layer_sizes=(12, 7), kernel=HESS, seed=2)
    model = deep_elm_train(feats, labels, config)
    path = tmp_path / "model.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    p1, s1 = deep_elm_predict(model, feats)
    p2, s2 = deep_elm_predict(loaded, feats)
    np.testing.assert_array_equal(p1, p2)
    np.testing.assert_array_equal(s1, s2)  # bit-exact, not merely close
    assert loaded.kernel == model.kernel
    assert loaded.class_names == model.class_names


def test_model_file_is_self_describing(tmp_path, separable_features):
    import json

    feats, labels = separable_features
    model = deep_elm_train(
        feats, labels, TrainConfig(layer_sizes=(5,), kernel=HESS, seed=0)
    )
    path = tmp_path / "model.json"
    save_model(model, str(path))
    doc = json.loads(path.read_text())
    assert doc["format"] == "deep-elm-model"
    assert "readout" in doc and "normalization" in doc


# ---------------------------------------------------------------------------
# model file validation


@pytest.fixture()
def model_doc(tmp_path):
    """A saved three-stage model as a JSON document, and a helper that
    writes an edited copy and loads it back."""
    import json

    rng = np.random.default_rng(5)
    x = rng.standard_normal((30, 4))
    labels = np.array(["negativity", "positivity"] * 15)
    x[labels == "positivity"] += 2.0
    model = deep_elm_train(x, labels, TrainConfig(layer_sizes=(6, 5), kernel=HESS, seed=1))
    path = tmp_path / "model.json"
    save_model(model, str(path))
    doc = json.loads(path.read_text())

    def load_edited(edit):
        edited = json.loads(json.dumps(doc))
        edit(edited)
        path.write_text(json.dumps(edited))
        return load_model(str(path))

    return doc, load_edited


def test_load_model_rejects_other_format_marker(model_doc):
    _, load_edited = model_doc
    with pytest.raises(InvalidConfig, match="not a deep-elm-model file"):
        load_edited(lambda d: d.update(format="other"))


def test_load_model_rejects_other_version(model_doc):
    _, load_edited = model_doc
    with pytest.raises(FormatError, match="version 99"):
        load_edited(lambda d: d.update(version=99))


def test_load_model_rejects_missing_keys(model_doc):
    _, load_edited = model_doc
    with pytest.raises(FormatError, match="readout"):
        load_edited(lambda d: d.pop("readout"))
    with pytest.raises(FormatError, match="beta"):
        load_edited(lambda d: d["layers"][0].pop("beta"))


def test_load_model_rejects_broken_shape_chain(model_doc):
    doc, load_edited = model_doc
    with pytest.raises(FormatError, match="normalization"):
        load_edited(lambda d: d["normalization"]["std"].pop())
    with pytest.raises(FormatError, match="layer 2 beta"):
        load_edited(lambda d: d["layers"][1].update(beta=doc["layers"][0]["beta"]))
    with pytest.raises(FormatError, match="readout"):
        load_edited(lambda d: d.update(readout=[row[:1] for row in doc["readout"]]))


def test_load_model_rejects_other_class_names(model_doc):
    _, load_edited = model_doc
    with pytest.raises(FormatError, match="class names"):
        load_edited(lambda d: d.update(class_names=["negativity", "positivity", "rest"]))


def test_load_model_rejects_non_finite_weights(model_doc):
    _, load_edited = model_doc
    with pytest.raises(FormatError, match="finite"):
        load_edited(lambda d: d["layers"][0]["beta"][0].__setitem__(0, float("nan")))
