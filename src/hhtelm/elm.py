"""Extreme learning machines: random-projection layers solved in closed form.

A single layer maps inputs through fixed seeded weights and an activation,
then solves for output weights with one of the pluggable kernels from
``solvers``. Autoencoder layers reuse the same solve with the input as its
own target; stacking them and adding a ridge readout to one-hot targets
gives the deep classifier.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataio import CLASS_NAMES, atomic_write_text
from .errors import (
    DegenerateLabels,
    FormatError,
    InvalidConfig,
    InvalidLabel,
    InvalidMatrix,
    ShapeMismatch,
)
from .solvers import SolverKind, random_orthogonal, solve_output_weights

ACTIVATION_SIGMOID = "sigmoid"
ACTIVATION_LINEAR = "linear"
ACTIVATIONS = (ACTIVATION_SIGMOID, ACTIVATION_LINEAR)

_MODEL_FORMAT = "deep-elm-model"
_MODEL_VERSION = 1


def activate(z, activation):
    """Apply a named activation elementwise."""
    if activation == ACTIVATION_SIGMOID:
        return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))
    if activation == ACTIVATION_LINEAR:
        return z
    raise InvalidConfig(f"unknown activation {activation!r}")


@dataclass(frozen=True)
class ElmLayer:
    """The fixed random part of a single ELM: weights, biases, activation."""

    input_weights: np.ndarray
    biases: np.ndarray
    activation: str

    def hidden(self, x):
        """Hidden activations for input rows x."""
        return activate(x @ self.input_weights + self.biases, self.activation)


@dataclass(frozen=True)
class AutoencoderLayer:
    """A trained autoencoder stage; forward map is x -> g(x @ beta.T)."""

    beta: np.ndarray
    activation: str

    def forward(self, x):
        return activate(x @ self.beta.T, self.activation)


@dataclass(frozen=True)
class TrainConfig:
    """Deep model recipe: stacked layer widths, solver kernel, seed."""

    layer_sizes: tuple
    kernel: SolverKind
    seed: int = 0
    activation: str = ACTIVATION_SIGMOID

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        if not 1 <= len(sizes) <= 8:
            raise InvalidConfig("layer_sizes must contain 1 to 8 widths")
        if any(s < 1 for s in sizes):
            raise InvalidConfig("every layer width must be >= 1")
        if not isinstance(self.kernel, SolverKind):
            raise InvalidConfig("kernel must be a SolverKind")
        if self.activation not in ACTIVATIONS:
            raise InvalidConfig(f"unknown activation {self.activation!r}")
        object.__setattr__(self, "layer_sizes", sizes)


@dataclass
class DeepElmModel:
    """Stacked autoencoder representations plus a ridge readout.

    ``feature_std`` stores the z-scoring scale with zero-variance columns
    already replaced by 1, so prediction never divides by zero.
    """

    feature_mean: np.ndarray
    feature_std: np.ndarray
    ae_layers: list
    readout: np.ndarray
    kernel: SolverKind
    seed: int
    class_names: tuple
    activation: str


def _check_data(x, name="x"):
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeMismatch(f"{name} must be 2-D with at least one row and column")
    if not np.all(np.isfinite(arr)):
        raise InvalidMatrix(f"{name} contains non-finite entries")
    return arr


def _unit_bias(rng, hidden):
    b = rng.standard_normal(hidden)
    norm = np.linalg.norm(b)
    return b / norm if norm > 0.0 else b


def elm_train(x, t, hidden, kernel, seed, activation=ACTIVATION_SIGMOID):
    """Train a single ELM on targets t.

    Input weights are seeded orthogonalized Gaussians and the bias vector
    is seeded unit-norm Gaussian; only the output weights are learned.

    Returns
    -------
    (ElmLayer, ndarray)
        The fixed random layer and the solved output weights beta, so a
        prediction is ``layer.hidden(x) @ beta``.
    """
    x = _check_data(x)
    t = _check_data(t, "t")
    if x.shape[0] != t.shape[0]:
        raise ShapeMismatch(f"x has {x.shape[0]} rows but t has {t.shape[0]}")
    if hidden < 1:
        raise InvalidConfig("hidden must be >= 1")
    rng = np.random.default_rng(seed)
    layer = ElmLayer(
        input_weights=random_orthogonal(x.shape[1], int(hidden), rng),
        biases=_unit_bias(rng, int(hidden)),
        activation=activation,
    )
    beta = solve_output_weights(layer.hidden(x), t, kernel)
    return layer, beta


def elm_ae_train(x, hidden, kernel, seed, activation=ACTIVATION_SIGMOID):
    """Train one autoencoder stage (the input is its own target)."""
    x = _check_data(x)
    _, beta = elm_train(x, x, hidden, kernel, seed, activation)
    return AutoencoderLayer(beta=beta, activation=activation)


def one_hot(labels, class_names=CLASS_NAMES):
    """0/1 target matrix with one column per class, column order fixed."""
    labels = np.asarray(labels)
    targets = np.zeros((labels.size, len(class_names)))
    for column, name in enumerate(class_names):
        targets[labels == name, column] = 1.0
    if int(targets.sum()) != labels.size:
        unknown = sorted(set(labels.tolist()) - set(class_names))
        raise InvalidLabel(f"unknown labels {unknown}")
    return targets


def deep_elm_train(x, labels, config):
    """Train the stacked autoencoder classifier.

    Parameters
    ----------
    x : ndarray, shape (n, d)
        Feature rows.
    labels : sequence of str
        One class name per row; both classes must be present, with at
        least two rows each.
    config : TrainConfig

    Returns
    -------
    DeepElmModel

    Features are z-scored with statistics from this training set only;
    each autoencoder stage is solved with the configured kernel and the
    readout is a direct ridge solve to the one-hot targets.
    """
    x = _check_data(x)
    if not isinstance(config, TrainConfig):
        raise InvalidConfig("config must be a TrainConfig")
    labels = np.asarray(labels)
    if labels.size != x.shape[0]:
        raise ShapeMismatch("labels and rows of x must align")
    targets = one_hot(labels, CLASS_NAMES)
    counts = targets.sum(axis=0)
    if np.any(counts == 0):
        missing = [name for name, c in zip(CLASS_NAMES, counts) if c == 0]
        raise DegenerateLabels(f"missing class(es) {missing} in the training set")
    if np.any(counts < 2):
        small = [name for name, c in zip(CLASS_NAMES, counts) if c < 2]
        raise DegenerateLabels(f"class(es) {small} need at least 2 samples")
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std == 0.0] = 1.0
    r = (x - mean) / std
    rng = np.random.default_rng(config.seed)
    ae_layers = []
    for width in config.layer_sizes:
        layer = elm_ae_train(r, width, config.kernel, rng, config.activation)
        ae_layers.append(layer)
        r = layer.forward(r)
    readout = solve_output_weights(r, targets, config.kernel)
    return DeepElmModel(
        feature_mean=mean,
        feature_std=std,
        ae_layers=ae_layers,
        readout=readout,
        kernel=config.kernel,
        seed=config.seed,
        class_names=CLASS_NAMES,
        activation=config.activation,
    )


def deep_elm_predict(model, x):
    """Predicted labels and raw class scores for feature rows x.

    Ties in the score row go to the first class in ``model.class_names``.
    """
    x = _check_data(x)
    if x.shape[1] != model.feature_mean.size:
        raise ShapeMismatch(
            f"x has {x.shape[1]} features, model expects {model.feature_mean.size}"
        )
    r = (x - model.feature_mean) / model.feature_std
    for layer in model.ae_layers:
        r = layer.forward(r)
    scores = r @ model.readout
    picks = np.argmax(scores, axis=1)
    labels = np.asarray(model.class_names)[picks]
    return labels, scores


def save_model(model, path):
    """Serialize a model to self-describing JSON; loads back bit-exact."""
    payload = {
        "format": _MODEL_FORMAT,
        "version": _MODEL_VERSION,
        "seed": int(model.seed),
        "kernel": {"variant": model.kernel.variant, "ridge": model.kernel.ridge},
        "activation": model.activation,
        "class_names": list(model.class_names),
        "normalization": {
            "mean": model.feature_mean.tolist(),
            "std": model.feature_std.tolist(),
        },
        "layers": [{"beta": layer.beta.tolist()} for layer in model.ae_layers],
        "readout": model.readout.tolist(),
    }
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_model(path):
    """Inverse of save_model.

    Raises InvalidConfig for a file that is not a model file, and
    FormatError for one of another version, with a missing key, with
    weights whose shapes do not chain from the feature width to one
    readout column per class, with other class names, or with non-finite
    numbers.
    """
    with open(path, "r") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or payload.get("format") != _MODEL_FORMAT:
        raise InvalidConfig(f"{path}: not a {_MODEL_FORMAT} file")
    if payload.get("version") != _MODEL_VERSION:
        raise FormatError(f"{path}: unsupported model version {payload.get('version')!r}")
    try:
        kernel = SolverKind(
            variant=payload["kernel"]["variant"], ridge=payload["kernel"]["ridge"]
        )
        mean = np.array(payload["normalization"]["mean"], dtype=float)
        std = np.array(payload["normalization"]["std"], dtype=float)
        betas = [np.array(entry["beta"], dtype=float) for entry in payload["layers"]]
        readout = np.array(payload["readout"], dtype=float)
        class_names = tuple(payload["class_names"])
        seed = int(payload["seed"])
        activation = payload["activation"]
    except KeyError as exc:
        raise FormatError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed model entry: {exc}") from exc
    if class_names != CLASS_NAMES:
        raise FormatError(f"{path}: class names {list(class_names)}, expected {list(CLASS_NAMES)}")
    if mean.ndim != 1 or mean.size < 1 or std.shape != mean.shape:
        raise FormatError(f"{path}: normalization mean and std must be 1-D of one width")
    width = mean.size
    for number, beta in enumerate(betas, start=1):
        if beta.ndim != 2 or beta.shape[1] != width:
            raise FormatError(
                f"{path}: layer {number} beta has shape {beta.shape}, expected (*, {width})"
            )
        width = beta.shape[0]
    if readout.shape != (width, len(CLASS_NAMES)):
        raise FormatError(
            f"{path}: readout has shape {readout.shape}, expected {(width, len(CLASS_NAMES))}"
        )
    if not all(np.all(np.isfinite(a)) for a in (mean, std, readout, *betas)):
        raise FormatError(f"{path}: model weights must be finite")
    return DeepElmModel(
        feature_mean=mean,
        feature_std=std,
        ae_layers=[AutoencoderLayer(beta=beta, activation=activation) for beta in betas],
        readout=readout,
        kernel=kernel,
        seed=seed,
        class_names=class_names,
        activation=activation,
    )
