"""Extreme learning machines: random-projection layers solved in closed form.

A single layer maps inputs through fixed seeded weights and a sigmoid,
then solves for output weights with one of the pluggable kernels from
``solvers``. Autoencoder layers reuse the same solve with the input as its
own target; stacking them and adding a ridge readout to one-hot targets
gives the deep classifier. A trained ``DeepElmModel`` lives in memory
only; no command saves one.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .dataio import CLASS_NAMES, _check_int
from .errors import (
    DegenerateLabels,
    InvalidConfig,
    InvalidLabel,
    ShapeMismatch,
)
from .solvers import (
    SolverKind,
    _check_matrix,
    _generator,
    random_orthogonal,
    solve_output_weights,
)

# The hidden activation of every layer; the CV report echoes it by this name.
ACTIVATION = "sigmoid"


def sigmoid(z):
    """Logistic sigmoid elementwise, clipped so exp never overflows.

    Computed in place on the clipped copy of ``z``, the one array it allocates.
    """
    s = np.clip(z, -500.0, 500.0, out=np.empty(np.shape(z)))
    np.negative(s, out=s)
    np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


@dataclass(frozen=True)
class ElmLayer:
    """The fixed random part of a single ELM: input weights and biases."""

    input_weights: np.ndarray
    biases: np.ndarray

    def hidden(self, x):
        """Hidden activations for input rows x."""
        return sigmoid(x @ self.input_weights + self.biases)


@dataclass(frozen=True)
class AutoencoderLayer:
    """A trained autoencoder stage; forward map is x -> sigmoid(x @ beta.T)."""

    beta: np.ndarray

    def forward(self, x):
        return sigmoid(x @ self.beta.T)


@dataclass(frozen=True)
class TrainConfig:
    """Deep model recipe: stacked layer widths, solver kernel, seed."""

    layer_sizes: tuple
    kernel: SolverKind
    seed: int = 0
    activation: ClassVar[str] = ACTIVATION

    def __post_init__(self):
        try:
            widths = tuple(self.layer_sizes)
        except TypeError:
            raise InvalidConfig(
                f"layer_sizes must be a sequence of widths, got {self.layer_sizes!r}"
            ) from None
        sizes = tuple(_check_int(s, "every layer width", 1) for s in widths)
        if not 1 <= len(sizes) <= 8:
            raise InvalidConfig("layer_sizes must contain 1 to 8 widths")
        if not isinstance(self.kernel, SolverKind):
            raise InvalidConfig("kernel must be a SolverKind")
        object.__setattr__(self, "layer_sizes", sizes)
        object.__setattr__(self, "seed", _check_int(self.seed, "seed", 0))


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


def _unit_bias(rng, hidden):
    b = rng.standard_normal(hidden)
    norm = np.linalg.norm(b)
    return b / norm if norm > 0.0 else b


def draw_layers(inputs, widths, seed):
    """The fixed random layers of a stack of ELMs, drawn from one stream.

    Layer i maps ``widths[i - 1]`` inputs (``inputs`` for the first) to
    ``widths[i]`` hidden units. Its input weights are seeded orthogonalized
    Gaussians and its biases a seeded unit-norm Gaussian, drawn in layer
    order from ``np.random.default_rng(seed)``. They depend on nothing but
    ``inputs``, ``widths`` and ``seed``, so every fit with those shares them.
    """
    rng = _generator(seed)
    try:
        widths = tuple(widths)
    except TypeError:
        raise InvalidConfig(f"widths must be a sequence of widths, got {widths!r}") from None
    layers = []
    for hidden in widths:
        layers.append(
            ElmLayer(
                input_weights=random_orthogonal(inputs, hidden, rng),
                biases=_unit_bias(rng, hidden),
            )
        )
        inputs = hidden
    return layers


def elm_train(x, t, layer, kernel):
    """Output weights beta of a single ELM on targets t.

    Only beta is learned; ``layer`` (an ``ElmLayer`` from ``draw_layers``)
    stays fixed, so a prediction is ``layer.hidden(x) @ beta``.
    """
    x = _check_matrix(x, "x")
    if not isinstance(layer, ElmLayer):
        raise InvalidConfig("layer must be an ElmLayer")
    if layer.input_weights.shape[0] != x.shape[1]:
        raise ShapeMismatch(
            f"x has {x.shape[1]} columns but the layer takes {layer.input_weights.shape[0]}"
        )
    return solve_output_weights(layer.hidden(x), t, kernel)


def elm_ae_train(x, layer, kernel):
    """Train one autoencoder stage on ``layer`` (the input is its own target)."""
    return AutoencoderLayer(beta=elm_train(x, x, layer, kernel))


def one_hot(labels):
    """0/1 target matrix with one column per class of ``CLASS_NAMES``, in that order."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeMismatch(f"labels must be 1-D, got shape {labels.shape}")
    targets = np.zeros((labels.size, len(CLASS_NAMES)))
    for column, name in enumerate(CLASS_NAMES):
        targets[labels == name, column] = 1.0
    if int(targets.sum()) != labels.size:
        unknown = sorted(set(labels.tolist()) - set(CLASS_NAMES))
        raise InvalidLabel(f"unknown labels {unknown}")
    return targets


@dataclass
class _FitStart:
    """What ``deep_elm_train`` derives from its training rows before it fits
    a stage: the one-hot targets and the z-score statistics, then where the
    fit resumes. ``kept`` holds one ``(stage, rows)`` pair per leading stage
    already fitted on these rows, ``rows`` being their activations after
    it, and ``layers`` the random layers of the stages still to fit. A fit
    appends the pair of each stage it fits while ``kept`` holds fewer than
    ``keep``, so a caller that fits the same rows again can resume there.
    """

    targets: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    layers: list = field(default_factory=list)
    kept: list = field(default_factory=list)
    keep: int = 0


def _fit_start(x, labels):
    """The ``_FitStart`` of training rows x, refusing labels that cannot train."""
    labels = np.asarray(labels)
    if labels.size != x.shape[0]:
        raise ShapeMismatch("labels and rows of x must align")
    targets = one_hot(labels)
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
    return _FitStart(targets, mean, std)


def _zscore(x, mean, std):
    r = x - mean
    r /= std
    return r


def deep_elm_train(x, labels, config, *, _start=None):
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

    The random layers are ``draw_layers(d, config.layer_sizes,
    config.seed)``. Features are z-scored with statistics from this
    training set only; each autoencoder stage is solved with the configured
    kernel and the readout is a direct ridge solve to the one-hot targets.
    The cross-validation grid passes ``_start``, the ``_FitStart`` it keeps
    for these rows, so that a fit resumes after the stages kept in it.
    """
    x = _check_matrix(x, "x")
    if not isinstance(config, TrainConfig):
        raise InvalidConfig("config must be a TrainConfig")
    if _start is None:
        _start = _fit_start(x, labels)
        _start.layers = draw_layers(x.shape[1], config.layer_sizes, config.seed)
    kept = _start.kept
    r = kept[-1][1] if kept else _zscore(x, _start.mean, _start.std)
    ae_layers = [stage for stage, _ in kept]
    for layer in _start.layers:
        stage = elm_ae_train(r, layer, config.kernel)
        ae_layers.append(stage)
        r = stage.forward(r)
        if len(kept) < _start.keep:
            kept.append((stage, r))
    readout = solve_output_weights(r, _start.targets, config.kernel)
    return DeepElmModel(
        feature_mean=_start.mean,
        feature_std=_start.std,
        ae_layers=ae_layers,
        readout=readout,
    )


def deep_elm_predict(model, x):
    """Predicted labels and raw class scores for feature rows x.

    Ties in the score row go to the first class in ``CLASS_NAMES``.
    """
    if not isinstance(model, DeepElmModel):
        raise InvalidConfig(f"model must be a DeepElmModel, got {type(model).__name__}")
    x = _check_matrix(x, "x")
    if x.shape[1] != model.feature_mean.size:
        raise ShapeMismatch(
            f"x has {x.shape[1]} features, model expects {model.feature_mean.size}"
        )
    r = _zscore(x, model.feature_mean, model.feature_std)
    for layer in model.ae_layers:
        r = layer.forward(r)
    scores = r @ model.readout
    picks = np.argmax(scores, axis=1)
    labels = np.asarray(CLASS_NAMES)[picks]
    return labels, scores
