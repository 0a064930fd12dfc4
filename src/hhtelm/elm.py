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

from .dataio import CLASS_NAMES, _array, _check_int
from .errors import (
    DegenerateLabels,
    InvalidConfig,
    InvalidLabel,
    NumericalFailure,
    ShapeMismatch,
)
from .solvers import SolverKind, _check_matrix, random_orthogonal, solve_output_weights

# The hidden activation of every layer; the CV report echoes it by this name.
ACTIVATION = "sigmoid"

# TrainConfig refuses wider layers, so nothing is drawn for them. Drawing a
# 2048-2048 stack on 132 inputs peaked at 134 MiB of allocations (the QR
# of the 2048 x 2048 draw) and took 1.3 s with one BLAS thread; a 500-500
# stack, the widest of the default sweep grid, peaked at 8.4 MiB.
_MAX_WIDTH = 2048


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
    """Deep model recipe: stacked layer widths, solver kernel, seed.

    One to eight widths, each from 1 to 2048 (``_MAX_WIDTH``)."""

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
        if max(sizes) > _MAX_WIDTH:
            raise InvalidConfig(f"layer width {max(sizes)} is above the cap of {_MAX_WIDTH}")
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
    ``seed`` is an integer >= 0 or a Generator to draw from.
    """
    inputs = _check_int(inputs, "inputs", 1)
    try:
        widths = [_check_int(width, "every layer width", 1) for width in widths]
    except TypeError:
        raise InvalidConfig(f"widths must be a sequence of widths, got {widths!r}") from None
    if not isinstance(seed, np.random.Generator):
        seed = _check_int(seed, "seed", 0)
    rng = np.random.default_rng(seed)
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


def elm_train(x, t, layer, kernel, *, _checked=False):
    """Output weights beta of a single ELM on targets t.

    Only beta is learned; ``layer`` (an ``ElmLayer`` from ``draw_layers``)
    stays fixed, so a prediction is ``layer.hidden(x) @ beta``.
    ``deep_elm_train`` passes ``_checked`` for the finite float rows it
    built, which skips the check of x.
    """
    if not _checked:
        x = _check_matrix(x, "x")
    if not isinstance(layer, ElmLayer):
        raise InvalidConfig("layer must be an ElmLayer")
    if layer.input_weights.shape[0] != x.shape[1]:
        raise ShapeMismatch(
            f"x has {x.shape[1]} columns but the layer takes {layer.input_weights.shape[0]}"
        )
    return solve_output_weights(layer.hidden(x), t, kernel)


def elm_ae_train(x, layer, kernel, *, _checked=False):
    """Train one autoencoder stage on ``layer`` (the input is its own target).

    ``_checked`` is passed on to ``elm_train``."""
    return AutoencoderLayer(beta=elm_train(x, x, layer, kernel, _checked=_checked))


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
    """The ``_FitStart`` of training rows x, refusing labels that cannot train
    and, with NumericalFailure, a column whose mean or spread overflows."""
    labels = _array(labels, "labels")
    if labels.size != x.shape[0]:
        raise ShapeMismatch("labels and rows of x must align")
    if labels.ndim != 1:
        raise ShapeMismatch(f"labels must be 1-D, got shape {labels.shape}")
    targets = np.zeros((labels.size, len(CLASS_NAMES)))
    for column, name in enumerate(CLASS_NAMES):
        targets[labels == name, column] = 1.0
    if int(targets.sum()) != labels.size:
        unknown = sorted(set(labels.tolist()) - set(CLASS_NAMES))
        raise InvalidLabel(f"unknown labels {unknown}")
    counts = targets.sum(axis=0)
    if np.any(counts == 0):
        missing = [name for name, c in zip(CLASS_NAMES, counts) if c == 0]
        raise DegenerateLabels(f"missing class(es) {missing} in the training set")
    if np.any(counts < 2):
        small = [name for name, c in zip(CLASS_NAMES, counts) if c < 2]
        raise DegenerateLabels(f"class(es) {small} need at least 2 samples")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0)
        std = x.std(axis=0)
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
    if bad.size:
        raise NumericalFailure(
            f"feature column {bad[0]} (counting from 0) overflows: "
            "its mean or standard deviation is not finite"
        )
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
    The cross-validation grid, having checked x and config, passes ``_start``,
    its ``_FitStart`` for these rows, so a fit resumes after the stages kept in it;
    it then reads x only when no stage is kept, and labels not at all.
    """
    if _start is None:
        x = _check_matrix(x, "x")
        if not isinstance(config, TrainConfig):
            raise InvalidConfig("config must be a TrainConfig")
        _start = _fit_start(x, labels)
        _start.layers = draw_layers(x.shape[1], config.layer_sizes, config.seed)
    kept = _start.kept
    r = kept[-1][1] if kept else _zscore(x, _start.mean, _start.std)
    del x
    ae_layers = [stage for stage, _ in kept]
    for layer in _start.layers:
        stage = elm_ae_train(r, layer, config.kernel, _checked=True)
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


def deep_elm_predict(model, x, *, _held=None):
    """Predicted labels and raw class scores for feature rows x.

    Ties in the score row go to the first class in ``CLASS_NAMES``.
    The cross-validation grid, having checked x, passes ``_held``: the
    rows' activations after each of the model's leading stages that it
    holds. A prediction resumes after the last of them, reading x only when
    there is none, and appends the activations after each stage it runs.
    """
    if _held is None:
        if not isinstance(model, DeepElmModel):
            raise InvalidConfig(f"model must be a DeepElmModel, got {type(model).__name__}")
        x = _check_matrix(x, "x")
        if x.shape[1] != model.feature_mean.size:
            raise ShapeMismatch(
                f"x has {x.shape[1]} features, model expects {model.feature_mean.size}"
            )
        _held = []
    r = _held[-1] if _held else _zscore(x, model.feature_mean, model.feature_std)
    del x
    for layer in model.ae_layers[len(_held):]:
        r = layer.forward(r)
        _held.append(r)
    scores = r @ model.readout
    picks = np.argmax(scores, axis=1)
    labels = np.asarray(CLASS_NAMES)[picks]
    return labels, scores
