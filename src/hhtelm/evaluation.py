"""Classification scoring and stratified cross-validation.

Metrics follow the clinical convention with ``positivity`` as the positive
class: sensitivity = tp/(tp+fn), selectivity = tn/(tn+fp), accuracy =
(tp+tn)/total, all as percentages. A metric whose denominator is zero is
reported as undefined (None), never clamped to 0 or 100.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .dataio import CLASS_NAMES, LABEL_POSITIVITY, CvReport, MetricsReport
from .elm import (
    ElmLayer,
    TrainConfig,
    _FitStart,
    _fit_start,
    deep_elm_predict,
    deep_elm_train,
    draw_layers,
)
from .errors import (
    DegenerateLabels,
    InsufficientClassMembers,
    InvalidConfig,
    InvalidLabel,
    ShapeMismatch,
)
from .errors import _array, _check_int, _check_matrix


@dataclass(frozen=True)
class ContingencyTable:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        for field in fields(self):
            _check_int(getattr(self, field.name), field.name, 0)


def contingency(predicted, actual):
    """Tally a 2x2 contingency table, positivity counted as positive.

    ``predicted`` and ``actual`` are label arrays of one fold's held-out
    rows, one label each. Every fold's ``_fit_start`` refuses an unknown
    label before the first fit, so each label here is one of the two."""
    pos_pred = predicted == LABEL_POSITIVITY
    pos_actual = actual == LABEL_POSITIVITY
    tp = int(np.count_nonzero(pos_pred & pos_actual))
    fp = int(np.count_nonzero(pos_pred)) - tp
    fn = int(np.count_nonzero(pos_actual)) - tp
    return ContingencyTable(tp=tp, fp=fp, tn=predicted.size - tp - fp - fn, fn=fn)


def metrics(table):
    """Percent metrics from a contingency table.

    Numerators are multiplied by 100 before the division so integer-exact
    cases (e.g. 45 of 50) come out as exact floats.
    """
    if not isinstance(table, ContingencyTable):
        raise InvalidConfig(f"table must be a ContingencyTable, got {type(table).__name__}")
    total = table.tp + table.fp + table.tn + table.fn
    if total < 1:
        raise InvalidConfig("contingency table is empty")

    def rate(numerator, denominator):
        return (100.0 * numerator) / denominator if denominator > 0 else None

    return MetricsReport(
        selectivity=rate(table.tn, table.tn + table.fp),
        sensitivity=rate(table.tp, table.tp + table.fn),
        accuracy=rate(table.tp + table.tn, total),
    )


def stratified_kfold(labels, k, seed):
    """Assign every item to one of k folds, stratified by label.

    Each class is shuffled with the seeded generator and dealt round-robin;
    the deal offset carries over between classes so total fold sizes match
    the ceil/floor partition of n exactly. Per-class fold counts differ by
    at most one. ``labels`` must be a non-empty 1-D sequence, ``k`` an
    integer >= 2 and ``seed`` an integer >= 0.

    Returns
    -------
    ndarray of int
        Fold index (0..k-1) per item.
    """
    labels = _array(labels, "labels")
    if labels.ndim != 1 or labels.size < 1:
        raise ShapeMismatch("labels must be a non-empty 1-D sequence")
    k = _check_int(k, "k", 2)
    rng = np.random.default_rng(_check_int(seed, "seed", 0))
    try:
        classes = np.unique(labels)
    except TypeError:  # an object array of labels whose types do not compare
        raise InvalidLabel("labels must be of one sortable type") from None
    assignment = np.empty(labels.size, dtype=int)
    offset = 0
    for cls in classes.tolist():
        members = np.flatnonzero(labels == cls)
        if members.size < k:
            raise InsufficientClassMembers(
                f"class {cls!r} has {members.size} members but k={k}"
            )
        order = rng.permutation(members)
        assignment[order] = (np.arange(members.size) + offset) % k
        offset = (offset + members.size) % k
    return assignment


def balance_train_set(train_indices, labels, seed):
    """Subsample majority classes so every class matches the minority count.

    Selection within a class is a seeded draw without replacement; the
    result is sorted, so an already-balanced input comes back unchanged.
    The fold plan passes one fold's training rows as indices into the
    label array, and a ``np.random.SeedSequence`` spawned from its seed.
    Raises DegenerateLabels when the rows miss a class.
    """
    subset = labels[train_indices]
    classes = np.unique(subset)
    if classes.size < len(CLASS_NAMES):
        missing = sorted(set(CLASS_NAMES) - set(classes.tolist()))
        raise DegenerateLabels(f"training subset is missing class(es) {missing}")
    per_class = [train_indices[subset == cls] for cls in classes]
    floor = min(members.size for members in per_class)
    rng = np.random.default_rng(seed)
    kept = [
        members if members.size == floor else rng.choice(members, size=floor, replace=False)
        for members in per_class
    ]
    return np.sort(np.concatenate(kept))


def _aggregate(folds):
    """The mean and the standard deviation of each metric over the folds
    that define it, as two reports. They are the values ``np.mean`` and
    ``np.std`` give, computed with the same operations in the same order."""
    means, stds = {}, {}
    for field in fields(MetricsReport):
        values = np.array([value for f in folds if (value := getattr(f, field.name)) is not None])
        if not values.size:
            means[field.name] = stds[field.name] = None
            continue
        mean = np.add.reduce(values) / values.size
        spread = values - mean
        means[field.name] = float(mean)
        stds[field.name] = math.sqrt(np.add.reduce(spread * spread) / values.size)
    return MetricsReport(**means), MetricsReport(**stds)


def cross_validate(features, labels, train_config, k=5, seed=0):
    """Stratified k-fold evaluation of the deep model.

    Parameters
    ----------
    features : ndarray, shape (n, d)
    labels : sequence of str
    train_config : TrainConfig
    k : int
    seed : int
        Drives the fold assignment and the per-fold balancing draws; the
        model seed comes from ``train_config``.

    Returns
    -------
    CvReport

    Each fold's training portion is balanced (majority subsampled), the
    model is fit on those rows only, and the held-out rows are scored.
    Normalization happens inside the model fit, so nothing leaks from the
    held-out fold. The random layers depend only on the model seed and the
    widths, so they are drawn once and every fold fits on them; each fold's
    model equals ``deep_elm_train`` on its balanced rows. This is the
    one-configuration case of the grid walk that ``hhtelm sweep`` runs.
    """
    if not isinstance(train_config, TrainConfig):
        raise InvalidConfig("train_config must be a TrainConfig")
    grid = [train_config.layer_sizes]
    ((_, report),) = _cross_validate_grid(features, labels, train_config, grid, k, seed)
    return report


@dataclass
class _PrefixNode:
    width: int
    layer: ElmLayer | None  # drawn for the widths up to this one, until every fold holds a stage
    state: dict  # the generator state its draw left
    kept: dict  # fold -> (stage fitted there, its training rows' activations after it)
    held: dict  # fold -> its held-out rows' activations after that stage


def _shared_depth(widths, other):
    """How many leading widths two configurations share."""
    depth = 0
    for width, theirs in zip(widths, other):
        if width != theirs:
            break
        depth += 1
    return depth


class _WidthPath:
    """The random layers along one path of the tree of width prefixes, with
    what the walk still needs of the fits on them: per fold, each stage
    fitted there and its training and held-out rows' activations after it.

    ``draw_layers`` draws a stack's layers from one stream in layer order,
    so a layer depends only on the widths up to its own. Drawing it from the
    generator state that the previous layer's draw left gives, bit for bit,
    that layer of every stack starting with those widths. Only the path to
    the current configuration is held; walking to the next one keeps the
    prefix the two share and draws the rest, so a walk over configurations
    in the order of their widths draws each layer of the tree once. A node
    lets go of its random layer once every fold holds its fitted stage, and
    of its stages and activations when the walk leaves it.
    """

    def __init__(self, inputs, seed, folds):
        self._rng = np.random.default_rng(seed)
        self._inputs = inputs
        self._folds = folds
        self._start = self._rng.bit_generator.state
        self._nodes = []

    def walk(self, widths):
        """Hold the path to ``widths``: keep the prefix shared with the
        current path, with its stages, and draw the layers after it."""
        del self._nodes[_shared_depth([node.width for node in self._nodes], widths):]
        for width in widths[len(self._nodes):]:
            parent = self._nodes[-1] if self._nodes else None
            self._rng.bit_generator.state = parent.state if parent else self._start
            (drawn,) = draw_layers(parent.width if parent else self._inputs, (width,), self._rng)
            self._nodes.append(_PrefixNode(width, drawn, self._rng.bit_generator.state, {}, {}))

    def start(self, fold, start, depth):
        """``fold``'s ``_FitStart`` ``start``, set to resume on the current
        path: the pairs kept for that fold, the random layers of the stages
        still to fit, and ``depth``, the number of stages to keep."""
        kept = [node.kept[fold] for node in self._nodes if fold in node.kept]
        layers = [node.layer for node in self._nodes[len(kept):]]
        return _FitStart(start.targets, start.mean, start.std, layers, kept, depth)

    def held(self, fold):
        """The held-out activations ``fold`` holds on the current path, one
        per kept stage."""
        return [node.held[fold] for node in self._nodes if fold in node.held]

    def keep(self, fold, kept, held):
        """Record on ``fold`` the ``(stage, rows)`` pairs a fit kept and,
        from ``held``, the held-out activations after each of those stages."""
        for node, pair, rows in zip(self._nodes, kept, held):
            node.kept[fold] = pair
            node.held[fold] = rows
            if len(node.kept) == self._folds:
                node.layer = None


def _cross_validate_grid(features, labels, train_config, grid, k, seed):
    """Stratified k-fold evaluation of ``train_config`` at each width tuple
    of the iterable ``grid``, read one tuple ahead. Yields ``(config,
    report)`` per tuple, in the order given, once its k folds are fitted;
    the report equals ``cross_validate`` of ``config``.

    The folds' balanced training rows are found first and held as indices,
    with each fold's one-hot targets and z-score statistics. Each
    configuration is fitted in every fold in turn. Each fold keeps, of the
    stages it shares with the next configuration, the stage and the
    training rows' activations after it, and hands them to
    ``deep_elm_train`` in its ``_FitStart``: a stage that neighbouring
    configurations share is fitted, and run on the training rows, once per
    fold. It keeps the held-out rows' activations after those stages too,
    and ``deep_elm_predict`` resumes from them, so a shared stage also runs
    on the held-out rows once per fold; held-out rows are read from the
    features only by a fold that holds no stage. In width order, as
    ``hhtelm sweep`` gives them, each random layer of the tree of width
    prefixes is drawn once. A single configuration keeps nothing across
    folds; a walk holds only the current path, those stages and their
    activations: k x rows x width floats per kept depth, every row held
    out once and trained on up to k - 1 times.
    """
    labels = _array(labels, "labels")
    features = _check_matrix(features, "features")
    if features.shape[0] != labels.size:
        raise ShapeMismatch("features must have one row per label")
    assignment = stratified_kfold(labels, k, seed)
    balance_seeds = np.random.SeedSequence(seed).spawn(k)
    plan = [
        (
            balance_train_set(np.flatnonzero(assignment != fold), labels, balance_seeds[fold]),
            np.flatnonzero(assignment == fold),
        )
        for fold in range(k)
    ]
    starts = [_fit_start(features[train_idx], labels[train_idx]) for train_idx, _ in plan]
    path = _WidthPath(features.shape[1], train_config.seed, k)
    for widths, after in itertools.pairwise(itertools.chain(grid, [None])):
        config = replace(train_config, layer_sizes=widths)
        path.walk(config.layer_sizes)
        depth = 0 if after is None else _shared_depth(config.layer_sizes, after)
        folds = []
        predictions = np.empty(labels.size, dtype=labels.dtype)
        for fold, (train_idx, test_idx) in enumerate(plan):
            start = path.start(fold, starts[fold], depth)
            # A fit that resumes past its first stage reads neither rows nor
            # labels. Passed straight to the call, so the fit lets go of them.
            fresh = not start.kept
            model = deep_elm_train(
                features[train_idx] if fresh else None,
                labels[train_idx] if fresh else None,
                config,
                _start=start,
            )
            held = path.held(fold)
            fold_pred, _ = deep_elm_predict(model, None if held else features[test_idx], _held=held)
            path.keep(fold, start.kept, held)
            # What the path lets go of must not stay held by this fold's locals.
            del start, model, held
            predictions[test_idx] = fold_pred
            folds.append(metrics(contingency(fold_pred, labels[test_idx])))
        mean, std = _aggregate(folds)
        yield config, CvReport(
            folds=folds,
            mean=mean,
            std=std,
            fold_assignments=assignment,
            predictions=predictions,
            seed=seed,
            k=k,
            config={
                "layer_sizes": list(config.layer_sizes),
                "kernel": config.kernel.variant,
                "ridge": config.kernel.ridge,
                "activation": config.activation,
                "model_seed": int(config.seed),
                "k": int(k),
                "cv_seed": int(seed),
            },
        )
