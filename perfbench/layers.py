"""Per-layer metrics derived from the spans of a traced run.

Each metric names the layer (module) it measures; ``BENCHMARK.json`` lists
them with their units. Times are summed span durations in seconds unless the
name says otherwise; ``*_self_s`` and ``<layer>.self_s`` subtract the time covered by child spans, so the six
``<layer>.self_s`` values add up to the traced commands' duration.
"""
from __future__ import annotations

import bisect
import hashlib
import os
import statistics
from collections import defaultdict

import numpy as np

from tracing import END, INFO, LAYERS, NAME, PARENT, START, layer_of, self_times

KERNELS = ("svd", "hessenberg", "lu")
STAT_BLOCK = 11

# Spans that every workload's traced run must record: each one backs a
# metric below, so one that never fires would silently zero a layer.
EXPECTED_SPANS = (
    "cli.main",
    "dataio.synth_scp",
    "dataio.save_trials_csv",
    "dataio.load_trials_csv",
    "dataio.lowpass_filter",
    "dataio.save_features_csv",
    "dataio.load_features_csv",
    "dataio.save_report",
    "dataio.atomic_write_text",
    "hht.trial_feature_vector",
    "hht.emd",
    "hht.find_extrema",
    "hht.spline_envelope",
    "hht.analytic_signal",
    "hht.stat_features",
    "solvers.solve_output_weights",
    "solvers.hessenberg_reduce",
    "solvers.lu_factor_solve",
    "elm.deep_elm_train",
    "elm.elm_ae_train",
    "elm.elm_train",
    "elm.deep_elm_predict",
    "evaluation.cross_validate",
    "evaluation.stratified_kfold",
    "evaluation.balance_train_set",
    "evaluation.contingency",
    "evaluation.metrics",
)

def _file_size(path):
    return os.path.getsize(path)


def _text_size(path, text):
    return len(text.encode())


def _solve_info(h, t, kind):
    return kind.variant, np.shape(h)


def _cv_info(features, labels, train_config, k=5, seed=0):
    # The fold plan (assignment, balanced rows) is fixed by the data, k and
    # the CV seed; an autoencoder layer is further fixed by the model seed,
    # kernel, activation and the widths up to and including its own.
    digest = hashlib.sha1(np.ascontiguousarray(features, dtype=float).tobytes())
    digest.update("\n".join(str(label) for label in labels).encode())
    plan = (digest.hexdigest(), int(k), int(seed))
    model = (train_config.seed, train_config.kernel, train_config.activation)
    return plan, model, tuple(train_config.layer_sizes)


ANNOTATORS = {
    "dataio.load_trials_csv": _file_size,
    "dataio.load_features_csv": _file_size,
    "dataio.atomic_write_text": _text_size,
    "solvers.solve_output_weights": _solve_info,
    "evaluation.cross_validate": _cv_info,
}

READ_SPANS = ("dataio.load_trials_csv", "dataio.load_features_csv")


def _p975(values):
    return statistics.quantiles(values, n=40)[-1] if len(values) > 1 else max(values, default=0.0)


def missing_spans(spans, commands):
    """Expected span names (plus ``cli.cmd_<command>`` per command run) never recorded."""
    fired = {span[NAME] for span in spans}
    fired.update(
        f"solvers.solve_output_weights[{span[INFO][0]}]"
        for span in spans
        if span[NAME] == "solvers.solve_output_weights"
    )
    expected = list(EXPECTED_SPANS)
    expected += [f"cli.cmd_{command}" for command in commands]
    expected += [f"solvers.solve_output_weights[{kernel}]" for kernel in KERNELS]
    return [name for name in expected if name not in fired]


def layer_metrics(spans, feature_matrices, batches):
    """Every per-layer metric of ``BENCHMARK.json`` except the two timing totals the caller adds.

    ``batches`` holds the index of the first span of each traced batch of
    commands (the inputs, then each pass); repeats count within a batch.
    """
    selfs = self_times(spans)
    named = defaultdict(list)
    children = defaultdict(list)
    for i, span in enumerate(spans):
        named[span[NAME]].append(i)
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def total(name):
        return sum(dur(i) for i in named[name])

    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for span, own in zip(spans, selfs):
        out[f"{layer_of(span)}.self_s"] += own

    trials = [dur(i) * 1e3 for i in named["hht.trial_feature_vector"]]
    blocks = filled = 0
    for matrix in feature_matrices:
        grouped = matrix.reshape(matrix.shape[0], -1, STAT_BLOCK)
        blocks += grouped.shape[0] * grouped.shape[1]
        filled += int(np.count_nonzero(np.any(grouped != 0.0, axis=2)))
    out.update(
        {
            "hht.features_s": total("hht.trial_feature_vector"),
            "hht.emd_s": total("hht.emd"),
            "hht.envelope_s": total("hht.spline_envelope"),
            "hht.envelope_calls": len(named["hht.spline_envelope"]),
            "hht.stats_s": total("hht.stat_features"),
            "hht.stats_calls": len(named["hht.stat_features"]),
            "hht.analytic_s": total("hht.analytic_signal"),
            "hht.trial_ms.p50": statistics.median(trials) if trials else 0.0,
            "hht.trial_ms.p97_5": _p975(trials),
            "hht.filled_slot_ratio": filled / blocks if blocks else 0.0,
            "dataio.filter_s": total("dataio.lowpass_filter"),
            "dataio.load_trials_s": total("dataio.load_trials_csv"),
            "dataio.save_features_s": total("dataio.save_features_csv"),
            "dataio.load_features_s": total("dataio.load_features_csv"),
            "dataio.save_report_s": total("dataio.save_report"),
            "dataio.bytes_read": sum(spans[i][INFO] for name in READ_SPANS for i in named[name]),
            "dataio.bytes_written": sum(spans[i][INFO] for i in named["dataio.atomic_write_text"]),
        }
    )

    solves = named["solvers.solve_output_weights"]
    for kernel in KERNELS:
        out[f"solvers.solve_s.{kernel}"] = sum(dur(i) for i in solves if spans[i][INFO][0] == kernel)
    wide = sum(1 for i in solves if spans[i][INFO][1][1] > spans[i][INFO][1][0])
    out.update(
        {
            "solvers.hessenberg_reduce_s": total("solvers.hessenberg_reduce"),
            "solvers.lu_factor_solve_s": total("solvers.lu_factor_solve"),
            "solvers.solve_calls": len(solves),
            "solvers.solve_ms.p50": statistics.median(dur(i) * 1e3 for i in solves) if solves else 0.0,
            "solvers.wide_share": wide / len(solves) if solves else 0.0,
        }
    )

    ae_self = 0.0
    pending = list(named["elm.elm_ae_train"])
    while pending:
        i = pending.pop()
        if layer_of(spans[i]) == "elm":
            ae_self += selfs[i]
        pending.extend(children[i])
    out.update(
        {
            "elm.ae_train_s": total("elm.elm_ae_train"),
            "elm.ae_self_s": ae_self,
            "elm.readout_s": sum(
                dur(i) for i in solves if spans[spans[i][PARENT]][NAME] == "elm.deep_elm_train"
            ),
            "elm.predict_s": total("elm.deep_elm_predict"),
            "elm.ae_calls": len(named["elm.elm_ae_train"]),
        }
    )

    fold_times = []
    seen = defaultdict(set)
    repeat_folds = repeat_layers = layers = 0
    for c in named["evaluation.cross_validate"]:
        batch = bisect.bisect_right(batches, c)
        starts = [i for i in children[c] if spans[i][NAME] == "evaluation.balance_train_set"]
        ends = [i for i in children[c] if spans[i][NAME] == "evaluation.metrics"]
        if len(starts) != len(ends):
            raise ValueError("cross_validate: balance_train_set and metrics calls do not pair up")
        fold_times += [spans[e][END] - spans[s][START] for s, e in zip(starts, ends)]
        plan, model, sizes = spans[c][INFO]
        for fold in range(plan[1]):
            repeat_folds += (plan, fold) in seen[batch]
            seen[batch].add((plan, fold))
            for depth in range(1, len(sizes) + 1):
                key = (plan, fold, model, sizes[:depth])
                repeat_layers += key in seen[batch]
                seen[batch].add(key)
                layers += 1
    folds = len(fold_times)
    out.update(
        {
            "elm.repeat_layer_share": repeat_layers / layers if layers else 0.0,
            "evaluation.cv_s": total("evaluation.cross_validate"),
            "evaluation.fold_s.p50": statistics.median(fold_times) if fold_times else 0.0,
            "evaluation.fold_s.max": max(fold_times, default=0.0),
            "evaluation.folds": folds,
            "evaluation.repeat_fold_share": repeat_folds / folds if folds else 0.0,
        }
    )
    return out
