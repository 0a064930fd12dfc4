"""Slow-wave EEG trial classification.

Empirical-mode-decomposition features plus deep extreme learning machines
whose autoencoder layers are solved by swappable kernels (SVD pseudoinverse,
Hessenberg factorization, LU), evaluated with stratified cross-validation.
"""

from . import errors
from .dataio import (
    FilterSpec,
    SynthConfig,
    load_features_csv,
    load_report,
    load_trials_csv,
    lowpass_filter,
    save_features_csv,
    save_report,
    save_trials_csv,
    synth_scp,
)
from .elm import (
    TrainConfig,
    deep_elm_predict,
    deep_elm_train,
    draw_layers,
    elm_train,
)
from .evaluation import (
    ContingencyTable,
    CvReport,
    MetricsReport,
    cross_validate,
    metrics,
)
from .hht import (
    FEATURE_NAMES,
    analytic_signal,
    emd,
    instantaneous_frequency,
    trial_feature_vector,
)
from .solvers import (
    SolverKind,
    hessenberg_reduce,
    solve_output_weights,
    svd_pseudoinverse,
)

__version__ = "0.1.0"

__all__ = [
    "ContingencyTable",
    "CvReport",
    "FEATURE_NAMES",
    "FilterSpec",
    "MetricsReport",
    "SolverKind",
    "SynthConfig",
    "TrainConfig",
    "analytic_signal",
    "cross_validate",
    "deep_elm_predict",
    "deep_elm_train",
    "draw_layers",
    "elm_train",
    "emd",
    "errors",
    "hessenberg_reduce",
    "instantaneous_frequency",
    "load_features_csv",
    "load_report",
    "load_trials_csv",
    "lowpass_filter",
    "metrics",
    "save_features_csv",
    "save_report",
    "save_trials_csv",
    "solve_output_weights",
    "svd_pseudoinverse",
    "synth_scp",
    "trial_feature_vector",
]
