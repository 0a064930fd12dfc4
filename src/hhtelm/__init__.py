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
    elm_ae_train,
    elm_train,
)
from .evaluation import (
    ContingencyTable,
    CvReport,
    MetricsReport,
    balance_train_set,
    contingency,
    cross_validate,
    metrics,
    stratified_kfold,
)
from .hht import (
    FEATURE_NAMES,
    analytic_signal,
    emd,
    find_extrema,
    instantaneous_frequency,
    spline_envelope,
    stat_features,
    trial_feature_vector,
)
from .solvers import (
    SolverKind,
    hessenberg_reduce,
    lu_factor_solve,
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
    "balance_train_set",
    "contingency",
    "cross_validate",
    "deep_elm_predict",
    "deep_elm_train",
    "draw_layers",
    "elm_ae_train",
    "elm_train",
    "emd",
    "errors",
    "find_extrema",
    "hessenberg_reduce",
    "instantaneous_frequency",
    "load_features_csv",
    "load_report",
    "load_trials_csv",
    "lowpass_filter",
    "lu_factor_solve",
    "metrics",
    "save_features_csv",
    "save_report",
    "save_trials_csv",
    "solve_output_weights",
    "spline_envelope",
    "stat_features",
    "stratified_kfold",
    "svd_pseudoinverse",
    "synth_scp",
    "trial_feature_vector",
]
