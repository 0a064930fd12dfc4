"""Tests for the package's public surface and the imports between its modules."""
import ast
import graphlib
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import hhtelm
from hhtelm import elm, evaluation, hht, solvers
from hhtelm.errors import InvalidConfig, InvalidMatrix, NumericalFailure, ShapeMismatch

NEG, POS = "negativity", "positivity"
LU = hhtelm.SolverKind("lu", ridge=1e-3)


def test_every_export_is_bound_once():
    assert len(set(hhtelm.__all__)) == len(hhtelm.__all__)
    missing = [name for name in hhtelm.__all__ if not hasattr(hhtelm, name)]
    assert missing == []


# The pipeline's entry points, its records and configs, and the errors
# module. A stage that only an entry point calls stays in its module and
# takes what that entry point checked.
EXPORTS = [
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


def test_exports_are_pinned():
    assert sorted(hhtelm.__all__) == EXPORTS


def test_public_names_are_exactly_the_exports():
    # Submodules become attributes of the package when imported; every
    # other public name must be listed, so no stray import widens the surface.
    public = {
        name
        for name, value in vars(hhtelm).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == {
        name for name in hhtelm.__all__ if not isinstance(getattr(hhtelm, name), types.ModuleType)
    }


def relative_imports(path):
    """The sibling modules a module of the package imports, at any depth of
    its code (imports inside functions included)."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node.module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)


def test_modules_import_one_another_without_a_cycle():
    package = Path(hhtelm.__file__).parent
    graph = {path.stem: set(relative_imports(path)) for path in package.glob("*.py")}
    assert {"dataio", "elm"} <= graph["evaluation"]
    # Every argument check lives in errors, so a module imports another only
    # for what that one computes.
    assert graph["errors"] == set()
    assert graph["solvers"] == {"errors"}
    assert graph["hht"] == {"errors"}
    assert "solvers" not in graph["evaluation"]
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


# Calls that once escaped as a raw TypeError, ValueError or AttributeError,
# or a RuntimeWarning, and the package error each raises instead. Each
# takes the path a writer would write to.
BOUNDARY_CASES = {
    "emd-of-a-string": (lambda path: hhtelm.emd("abc"), InvalidConfig),
    "emd-of-samples-whose-energy-overflows": (
        lambda path: hhtelm.emd(np.random.default_rng(0).standard_normal(256) * 1e200),
        NumericalFailure,
    ),
    "analytic-signal-of-strings": (lambda path: hhtelm.analytic_signal(["a"] * 8), InvalidConfig),
    "frequency-at-a-string-rate": (
        lambda path: hhtelm.instantaneous_frequency(np.zeros(8), "a"),
        InvalidConfig,
    ),
    "frequency-at-an-infinite-rate": (
        lambda path: hhtelm.instantaneous_frequency(np.zeros(8), float("inf")),
        InvalidConfig,
    ),
    "filter-at-a-string-rate": (lambda path: hhtelm.lowpass_filter(np.zeros(400), "a"), InvalidConfig),
    "filter-of-strings": (lambda path: hhtelm.lowpass_filter(["a"] * 400, 256.0), InvalidConfig),
    "filter-with-a-non-spec": (
        lambda path: hhtelm.lowpass_filter(np.zeros(400), 256.0, spec=5),
        InvalidConfig,
    ),
    "infinite-cutoff": (lambda path: hhtelm.FilterSpec(cutoff=float("inf")), InvalidConfig),
    "synth-of-a-string": (lambda path: hhtelm.synth_scp("x"), InvalidConfig),
    "trial-of-strings": (
        lambda path: hhtelm.dataio.TrialRecord("t", 1, "negativity", 256.0, ["a"] * 8),
        InvalidConfig,
    ),
    "trial-at-a-rate-past-any-float": (
        lambda path: hhtelm.dataio.TrialRecord("t", 1, "negativity", 10**400, np.zeros(8)),
        InvalidConfig,
    ),
    "contingency-of-a-string": (lambda path: hhtelm.ContingencyTable("a", 0, 0, 0), InvalidConfig),
    "save-report-of-none": (lambda path: hhtelm.save_report(None, path), InvalidConfig),
    "save-features-of-strings": (
        lambda path: hhtelm.save_features_csv([["a"]], ("f",), ["negativity"], path),
        InvalidMatrix,
    ),
    "save-features-with-a-note-that-is-not-utf-8": (
        lambda path: hhtelm.save_features_csv(
            np.zeros((1, 1)), ("a",), [NEG], path, config_note="\ud800"
        ),
        InvalidConfig,
    ),
    "save-trials-of-none": (lambda path: hhtelm.save_trials_csv(None, path), InvalidConfig),
    "save-trials-of-strings": (lambda path: hhtelm.save_trials_csv(["a"], path), InvalidConfig),
    "solver-of-an-array": (lambda path: hhtelm.SolverKind(np.array([])), InvalidConfig),
    "cross-validate-ragged-labels": (
        lambda path: hhtelm.cross_validate(
            np.zeros((2, 3)), [[NEG, ["x"]]], hhtelm.TrainConfig((4,), hhtelm.SolverKind("svd"))
        ),
        ShapeMismatch,
    ),
    "train-on-ragged-labels": (
        lambda path: hhtelm.deep_elm_train(
            np.zeros((2, 3)), [[NEG, ["x"]]], hhtelm.TrainConfig((4,), hhtelm.SolverKind("svd"))
        ),
        ShapeMismatch,
    ),
    "solver-at-a-ridge-past-any-float": (
        lambda path: hhtelm.SolverKind("svd", ridge=10**400),
        InvalidConfig,
    ),
    # A complex array through the one float converter, once per error class
    # it raises: numpy would cast it to its real part with a ComplexWarning.
    "emd-of-a-complex-array": (lambda path: hhtelm.emd(np.ones(16) * 1j), InvalidConfig),
    "pseudoinverse-of-a-complex-matrix": (
        lambda path: hhtelm.svd_pseudoinverse(np.eye(2) * 1j),
        InvalidMatrix,
    ),
    "save-features-of-complex-values": (
        lambda path: hhtelm.save_features_csv(np.ones((1, 1)) * 1j, ("f",), [NEG], path),
        InvalidMatrix,
    ),
    "folds-of-ragged-labels": (
        lambda path: evaluation.stratified_kfold([[NEG, ["x"]]], 2, 0),
        ShapeMismatch,
    ),
    # A stage outside __all__ takes what its entry point checked, so its
    # cases are refused by the entry point that reaches it.
    "extrema-of-a-string": (lambda path: hhtelm.trial_feature_vector("abcd"), InvalidConfig),
    "extrema-of-nan": (lambda path: hhtelm.emd([0, 2, 1, np.nan, 3, 0]), InvalidConfig),
    "statistics-of-nan": (
        lambda path: hhtelm.trial_feature_vector(np.full(8, np.nan)),
        InvalidConfig,
    ),
    "lu-of-a-string-right-hand-side": (
        lambda path: hhtelm.solve_output_weights(np.eye(1), ["a"], LU),
        InvalidMatrix,
    ),
    "lu-of-a-complex-right-hand-side": (
        lambda path: hhtelm.solve_output_weights(np.eye(2), np.ones((2, 1)) * 1j, LU),
        InvalidMatrix,
    ),
}


@pytest.mark.parametrize("case", sorted(BOUNDARY_CASES))
def test_library_boundary_raises_package_errors(case, tmp_path):
    call, error = BOUNDARY_CASES[case]
    path = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call(path)
    assert not path.exists()


# Every hostile value the walker substitutes for an argument, by name.
HOSTILE = {
    "none": None,
    "string": "abc",
    "bool": True,
    "nan": float("nan"),
    "inf": float("inf"),
    "float-for-an-int": 2.5,
    "negative-int": -1,
    "ragged-list": [[1.0, 2.0], [3.0]],
    "empty-array": np.array([]),
    "object-array": np.array([1.0, "a", None], dtype=object),
    "complex": 1.0 + 1.0j,
    "complex-array": np.linspace(0.0, 1.0, 8) * (1.0 + 1.0j),
    "int-past-any-float": 10**400,
}


def valid_arguments(tmp_path):
    """Keyword arguments for one successful call of each callable in
    ``hhtelm.__all__``, every integer small and every path under tmp_path."""
    kind = hhtelm.SolverKind("svd", ridge=1e-3)
    config = hhtelm.TrainConfig((4,), kind)
    x = np.random.default_rng(0).standard_normal((8, 3))
    labels = [NEG, POS] * 4
    layer = hhtelm.draw_layers(3, (4,), 0)[0]
    signal = np.sin(np.linspace(0.0, 20.0, 64))
    synth = hhtelm.SynthConfig(n_per_class=2, fs=16.0)
    trials = hhtelm.synth_scp(synth)
    report = hhtelm.cross_validate(x, labels, config, k=2)
    table = hhtelm.ContingencyTable(1, 1, 1, 1)
    files = {name: str(tmp_path / name) for name in ("trials.csv", "features.csv", "report.json")}
    hhtelm.save_trials_csv(trials, files["trials.csv"])
    hhtelm.save_features_csv(np.zeros((2, 2)), ("a", "b"), [NEG, POS], files["features.csv"])
    hhtelm.save_report(report, files["report.json"])
    return {
        "ContingencyTable": dict(tp=1, fp=1, tn=1, fn=1),
        "CvReport": dict(vars(report)),
        "FilterSpec": dict(cutoff=10.0, taps=33),
        "MetricsReport": dict(selectivity=50.0, sensitivity=50.0, accuracy=50.0),
        "SolverKind": dict(variant="lu", ridge=1e-3),
        "SynthConfig": dict(
            n_per_class=2, drift_amplitude=1.0, noise_sigma=1.0, alpha_amplitude=1.0, fs=16.0, seed=0
        ),
        "TrainConfig": dict(layer_sizes=(4,), kernel=kind, seed=0),
        "analytic_signal": dict(x=signal),
        "cross_validate": dict(features=x, labels=labels, train_config=config, k=2, seed=0),
        "deep_elm_predict": dict(model=hhtelm.deep_elm_train(x, labels, config), x=x),
        "deep_elm_train": dict(x=x, labels=labels, config=config),
        "draw_layers": dict(inputs=3, widths=(4,), seed=0),
        "elm_train": dict(x=x, t=np.ones((8, 2)), layer=layer, kernel=kind),
        "emd": dict(signal=signal),
        "hessenberg_reduce": dict(a=np.eye(3) + 0.5),
        "instantaneous_frequency": dict(phase=np.linspace(0.0, 10.0, 16), fs=16.0),
        "load_features_csv": dict(path=files["features.csv"]),
        "load_report": dict(path=files["report.json"]),
        "load_trials_csv": dict(path=files["trials.csv"]),
        "lowpass_filter": dict(samples=signal, fs=64.0, spec=hhtelm.FilterSpec(taps=33)),
        "metrics": dict(table=table),
        "save_features_csv": dict(
            values=np.zeros((2, 2)),
            layout=("a", "b"),
            labels=[NEG, POS],
            path=str(tmp_path / "out.csv"),
            config_note="note",
        ),
        "save_report": dict(report=report, path=str(tmp_path / "out.json")),
        "save_trials_csv": dict(trials=trials, path=str(tmp_path / "out.csv"), config_note="note"),
        "solve_output_weights": dict(h=x, t=np.ones((8, 2)), kind=kind),
        "svd_pseudoinverse": dict(h=x),
        "synth_scp": dict(config=synth),
        "trial_feature_vector": dict(signal=signal),
    }


def public_callables():
    return {name for name in hhtelm.__all__ if callable(getattr(hhtelm, name))}


def test_walker_table_covers_every_public_callable(tmp_path):
    assert set(valid_arguments(tmp_path)) == public_callables()


# What each stage outside __all__ takes unchecked from its entry point.


def extrema_input(samples):
    assert samples.dtype == float and samples.ndim == 1 and samples.size >= 4
    assert np.isfinite(samples).all()


def envelope_input(indices, values, n):
    assert isinstance(n, int) and n >= 4
    assert len(indices) == len(values) >= 1
    for idx, val in zip(indices, values):
        assert idx.dtype.kind == "i" and 2 <= idx.size == val.size
        assert np.all(np.diff(idx) > 0) and idx[0] >= 1 and idx[-1] <= n - 2
        assert np.isfinite(val).all()


def statistics_input(series, reference):
    assert series.dtype == float and series.ndim == 2 and series.shape[0] >= 1
    assert reference.dtype == float and reference.shape == series.shape[1:]
    assert reference.size >= 4
    assert np.isfinite(series).all() and np.isfinite(reference).all()


def lu_input(a, b):
    assert a.dtype == float and a.ndim == 2 and a.shape[0] == a.shape[1] >= 1
    assert b.dtype == float and b.ndim == 2 and b.shape[0] == a.shape[0] and b.shape[1] >= 1
    assert np.isfinite(a).all() and np.isfinite(b).all()


def autoencoder_input(x, layer, kernel):
    assert x.dtype == float and x.ndim == 2 and np.isfinite(x).all()
    assert isinstance(layer, elm.ElmLayer) and layer.input_weights.shape[0] == x.shape[1]
    assert isinstance(kernel, hhtelm.SolverKind)


def contingency_input(predicted, actual):
    assert predicted.ndim == 1 and predicted.shape == actual.shape and actual.size >= 1
    assert set(predicted.tolist()) | set(actual.tolist()) <= {NEG, POS}


def balance_input(train_indices, labels, seed):
    assert labels.ndim == 1
    assert train_indices.dtype.kind == "i" and train_indices.ndim == 1 and train_indices.size >= 1
    assert 0 <= train_indices.min() and train_indices.max() < labels.size
    assert isinstance(seed, np.random.SeedSequence)


# A stage outside __all__ -> its module, the entry point that reaches it,
# that entry point's arguments that differ from its own walker row, and
# what the stage takes unchecked. Its row walks the entry point with the
# stage wrapped in that check, so a hostile argument must be refused
# before it reaches the stage. stratified_kfold keeps its own refusals
# and is walked as it is.
STAGES = {
    "balance_train_set": (evaluation, "cross_validate", {}, balance_input),
    "contingency": (evaluation, "cross_validate", {}, contingency_input),
    "elm_ae_train": (elm, "deep_elm_train", {}, autoencoder_input),
    "find_extrema": (hht, "emd", {}, extrema_input),
    "lu_factor_solve": (solvers, "solve_output_weights", {"kind": LU}, lu_input),
    "spline_envelope": (hht, "emd", {}, envelope_input),
    "stat_features": (hht, "trial_feature_vector", {}, statistics_input),
}


def walked(name, tmp_path, monkeypatch):
    """The callable that the walker row ``name`` calls, its valid arguments,
    and the number of calls of the row's guarded stage so far."""
    reached = [0]
    if name == "stratified_kfold":
        return evaluation.stratified_kfold, dict(labels=[NEG, POS] * 4, k=2, seed=0), reached
    if name not in STAGES:
        return getattr(hhtelm, name), valid_arguments(tmp_path)[name], reached
    module, entry, overrides, takes = STAGES[name]
    stage = getattr(module, name)

    def guarded(*args):
        reached[0] += 1
        takes(*args)
        return stage(*args)

    # The valid arguments are built before the guard goes in.
    valid = {**valid_arguments(tmp_path)[entry], **overrides}
    monkeypatch.setattr(module, name, guarded)
    return getattr(hhtelm, entry), valid, reached


@pytest.mark.parametrize("name", sorted(public_callables() | set(STAGES) | {"stratified_kfold"}))
def test_every_hostile_argument_raises_a_package_error(name, tmp_path, monkeypatch):
    """Each argument of the callable in turn takes each value of HOSTILE,
    the others keeping their valid values: the call returns or raises a
    PipelineError, warnings counted as errors. A loader may also raise
    OSError for a path that names no file. A stage's row also fails if any
    call reaches the stage with input it does not check."""
    monkeypatch.chdir(tmp_path)  # a hostile string path names a file here
    call, valid, reached = walked(name, tmp_path, monkeypatch)
    assert call(**valid) is not None or name.startswith("save_")
    assert reached[0] > 0 or name not in STAGES
    escaped = []
    for argument in valid:
        for label, value in HOSTILE.items():
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    call(**{**valid, argument: value})
            except hhtelm.errors.PipelineError:
                pass
            except OSError:
                if not (name.startswith("load_") and isinstance(value, str)):
                    raise
            except Exception as exc:
                escaped.append(f"{argument}={label}: {type(exc).__name__}: {exc}"[:160])
    assert escaped == []
