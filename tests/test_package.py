"""Tests for the package's public surface and the imports between its modules."""
import ast
import graphlib
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import hhtelm
from hhtelm.errors import InvalidConfig, InvalidMatrix, NumericalFailure, ShapeMismatch

NEG, POS = "negativity", "positivity"


def test_every_export_is_bound_once():
    assert len(set(hhtelm.__all__)) == len(hhtelm.__all__)
    missing = [name for name in hhtelm.__all__ if not hasattr(hhtelm, name)]
    assert missing == []


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
    "extrema-of-a-string": (lambda path: hhtelm.find_extrema("abcd"), InvalidConfig),
    "extrema-of-nan": (lambda path: hhtelm.find_extrema([0, 2, 1, np.nan, 3, 0]), InvalidConfig),
    "envelope-of-float-length": (
        lambda path: hhtelm.spline_envelope(np.array([0.0, 5.0]), np.array([1.0, 2.0]), 10.5),
        InvalidConfig,
    ),
    "frequency-at-a-string-rate": (
        lambda path: hhtelm.instantaneous_frequency(np.zeros(8), "a"),
        InvalidConfig,
    ),
    "statistics-of-nan": (
        lambda path: hhtelm.stat_features(np.full(8, np.nan), np.zeros(8)),
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
    "save-trials-of-none": (lambda path: hhtelm.save_trials_csv(None, path), InvalidConfig),
    "save-trials-of-strings": (lambda path: hhtelm.save_trials_csv(["a"], path), InvalidConfig),
    "solver-of-an-array": (lambda path: hhtelm.SolverKind(np.array([])), InvalidConfig),
    "lu-of-a-string-right-hand-side": (
        lambda path: hhtelm.lu_factor_solve(np.eye(1), ["a"]),
        InvalidMatrix,
    ),
    "contingency-of-ragged-labels": (
        lambda path: hhtelm.contingency([[NEG, ["x"]]], [NEG, POS]),
        ShapeMismatch,
    ),
    "folds-of-ragged-labels": (
        lambda path: hhtelm.stratified_kfold([[NEG, ["x"]]], 2, 0),
        ShapeMismatch,
    ),
    "balance-of-ragged-labels": (
        lambda path: hhtelm.balance_train_set([0, 1], [[NEG, ["x"]]], 0),
        ShapeMismatch,
    ),
    "balance-of-ragged-indices": (
        lambda path: hhtelm.balance_train_set([[0, [1]]], [NEG, POS], 0),
        ShapeMismatch,
    ),
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
    "envelope-of-ragged-indices": (
        lambda path: hhtelm.spline_envelope([[0.0, [1.0]]], [[1.0, 2.0]], 10),
        InvalidConfig,
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
    "lu-of-a-complex-right-hand-side": (
        lambda path: hhtelm.lu_factor_solve(np.eye(2), np.ones(2) * 1j),
        InvalidMatrix,
    ),
    "save-features-of-complex-values": (
        lambda path: hhtelm.save_features_csv(np.ones((1, 1)) * 1j, ("f",), [NEG], path),
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
        "balance_train_set": dict(train_indices=np.arange(3), labels=[NEG, NEG, POS], seed=0),
        "contingency": dict(predicted=[NEG, POS], actual=[POS, POS]),
        "cross_validate": dict(features=x, labels=labels, train_config=config, k=2, seed=0),
        "deep_elm_predict": dict(model=hhtelm.deep_elm_train(x, labels, config), x=x),
        "deep_elm_train": dict(x=x, labels=labels, config=config),
        "draw_layers": dict(inputs=3, widths=(4,), seed=0),
        "elm_ae_train": dict(x=x, layer=layer, kernel=kind),
        "elm_train": dict(x=x, t=np.ones((8, 2)), layer=layer, kernel=kind),
        "emd": dict(signal=signal),
        "find_extrema": dict(samples=signal),
        "hessenberg_reduce": dict(a=np.eye(3) + 0.5),
        "instantaneous_frequency": dict(phase=np.linspace(0.0, 10.0, 16), fs=16.0),
        "load_features_csv": dict(path=files["features.csv"]),
        "load_report": dict(path=files["report.json"]),
        "load_trials_csv": dict(path=files["trials.csv"]),
        "lowpass_filter": dict(samples=signal, fs=64.0, spec=hhtelm.FilterSpec(taps=33)),
        "lu_factor_solve": dict(a=2.0 * np.eye(3), b=np.ones(3)),
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
        "spline_envelope": dict(indices=np.array([0.0, 5.0]), values=np.array([1.0, 2.0]), n=10),
        "stat_features": dict(series=signal, reference=np.cos(np.linspace(0.0, 20.0, 64))),
        "stratified_kfold": dict(labels=labels, k=2, seed=0),
        "svd_pseudoinverse": dict(h=x),
        "synth_scp": dict(config=synth),
        "trial_feature_vector": dict(signal=signal),
    }


def public_callables():
    return {name for name in hhtelm.__all__ if callable(getattr(hhtelm, name))}


def test_walker_table_covers_every_public_callable(tmp_path):
    assert set(valid_arguments(tmp_path)) == public_callables()


@pytest.mark.parametrize("name", sorted(public_callables()))
def test_every_hostile_argument_raises_a_package_error(name, tmp_path, monkeypatch):
    """Each argument of the callable in turn takes each value of HOSTILE,
    the others keeping their valid values: the call returns or raises a
    PipelineError, warnings counted as errors. A loader may also raise
    OSError for a path that names no file."""
    monkeypatch.chdir(tmp_path)  # a hostile string path names a file here
    valid = valid_arguments(tmp_path)[name]
    call = getattr(hhtelm, name)
    assert call(**valid) is not None or name.startswith("save_")
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
