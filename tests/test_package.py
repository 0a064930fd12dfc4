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
    assert graph["solvers"] == {"errors"}
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
