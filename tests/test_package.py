"""Tests for the package's public surface and the imports between its modules."""
import ast
import graphlib
import warnings
from pathlib import Path

import numpy as np
import pytest

import hhtelm
from hhtelm.errors import InvalidConfig, InvalidMatrix


def test_every_export_is_bound_once():
    assert len(set(hhtelm.__all__)) == len(hhtelm.__all__)
    missing = [name for name in hhtelm.__all__ if not hasattr(hhtelm, name)]
    assert missing == []


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
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


# Calls that once escaped as a raw TypeError, ValueError or AttributeError,
# or a RuntimeWarning, and the package error each raises instead. Each
# takes the path a writer would write to.
BOUNDARY_CASES = {
    "emd-of-a-string": (lambda path: hhtelm.emd("abc"), InvalidConfig),
    "analytic-signal-of-strings": (lambda path: hhtelm.analytic_signal(["a"] * 8), InvalidConfig),
    "extrema-of-a-string": (lambda path: hhtelm.find_extrema("abcd"), InvalidConfig),
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
        lambda path: hhtelm.TrialRecord("t", 1, "negativity", 256.0, ["a"] * 8),
        InvalidConfig,
    ),
    "save-report-of-none": (lambda path: hhtelm.save_report(None, path), InvalidConfig),
    "save-features-of-strings": (
        lambda path: hhtelm.save_features_csv([["a"]], ("f",), ["negativity"], path),
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
