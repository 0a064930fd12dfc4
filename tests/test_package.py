"""Tests for the package's public surface and the imports between its modules."""
import ast
import graphlib
from pathlib import Path

import pytest

import hhtelm


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
