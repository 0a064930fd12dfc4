"""Exception taxonomy shared across the package, and the argument checks
that raise it.

Every failure a caller can act on gets its own class so the CLI can map
families onto exit codes (usage -> 1, data -> 2, numerical -> 3). Every
module imports this one and it imports no other, so each rule on
arguments is stated here once: ``_check_int``, ``_check_real``,
``_floats``, ``_finite``, ``_array`` and ``_check_matrix``.
"""
import math
from numbers import Real

import numpy as np


class PipelineError(Exception):
    """Base class for all package-specific errors."""


class InvalidConfig(PipelineError):
    """A configuration value is out of its documented range."""


class InvalidMatrix(PipelineError):
    """A matrix argument contains non-finite entries."""


class ShapeMismatch(PipelineError):
    """Array dimensions do not line up for the requested operation."""


class NumericalFailure(PipelineError):
    """A linear system could not be solved to working precision."""


class SingularMatrix(NumericalFailure):
    """Pivoting found no usable pivot; the system is singular."""


class DegenerateLabels(PipelineError):
    """Training data does not contain every class."""


class InvalidLabel(PipelineError):
    """A label outside the known class vocabulary."""


class InsufficientClassMembers(PipelineError):
    """A class has fewer members than the number of folds."""


class ParseError(PipelineError):
    """A malformed row or value in an input file."""


class FormatError(PipelineError):
    """Structurally valid input that violates a homogeneity rule."""


class NotFound(PipelineError):
    """A requested record id is absent from the input."""


def _check_int(value, name, minimum, size=False):
    """``value`` as an int; InvalidConfig unless it is an integer, not a bool,
    at least ``minimum`` and, for a ``size``, one numpy takes for an array."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidConfig(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidConfig(f"{name} must be >= {minimum}, got {value}")
    if size and value > np.iinfo(np.intp).max:
        raise InvalidConfig(f"{name} must be <= {np.iinfo(np.intp).max}, got {value}")
    return int(value)


def _check_real(value, name, bound=None, strict=True):
    """InvalidConfig unless ``value`` is a finite real number, not a bool,
    and, given a ``bound``, above it (``strict``) or at least it. The value
    is checked, not converted."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise InvalidConfig(f"{name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int past any float
        finite = False
    if not (finite and (bound is None or (value > bound if strict else value >= bound))):
        rule = "" if bound is None else f" and {'>' if strict else '>='} {bound}"
        raise InvalidConfig(f"{name} must be finite{rule}, got {value}")


def _floats(values, name, error=InvalidConfig):
    """``values`` as a float array, raising ``error`` unless they are all
    real numbers a float can hold: a complex value, which numpy would cast
    to its real part, and an int past any float are refused."""
    try:
        array = np.asarray(values)
        if array.dtype.kind != "c":
            return array.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{name} is not numeric: {exc}") from None
    raise error(f"{name} holds complex values")


def _finite(values, name, error=InvalidConfig):
    """``error`` unless every entry of the float array ``values`` is finite."""
    if not np.isfinite(values).all():
        raise error(f"{name} contains non-finite entries")


def _array(values, name):
    """``np.asarray(values)``, raising ShapeMismatch for a ragged nesting."""
    try:
        return np.asarray(values)
    except ValueError:
        raise ShapeMismatch(f"{name} must not be a ragged nesting of sequences") from None


def _check_matrix(a, name="matrix", square=False):
    """``a`` as a float matrix of at least one row and column, square if asked;
    InvalidMatrix unless its entries are finite real numbers."""
    arr = _floats(a, name, InvalidMatrix)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeMismatch(
            f"{name} must be 2-D with at least one row and column, got shape {arr.shape}"
        )
    _finite(arr, name, InvalidMatrix)
    if square and arr.shape[0] != arr.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got {arr.shape[0]}x{arr.shape[1]}")
    return arr
