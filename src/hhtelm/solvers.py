"""Dense linear-algebra kernels behind the network weight solvers.

Three interchangeable routes produce a layer's output weights from the
hidden activations H and targets T:

* ``svd``        - Moore-Penrose pseudoinverse (ridge-shrunk when lambda > 0)
* ``hessenberg`` - Hessenberg factorization of the regularized Gram matrix
                   (tridiagonal, since the matrix is symmetric), solved as a
                   banded system
* ``lu``         - LU factorization with partial pivoting of the same system

LAPACK does the work behind every route (through numpy and scipy.linalg).

All three solve (H^T H + lambda I) beta = H^T T for lambda > 0 and agree to
solver tolerance; ``svd`` additionally supports the exact pseudoinverse at
lambda = 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, hessenberg, lu_solve, solve_banded
from scipy.linalg.lapack import dgetrf

from .errors import (
    InvalidConfig,
    InvalidMatrix,
    NumericalFailure,
    ShapeMismatch,
    SingularMatrix,
)

KERNEL_SVD = "svd"
KERNEL_HESSENBERG = "hessenberg"
KERNEL_LU = "lu"
KERNELS = (KERNEL_SVD, KERNEL_HESSENBERG, KERNEL_LU)

DEFAULT_RIDGE = 1e-3
DEFAULT_SVD_TOL = 1e-12

# LU pivots below this are treated as exact zeros.
_PIVOT_FLOOR = 1e-300


@dataclass(frozen=True)
class SolverKind:
    """Selects the solver route and its ridge penalty.

    ``ridge`` = 0 is only meaningful for the ``svd`` variant (pure
    pseudoinverse); the Gram-based variants need a positive ridge to
    guarantee an invertible system.
    """

    variant: str
    ridge: float = 0.0

    def __post_init__(self):
        if self.variant not in KERNELS:
            raise InvalidConfig(
                f"unknown solver variant {self.variant!r}, expected one of {KERNELS}"
            )
        if not np.isfinite(self.ridge) or self.ridge < 0.0:
            raise InvalidConfig("ridge must be finite and >= 0")
        if self.ridge == 0.0 and self.variant != KERNEL_SVD:
            raise InvalidConfig(
                f"variant {self.variant!r} solves the Gram system and needs ridge > 0"
            )


@dataclass(frozen=True)
class HessenbergFactorization:
    """Similarity factorization a = q @ u @ q.T with q orthogonal, u upper Hessenberg."""

    q: np.ndarray
    u: np.ndarray


def _check_matrix(a, name="matrix"):
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeMismatch(
            f"{name} must be 2-D with at least one row and column, got shape {np.shape(a)}"
        )
    if not np.all(np.isfinite(arr)):
        raise InvalidMatrix(f"{name} contains non-finite entries")
    return arr


def svd_pseudoinverse(h, tol=DEFAULT_SVD_TOL):
    """Moore-Penrose pseudoinverse with a relative singular-value cutoff.

    Singular values below ``tol * sigma_max`` are treated as exact zeros,
    so rank-deficient input yields the minimum-norm inverse rather than
    an explosion.
    """
    h = _check_matrix(h, "h")
    if not tol > 0.0:
        raise InvalidConfig("tol must be > 0")
    u, s, vt = np.linalg.svd(h, full_matrices=False)
    cutoff = tol * s[0]
    inv = np.zeros_like(s)
    keep = s > cutoff
    inv[keep] = 1.0 / s[keep]
    return (vt.T * inv) @ u.T


def hessenberg_reduce(a):
    """Reduce a square matrix to upper Hessenberg form (LAPACK ``gehrd``).

    Returns ``HessenbergFactorization(q, u)`` with ``a = q @ u @ q.T``.
    Entries of ``u`` below the subdiagonal are exact zeros. When the input
    is symmetric, ``u`` is tridiagonal up to rounding. A matrix that is
    already upper Hessenberg is a fixed point (``q`` comes back as the
    identity).
    """
    a = _check_matrix(a, "a")
    n, m = a.shape
    if n != m:
        raise ShapeMismatch(f"expected a square matrix, got {n}x{m}")
    # scipy returns its input itself as u for n <= 2; the copy keeps u
    # from aliasing the caller's array.
    u, q = hessenberg(a.copy(), calc_q=True, overwrite_a=True, check_finite=False)
    return HessenbergFactorization(q=q, u=u)


def lu_factor_solve(a, b):
    """Solve a @ x = b by LU factorization with partial pivoting (LAPACK ``getrf``).

    ``b`` may be a vector or a matrix of stacked right-hand sides; the
    result matches its shape. Raises SingularMatrix when no usable pivot
    remains.
    """
    a = _check_matrix(a, "a")
    n, m = a.shape
    if n != m:
        raise ShapeMismatch(f"expected a square matrix, got {n}x{m}")
    b_arr = np.asarray(b, dtype=float)
    vector = b_arr.ndim == 1
    if vector:
        b_arr = b_arr[:, None]
    b_arr = _check_matrix(b_arr, "b")
    if b_arr.shape[0] != n:
        raise ShapeMismatch(
            f"right-hand side has {b_arr.shape[0]} rows, expected {n}"
        )
    lu, piv, _ = dgetrf(a)
    weak = np.flatnonzero(np.abs(np.diagonal(lu)) < _PIVOT_FLOOR)
    if weak.size:
        raise SingularMatrix(f"no usable pivot in column {weak[0]}")
    x = lu_solve((lu, piv), b_arr, check_finite=False)
    return x[:, 0] if vector else x


def random_orthogonal(rows, cols, seed):
    """Seeded Gaussian matrix orthonormalized by QR.

    Columns are orthonormal when cols <= rows, rows otherwise. ``seed``
    may be an int or an existing numpy Generator (the latter lets callers
    chain several draws off one stream).
    """
    if rows < 1 or cols < 1:
        raise InvalidConfig("rows and cols must both be >= 1")
    rng = np.random.default_rng(seed)
    return orthonormalize(rng.standard_normal((rows, cols)))


def orthonormalize(g):
    """QR-orthonormalize the columns (or rows, if wide) of g, sign-canonical."""
    g = _check_matrix(g, "g")
    if g.shape[1] <= g.shape[0]:
        q, r = np.linalg.qr(g)
        signs = np.sign(np.diag(r))
        signs[signs == 0.0] = 1.0
        return q * signs
    q, r = np.linalg.qr(g.T)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return (q * signs).T


def solve_output_weights(h, t, kind):
    """Output weights beta for hidden activations h and targets t.

    With ridge lambda > 0 every variant solves (h^T h + lambda I) beta =
    h^T t; the ``svd`` variant at lambda = 0 returns pinv(h) @ t instead.
    """
    h = _check_matrix(h, "h")
    t = _check_matrix(t, "t")
    if h.shape[0] != t.shape[0]:
        raise ShapeMismatch(
            f"h has {h.shape[0]} rows but t has {t.shape[0]}"
        )
    if not isinstance(kind, SolverKind):
        raise InvalidConfig("kind must be a SolverKind")
    lam = kind.ridge
    if kind.variant == KERNEL_SVD:
        if lam == 0.0:
            return svd_pseudoinverse(h) @ t
        u, s, vt = np.linalg.svd(h, full_matrices=False)
        shrink = s / (s * s + lam)
        return (vt.T * shrink) @ (u.T @ t)
    gram = h.T @ h + lam * np.eye(h.shape[1])
    rhs = h.T @ t
    if kind.variant == KERNEL_LU:
        return lu_factor_solve(gram, rhs)
    fact = hessenberg_reduce(gram)
    y = _solve_tridiagonal(fact.u, fact.q.T @ rhs)
    return fact.q @ y


def _solve_tridiagonal(u, c):
    """Solve u @ y = c using only the three central diagonals of u.

    Valid only when u is tridiagonal up to rounding, as the Hessenberg form
    of a symmetric matrix is; the sole caller passes that of the symmetric
    Gram matrix h^T h + lambda I. Raises NumericalFailure when the band is
    exactly singular.
    """
    band = np.zeros((3, u.shape[0]))
    band[0, 1:] = np.diagonal(u, 1)
    band[1] = np.diagonal(u)
    band[2, :-1] = np.diagonal(u, -1)
    try:
        return solve_banded((1, 1), band, c, check_finite=False)
    except LinAlgError as exc:
        raise NumericalFailure(f"regularized system is singular: {exc}") from exc
