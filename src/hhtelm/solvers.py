"""Dense linear-algebra kernels behind the network weight solvers.

Three interchangeable routes produce a layer's output weights from the
hidden activations H and targets T:

* ``svd``        - Moore-Penrose pseudoinverse (ridge-shrunk when lambda > 0)
* ``hessenberg`` - Hessenberg factorization of the regularized Gram matrix
                   (tridiagonal, since the matrix is symmetric), solved as a
                   banded system
* ``lu``         - LU factorization with partial pivoting of the same system

LAPACK does the work behind every route. ``svd`` goes through numpy, which
factors H or, when H is wider than tall, its transpose. The
other two call ``scipy.linalg.lapack`` directly, which skips scipy's
argument handling on every solve: ``lu`` calls ``gesv``, and ``hessenberg``
reduces the symmetric matrix to its tridiagonal form with ``sytrd``, forms
the orthogonal factor with ``orgqr`` and solves the band with ``gtsv``
(Golub & Van Loan, Matrix Computations, section 8.3). ``sytrd`` takes about
half the flops of the general Hessenberg reduction ``gehrd``.

All three solve (H^T H + lambda I) beta = H^T T for lambda > 0 and agree to
solver tolerance; ``svd`` additionally supports the exact pseudoinverse at
lambda = 0. When H has more columns L than rows n, the two Gram kernels
factor the n x n dual system (H H^T + lambda I) alpha = T instead and
return beta = H^T alpha, the same ridge solution (Huang, Zhou, Ding &
Zhang 2012, IEEE TSMC-B 42(2)); otherwise they factor the L x L system.
"""
from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np
from scipy.linalg.lapack import dgesv, dgtsv, dorgqr, dsytrd, dsytrd_lwork

from .dataio import _check_int
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

# LU pivots below this are treated as exact zeros.
_PIVOT_FLOOR = 1e-300

# Singular values below this fraction of the largest are treated as exact zeros.
_SVD_TOL = 1e-12

# The size from which hessenberg_reduce gives dsytrd the workspace for its
# blocked code. With one OpenBLAS 0.3.31 thread the unblocked reduction took
# 0.72-0.98 of the blocked one's time at n = 40-100, and 1.04, 1.10 and 1.21
# of it at n = 128, 200 and 320.
_BLOCKED_FROM = 128


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
        if isinstance(self.ridge, bool) or not isinstance(self.ridge, Real):
            raise InvalidConfig(f"ridge must be a real number, got {self.ridge!r}")
        if not np.isfinite(self.ridge) or self.ridge < 0.0:
            raise InvalidConfig("ridge must be finite and >= 0")
        if self.ridge == 0.0 and self.variant != KERNEL_SVD:
            raise InvalidConfig(
                f"variant {self.variant!r} solves the Gram system and needs ridge > 0"
            )


@dataclass(frozen=True)
class HessenbergFactorization:
    """Similarity factorization a = q @ u @ q.T of a symmetric matrix.

    ``q`` is orthogonal and ``u`` is symmetric tridiagonal, the Hessenberg
    form of a symmetric matrix. Only its two bands are held: ``diagonal``
    (n entries) and ``offdiagonal`` (n - 1 entries, the sub- and
    superdiagonal alike).
    """

    q: np.ndarray
    diagonal: np.ndarray
    offdiagonal: np.ndarray

    @property
    def u(self):
        """The dense n x n tridiagonal matrix the two bands describe."""
        return (
            np.diag(self.diagonal)
            + np.diag(self.offdiagonal, -1)
            + np.diag(self.offdiagonal, 1)
        )


def _check_matrix(a, name="matrix"):
    try:
        arr = np.asarray(a, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidMatrix(f"{name} is not numeric: {exc}") from None
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeMismatch(
            f"{name} must be 2-D with at least one row and column, got shape {np.shape(a)}"
        )
    if not np.isfinite(arr).all():
        raise InvalidMatrix(f"{name} contains non-finite entries")
    return arr


def svd_pseudoinverse(h):
    """Moore-Penrose pseudoinverse with a relative singular-value cutoff.

    Singular values below ``1e-12 * sigma_max`` are treated as exact zeros,
    so rank-deficient input yields the minimum-norm inverse rather than
    an explosion.
    """
    h = _check_matrix(h, "h")
    u, s, vt = _svd(h)
    cutoff = _SVD_TOL * s[0]
    inv = np.zeros_like(s)
    keep = s > cutoff
    inv[keep] = 1.0 / s[keep]
    return (vt.T * inv) @ u.T


def _svd(h):
    """Thin SVD ``h = u @ diag(s) @ vt``, decomposed in the tall orientation.

    For a wide ``h`` LAPACK factors ``h.T`` faster (at 80 x 200 with one
    OpenBLAS thread, 1.7 ms against 2.1 ms), and the factors of ``h.T``
    are those of ``h`` swapped. A tall ``h`` is factored as it is:
    transposing a 320 x 30 one made it slower.
    """
    if h.shape[1] > h.shape[0]:
        v, s, ut = np.linalg.svd(h.T, full_matrices=False)
        return ut.T, s, v.T
    return np.linalg.svd(h, full_matrices=False)


def hessenberg_reduce(a):
    """Reduce a symmetric matrix to its tridiagonal Hessenberg form.

    LAPACK ``sytrd`` reduces the lower triangle of ``a`` and ``orgqr``
    forms ``q`` from its reflectors, so that ``a = q @ u @ q.T`` with ``u``
    symmetric tridiagonal; the first row and column of ``q`` are those of
    the identity. Returns a ``HessenbergFactorization`` holding ``q`` and
    the two bands of ``u``. The input is left unmodified. Raises
    InvalidMatrix when ``a`` is not exactly symmetric.
    """
    a = _check_matrix(a, "a")
    n, m = a.shape
    if n != m:
        raise ShapeMismatch(f"expected a square matrix, got {n}x{m}")
    # The Gram products h.T @ h and h @ h.T come out exactly symmetric, so
    # an exact check refuses nothing the solve path builds.
    if not (a == a.T).all():
        raise InvalidMatrix("a must be symmetric")
    if n == 1:  # the wrappers reject the empty tau of a 1x1 matrix
        return HessenbergFactorization(
            q=np.ones((1, 1)), diagonal=a[0].copy(), offdiagonal=np.empty(0)
        )
    # Without overwrite_a, dsytrd works on a copy and leaves the caller's array alone.
    # The minimum workspace, n, makes it run unblocked. Its optimal one, n times
    # LAPACK's block size, also gives dorgqr its full block size: dorgqr's
    # default of 3(n - 1) limits it to blocks of three reflectors, which took
    # 2.4x as long at n = 500 (below n = 130 dorgqr runs unblocked anyway).
    lwork = int(dsytrd_lwork(n, lower=1)[0]) if n >= _BLOCKED_FROM else n
    reflectors, diagonal, offdiagonal, tau, _ = dsytrd(a, lower=1, lwork=lwork)
    q = np.zeros((n, n))
    q[0, 0] = 1.0
    q[1:, 1:], _, _ = dorgqr(reflectors[1:, :-1], tau, lwork=lwork)
    return HessenbergFactorization(q=q, diagonal=diagonal, offdiagonal=offdiagonal)


def lu_factor_solve(a, b):
    """Solve a @ x = b by LU factorization with partial pivoting (LAPACK ``gesv``).

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
    lu, _, x, info = dgesv(a, b_arr)
    if info > 0:
        raise SingularMatrix(f"no usable pivot in column {info - 1}")
    weak = np.flatnonzero(np.abs(np.diagonal(lu)) < _PIVOT_FLOOR)
    if weak.size:
        raise SingularMatrix(f"no usable pivot in column {weak[0]}")
    return x[:, 0] if vector else x


def _generator(seed):
    """``np.random.default_rng(seed)`` for an integer seed >= 0 or a Generator."""
    if not isinstance(seed, np.random.Generator):
        seed = _check_int(seed, "seed", 0)
    return np.random.default_rng(seed)


def random_orthogonal(rows, cols, seed):
    """Seeded Gaussian matrix orthonormalized by QR, sign-canonical.

    Columns are orthonormal when cols <= rows, rows otherwise. ``seed``
    may be an integer >= 0 or an existing numpy Generator (the latter lets
    callers chain several draws off one stream).
    """
    rows = _check_int(rows, "rows", 1)
    cols = _check_int(cols, "cols", 1)
    g = _generator(seed).standard_normal((rows, cols))
    wide = cols > rows
    q, r = np.linalg.qr(g.T if wide else g)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    q = q * signs
    return q.T if wide else q


def solve_output_weights(h, t, kind):
    """Output weights beta for hidden activations h and targets t.

    With ridge lambda > 0 every variant solves (h^T h + lambda I) beta =
    h^T t; the ``svd`` variant at lambda = 0 returns pinv(h) @ t instead.
    The Gram kernels factor the smaller Gram matrix: for an n x L ``h``
    with L > n they solve the dual system (h h^T + lambda I) alpha = t and
    return beta = h^T alpha, which is the same beta, from an n x n matrix.
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
        u, s, vt = _svd(h)
        shrink = s / (s * s + lam)
        return (vt.T * shrink) @ (u.T @ t)
    dual = h.shape[1] > h.shape[0]
    gram = h @ h.T if dual else h.T @ h
    gram.flat[:: gram.shape[0] + 1] += lam
    if kind.variant == KERNEL_LU:
        x = lu_factor_solve(gram, t if dual else h.T @ t)
    else:
        # Each intermediate is let go of once the next is formed, so that no
        # more than two of them are held at a time.
        fact = hessenberg_reduce(gram)
        del gram
        # Formed as the transpose of a C-ordered product, so Fortran-ordered:
        # dgtsv then overwrites it in place instead of taking a copy.
        x = ((t if dual else h.T @ t).T @ fact.q).T
        x = _solve_tridiagonal(fact.diagonal, fact.offdiagonal, x)
        x = fact.q @ x
    return h.T @ x if dual else x


def _solve_tridiagonal(diagonal, offdiagonal, c):
    """Solve u @ y = c for the symmetric tridiagonal u with these bands.

    The sole caller passes the bands of the Hessenberg form of a symmetric
    regularized Gram matrix. Raises NumericalFailure when a band of two or
    more rows is exactly singular. ``c`` is 2-D and may be overwritten.
    """
    if diagonal.size == 1:  # the wrapper rejects the empty off-diagonals of a 1x1 band
        return c / diagonal[0]
    *_, y, info = dgtsv(offdiagonal, diagonal, offdiagonal, c, overwrite_b=1)
    if info > 0:
        raise NumericalFailure("regularized system is singular: singular matrix")
    return y
