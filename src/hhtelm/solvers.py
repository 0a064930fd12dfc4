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
reduces the symmetric matrix to its tridiagonal form with ``sytrd`` and
solves the band with ``gtsv`` (Golub & Van Loan, Matrix Computations,
section 8.3). ``sytrd`` takes about half the flops of the general
Hessenberg reduction ``gehrd``. The orthogonal factor stays as ``sytrd``'s
Householder reflectors: a right-hand side of fewer than n/3 columns, such
as a readout's two, has them applied by ``ormqr`` (section 5.1), and only
a wider one has ``orgqr`` form the factor.

All three solve (H^T H + lambda I) beta = H^T T for lambda > 0 and agree to
solver tolerance; ``svd`` additionally supports the exact pseudoinverse at
lambda = 0, the lambda -> 0 limit of the same singular-value shrink. When
H has more columns L than rows n, the two Gram kernels factor the n x n
dual system (H H^T + lambda I) alpha = T instead and return beta = H^T
alpha, the same ridge solution (Huang, Zhou, Ding & Zhang 2012, IEEE
TSMC-B 42(2)); otherwise they factor the L x L system.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgesv, dgtsv, dormqr, dorgqr, dsytrd, dsytrd_lwork

from .errors import (
    InvalidConfig,
    InvalidMatrix,
    NumericalFailure,
    ShapeMismatch,
    SingularMatrix,
)
from .errors import _check_matrix, _check_real

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
        if not isinstance(self.variant, str) or self.variant not in KERNELS:
            raise InvalidConfig(
                f"unknown solver variant {self.variant!r}, expected one of {KERNELS}"
            )
        _check_real(self.ridge, "ridge", 0, strict=False)
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
    superdiagonal alike). ``q`` is held as the n - 1 Householder
    reflectors ``sytrd`` leaves: its first row and column are those of the
    identity, and its trailing (n - 1) x (n - 1) block is the product of
    the reflectors whose vectors lie below the diagonal of ``reflectors``
    and whose scales are ``tau``.
    """

    reflectors: np.ndarray
    tau: np.ndarray
    diagonal: np.ndarray
    offdiagonal: np.ndarray

    @property
    def q(self):
        """The dense n x n orthogonal factor, formed from the reflectors by ``orgqr``."""
        n = self.diagonal.size
        q = np.zeros((n, n))
        q[0, 0] = 1.0
        if n > 1:
            q[1:, 1:], _, _ = dorgqr(self.reflectors, self.tau, lwork=_workspace(n))
        return q

    @property
    def u(self):
        """The dense n x n tridiagonal matrix the two bands describe."""
        return (
            np.diag(self.diagonal)
            + np.diag(self.offdiagonal, -1)
            + np.diag(self.offdiagonal, 1)
        )


def svd_pseudoinverse(h):
    """Moore-Penrose pseudoinverse with a relative singular-value cutoff.

    Singular values below ``1e-12 * sigma_max`` are treated as exact zeros,
    so rank-deficient input yields the minimum-norm inverse rather than
    an explosion.
    """
    h = _check_matrix(h, "h")
    u, s, vt = _svd(h)
    return (vt.T * _shrink(s, 0.0)) @ u.T


def _shrink(s, lam):
    """The factors that map singular values ``s`` (falling) to the ridge
    solution: s / (s^2 + lam), and at lam = 0 their limit 1 / s, taken as 0
    for a value at or below the cutoff ``_SVD_TOL * s[0]``."""
    if lam > 0.0:
        return s / (s * s + lam)
    inv = np.zeros_like(s)
    keep = s > _SVD_TOL * s[0]
    inv[keep] = 1.0 / s[keep]
    return inv


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


def _workspace(n):
    """The workspace that ``sytrd`` and ``orgqr`` get at size n.

    The minimum, n, makes ``sytrd`` run unblocked. Its optimal one, n times
    LAPACK's block size, also gives ``orgqr`` its full block size:
    ``orgqr``'s default of 3(n - 1) limits it to blocks of three
    reflectors, which took 2.4x as long at n = 500 (below n = 130 ``orgqr``
    runs unblocked anyway).
    """
    return int(dsytrd_lwork(n, lower=1)[0]) if n >= _BLOCKED_FROM else n


def hessenberg_reduce(a, *, _checked=False):
    """Reduce a symmetric matrix to its tridiagonal Hessenberg form.

    LAPACK ``sytrd`` reduces the lower triangle of ``a`` to ``u`` and the
    Householder reflectors of ``q``, so that ``a = q @ u @ q.T`` with ``u``
    symmetric tridiagonal; the first row and column of ``q`` are those of
    the identity. Returns a ``HessenbergFactorization`` holding the
    reflectors and the two bands of ``u``; it forms ``q`` when asked. The
    input is left unmodified. Raises InvalidMatrix when ``a`` is not exactly
    symmetric. ``solve_output_weights`` passes ``_checked`` for the Gram
    matrix it built from a checked h, which skips these checks.
    """
    if not _checked:
        a = _check_matrix(a, "a", square=True)
        # The Gram products h.T @ h and h @ h.T come out exactly symmetric, so
        # an exact check refuses nothing the solve path builds.
        if not (a == a.T).all():
            raise InvalidMatrix("a must be symmetric")
    n = a.shape[0]
    if n == 1:  # the wrappers reject the empty tau of a 1x1 matrix
        return HessenbergFactorization(np.empty((0, 0)), np.empty(0), a[0].copy(), np.empty(0))
    # Without overwrite_a, dsytrd works on a copy and leaves the caller's array alone.
    reflectors, diagonal, offdiagonal, tau, _ = dsytrd(a, lower=1, lwork=_workspace(n))
    # The block ormqr and orgqr read, copied once into the Fortran order they take.
    reflectors = np.asfortranarray(reflectors[1:, :-1])
    return HessenbergFactorization(reflectors, tau, diagonal, offdiagonal)


def _apply_reflectors(fact, c, trans):
    """``q.T @ c`` (``trans`` "T") or ``q @ c`` ("N") for the ``q`` of the
    factorization ``fact``, its reflectors applied one at a time by
    ``ormqr`` without forming it. ``c`` is 2-D with at least two rows, and
    its rows after the first are overwritten."""
    c[1:], _, _ = dormqr("L", trans, fact.reflectors, fact.tau, c[1:], c.shape[1])
    return c


def lu_factor_solve(a, b):
    """Solve a @ x = b by LU factorization with partial pivoting (LAPACK ``gesv``).

    ``solve_output_weights`` passes the regularized Gram system it built
    from checked arrays: a square ``a`` and a 2-D ``b`` of stacked
    right-hand sides. Raises SingularMatrix when no usable pivot remains.
    """
    lu, _, x, info = dgesv(a, b)
    if info > 0:
        raise SingularMatrix(f"no usable pivot in column {info - 1}")
    weak = np.flatnonzero(np.abs(np.diagonal(lu)) < _PIVOT_FLOOR)
    if weak.size:
        raise SingularMatrix(f"no usable pivot in column {weak[0]}")
    return x


def random_orthogonal(rows, cols, rng):
    """Gaussian matrix drawn from the Generator ``rng``, orthonormalized by
    QR, sign-canonical.

    Columns are orthonormal when cols <= rows, rows otherwise. ``rows`` and
    ``cols`` are integers >= 1, as ``elm.draw_layers`` checks them.
    """
    g = rng.standard_normal((rows, cols))
    wide = cols > rows
    q, r = np.linalg.qr(g.T if wide else g)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    q = q * signs
    return q.T if wide else q


def solve_output_weights(h, t, kind):
    """Output weights beta for hidden activations h and targets t.

    With ridge lambda > 0 every variant solves (h^T h + lambda I) beta =
    h^T t; the ``svd`` variant at lambda = 0 returns pinv(h) @ t instead,
    without forming pinv(h).
    The Gram kernels factor the smaller Gram matrix: for an n x L ``h``
    with L > n they solve the dual system (h h^T + lambda I) alpha = t and
    return beta = h^T alpha, which is the same beta, from an n x n matrix.
    Only h and t are checked: the Gram system built from them goes to the
    kernel unchecked, and a beta that is not finite, which a huge ridge or
    huge entries of h give, raises NumericalFailure.
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
        u, s, vt = _svd(h)
        beta = (vt.T * _shrink(s, lam)) @ (u.T @ t)
    else:
        dual = h.shape[1] > h.shape[0]
        gram = h @ h.T if dual else h.T @ h
        gram.flat[:: gram.shape[0] + 1] += lam
        if kind.variant == KERNEL_LU:
            x = lu_factor_solve(gram, t if dual else h.T @ t)
        else:
            # Each intermediate is let go of once the next is formed, so that
            # no more than two of them are held at a time.
            fact = hessenberg_reduce(gram, _checked=True)
            del gram
            bands = fact.diagonal, fact.offdiagonal
            if 3 * t.shape[1] < fact.diagonal.size:
                # Applying q.T and q costs about 4 n^2 flops a column, forming
                # q (4/3) n^3: a narrow right-hand side, a readout's, skips q.
                x = _apply_reflectors(fact, np.array(t if dual else h.T @ t, order="F"), "T")
                x = _apply_reflectors(fact, _solve_tridiagonal(*bands, x), "N")
            else:
                q = fact.q
                del fact
                # Formed as the transpose of a C-ordered product, so Fortran-
                # ordered: dgtsv then overwrites it in place, with no copy.
                x = q @ _solve_tridiagonal(*bands, ((t if dual else h.T @ t).T @ q).T)
        beta = h.T @ x if dual else x
    if not np.isfinite(beta).all():
        raise NumericalFailure(f"the {kind.variant} solve gave non-finite output weights")
    return beta


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
