"""Tests for the linear-algebra kernels.

The reference results come from independent little implementations written
here in the test file (Gaussian elimination, normal equations), not from
the code under test, so agreement actually means something.
"""
import numpy as np
import pytest

from hhtelm import (
    SolverKind,
    hessenberg_reduce,
    lu_factor_solve,
    random_orthogonal,
    solve_output_weights,
    svd_pseudoinverse,
)
from hhtelm.errors import (
    InvalidConfig,
    InvalidMatrix,
    NumericalFailure,
    ShapeMismatch,
    SingularMatrix,
)


def gauss_solve(a, b):
    """Plain Gaussian elimination with partial pivoting.

    Deliberately naive (row loops, no BLAS) so it shares nothing with the
    implementations under test.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    single = b.ndim == 1
    if single:
        b = b[:, None]
    n = a.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[pivot, col]) < 1e-14:
            raise ZeroDivisionError("singular test system")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros_like(b)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1:] @ x[row + 1:]) / a[row, row]
    return x[:, 0] if single else x


def ridge_oracle(h, t, lam):
    """Normal-equations ridge solve via the naive eliminator."""
    gram = h.T @ h + lam * np.eye(h.shape[1])
    return gauss_solve(gram, h.T @ t)


def penrose_errors(h, pinv):
    """Relative Frobenius error of the four defining conditions."""
    scale = max(np.linalg.norm(h), 1e-30)
    pscale = max(np.linalg.norm(pinv), 1e-30)
    return (
        np.linalg.norm(h @ pinv @ h - h) / scale,
        np.linalg.norm(pinv @ h @ pinv - pinv) / pscale,
        np.linalg.norm((h @ pinv).T - h @ pinv) / max(np.linalg.norm(h @ pinv), 1e-30),
        np.linalg.norm((pinv @ h).T - pinv @ h) / max(np.linalg.norm(pinv @ h), 1e-30),
    )


# ---------------------------------------------------------------------------
# svd_pseudoinverse


def test_pseudoinverse_identity():
    pinv = svd_pseudoinverse(np.eye(3))
    np.testing.assert_allclose(pinv, np.eye(3), atol=1e-12)


def test_pseudoinverse_rank_deficient_diagonal():
    pinv = svd_pseudoinverse(np.diag([2.0, 0.0]))
    np.testing.assert_allclose(pinv, np.diag([0.5, 0.0]), atol=1e-12)


def test_pseudoinverse_matches_normal_equations_oracle():
    rng = np.random.default_rng(3)
    h = rng.standard_normal((8, 5))
    expected = gauss_solve(h.T @ h, h.T)  # (H^T H)^{-1} H^T, full rank case
    np.testing.assert_allclose(svd_pseudoinverse(h), expected, atol=1e-10)


def test_pseudoinverse_penrose_conditions_random():
    rng = np.random.default_rng(11)
    for trial in range(20):
        rows = int(rng.integers(2, 60))
        cols = int(rng.integers(2, 60))
        h = rng.standard_normal((rows, cols))
        if trial % 3 == 0:
            # force rank deficiency via a low-rank product
            r = max(1, min(rows, cols) // 2)
            h = rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols))
        errs = penrose_errors(h, svd_pseudoinverse(h))
        assert max(errs) < 1e-8, (trial, errs)


def test_pseudoinverse_cutoff_drops_tiny_singular_values():
    # second singular value far below tol * sigma_max must act like zero
    u = random_orthogonal(4, 2, seed=0)
    v = random_orthogonal(3, 2, seed=1)
    h = u @ np.diag([1.0, 1e-15]) @ v.T
    pinv = svd_pseudoinverse(h, tol=1e-12)
    assert np.linalg.norm(pinv) < 10.0  # a genuine inverse of 1e-15 would be 1e15


def test_pseudoinverse_rejects_nonfinite():
    with pytest.raises(InvalidMatrix):
        svd_pseudoinverse(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(InvalidMatrix):
        svd_pseudoinverse(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_pseudoinverse_rejects_bad_shapes():
    with pytest.raises((InvalidMatrix, ShapeMismatch)):
        svd_pseudoinverse(np.array([1.0, 2.0, 3.0]))
    with pytest.raises((InvalidMatrix, ShapeMismatch)):
        svd_pseudoinverse(np.zeros((0, 3)))


# ---------------------------------------------------------------------------
# hessenberg_reduce


def test_hessenberg_fixed_point():
    a = np.array(
        [
            [1.0, 2.0, 3.0, 4.0],
            [5.0, 6.0, 7.0, 8.0],
            [0.0, 9.0, 1.0, 2.0],
            [0.0, 0.0, 3.0, 4.0],
        ]
    )
    fact = hessenberg_reduce(a)
    np.testing.assert_array_equal(fact.q, np.eye(4))
    np.testing.assert_array_equal(fact.u, a)


def test_hessenberg_symmetric_tridiagonal():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 6))
    a = a + a.T
    fact = hessenberg_reduce(a)
    scale = np.linalg.norm(a)
    assert np.linalg.norm(fact.q @ fact.u @ fact.q.T - a) < 1e-12 * scale
    # tridiagonal: everything at |i - j| > 1 vanishes
    for i in range(6):
        for j in range(6):
            if abs(i - j) > 1:
                assert abs(fact.u[i, j]) < 1e-10 * scale


def test_hessenberg_scalar():
    fact = hessenberg_reduce(np.array([[3.5]]))
    np.testing.assert_array_equal(fact.q, np.array([[1.0]]))
    np.testing.assert_array_equal(fact.u, np.array([[3.5]]))


def test_hessenberg_random_structure():
    rng = np.random.default_rng(17)
    for _ in range(15):
        n = int(rng.integers(2, 25))
        a = rng.standard_normal((n, n))
        if rng.random() < 0.5:
            a = a + a.T
        fact = hessenberg_reduce(a)
        scale = max(np.linalg.norm(a), 1e-30)
        assert np.linalg.norm(fact.q.T @ fact.q - np.eye(n)) < 1e-10
        assert np.linalg.norm(fact.q @ fact.u @ fact.q.T - a) < 1e-10 * scale
        below = np.tril(fact.u, -2)
        assert np.all(below == 0.0)  # zeros written explicitly, not approximately


def test_hessenberg_rejects_nonsquare():
    with pytest.raises(ShapeMismatch):
        hessenberg_reduce(np.zeros((3, 4)))


# ---------------------------------------------------------------------------
# lu_factor_solve


def test_lu_identity():
    b = np.array([1.0, -2.0, 3.0])
    np.testing.assert_allclose(lu_factor_solve(np.eye(3), b), b, atol=1e-14)


def test_lu_diagonal():
    x = lu_factor_solve(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
    np.testing.assert_allclose(x, np.array([1.0, 1.0]), atol=1e-14)


def test_lu_matches_elimination_oracle():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        a = rng.standard_normal((n, n)) + n * np.eye(n)  # keep it well conditioned
        b = rng.standard_normal((n, 3))
        x = lu_factor_solve(a, b)
        np.testing.assert_allclose(x, gauss_solve(a, b), atol=1e-10)
        assert np.linalg.norm(a @ x - b) <= 1e-9 * max(np.linalg.norm(b), 1e-30)


def test_lu_vector_rhs():
    rng = np.random.default_rng(29)
    a = rng.standard_normal((5, 5)) + 5 * np.eye(5)
    b = rng.standard_normal(5)
    np.testing.assert_allclose(lu_factor_solve(a, b), gauss_solve(a, b), atol=1e-10)


def test_lu_singular_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
    with pytest.raises(SingularMatrix):
        lu_factor_solve(a, np.array([1.0, 1.0]))


def test_lu_singular_is_a_numerical_failure():
    assert issubclass(SingularMatrix, NumericalFailure)


def test_lu_rejects_nonsquare():
    with pytest.raises(ShapeMismatch):
        lu_factor_solve(np.zeros((2, 3)), np.zeros(2))


# ---------------------------------------------------------------------------
# solve_output_weights


def test_solve_identity_design_svd():
    rng = np.random.default_rng(31)
    t = rng.standard_normal((5, 2))
    beta = solve_output_weights(np.eye(5), t, SolverKind("svd", ridge=0.0))
    np.testing.assert_allclose(beta, t, atol=1e-10)


def test_solve_identity_design_gram_halves():
    # (I + I) beta = t for ridge 1, so beta = t / 2
    rng = np.random.default_rng(37)
    t = rng.standard_normal((5, 2))
    for variant in ("hessenberg", "lu", "svd"):
        beta = solve_output_weights(np.eye(5), t, SolverKind(variant, ridge=1.0))
        np.testing.assert_allclose(beta, t / 2.0, atol=1e-10, err_msg=variant)


def test_solve_kernels_agree_and_match_oracle():
    rng = np.random.default_rng(41)
    h = rng.standard_normal((40, 12))
    t = rng.standard_normal((40, 2))
    for lam in (1e-6, 1e-3, 1.0):
        betas = {
            variant: solve_output_weights(h, t, SolverKind(variant, ridge=lam))
            for variant in ("svd", "hessenberg", "lu")
        }
        expected = ridge_oracle(h, t, lam)
        for variant, beta in betas.items():
            rel = np.linalg.norm(beta - expected) / np.linalg.norm(expected)
            assert rel < 1e-8, (variant, lam, rel)
        pair = np.linalg.norm(betas["svd"] - betas["hessenberg"])
        pair = max(pair, np.linalg.norm(betas["svd"] - betas["lu"]))
        assert pair / np.linalg.norm(betas["svd"]) < 1e-8


def test_solve_kernels_agree_random_sizes():
    rng = np.random.default_rng(43)
    for trial in range(12):
        n = int(rng.integers(10, 60))
        if trial % 3 == 2:
            width = int(rng.integers(n + 1, 3 * n))  # wide layer: more columns than rows
        else:
            width = int(rng.integers(2, n))
        h = rng.standard_normal((n, width))
        t = rng.standard_normal((n, int(rng.integers(1, 4))))
        ref = solve_output_weights(h, t, SolverKind("svd", ridge=1e-3))
        for variant in ("hessenberg", "lu"):
            beta = solve_output_weights(h, t, SolverKind(variant, ridge=1e-3))
            rel = np.linalg.norm(beta - ref) / np.linalg.norm(ref)
            assert rel < 1e-8, (variant, n, width, rel)


def test_solve_ridge_shrinkage_monotone():
    rng = np.random.default_rng(47)
    h = rng.standard_normal((30, 10))
    t = rng.standard_normal((30, 2))
    norms = [
        np.linalg.norm(solve_output_weights(h, t, SolverKind("svd", ridge=lam)))
        for lam in (1e-6, 1e-3, 1e-1, 1.0, 10.0)
    ]
    assert all(a >= b for a, b in zip(norms, norms[1:])), norms


def test_solve_interpolation_regime():
    # square full-rank system with no ridge is solved exactly
    rng = np.random.default_rng(53)
    h = rng.standard_normal((20, 20)) + 20 * np.eye(20)
    t = rng.standard_normal((20, 2))
    beta = solve_output_weights(h, t, SolverKind("svd", ridge=0.0))
    assert np.linalg.norm(h @ beta - t) < 1e-9


def test_solve_rejects_row_mismatch():
    with pytest.raises(ShapeMismatch):
        solve_output_weights(np.eye(4), np.zeros((5, 2)), SolverKind("svd", ridge=0.0))


# ---------------------------------------------------------------------------
# SolverKind validation


def test_kind_gram_requires_positive_ridge():
    with pytest.raises(InvalidConfig):
        SolverKind("hessenberg", ridge=0.0)
    with pytest.raises(InvalidConfig):
        SolverKind("lu", ridge=0.0)
    SolverKind("svd", ridge=0.0)  # allowed


def test_kind_rejects_negative_ridge_and_unknown_variant():
    with pytest.raises(InvalidConfig):
        SolverKind("svd", ridge=-1e-9)
    with pytest.raises(InvalidConfig):
        SolverKind("qr", ridge=1e-3)


# ---------------------------------------------------------------------------
# random_orthogonal


def test_random_orthogonal_square():
    q = random_orthogonal(3, 3, seed=7)
    np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-10)


def test_random_orthogonal_tall():
    q = random_orthogonal(5, 2, seed=1)
    np.testing.assert_allclose(q.T @ q, np.eye(2), atol=1e-10)


def test_random_orthogonal_wide_rows():
    q = random_orthogonal(2, 5, seed=1)
    np.testing.assert_allclose(q @ q.T, np.eye(2), atol=1e-10)


def test_random_orthogonal_deterministic():
    a = random_orthogonal(6, 4, seed=99)
    b = random_orthogonal(6, 4, seed=99)
    np.testing.assert_array_equal(a, b)
    c = random_orthogonal(6, 4, seed=100)
    assert not np.array_equal(a, c)


def test_random_orthogonal_sizes_loop():
    rng = np.random.default_rng(61)
    for _ in range(10):
        rows = int(rng.integers(1, 30))
        cols = int(rng.integers(1, 30))
        q = random_orthogonal(rows, cols, seed=int(rng.integers(0, 1000)))
        assert q.shape == (rows, cols)
        if cols <= rows:
            np.testing.assert_allclose(q.T @ q, np.eye(cols), atol=1e-10)
        else:
            np.testing.assert_allclose(q @ q.T, np.eye(rows), atol=1e-10)
