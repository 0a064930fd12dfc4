"""Tests for the linear-algebra kernels.

The reference results come from independent little implementations written
here in the test file (Gaussian elimination, normal equations), not from
the code under test, so agreement actually means something.
"""
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

import hhtelm
from hhtelm import (
    SolverKind,
    hessenberg_reduce,
    solve_output_weights,
    svd_pseudoinverse,
)
from hhtelm import solvers
from hhtelm.solvers import lu_factor_solve, random_orthogonal
from hhtelm.elm import sigmoid
from hhtelm.errors import (
    InvalidConfig,
    InvalidMatrix,
    NumericalFailure,
    ShapeMismatch,
    SingularMatrix,
)

_SRC = str(Path(hhtelm.__file__).resolve().parents[1])


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
    # second singular value far below the cutoff (1e-12 * sigma_max) must act like zero
    u = random_orthogonal(4, 2, np.random.default_rng(0))
    v = random_orthogonal(3, 2, np.random.default_rng(1))
    h = u @ np.diag([1.0, 1e-15]) @ v.T
    pinv = svd_pseudoinverse(h)
    assert np.linalg.norm(pinv) < 10.0  # a genuine inverse of 1e-15 would be 1e15


def test_pseudoinverse_rejects_nonfinite():
    with pytest.raises(InvalidMatrix):
        svd_pseudoinverse(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(InvalidMatrix):
        svd_pseudoinverse(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_every_matrix_check_rejects_input_that_is_not_numeric():
    kind = SolverKind("lu", ridge=1e-3)
    config = hhtelm.TrainConfig(layer_sizes=(1,), kernel=kind)
    model = hhtelm.deep_elm_train(np.eye(4)[:, :1], ["negativity", "positivity"] * 2, config)
    for call in (
        svd_pseudoinverse,
        hessenberg_reduce,
        lambda a: solve_output_weights(a, np.ones((1, 1)), kind),
        lambda a: hhtelm.elm_train(a, np.ones((1, 1)), hhtelm.draw_layers(1, (1,), 0)[0], kind),
        lambda a: hhtelm.deep_elm_train(a, ["negativity"], config),
        lambda a: hhtelm.deep_elm_predict(model, a),
    ):
        with pytest.raises(InvalidMatrix, match="is not numeric"):
            call([["a"]])


def test_pseudoinverse_rejects_bad_shapes():
    with pytest.raises((InvalidMatrix, ShapeMismatch)):
        svd_pseudoinverse(np.array([1.0, 2.0, 3.0]))
    with pytest.raises((InvalidMatrix, ShapeMismatch)):
        svd_pseudoinverse(np.zeros((0, 3)))


# ---------------------------------------------------------------------------
# hessenberg_reduce


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


def test_hessenberg_rejects_nonsquare():
    with pytest.raises(ShapeMismatch):
        hessenberg_reduce(np.zeros((3, 4)))


def test_hessenberg_rejects_a_nonsymmetric_matrix():
    a = np.array([[1.0, 2.0], [2.0 + 1e-15, 1.0]])
    with pytest.raises(InvalidMatrix, match="symmetric"):
        hessenberg_reduce(a)


def test_hessenberg_symmetric_contract():
    # 127 and 128 straddle the size from which dsytrd runs blocked.
    rng = np.random.default_rng(23)
    for n in (*range(1, 41), 127, 128, 200):
        c = rng.standard_normal((n, n))
        a = c + c.T
        before = a.copy()
        fact = hessenberg_reduce(a)
        u = fact.u
        scale = np.linalg.norm(a)
        assert np.linalg.norm(fact.q.T @ fact.q - np.eye(n)) < 1e-13 * n, n
        assert np.linalg.norm(fact.q @ u @ fact.q.T - a) < 1e-13 * n * scale, n
        np.testing.assert_array_equal(np.triu(u, 2), 0.0)
        np.testing.assert_array_equal(np.tril(u, -2), 0.0)
        np.testing.assert_array_equal(u, u.T)
        np.testing.assert_array_equal(a, before)
        assert fact.diagonal.shape == (n,) and fact.offdiagonal.shape == (n - 1,)
        assert not np.shares_memory(fact.diagonal, a)


def _band(diagonal, offdiagonal):
    """The (1, 1) diagonal-ordered form that solve_banded takes."""
    band = np.zeros((3, diagonal.size))
    band[0, 1:] = offdiagonal
    band[1] = diagonal
    band[2, :-1] = offdiagonal
    return band


def test_tridiagonal_solve_matches_solve_banded_bit_for_bit():
    # The bands the hessenberg kernel solves: Hessenberg forms of
    # regularized Gram matrices, against several right-hand sides.
    rng = np.random.default_rng(29)
    for n in range(1, 41):
        h = rng.standard_normal((n + 3, n))
        fact = hessenberg_reduce(h.T @ h + 1e-3 * np.eye(n))
        bands = (fact.diagonal.copy(), fact.offdiagonal.copy())
        c = rng.standard_normal((n, 3))
        expected = solve_banded((1, 1), _band(*bands), c)
        y = solvers._solve_tridiagonal(fact.diagonal, fact.offdiagonal, c.copy())
        np.testing.assert_array_equal(y, expected)
        np.testing.assert_array_equal(fact.diagonal, bands[0])
        np.testing.assert_array_equal(fact.offdiagonal, bands[1])


def test_tridiagonal_solve_rejects_an_exactly_singular_band():
    # A zero leading pivot with a zero below it: no row swap can help.
    with pytest.raises(NumericalFailure, match="singular"):
        solvers._solve_tridiagonal(np.array([0.0, 2.0, 3.0]), np.array([0.0, 1.0]), np.ones((3, 2)))


# ---------------------------------------------------------------------------
# lu_factor_solve


def test_lu_identity():
    b = np.array([[1.0], [-2.0], [3.0]])
    np.testing.assert_allclose(lu_factor_solve(np.eye(3), b), b, atol=1e-14)


def test_lu_diagonal():
    x = lu_factor_solve(np.diag([2.0, 4.0]), np.array([[2.0], [4.0]]))
    np.testing.assert_allclose(x, np.array([[1.0], [1.0]]), atol=1e-14)


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
    # One right-hand side, as the column of a single-target elm_train.
    rng = np.random.default_rng(29)
    a = rng.standard_normal((5, 5)) + 5 * np.eye(5)
    b = rng.standard_normal(5)
    x = lu_factor_solve(a, b[:, None])
    assert x.shape == (5, 1)
    np.testing.assert_allclose(x[:, 0], gauss_solve(a, b), atol=1e-10)


def test_lu_singular_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
    with pytest.raises(SingularMatrix):
        lu_factor_solve(a, np.ones((2, 1)))


def test_lu_subnormal_pivot_raises():
    # gesv factors this without an exact zero, but the pivot is below the floor
    with pytest.raises(SingularMatrix, match="column 1"):
        lu_factor_solve(np.diag([1.0, 1e-310]), np.ones((2, 1)))


_GESV_AGAINST_GETRF_GETRS = """
import numpy as np
from scipy.linalg import lu_factor, lu_solve
from hhtelm.solvers import lu_factor_solve
rng = np.random.default_rng(31)
for n in (30, 40, 80):
    h = rng.standard_normal((n + 5, n))
    a = h.T @ h + 1e-3 * np.eye(n)
    for cols in (2, 132):
        b = rng.standard_normal((n, cols))
        assert np.array_equal(lu_factor_solve(a, b), lu_solve(lu_factor(a), b)), (n, cols)
"""


def test_lu_matches_getrf_getrs_bit_for_bit():
    # gesv runs getrf then getrs, the routines behind scipy's lu_factor and
    # lu_solve, here on regularized Gram systems of the solve path. OpenBLAS
    # splits the work of gesv among threads differently from the two
    # separate calls, so the bits agree only with one BLAS thread, as the
    # bench runs; a child process is the one way to pin that here.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", _GESV_AGAINST_GETRF_GETRS], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr


def test_lu_singular_is_a_numerical_failure():
    assert issubclass(SingularMatrix, NumericalFailure)


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
    # A tall h takes the Gram kernels' L x L system, a wide one their n x n
    # dual; the oracle solves the L x L normal equations for both.
    rng = np.random.default_rng(41)
    for rows, cols in ((40, 12), (12, 40)):
        h = rng.standard_normal((rows, cols))
        t = rng.standard_normal((rows, 2))
        for lam in (1e-6, 1e-3, 1.0):
            betas = {
                variant: solve_output_weights(h, t, SolverKind(variant, ridge=lam))
                for variant in ("svd", "hessenberg", "lu")
            }
            expected = ridge_oracle(h, t, lam)
            for variant, beta in betas.items():
                rel = np.linalg.norm(beta - expected) / np.linalg.norm(expected)
                assert rel < 1e-8, (variant, h.shape, lam, rel)
            pair = np.linalg.norm(betas["svd"] - betas["hessenberg"])
            pair = max(pair, np.linalg.norm(betas["svd"] - betas["lu"]))
            assert pair / np.linalg.norm(betas["svd"]) < 1e-8


@pytest.mark.parametrize("shape", [(12, 40), (40, 12), (20, 20)], ids=["wide", "tall", "square"])
def test_gram_kernels_factor_the_smaller_gram_matrix(monkeypatch, shape):
    rows, cols = shape
    side = min(rows, cols)
    seen = []

    def recording(original):
        def call(a, *rest, **private):
            seen.append(np.shape(a))
            return original(a, *rest, **private)

        return call

    monkeypatch.setattr(solvers, "hessenberg_reduce", recording(solvers.hessenberg_reduce))
    monkeypatch.setattr(solvers, "lu_factor_solve", recording(solvers.lu_factor_solve))
    rng = np.random.default_rng(43)
    h = rng.standard_normal(shape)
    t = rng.standard_normal((rows, 3))
    for variant in ("hessenberg", "lu"):
        beta = solve_output_weights(h, t, SolverKind(variant, ridge=1e-3))
        assert beta.shape == (cols, 3)
    assert seen == [(side, side), (side, side)]


# (rows, columns of h), right-hand-side columns: primal and dual systems on
# either side of the n/3 rule.
ROUTES = [
    ((80, 70), 2), ((80, 70), 23), ((80, 70), 24), ((80, 70), 40),
    ((40, 200), 2), ((40, 200), 13), ((40, 200), 14),
    ((300, 250), 2), ((300, 250), 50), ((300, 250), 100),
    ((9, 4), 1), ((2, 5), 1),
]


@pytest.mark.parametrize("shape, columns", ROUTES, ids=[f"{s[0]}x{s[1]}-{c}" for s, c in ROUTES])
def test_hessenberg_routes_agree_with_lu_and_with_q_formed(monkeypatch, shape, columns):
    # A right-hand side of fewer than n/3 columns has the reflectors applied
    # by ormqr, a wider one q formed by orgqr; both give the lu solution,
    # and the solution that forms q, within rounding.
    applied = []

    def counting(side, trans, *rest):
        applied.append(trans)
        return dormqr(side, trans, *rest)

    dormqr = solvers.dormqr
    monkeypatch.setattr(solvers, "dormqr", counting)
    rng = np.random.default_rng(53)
    h = sigmoid(rng.standard_normal(shape))
    t = rng.standard_normal((shape[0], columns))
    kind = SolverKind("hessenberg", ridge=1e-3)
    beta = solve_output_weights(h, t, kind)
    side = min(shape)
    assert applied == (["T", "N"] if 3 * columns < side else [])
    lu = solve_output_weights(h, t, SolverKind("lu", ridge=1e-3))
    assert np.linalg.norm(beta - lu) <= 1e-9 * np.linalg.norm(lu)
    dual = shape[1] > shape[0]
    gram = h @ h.T if dual else h.T @ h
    gram += 1e-3 * np.eye(side)
    fact = hessenberg_reduce(gram)
    q = fact.q
    rhs = t if dual else h.T @ t
    x = q @ solve_banded((1, 1), _band(fact.diagonal, fact.offdiagonal), q.T @ rhs)
    formed = h.T @ x if dual else x
    assert np.linalg.norm(beta - formed) <= 1e-12 * np.linalg.norm(formed)
    if side > 1:
        for trans, product in (("T", q.T @ rhs), ("N", q @ rhs)):
            got = solvers._apply_reflectors(fact, np.array(rhs, order="F"), trans)
            np.testing.assert_allclose(got, product, rtol=0, atol=1e-13 * np.abs(rhs).max() * side)


@st.composite
def sigmoid_systems(draw, ridges=st.floats(1e-3, 1.0), deficient=st.just(False)):
    """An n-row system with L up to 3n columns of sigmoid activations, the
    kind of H every CLI solve sees, plus targets and a ridge from
    ``ridges``. Where ``deficient`` draws True, the inputs repeat columns,
    so they lose rank."""
    n = draw(st.integers(3, 80))
    width = draw(st.integers(2, 3 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, int(rng.integers(2, 20))))
    if draw(deficient):
        x = x[:, rng.integers(0, rng.integers(1, x.shape[1]), x.shape[1])]
    h = sigmoid(x @ random_orthogonal(x.shape[1], width, rng))
    t = rng.standard_normal((n, int(rng.integers(1, 4))))
    return h, t, draw(ridges)


@settings(max_examples=40, deadline=None, database=None)
@given(system=sigmoid_systems())
def test_solve_kernels_agree_random_sizes(system):
    h, t, ridge = system
    ref = solve_output_weights(h, t, SolverKind("svd", ridge=ridge))
    for variant in ("hessenberg", "lu"):
        beta = solve_output_weights(h, t, SolverKind(variant, ridge=ridge))
        rel = np.linalg.norm(beta - ref) / np.linalg.norm(ref)
        assert rel < 1e-8, (variant, h.shape, ridge, rel)


@settings(max_examples=200, deadline=None, database=None)
@given(system=sigmoid_systems(st.floats(-14.0, 0.0).map(lambda e: 10.0**e), st.booleans()))
def test_kernels_agree_within_the_condition_number(system):
    """A backward-stable solve's forward error is of order c(n) * kappa * u
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 7), kappa
    being the condition number of the regularized Gram matrix G + ridge * I
    that the Gram kernels factor. So wherever kappa < 1e14 every pair of
    kernels agrees within C * (n + L) * kappa * u relative, n x L being the
    shape of h; above it, nothing is asserted. C = 10: a targeted search
    found rel / ((n + L) * kappa * u) at most 2.2, on 3 x 2 systems."""
    h, t, ridge = system
    s = np.linalg.svd(h, compute_uv=False)
    kappa = (s[0] ** 2 + ridge) / (s[-1] ** 2 + ridge)
    if kappa >= 1e14:
        return
    betas = {v: solve_output_weights(h, t, SolverKind(v, ridge=ridge)) for v in solvers.KERNELS}
    bound = 10 * sum(h.shape) * kappa * np.finfo(float).eps / 2
    for (a, x), (b, y) in itertools.combinations(betas.items(), 2):
        rel = np.linalg.norm(x - y) / max(np.linalg.norm(x), np.linalg.norm(y))
        assert rel <= bound, (a, b, h.shape, ridge, kappa, rel)


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


@pytest.mark.parametrize("ridge", [True, np.True_, "1", None, 1j, [1.0]])
def test_kind_rejects_a_ridge_that_is_not_a_real_number(ridge):
    with pytest.raises(InvalidConfig, match="real number"):
        SolverKind("lu", ridge)


def test_kind_accepts_numpy_and_integer_ridges():
    for ridge in (np.float64(1e-3), np.float32(1e-3), 1, np.int64(2)):
        assert SolverKind("lu", ridge).ridge == ridge


def test_kind_rejects_negative_ridge_and_unknown_variant():
    with pytest.raises(InvalidConfig):
        SolverKind("svd", ridge=-1e-9)
    with pytest.raises(InvalidConfig):
        SolverKind("qr", ridge=1e-3)


# ---------------------------------------------------------------------------
# random_orthogonal


def test_random_orthogonal_square():
    q = random_orthogonal(3, 3, np.random.default_rng(7))
    np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-10)


def test_random_orthogonal_tall():
    q = random_orthogonal(5, 2, np.random.default_rng(1))
    np.testing.assert_allclose(q.T @ q, np.eye(2), atol=1e-10)


def test_random_orthogonal_wide_rows():
    q = random_orthogonal(2, 5, np.random.default_rng(1))
    np.testing.assert_allclose(q @ q.T, np.eye(2), atol=1e-10)


def test_random_orthogonal_deterministic():
    a = random_orthogonal(6, 4, np.random.default_rng(99))
    b = random_orthogonal(6, 4, np.random.default_rng(99))
    np.testing.assert_array_equal(a, b)
    c = random_orthogonal(6, 4, np.random.default_rng(100))
    assert not np.array_equal(a, c)


def test_random_orthogonal_sizes_loop():
    rng = np.random.default_rng(61)
    for _ in range(10):
        rows = int(rng.integers(1, 30))
        cols = int(rng.integers(1, 30))
        q = random_orthogonal(rows, cols, np.random.default_rng(int(rng.integers(0, 1000))))
        assert q.shape == (rows, cols)
        if cols <= rows:
            np.testing.assert_allclose(q.T @ q, np.eye(cols), atol=1e-10)
        else:
            np.testing.assert_allclose(q @ q.T, np.eye(rows), atol=1e-10)


@pytest.mark.parametrize("shape", [(7, 3), (3, 7), (5, 5)], ids=["tall", "wide", "square"])
def test_svd_factors_either_orientation(shape):
    # A wide h is decomposed through its transpose; the factors must still
    # be those of h itself, thin, with singular values in falling order.
    h = np.random.default_rng(8).standard_normal(shape)
    u, s, vt = solvers._svd(h)
    rank = min(shape)
    assert u.shape == (shape[0], rank) and vt.shape == (rank, shape[1])
    np.testing.assert_allclose((u * s) @ vt, h, atol=1e-12)
    np.testing.assert_allclose(u.T @ u, np.eye(rank), atol=1e-12)
    np.testing.assert_allclose(vt @ vt.T, np.eye(rank), atol=1e-12)
    np.testing.assert_allclose(s, np.linalg.svd(h, compute_uv=False), rtol=1e-12)
