"""Direct sparse solver wrapper: correctness, determinism, failure modes."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from porofem.solver import (
    DEFAULT_TOLERANCE,
    Factorization,
    LinearSolveReport,
    SingularMatrixError,
    SolverFailureError,
    factorize,
    solve,
)


def test_hand_solved_2x2():
    # [[2, 1], [1, 3]] x = [5, 10] has the exact solution x = (1, 3).
    A = sp.csc_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
    x, report = solve(factorize(A, np.arange(2)), np.array([5.0, 10.0]))
    assert np.allclose(x, [1.0, 3.0], atol=1e-14)
    assert report.relative_residual <= DEFAULT_TOLERANCE


def test_hand_solved_saddle_point():
    # [[2, 0, 1], [0, 2, 1], [1, 1, 0]] x = [1.5, 1.5, 1.0]: x = (0.5, 0.5, 0.5).
    A = sp.csc_matrix(
        np.array([[2.0, 0.0, 1.0], [0.0, 2.0, 1.0], [1.0, 1.0, 0.0]])
    )
    x, _ = solve(factorize(A, np.arange(3)), np.array([1.5, 1.5, 1.0]))
    assert np.allclose(x, [0.5, 0.5, 0.5], atol=1e-14)


def test_random_spd_system_matches_dense_solve():
    rng = np.random.default_rng(7)
    B = rng.standard_normal((50, 50))
    dense = B @ B.T + 50.0 * np.eye(50)
    b = rng.standard_normal(50)
    x, report = solve(factorize(sp.csc_matrix(dense), np.arange(50)), b)
    assert np.allclose(x, np.linalg.solve(dense, b), rtol=1e-10, atol=1e-12)
    assert report.relative_residual <= DEFAULT_TOLERANCE


def test_solution_is_bitwise_deterministic():
    rng = np.random.default_rng(11)
    dense = rng.standard_normal((40, 40)) + 40.0 * np.eye(40)
    A = sp.csc_matrix(dense)
    b = rng.standard_normal(40)
    x1, _ = solve(factorize(A, np.arange(40)), b)
    x2, _ = solve(factorize(A, np.arange(40)), b)
    assert np.array_equal(x1, x2)


def test_zero_rhs_gives_zero_solution():
    A = sp.csc_matrix(np.array([[4.0, 1.0], [1.0, 4.0]]))
    x, report = solve(factorize(A, np.arange(2)), np.zeros(2))
    assert np.array_equal(x, np.zeros(2))
    assert report.relative_residual == 0.0


def test_factorization_reuse_is_consistent():
    A = sp.csc_matrix(np.array([[3.0, 1.0], [1.0, 3.0]]))
    fact = factorize(A, np.arange(2))
    b = np.array([1.0, 2.0])
    x1, _ = solve(fact, b)
    x2, _ = solve(fact, b)
    assert np.array_equal(x1, x2)


def test_structurally_empty_row_named():
    A = sp.csc_matrix(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(SingularMatrixError, match="row 1") as exc_info:
        factorize(A, np.arange(3))
    assert exc_info.value.row == 1


def test_structurally_empty_column_named():
    A = sp.csc_matrix(np.array([[1.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(SingularMatrixError, match="column 1") as exc_info:
        factorize(A, np.arange(3))
    assert exc_info.value.row == 1


def test_numerically_singular_matrix_rejected():
    # Structurally full but rank deficient: second row is twice the first.
    A = sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularMatrixError, match="singular"):
        factorize(A, np.arange(2))


def test_non_square_matrix_rejected():
    with pytest.raises(ValueError, match="square"):
        factorize(sp.csc_matrix(np.ones((2, 3))), np.arange(2))


def test_wrong_rhs_length_rejected():
    fact = factorize(sp.eye(3, format="csc"), np.arange(3))
    with pytest.raises(ValueError, match="shape"):
        solve(fact, np.ones(4))


def test_residual_tolerance_violation_raises_with_report():
    # An ill-conditioned system whose true residual, while tiny, is measured
    # honestly; tightening the tolerance below it must raise and the report
    # must travel with the exception.
    rng = np.random.default_rng(3)
    dense = rng.standard_normal((30, 30)) + 30.0 * np.eye(30)
    A = sp.csc_matrix(dense)
    b = rng.standard_normal(30)
    fact = factorize(A, np.arange(30))
    _, report = solve(fact, b)
    assert report.relative_residual > 0.0
    with pytest.raises(SolverFailureError) as exc_info:
        solve(fact, b, tolerance=report.relative_residual / 2.0)
    carried = exc_info.value.report
    assert isinstance(carried, LinearSolveReport)
    assert carried.relative_residual == pytest.approx(report.relative_residual)


def test_relative_residual_definition():
    # For a 1x1 system the residual is exactly computable by hand: it is 0.
    A = sp.csc_matrix(np.array([[2.0]]))
    x, report = solve(factorize(A, np.arange(1)), np.array([3.0]))
    assert x[0] == pytest.approx(1.5)
    assert report.relative_residual == 0.0


def test_factorization_shape_property():
    fact = factorize(sp.eye(5, format="csc"), np.arange(5))
    assert isinstance(fact, Factorization)
    assert fact.shape == (5, 5)


def test_order_must_be_a_permutation():
    A = sp.eye(3, format="csc")
    for order in ([0, 0, 1], [0, 1], [1, 2, 3]):
        with pytest.raises(ValueError, match="permutation"):
            factorize(A, np.array(order))


def test_badly_scaled_system_in_any_order_matches_dense_solve():
    # Rows and columns scaled over twelve decades, eliminated in a random
    # order: the equilibration and the permutation are undone in the solve.
    rng = np.random.default_rng(5)
    n = 60
    core = sp.random(n, n, density=0.1, random_state=rng).toarray() + n * np.eye(n)
    dense = np.diag(10.0 ** rng.uniform(-6, 6, n)) @ core @ np.diag(10.0 ** rng.uniform(-6, 6, n))
    b = dense @ rng.standard_normal(n)
    fact = factorize(sp.csc_matrix(dense), rng.permutation(n))
    x, report = solve(fact, b)
    assert np.array_equal(fact.matrix.toarray(), dense)
    assert report.relative_residual <= 1e-14
    assert np.allclose(dense @ x, b, rtol=0.0, atol=1e-14 * np.linalg.norm(b))


def test_factorize_leaves_its_input_unchanged():
    # An explicit zero is left out of the factorization, not pruned from
    # the caller's matrix, whose arrays a CSC input shares.
    A = sp.csc_matrix(
        (np.array([2.0, 0.0, 0.0, 3.0]), np.array([0, 1, 0, 1]), np.array([0, 2, 4])), shape=(2, 2)
    )
    before = [A.data.copy(), A.indices.copy(), A.indptr.copy()]
    x, _ = solve(factorize(A, np.arange(2)), np.array([2.0, 3.0]))
    assert np.array_equal(x, [1.0, 1.0])
    for arr, old in zip((A.data, A.indices, A.indptr), before):
        assert np.array_equal(arr, old)
