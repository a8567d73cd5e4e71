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
    x, report = solve(factorize(A), np.array([5.0, 10.0]))
    assert np.allclose(x, [1.0, 3.0], atol=1e-14)
    assert report.relative_residual <= DEFAULT_TOLERANCE
    assert report.dimension == 2


def test_hand_solved_saddle_point():
    # [[2, 0, 1], [0, 2, 1], [1, 1, 0]] x = [1.5, 1.5, 1.0]: x = (0.5, 0.5, 0.5).
    A = sp.csc_matrix(
        np.array([[2.0, 0.0, 1.0], [0.0, 2.0, 1.0], [1.0, 1.0, 0.0]])
    )
    x, _ = solve(factorize(A), np.array([1.5, 1.5, 1.0]))
    assert np.allclose(x, [0.5, 0.5, 0.5], atol=1e-14)


def test_random_spd_system_matches_dense_solve():
    rng = np.random.default_rng(7)
    B = rng.standard_normal((50, 50))
    dense = B @ B.T + 50.0 * np.eye(50)
    b = rng.standard_normal(50)
    x, report = solve(factorize(sp.csc_matrix(dense)), b)
    assert np.allclose(x, np.linalg.solve(dense, b), rtol=1e-10, atol=1e-12)
    assert report.relative_residual <= DEFAULT_TOLERANCE


def test_solution_is_bitwise_deterministic():
    rng = np.random.default_rng(11)
    dense = rng.standard_normal((40, 40)) + 40.0 * np.eye(40)
    A = sp.csc_matrix(dense)
    b = rng.standard_normal(40)
    x1, _ = solve(factorize(A), b)
    x2, _ = solve(factorize(A), b)
    assert np.array_equal(x1, x2)


def test_zero_rhs_gives_zero_solution():
    A = sp.csc_matrix(np.array([[4.0, 1.0], [1.0, 4.0]]))
    x, report = solve(factorize(A), np.zeros(2))
    assert np.array_equal(x, np.zeros(2))
    assert report.relative_residual == 0.0


def test_factorization_reuse_is_consistent():
    A = sp.csc_matrix(np.array([[3.0, 1.0], [1.0, 3.0]]))
    fact = factorize(A)
    b = np.array([1.0, 2.0])
    x1, _ = solve(fact, b)
    x2, _ = solve(fact, b)
    assert np.array_equal(x1, x2)


def test_structurally_empty_row_named():
    A = sp.csc_matrix(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(SingularMatrixError, match="row 1") as exc_info:
        factorize(A)
    assert exc_info.value.row == 1


def test_structurally_empty_column_named():
    A = sp.csc_matrix(np.array([[1.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(SingularMatrixError, match="column 1") as exc_info:
        factorize(A)
    assert exc_info.value.row == 1


def test_numerically_singular_matrix_rejected():
    # Structurally full but rank deficient: second row is twice the first.
    A = sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularMatrixError, match="singular"):
        factorize(A)


def test_non_square_matrix_rejected():
    with pytest.raises(ValueError, match="square"):
        factorize(sp.csc_matrix(np.ones((2, 3))))


def test_wrong_rhs_length_rejected():
    fact = factorize(sp.eye(3, format="csc"))
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
    fact = factorize(A)
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
    x, report = solve(factorize(A), np.array([3.0]))
    assert x[0] == pytest.approx(1.5)
    assert report.relative_residual == 0.0


def test_factorization_shape_property():
    fact = factorize(sp.eye(5, format="csc"))
    assert isinstance(fact, Factorization)
    assert fact.shape == (5, 5)
