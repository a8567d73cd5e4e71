"""Direct sparse linear solves with residual verification.

Every solve is checked against its own relative residual; a factorization
is computed once per matrix and reused across time steps, since the
operators of the scheme are time-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "SingularMatrixError",
    "SolverFailureError",
    "LinearSolveReport",
    "Factorization",
    "factorize",
    "solve",
]

DEFAULT_TOLERANCE = 1e-10


class SingularMatrixError(RuntimeError):
    """Raised when a matrix cannot be factorized."""

    def __init__(self, message: str, row: int | None = None) -> None:
        super().__init__(message)
        self.row = row


class SolverFailureError(RuntimeError):
    """Raised when a solve does not meet the residual tolerance."""

    def __init__(self, message: str, report: "LinearSolveReport") -> None:
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class LinearSolveReport:
    """Outcome of one linear solve."""

    relative_residual: float
    dimension: int


class Factorization:
    """Opaque LU factorization bound to the matrix it was computed from.

    Immutable and shareable; concurrent solves against one factorization
    are safe.
    """

    def __init__(self, matrix: sp.csc_matrix, lu: spla.SuperLU) -> None:
        self.matrix = matrix
        self._lu = lu

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def _solve_vector(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(rhs)


def factorize(matrix: sp.spmatrix) -> Factorization:
    """LU-factorize a square sparse matrix.

    Raises:
        SingularMatrixError: naming the first structurally empty row, or
            reporting numerical singularity found during elimination.
    """
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"matrix must be square, got shape {matrix.shape}")
    csc = sp.csc_matrix(matrix)
    csc.eliminate_zeros()
    row_counts = np.bincount(csc.indices, minlength=csc.shape[0]) if csc.nnz else np.zeros(
        csc.shape[0], dtype=int
    )
    empty_rows = np.flatnonzero(row_counts == 0)
    if empty_rows.size:
        row = int(empty_rows[0])
        raise SingularMatrixError(f"matrix is structurally singular: row {row} is zero", row=row)
    col_counts = np.diff(csc.indptr)
    empty_cols = np.flatnonzero(col_counts == 0)
    if empty_cols.size:
        col = int(empty_cols[0])
        raise SingularMatrixError(
            f"matrix is structurally singular: column {col} is zero", row=col
        )
    try:
        lu = spla.splu(csc)
    except RuntimeError as exc:  # SuperLU signals exact singularity this way
        raise SingularMatrixError(f"matrix is numerically singular: {exc}") from exc
    u_diag = lu.U.diagonal()
    bad = np.flatnonzero(u_diag == 0.0)
    if bad.size:
        row = int(bad[0])
        raise SingularMatrixError(
            f"matrix is numerically singular: zero pivot at elimination row {row}", row=row
        )
    return Factorization(csc, lu)


def solve(
    fact: Factorization, rhs: np.ndarray, tolerance: float = DEFAULT_TOLERANCE
) -> tuple[np.ndarray, LinearSolveReport]:
    """Solve against a factorization and verify the relative residual.

    Returns (solution, report); deterministic for identical inputs.

    Raises:
        SolverFailureError: when ||Ax - b|| / max(||b||, 1) exceeds the
            tolerance (relative to ||b|| when b is nonzero).
    """
    rhs = np.asarray(rhs, dtype=float)
    n = fact.shape[0]
    if rhs.shape != (n,):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({n},)")
    x = fact._solve_vector(rhs)
    norm_b = np.linalg.norm(rhs)
    residual = np.linalg.norm(fact.matrix @ x - rhs) / (norm_b if norm_b > 0.0 else 1.0)
    report = LinearSolveReport(relative_residual=float(residual), dimension=n)
    if not np.isfinite(residual) or residual > tolerance:
        raise SolverFailureError(
            f"linear solve residual {residual:.3e} exceeds tolerance {tolerance:.1e}", report
        )
    return x, report
