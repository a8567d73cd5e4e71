"""Direct sparse linear solves with residual verification.

Every solve is checked against its own relative residual; a factorization
is computed once per matrix and reused across time steps, since the
operators of the scheme are time-independent.  `factorize` is the one
factorization path: it equilibrates the matrix and eliminates in the
caller's (fill-reducing) order with static pivoting.
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

# Equilibration sweeps before factorizing; each halves the log of how far a
# row or column max-norm is from one.
_RUIZ_SWEEPS = 10


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


class Factorization:
    """Opaque LU factorization bound to the matrix it was computed from.

    SuperLU factors the equilibrated, symmetrically permuted matrix
    P Dr A Dc P^T; a solve applies the scalings and the permutation around
    it, so callers see a factorization of A.  ``matrix`` is A itself,
    unscaled, so residuals measure the system that was asked for.

    Immutable and shareable; concurrent solves against one factorization
    are safe.
    """

    def __init__(
        self,
        matrix: sp.csc_matrix,
        lu: spla.SuperLU,
        order: np.ndarray,
        row_scale: np.ndarray,
        col_scale: np.ndarray,
    ) -> None:
        self.matrix = matrix
        self._lu = lu
        self._order = order
        self._row_scale = row_scale
        self._col_scale = col_scale

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @property
    def lu_nnz(self) -> int:
        """Nonzeros of L and U together (their fill), read without a copy."""
        return int(self._lu.nnz)

    def _solve_vector(self, rhs: np.ndarray) -> np.ndarray:
        y = np.empty_like(self._col_scale)
        y[self._order] = self._lu.solve((self._row_scale * rhs)[self._order])
        return self._col_scale * y


def _equilibrate(matrix: sp.csc_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Row and column scalings r, c that bring every row and column of
    diag(r) A diag(c) to a max-norm near one.

    Ruiz's iteration (RAL-TR-2001-034): each sweep divides every row and
    column by the square root of its current max-norm.  The scalings are
    rounded to powers of two, so applying them is exact.
    """
    n = matrix.shape[0]
    rows = matrix.indices.astype(np.intp)
    col_counts = np.diff(matrix.indptr)
    magnitude = np.abs(matrix.data)
    r, c = np.ones(n), np.ones(n)
    for _ in range(_RUIZ_SWEEPS):
        row_max = np.zeros(n)
        np.maximum.at(row_max, rows, magnitude * np.repeat(c, col_counts))
        col_max = np.maximum.reduceat(magnitude * r.take(rows), matrix.indptr[:-1])
        r, c = r / np.sqrt(r * row_max), c / np.sqrt(c * col_max)
    return np.exp2(np.round(np.log2(r))), np.exp2(np.round(np.log2(c)))


def factorize(matrix: sp.spmatrix, order: np.ndarray) -> Factorization:
    """LU-factorize a square sparse matrix, eliminating in the given order.

    The matrix is equilibrated (Ruiz), permuted symmetrically by ``order``
    and factorized by SuperLU with static pivoting: the diagonal is kept
    as pivot unless it falls below 0.01 of its column's largest entry
    (Li and Demmel, SC'98).  ``order`` should be fill-reducing; for the
    systems of a structured mesh it comes from assembly.nested_dissection.

    Args:
        matrix: square sparse matrix.
        order: permutation of range(n); position i holds the unknown
            eliminated i-th.

    Raises:
        ValueError: on a non-square matrix or an order that is not a
            permutation.
        SingularMatrixError: naming the first structurally empty row, or
            reporting numerical singularity found during elimination.
    """
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"matrix must be square, got shape {matrix.shape}")
    csc = sp.csc_matrix(matrix)
    n = csc.shape[0]
    order = np.asarray(order, dtype=np.int64)
    if order.shape != (n,) or not np.array_equal(np.sort(order), np.arange(n)):
        raise ValueError(f"order must be a permutation of range({n})")
    # Explicit zeros are left out here; csc may share the caller's arrays,
    # so it is not pruned in place.
    kept = csc.data != 0.0
    rows = csc.indices[kept]
    cols = np.repeat(np.arange(n), np.diff(csc.indptr))[kept]
    empty_rows = np.flatnonzero(np.bincount(rows, minlength=n) == 0)
    if empty_rows.size:
        row = int(empty_rows[0])
        raise SingularMatrixError(f"matrix is structurally singular: row {row} is zero", row=row)
    empty_cols = np.flatnonzero(np.bincount(cols, minlength=n) == 0)
    if empty_cols.size:
        col = int(empty_cols[0])
        raise SingularMatrixError(
            f"matrix is structurally singular: column {col} is zero", row=col
        )
    r, c = _equilibrate(csc)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    scaled = sp.csc_matrix(
        (csc.data[kept] * r[rows] * c[cols], (rank[rows], rank[cols])), shape=(n, n)
    )
    try:
        lu = spla.splu(
            scaled,
            permc_spec="NATURAL",
            diag_pivot_thresh=0.01,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # SuperLU signals exact singularity this way
        raise SingularMatrixError(f"matrix is numerically singular: {exc}") from exc
    return Factorization(csc, lu, order, r, c)


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
    report = LinearSolveReport(relative_residual=float(residual))
    if not np.isfinite(residual) or residual > tolerance:
        raise SolverFailureError(
            f"linear solve residual {residual:.3e} exceeds tolerance {tolerance:.1e}", report
        )
    return x, report
