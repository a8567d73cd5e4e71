"""Reference-element machinery: Lagrange bases, quadrature, affine maps.

Linear (3-node) and quadratic (6-node) Lagrange bases live on the reference
triangle with vertices (0,0), (1,0), (0,1) and barycentric coordinates
(l0, l1, l2) = (1-x-y, x, y).  Quadratic node k+3 is the midpoint of the
edge opposite vertex k, matching the mesh module's edge numbering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureRule",
    "AffineMaps",
    "eval_basis",
    "triangle_quadrature",
    "edge_quadrature",
    "edge_trace_p1",
    "edge_trace_p2",
    "physical_points",
]

_BARY_TOL = 1e-14

# Gradients of the barycentric coordinates on the reference triangle.
_GRAD_BARY = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


def _check_barycentric(points: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[-1] != 3:
        raise ValueError("barycentric points must have 3 components")
    if np.any(np.abs(pts.sum(axis=-1) - 1.0) > _BARY_TOL):
        raise ValueError("barycentric coordinates must sum to 1")
    if np.any(pts < -_BARY_TOL):
        raise ValueError("point lies outside the reference triangle")
    return pts


def eval_basis(kind: str, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a reference basis at barycentric points.

    Args:
        kind: "P1" or "P2".
        points: (3,) or (n, 3) barycentric coordinates, nonnegative,
            summing to 1 within 1e-14.

    Returns:
        values: (n, nbf) basis values.
        grads: (n, nbf, 2) gradients with respect to reference coordinates.

    Raises:
        ValueError: on an unknown kind or an out-of-simplex point.
    """
    pts = _check_barycentric(points)
    n = pts.shape[0]
    if kind == "P1":
        values = pts.copy()
        grads = np.broadcast_to(_GRAD_BARY, (n, 3, 2)).copy()
        return values, grads
    if kind == "P2":
        values = np.empty((n, 6))
        grads = np.empty((n, 6, 2))
        for i in range(3):
            li = pts[:, i]
            values[:, i] = li * (2.0 * li - 1.0)
            grads[:, i, :] = (4.0 * li - 1.0)[:, None] * _GRAD_BARY[i]
        # Node i+3 sits on the edge opposite vertex i.
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            lj, lk = pts[:, j], pts[:, k]
            values[:, i + 3] = 4.0 * lj * lk
            grads[:, i + 3, :] = 4.0 * (lj[:, None] * _GRAD_BARY[k] + lk[:, None] * _GRAD_BARY[j])
        return values, grads
    raise ValueError(f"unknown basis kind {kind!r}")


@dataclass(frozen=True)
class QuadratureRule:
    """Positive-weight quadrature rule on the reference triangle or edge.

    For triangle rules, points are (n, 3) barycentric coordinates and the
    weights sum to the reference area 1/2.  For edge rules, points are
    (n, 2) barycentric pairs along the unit reference edge and the weights
    sum to 1.
    """

    points: np.ndarray
    weights: np.ndarray
    exactness_degree: int

    def __post_init__(self) -> None:
        if np.any(self.weights <= 0.0):
            raise ValueError("quadrature weights must be positive")


def _perm3(a: float, b: float) -> list[tuple[float, float, float]]:
    # The three distinct permutations of (a, b, b).
    return [(a, b, b), (b, a, b), (b, b, a)]


def _perm6(a: float, b: float, c: float) -> list[tuple[float, float, float]]:
    return [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]


def _triangle_rule_table() -> dict[int, tuple[np.ndarray, np.ndarray]]:
    third = 1.0 / 3.0
    rules: dict[int, tuple[list, list]] = {}

    rules[1] = ([(third, third, third)], [1.0])

    two3 = 2.0 / 3.0
    rules[2] = (_perm3(two3, 1.0 / 6.0), [third] * 3)

    # 6-point degree-4 rule (all weights positive).
    a1, w1 = 0.816847572980459, 0.109951743655322
    a2, w2 = 0.108103018168070, 0.223381589678011
    rules[4] = (
        _perm3(a1, (1.0 - a1) / 2.0) + _perm3(a2, (1.0 - a2) / 2.0),
        [w1] * 3 + [w2] * 3,
    )

    # 12-point degree-6 rule.
    c1, u1 = 0.873821971016996, 0.050844906370207
    c2, u2 = 0.501426509658179, 0.116786275726379
    c3, c4, u3 = 0.636502499121399, 0.310352451033785, 0.082851075618374
    rules[6] = (
        _perm3(c1, (1.0 - c1) / 2.0)
        + _perm3(c2, (1.0 - c2) / 2.0)
        + _perm6(c3, c4, 1.0 - c3 - c4),
        [u1] * 3 + [u2] * 3 + [u3] * 6,
    )

    table = {}
    for deg, (pts, wts) in rules.items():
        # Stored weights are normalized to sum 1; scale to reference area 1/2.
        table[deg] = (np.array(pts), 0.5 * np.array(wts))
    return table


_TRIANGLE_RULES = _triangle_rule_table()


def triangle_quadrature(min_degree: int) -> QuadratureRule:
    """Smallest tabulated triangle rule exact to at least min_degree.

    Args:
        min_degree: requested polynomial exactness, between 1 and 6.

    Raises:
        ValueError: if min_degree is outside [1, 6].
    """
    if not 1 <= min_degree <= 6:
        raise ValueError(f"unsupported quadrature degree {min_degree}")
    degree = min(d for d in sorted(_TRIANGLE_RULES) if d >= min_degree)
    points, weights = _TRIANGLE_RULES[degree]
    return QuadratureRule(points=points, weights=weights, exactness_degree=degree)


def _edge_rule_table(max_points: int = 6) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    # Gauss-Legendre with n points, mapped to the unit edge, for n up to
    # max_points: exact to degree 2n - 1.
    table = {}
    for n_points in range(1, max_points + 1):
        nodes, weights = np.polynomial.legendre.leggauss(n_points)
        s = 0.5 * (nodes + 1.0)
        table[n_points] = (np.column_stack([1.0 - s, s]), 0.5 * weights)
    return table


_EDGE_RULES = _edge_rule_table()


def edge_quadrature(min_degree: int) -> QuadratureRule:
    """Gauss-Legendre rule on the unit reference edge, exact to min_degree.

    Points are returned as (n, 2) barycentric pairs (1-s, s).

    Raises:
        ValueError: if min_degree is outside [1, 11].
    """
    n_points = (min_degree + 2) // 2
    if min_degree < 1 or n_points not in _EDGE_RULES:
        raise ValueError(f"unsupported quadrature degree {min_degree}")
    points, weights = _EDGE_RULES[n_points]
    return QuadratureRule(points=points, weights=weights, exactness_degree=2 * n_points - 1)


def edge_trace_p1(s: np.ndarray) -> np.ndarray:
    """Linear nodal traces on an edge at parameters s in [0, 1]: (n, 2)."""
    s = np.asarray(s, dtype=float)
    return np.column_stack([1.0 - s, s])


def edge_trace_p2(s: np.ndarray) -> np.ndarray:
    """Quadratic nodal traces on an edge: columns (endpoint a, endpoint b, midpoint)."""
    s = np.asarray(s, dtype=float)
    return np.column_stack([(1.0 - s) * (1.0 - 2.0 * s), s * (2.0 * s - 1.0), 4.0 * s * (1.0 - s)])


@dataclass(frozen=True)
class AffineMaps:
    """Per-triangle affine geometry of a mesh.

    Attributes:
        inv_jac_t: (F, 2, 2) inverse-transpose Jacobians.
        det: (F,) absolute Jacobian determinants (twice the triangle areas).
    """

    inv_jac_t: np.ndarray
    det: np.ndarray

    @classmethod
    def from_mesh(cls, mesh) -> "AffineMaps":
        p0 = mesh.vertices[mesh.triangles[:, 0]]
        p1 = mesh.vertices[mesh.triangles[:, 1]]
        p2 = mesh.vertices[mesh.triangles[:, 2]]
        jac = np.stack([p1 - p0, p2 - p0], axis=-1)  # columns are edge vectors
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        if np.any(det <= 0.0):
            raise ValueError("triangle with non-positive orientation")
        inv = np.empty_like(jac)
        inv[:, 0, 0] = jac[:, 1, 1]
        inv[:, 0, 1] = -jac[:, 0, 1]
        inv[:, 1, 0] = -jac[:, 1, 0]
        inv[:, 1, 1] = jac[:, 0, 0]
        inv /= det[:, None, None]
        inv_jac_t = np.swapaxes(inv, 1, 2)
        return cls(inv_jac_t=inv_jac_t, det=det)

    def physical_gradients(self, ref_grads: np.ndarray) -> np.ndarray:
        """Push reference gradients (nq, nbf, 2) to physical space: (F, nq, nbf, 2).

        Two broadcast multiply-adds, one per reference direction b, sum
        J[f, a, b] * ref[q, i, b] in the order einsum does; a broadcast
        matmul is faster but rounds differently on distorted meshes.
        """
        J, ref = self.inv_jac_t, ref_grads
        g = J[:, None, None, :, 0] * ref[None, :, :, None, 0]
        g += J[:, None, None, :, 1] * ref[None, :, :, None, 1]
        return g


def physical_points(mesh, bary_points: np.ndarray) -> np.ndarray:
    """Map barycentric points to physical coordinates on every triangle.

    Returns an (F, nq, 2) array.
    """
    corners = mesh.vertices[mesh.triangles]  # (F, 3, 2)
    return np.einsum("qj,fjc->fqc", bary_points, corners)
