"""Structured triangulations of axis-aligned rectangles with tagged boundary.

The mesh splits every grid cell into two triangles along the same diagonal
direction, so node ordering is reproducible and the quadratic edge-node
enumeration stays simple.  Boundary edges carry one of four segment tags
(right, bottom, left, top side of the rectangle), read from the grid
indices of their endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

__all__ = [
    "BoundarySegment",
    "Mesh",
    "build_rect_mesh",
]


class BoundarySegment(IntEnum):
    """Sides of the rectangle, numbered counterclockwise from the right side."""

    RIGHT = 1   # x = x_max
    BOTTOM = 2  # y = y_min
    LEFT = 3    # x = x_min
    TOP = 4     # y = y_max

    @property
    def normal(self) -> tuple[float, float]:
        """Unit outward normal of this side."""
        return _NORMALS[self]


_NORMALS = {
    BoundarySegment.RIGHT: (1.0, 0.0),
    BoundarySegment.BOTTOM: (0.0, -1.0),
    BoundarySegment.LEFT: (-1.0, 0.0),
    BoundarySegment.TOP: (0.0, 1.0),
}


@dataclass(frozen=True)
class Mesh:
    """Immutable triangulation of an axis-aligned rectangle.

    Attributes:
        vertices: (V, 2) vertex coordinates.
        triangles: (F, 3) vertex indices, counterclockwise.
        edges: (E, 2) vertex index pairs, each row sorted ascending.
        edge_nodes: (E,) global quadratic-node index of each edge midpoint
            (equal to V + edge index).
        triangle_edges: (F, 3) edge index opposite each local vertex.
        edge_tags: (E,) segment tag per edge, 0 for interior edges.
        nx, ny: cell counts used to build the grid.
        h: mesh size, the maximum edge length (the cell diagonal).
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    edge_nodes: np.ndarray
    triangle_edges: np.ndarray
    edge_tags: np.ndarray
    nx: int
    ny: int
    h: float

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def boundary_edges(self) -> np.ndarray:
        """Indices of edges carrying a segment tag."""
        return np.nonzero(self.edge_tags != 0)[0]

    def edge_midpoints(self) -> np.ndarray:
        """(E, 2) coordinates of edge midpoints (the quadratic nodes)."""
        return 0.5 * (self.vertices[self.edges[:, 0]] + self.vertices[self.edges[:, 1]])

    def p2_node_coords(self) -> np.ndarray:
        """(V + E, 2) coordinates of all quadratic nodes: vertices then midpoints."""
        return np.vstack([self.vertices, self.edge_midpoints()])

    def triangle_areas(self) -> np.ndarray:
        """(F,) signed triangle areas (positive for counterclockwise)."""
        p0 = self.vertices[self.triangles[:, 0]]
        d1 = self.vertices[self.triangles[:, 1]] - p0
        d2 = self.vertices[self.triangles[:, 2]] - p0
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def edges_with_tag(self, tag: BoundarySegment) -> np.ndarray:
        """Indices of boundary edges lying on the given rectangle side."""
        return np.nonzero(self.edge_tags == int(tag))[0]

    def nodes_on_segment(self, tag: BoundarySegment) -> np.ndarray:
        """Sorted quadratic-node indices (vertices and midpoints) on one side."""
        eids = self.edges_with_tag(tag)
        nodes = np.concatenate([self.edges[eids].ravel(), self.edge_nodes[eids]])
        return np.unique(nodes)

    def vertices_on_segment(self, tag: BoundarySegment) -> np.ndarray:
        """Sorted vertex indices on one side."""
        return np.unique(self.edges[self.edges_with_tag(tag)].ravel())

    def vertices_on_boundary(self) -> np.ndarray:
        """Sorted vertex indices lying on any boundary edge."""
        eids = self.boundary_edges
        return np.unique(self.edges[eids].ravel())


def build_rect_mesh(
    nx: int,
    ny: int,
    rect: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0),
) -> Mesh:
    """Build a structured triangulation of a rectangle.

    Every grid cell is split into two counterclockwise triangles along the
    diagonal from its lower-left to its upper-right corner.

    Args:
        nx: number of cells along x, at least 1.
        ny: number of cells along y, at least 1.
        rect: (x_min, y_min, x_max, y_max) corner coordinates.

    Returns:
        A fully built and boundary-tagged Mesh.

    Raises:
        ValueError: on non-positive cell counts or a degenerate rectangle.
    """
    if nx < 1 or ny < 1:
        raise ValueError(f"cell counts must be >= 1, got nx={nx}, ny={ny}")
    x_min, y_min, x_max, y_max = map(float, rect)
    if not (x_max > x_min and y_max > y_min):
        raise ValueError(f"degenerate rectangle {rect}")

    xs = np.linspace(x_min, x_max, nx + 1)
    ys = np.linspace(y_min, y_max, ny + 1)
    xx, yy = np.meshgrid(xs, ys)  # row j holds y = ys[j]
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    def vid(i: int | np.ndarray, j: int | np.ndarray) -> np.ndarray:
        return j * (nx + 1) + i

    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny))
    ii = ii.ravel()
    jj = jj.ravel()
    a = vid(ii, jj)          # lower-left
    b = vid(ii + 1, jj)      # lower-right
    c = vid(ii + 1, jj + 1)  # upper-right
    d = vid(ii, jj + 1)      # upper-left
    # Both triangles use the a-c diagonal and are counterclockwise.
    lower = np.column_stack([a, b, c])
    upper = np.column_stack([a, c, d])
    triangles = np.empty((2 * nx * ny, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper

    # Local edge k is opposite local vertex k.
    tri_edge_pairs = np.stack(
        [triangles[:, [1, 2]], triangles[:, [2, 0]], triangles[:, [0, 1]]], axis=1
    )  # (F, 3, 2)
    flat = np.sort(tri_edge_pairs.reshape(-1, 2), axis=1)
    edges, inverse = np.unique(flat, axis=0, return_inverse=True)
    triangle_edges = inverse.reshape(-1, 3)

    n_vertices = vertices.shape[0]
    edge_nodes = n_vertices + np.arange(edges.shape[0], dtype=np.int64)

    lengths = np.linalg.norm(vertices[edges[:, 1]] - vertices[edges[:, 0]], axis=1)
    h = float(lengths.max())

    # Vertex k sits at grid position (k mod (nx+1), k div (nx+1)); an edge
    # lies on a side exactly when both its endpoints do.
    i, j = edges % (nx + 1), edges // (nx + 1)
    edge_tags = np.zeros(edges.shape[0], dtype=np.int64)
    for tag, on_side in (
        (BoundarySegment.RIGHT, i == nx),
        (BoundarySegment.BOTTOM, j == 0),
        (BoundarySegment.LEFT, i == 0),
        (BoundarySegment.TOP, j == ny),
    ):
        edge_tags[on_side.all(axis=1)] = int(tag)

    return Mesh(
        vertices=vertices,
        triangles=triangles,
        edges=edges,
        edge_nodes=edge_nodes,
        triangle_edges=triangle_edges,
        edge_tags=edge_tags,
        nx=nx,
        ny=ny,
        h=h,
    )
