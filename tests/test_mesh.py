"""Structured-rectangle mesh construction and boundary tagging."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from porofem.mesh import BoundarySegment, Mesh, build_rect_mesh

from helpers import jittered_mesh


def test_smallest_split_counts():
    mesh = build_rect_mesh(1, 1)
    assert mesh.n_vertices == 4
    assert mesh.n_triangles == 2
    assert mesh.n_edges == 5
    assert len(mesh.boundary_edges) == 4


def test_two_by_two_counts_and_euler():
    mesh = build_rect_mesh(2, 2)
    assert mesh.n_vertices == 9
    assert mesh.n_triangles == 8
    assert mesh.n_edges == 16
    assert mesh.n_vertices - mesh.n_edges + mesh.n_triangles == 1


def test_mesh_size_is_cell_diagonal():
    mesh = build_rect_mesh(4, 4)
    assert mesh.h == pytest.approx(math.sqrt(2.0) / 4.0, rel=1e-14)


def test_refinement_halves_h_exactly():
    coarse = build_rect_mesh(4, 6)
    fine = build_rect_mesh(8, 12)
    assert fine.h == pytest.approx(coarse.h / 2.0, rel=1e-14)


def test_areas_positive_and_sum_to_rectangle():
    mesh = build_rect_mesh(5, 3, rect=(-1.0, 2.0, 3.0, 4.0))
    areas = mesh.triangle_areas()
    assert np.all(areas > 0.0)
    assert float(areas.sum()) == pytest.approx(4.0 * 2.0, rel=1e-12)


def test_boundary_tags_partition_one_edge_per_side_1x1():
    mesh = build_rect_mesh(1, 1)
    for tag in BoundarySegment:
        assert len(mesh.edges_with_tag(tag)) == 1


def test_boundary_tag_counts_4x4():
    mesh = build_rect_mesh(4, 4)
    assert len(mesh.boundary_edges) == 16
    for tag in BoundarySegment:
        assert len(mesh.edges_with_tag(tag)) == 4


def test_boundary_tag_counts_rectangular_2x6():
    mesh = build_rect_mesh(2, 6)
    assert len(mesh.edges_with_tag(BoundarySegment.BOTTOM)) == 2
    assert len(mesh.edges_with_tag(BoundarySegment.TOP)) == 2
    assert len(mesh.edges_with_tag(BoundarySegment.RIGHT)) == 6
    assert len(mesh.edges_with_tag(BoundarySegment.LEFT)) == 6


def test_segment_geometry_matches_tags():
    mesh = build_rect_mesh(3, 5, rect=(0.0, 0.0, 2.0, 1.0))
    sides = {
        BoundarySegment.RIGHT: (0, 2.0),
        BoundarySegment.LEFT: (0, 0.0),
        BoundarySegment.BOTTOM: (1, 0.0),
        BoundarySegment.TOP: (1, 1.0),
    }
    for tag, (axis, coord) in sides.items():
        for edge_idx in mesh.edges_with_tag(tag):
            a, b = mesh.edges[edge_idx]
            mid = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
            assert mid[axis] == pytest.approx(coord, abs=1e-12)


def test_outward_normals():
    # Each tagged edge's side normal is perpendicular to the edge and points
    # away from the vertex of its triangle opposite the edge.
    for mesh in (
        build_rect_mesh(3, 5, rect=(-1.0, 2.0, 3.0, 2.5)),
        jittered_mesh(5, 4, rect=(0.0, -1.0, 2.0, 0.5)),
    ):
        tri, local = np.nonzero(np.isin(mesh.triangle_edges, mesh.boundary_edges))
        edges = mesh.triangle_edges[tri, local]
        assert sorted(edges) == sorted(mesh.boundary_edges)
        a = mesh.vertices[mesh.edges[edges, 0]]
        b = mesh.vertices[mesh.edges[edges, 1]]
        opposite = mesh.vertices[mesh.triangles[tri, local]]
        normals = np.array([BoundarySegment(tag).normal for tag in mesh.edge_tags[edges]])
        assert np.allclose(np.einsum("ij,ij->i", normals, b - a), 0.0, atol=1e-12)
        assert np.all(np.einsum("ij,ij->i", normals, a - opposite) > 0.0)


def test_midpoint_nodes_average_endpoints():
    mesh = build_rect_mesh(3, 2)
    coords = mesh.p2_node_coords()
    for edge_idx, (a, b) in enumerate(mesh.edges):
        node = mesh.edge_nodes[edge_idx]
        expected = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
        assert np.allclose(coords[node], expected, atol=1e-14)


def test_counterclockwise_triangles_positive_signed_area():
    mesh = build_rect_mesh(3, 4)
    v = mesh.vertices[mesh.triangles]
    signed = 0.5 * (
        (v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1])
        - (v[:, 2, 0] - v[:, 0, 0]) * (v[:, 1, 1] - v[:, 0, 1])
    )
    assert np.all(signed > 0.0)


@settings(max_examples=40, deadline=None)
@given(
    nx=st.integers(min_value=1, max_value=9),
    ny=st.integers(min_value=1, max_value=9),
    x0=st.floats(min_value=-5, max_value=5, allow_nan=False),
    y0=st.floats(min_value=-5, max_value=5, allow_nan=False),
    w=st.floats(min_value=0.1, max_value=10, allow_nan=False),
    h=st.floats(min_value=0.1, max_value=10, allow_nan=False),
)
def test_structural_invariants_property(nx, ny, x0, y0, w, h):
    mesh = build_rect_mesh(nx, ny, rect=(x0, y0, x0 + w, y0 + h))
    assert mesh.n_vertices == (nx + 1) * (ny + 1)
    assert mesh.n_triangles == 2 * nx * ny
    assert len(mesh.boundary_edges) == 2 * (nx + ny)
    assert mesh.n_vertices - mesh.n_edges + mesh.n_triangles == 1
    areas = mesh.triangle_areas()
    assert np.all(areas > 0.0)
    assert float(areas.sum()) == pytest.approx(w * h, rel=1e-12)
    tagged = sum(len(mesh.edges_with_tag(tag)) for tag in BoundarySegment)
    assert tagged == len(mesh.boundary_edges)
    assert int((mesh.edge_tags == 0).sum()) == mesh.n_edges - tagged


def test_nodes_on_segment_lie_on_that_side():
    mesh = build_rect_mesh(4, 4)
    coords = mesh.p2_node_coords()
    nodes = mesh.nodes_on_segment(BoundarySegment.TOP)
    assert len(nodes) == 2 * 4 + 1
    assert np.allclose(coords[nodes][:, 1], 1.0, atol=1e-14)


def test_vertices_on_boundary_count():
    mesh = build_rect_mesh(4, 4)
    assert len(mesh.vertices_on_boundary()) == 2 * (4 + 4)


def test_invalid_cell_counts_rejected():
    with pytest.raises(ValueError):
        build_rect_mesh(0, 1)
    with pytest.raises(ValueError):
        build_rect_mesh(1, -2)


def test_degenerate_rectangle_rejected():
    with pytest.raises(ValueError):
        build_rect_mesh(2, 2, rect=(0.0, 0.0, 0.0, 1.0))


def test_thin_rectangle_tags_each_side_apart():
    # Every boundary edge of a 1e-12 wide rectangle lies within 1e-12 of
    # three sides; the tags come from grid indices, not from coordinates.
    mesh = build_rect_mesh(2, 2, rect=(0.0, 0.0, 1e-12, 1.0))
    for tag in BoundarySegment:
        assert len(mesh.edges_with_tag(tag)) == 2
    assert np.all(mesh.vertices[mesh.vertices_on_segment(BoundarySegment.LEFT), 0] == 0.0)
    assert np.all(mesh.vertices[mesh.vertices_on_segment(BoundarySegment.RIGHT), 0] == 1e-12)
    assert np.all(mesh.vertices[mesh.vertices_on_segment(BoundarySegment.BOTTOM), 1] == 0.0)


def test_vertices_on_segment_are_the_tagged_edges_endpoints():
    mesh = build_rect_mesh(3, 2, rect=(-1.0, 0.0, 2.0, 1.0 / 3.0))
    for tag in BoundarySegment:
        verts = mesh.vertices_on_segment(tag)
        n_cells = 3 if tag in (BoundarySegment.BOTTOM, BoundarySegment.TOP) else 2
        assert len(verts) == n_cells + 1
        assert np.array_equal(verts, np.unique(mesh.edges[mesh.edges_with_tag(tag)]))
        assert np.isin(verts, mesh.nodes_on_segment(tag)).all()


def test_mesh_is_immutable_record():
    mesh = build_rect_mesh(2, 2)
    assert Mesh.__dataclass_params__.frozen
    with pytest.raises(dataclasses.FrozenInstanceError):
        mesh.h = 1.0
