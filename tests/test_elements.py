"""Reference bases, quadrature exactness, and affine-map machinery.

Quadrature oracles use the closed-form barycentric monomial integral over
the reference triangle: integral of l1^a l2^b l3^c equals
a! b! c! / (a+b+c+2)!  (for the unit-area-1/2 reference triangle), and the
1D edge integral of s^k over [0, 1] equals 1/(k+1).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from porofem.elements import (
    edge_quadrature,
    edge_trace_p1,
    edge_trace_p2,
    eval_basis,
    physical_points,
    triangle_quadrature,
)
from porofem.mesh import build_rect_mesh

from helpers import triangle_areas


def _barycentric_monomial_integral(a: int, b: int, c: int) -> float:
    return (
        math.factorial(a)
        * math.factorial(b)
        * math.factorial(c)
        / math.factorial(a + b + c + 2)
    )


_P2_NODES = np.array(
    [
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 0.5, 0.5],
        [0.5, 0.0, 0.5],
        [0.5, 0.5, 0.0],
    ]
)


def _random_barycentric(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.random((n, 3)) + 1e-3
    return raw / raw.sum(axis=1, keepdims=True)


def test_p1_values_are_barycentric_coordinates():
    pts = _random_barycentric(25, seed=0)
    vals, _ = eval_basis("P1", pts)
    assert np.allclose(vals, pts, atol=1e-14)


def test_p2_kronecker_at_nodes():
    vals, _ = eval_basis("P2", _P2_NODES)
    assert np.allclose(vals, np.eye(6), atol=1e-14)


def test_p1_kronecker_at_vertices():
    vals, _ = eval_basis("P1", np.eye(3))
    assert np.allclose(vals, np.eye(3), atol=1e-14)


def test_p2_vertex_value_vector():
    vals, _ = eval_basis("P2", np.array([[1.0, 0.0, 0.0]]))
    assert np.allclose(vals[0], [1, 0, 0, 0, 0, 0], atol=1e-14)


def test_p2_barycenter_values():
    vals, _ = eval_basis("P2", np.array([[1 / 3, 1 / 3, 1 / 3]]))
    assert np.allclose(vals[0, :3], -1.0 / 9.0, atol=1e-14)
    assert np.allclose(vals[0, 3:], 4.0 / 9.0, atol=1e-14)
    assert vals[0].sum() == pytest.approx(1.0, abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    raw=st.tuples(
        st.floats(min_value=1e-3, max_value=1.0),
        st.floats(min_value=1e-3, max_value=1.0),
        st.floats(min_value=1e-3, max_value=1.0),
    ),
    kind=st.sampled_from(["P1", "P2"]),
)
def test_partition_of_unity_property(raw, kind):
    lam = np.array([raw]) / sum(raw)
    vals, grads = eval_basis(kind, lam)
    assert vals.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(grads.sum(axis=1), 0.0, atol=1e-12)


def test_out_of_simplex_point_rejected():
    with pytest.raises(ValueError):
        eval_basis("P2", np.array([[1.2, -0.1, -0.1]]))
    with pytest.raises(ValueError):
        eval_basis("P1", np.array([[0.5, 0.6, 0.1]]))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        eval_basis("P3", np.array([[1 / 3, 1 / 3, 1 / 3]]))


@pytest.mark.parametrize("min_degree", range(1, 7))
def test_triangle_quadrature_monomial_exactness(min_degree):
    rule = triangle_quadrature(min_degree)
    assert rule.exactness_degree >= min_degree
    assert np.all(rule.weights > 0.0)
    assert rule.weights.sum() == pytest.approx(0.5, rel=1e-14)
    for total in range(rule.exactness_degree + 1):
        for a in range(total + 1):
            for b in range(total - a + 1):
                c = total - a - b
                mono = (
                    rule.points[:, 0] ** a
                    * rule.points[:, 1] ** b
                    * rule.points[:, 2] ** c
                )
                exact = _barycentric_monomial_integral(a, b, c)
                assert float(rule.weights @ mono) == pytest.approx(
                    exact, rel=1e-13
                ), f"monomial l1^{a} l2^{b} l3^{c}"


def test_triangle_quadrature_degree1_is_barycenter_rule():
    rule = triangle_quadrature(1)
    assert len(rule.weights) == 1
    assert rule.weights[0] == pytest.approx(0.5, rel=1e-14)
    assert np.allclose(rule.points[0], [1 / 3, 1 / 3, 1 / 3], atol=1e-14)


def test_triangle_quadrature_reproduces_pair_product():
    rule = triangle_quadrature(2)
    mono = rule.points[:, 0] * rule.points[:, 1]
    assert float(rule.weights @ mono) == pytest.approx(1.0 / 24.0, rel=1e-13)


def test_triangle_quadrature_reproduces_x_fourth():
    # x = l2 on the reference triangle (0,0)-(1,0)-(0,1).
    rule = triangle_quadrature(4)
    mono = rule.points[:, 1] ** 4
    assert float(rule.weights @ mono) == pytest.approx(1.0 / 30.0, rel=1e-13)


def test_triangle_quadrature_invalid_degree():
    with pytest.raises(ValueError):
        triangle_quadrature(0)
    with pytest.raises(ValueError):
        triangle_quadrature(7)


@pytest.mark.parametrize("min_degree", range(1, 6))
def test_edge_quadrature_monomial_exactness(min_degree):
    rule = edge_quadrature(min_degree)
    assert rule.exactness_degree >= min_degree
    assert np.all(rule.weights > 0.0)
    for k in range(rule.exactness_degree + 1):
        val = float(rule.weights @ rule.points[:, 0] ** k)
        assert val == pytest.approx(1.0 / (k + 1), rel=1e-13), f"s^{k}"


def test_edge_quadrature_point_counts():
    assert len(edge_quadrature(1).weights) == 1
    assert len(edge_quadrature(3).weights) == 2
    assert len(edge_quadrature(5).weights) == 3


def test_edge_quadrature_is_tabulated_once():
    # Each call hands out the module's tabulated arrays, not a new rule.
    assert edge_quadrature(5).points is edge_quadrature(4).points
    assert edge_quadrature(11).weights.size == 6
    with pytest.raises(ValueError):
        edge_quadrature(0)
    with pytest.raises(ValueError):
        edge_quadrature(12)


def test_edge_quadrature_cubic_and_quintic_values():
    r3 = edge_quadrature(3)
    assert float(r3.weights @ r3.points[:, 0] ** 3) == pytest.approx(0.25, rel=1e-13)
    r5 = edge_quadrature(5)
    assert float(r5.weights @ r5.points[:, 0] ** 5) == pytest.approx(1 / 6, rel=1e-13)


def test_edge_traces_interpolate_endpoints_and_midpoint():
    s = np.array([0.0, 0.5, 1.0])
    tr1 = edge_trace_p1(s)
    assert np.allclose(tr1, [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]], atol=1e-14)
    tr2 = edge_trace_p2(s)
    assert np.allclose(tr2[0], [1.0, 0.0, 0.0], atol=1e-14)
    assert np.allclose(tr2[2], [0.0, 1.0, 0.0], atol=1e-14)
    assert np.allclose(tr2[1], [0.0, 0.0, 1.0], atol=1e-14)
    assert np.allclose(tr2.sum(axis=1), 1.0, atol=1e-14)


def test_physical_points_map_reference_vertices_to_mesh_vertices():
    mesh = build_rect_mesh(3, 2, rect=(-1.0, 0.5, 2.0, 3.5))
    for k in range(3):
        bary = np.zeros((1, 3))
        bary[0, k] = 1.0
        pts = physical_points(mesh, bary)
        assert np.allclose(pts[:, 0, :], mesh.vertices[mesh.triangles[:, k]], atol=1e-13)


def test_integrating_one_recovers_domain_area():
    mesh = build_rect_mesh(4, 5, rect=(0.0, 0.0, 2.0, 1.5))
    for degree in (1, 2, 4, 6):
        rule = triangle_quadrature(degree)
        areas = triangle_areas(mesh)
        total = float((2.0 * areas[:, None] * rule.weights[None, :]).sum())
        assert total == pytest.approx(3.0, rel=1e-12)


def test_p1_physical_gradients_constant_per_triangle():
    # P1 gradients are constant on each triangle; evaluating the basis at
    # two different reference points must yield identical reference
    # gradients (the affine map then keeps them constant physically).
    pts = _random_barycentric(2, seed=3)
    _, g = eval_basis("P1", pts)
    assert np.allclose(g[0], g[1], atol=1e-14)
