"""Sparse form assembly and constraint reduction.

The elasticity oracle below re-integrates the strain form with explicit
per-element loops and dense arithmetic, independent of the vectorized
production assembler; the two must agree entrywise.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import porofem.assembly
from porofem.assembly import (
    DofMap,
    DomainQuadrature,
    LoadAssembler,
    ReducedSystem,
    SingularConstraintsError,
    assemble_div,
    assemble_domain_load,
    assemble_elasticity,
    assemble_gravity_load,
    assemble_load,
    assemble_scalar_mass,
    assemble_scalar_stiffness,
    assemble_vector_mass,
    build_constraints,
    nested_dissection,
    rigid_motion_basis,
)
from porofem.elements import (
    AffineMaps,
    edge_quadrature,
    edge_trace_p1,
    edge_trace_p2,
    eval_basis,
    physical_points,
    triangle_quadrature,
)
from porofem.mesh import BoundarySegment, build_rect_mesh
from porofem.model import (
    BoundaryConditionSpec,
    FlowBC,
    MaterialParams,
    MechanicalBC,
    derive_kappas,
    get_benchmark,
)
from porofem.solver import factorize, solve
from porofem.stepper import Discretization, TimeScheme, run

from helpers import conservation_benchmark, jittered_mesh


@pytest.fixture(scope="module")
def mesh2():
    return build_rect_mesh(2, 2)


@pytest.fixture(scope="module")
def dofmap2(mesh2):
    return DofMap.from_mesh(mesh2)


def _loads(mesh, dofmap, bench) -> LoadAssembler:
    quadrature = DomainQuadrature.from_mesh(mesh, dofmap)
    return LoadAssembler.build(mesh, dofmap, quadrature, bench.sources, bench.bcs, bench.params)


def _interleave(values: np.ndarray) -> np.ndarray:
    out = np.empty(2 * values.shape[0])
    out[0::2] = values[:, 0]
    out[1::2] = values[:, 1]
    return out


# ---------------------------------------------------------------------------
# DofMap layout
# ---------------------------------------------------------------------------


def test_dofmap_counts_and_layout(mesh2, dofmap2):
    dm = dofmap2
    assert dm.n_p2_nodes == mesh2.n_vertices + mesh2.n_edges
    assert dm.n_u == 2 * dm.n_p2_nodes
    assert dm.n_scalar == mesh2.n_vertices
    assert dm.xi_offset == dm.n_u
    assert dm.eta_offset == dm.n_u + dm.n_scalar
    assert dm.n_monolithic == dm.n_u + 2 * dm.n_scalar
    assert dm.n_step1 == dm.n_u + dm.n_scalar


def test_grid_index_positions():
    # nx = 3, ny = 2: vertex k sits at (k mod 4, k div 4), doubled.
    mesh = jittered_mesh(3, 2)
    dm = DofMap.from_mesh(mesh)
    grid = dm.grid_index()
    assert grid.shape == (dm.n_monolithic, 2)
    k = np.arange(mesh.n_vertices)
    vertex = np.column_stack([2 * (k % 4), 2 * (k // 4)])
    for offset in (dm.xi_offset, dm.eta_offset):
        assert np.array_equal(grid[offset : offset + dm.n_scalar], vertex)
    assert np.array_equal(grid[0 : 2 * mesh.n_vertices : 2], vertex)
    assert np.array_equal(grid[1 : 2 * mesh.n_vertices : 2], vertex)
    # An edge node halves the sum of its vertices' positions, exactly on
    # the structured grid; both components of a node share its position.
    edge_nodes = grid[2 * mesh.n_vertices : dm.n_u]
    assert np.array_equal(edge_nodes[0::2], edge_nodes[1::2])
    assert np.array_equal(
        2 * edge_nodes[0::2], vertex[mesh.edges[:, 0]] + vertex[mesh.edges[:, 1]]
    )


def _nested_dissection_by_recursion(grid: np.ndarray, dofs: np.ndarray) -> list[int]:
    """Region by region statement of the ordering rule of nested_dissection."""
    if dofs.size == 0:
        return []
    pos = grid[dofs]
    lo, hi = pos.min(axis=0), pos.max(axis=0)
    axis = 0 if hi[0] - lo[0] >= hi[1] - lo[1] else 1
    line = (lo[axis] + hi[axis]) // 4 * 2
    if line <= lo[axis]:
        line += 2
    if line >= hi[axis]:
        return sorted(dofs.tolist())
    coord = pos[:, axis]
    return (
        _nested_dissection_by_recursion(grid, dofs[coord < line])
        + _nested_dissection_by_recursion(grid, dofs[coord > line])
        + sorted(dofs[coord == line].tolist())
    )


@pytest.mark.parametrize("nx, ny", [(1, 1), (2, 3), (5, 4), (9, 2), (16, 16)])
def test_nested_dissection_matches_recursive_rule(nx, ny):
    grid = DofMap.from_mesh(build_rect_mesh(nx, ny)).grid_index()
    rng = np.random.default_rng(nx * 100 + ny)
    kept = np.sort(rng.choice(grid.shape[0], grid.shape[0] * 4 // 5, replace=False))
    for sub in (grid, grid[kept], grid[: 2 * (nx + 1) * (ny + 1)], grid[:1], grid[:0]):
        order = nested_dissection(sub)
        assert order.dtype == np.int64
        assert order.tolist() == _nested_dissection_by_recursion(sub, np.arange(sub.shape[0]))


# ---------------------------------------------------------------------------
# Elasticity block
# ---------------------------------------------------------------------------


def _dense_elasticity_oracle(mesh, dofmap, mu):
    """Brute-force per-element strain form: independent loops and dense math."""
    n = dofmap.n_u
    K = np.zeros((n, n))
    rule = triangle_quadrature(2)
    vals, ref_grads = eval_basis("P2", rule.points)
    for tri in range(mesh.n_triangles):
        vidx = mesh.triangles[tri]
        p0, p1, p2 = mesh.vertices[vidx]
        jac = np.column_stack([p1 - p0, p2 - p0])
        det = np.linalg.det(jac)
        inv_t = np.linalg.inv(jac).T
        dofs = dofmap.triangle_u[tri]
        for qp, w in enumerate(rule.weights):
            grads = ref_grads[qp] @ inv_t.T  # (6, 2) physical gradients
            for a in range(6):
                for ca in range(2):
                    ea = np.zeros((2, 2))
                    ea[ca, :] += 0.5 * grads[a]
                    ea[:, ca] += 0.5 * grads[a]
                    for b in range(6):
                        for cb in range(2):
                            eb = np.zeros((2, 2))
                            eb[cb, :] += 0.5 * grads[b]
                            eb[:, cb] += 0.5 * grads[b]
                            K[dofs[2 * a + ca], dofs[2 * b + cb]] += (
                                mu * w * det * np.tensordot(ea, eb)
                            )
    return K


def test_elasticity_matches_dense_oracle(mesh2, dofmap2):
    A = assemble_elasticity(mesh2, dofmap2, mu=1.3)
    oracle = _dense_elasticity_oracle(mesh2, dofmap2, mu=1.3)
    assert np.allclose(A.toarray(), oracle, atol=1e-12)


def test_elasticity_symmetric(mesh2, dofmap2):
    A = assemble_elasticity(mesh2, dofmap2)
    diff = (A - A.T).toarray()
    assert np.max(np.abs(diff)) <= 1e-12 * np.max(np.abs(A.toarray()))


def test_elasticity_positive_semidefinite(mesh2, dofmap2):
    A = assemble_elasticity(mesh2, dofmap2).toarray()
    eigs = np.linalg.eigvalsh(A)
    assert eigs.min() >= -1e-12 * eigs.max()


def test_rigid_motions_span_kernel(mesh2, dofmap2):
    A = assemble_elasticity(mesh2, dofmap2)
    coords = mesh2.p2_node_coords()
    norm_a = sp.linalg.norm(A)
    for a1, a2, b in [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.3, -2.0, 1.7)]:
        r = _interleave(
            np.column_stack(
                [a1 - b * coords[:, 1], a2 + b * coords[:, 0]]
            )
        )
        assert np.linalg.norm(A @ r) <= 1e-10 * norm_a * np.linalg.norm(r)


def test_strain_energy_of_linear_field(mesh2, dofmap2):
    # v = (x1, 0): strain = diag(1, 0), mu*||strain||^2 = 1 over the unit square.
    coords = mesh2.p2_node_coords()
    v = _interleave(np.column_stack([coords[:, 0], np.zeros(len(coords))]))
    A = assemble_elasticity(mesh2, dofmap2, mu=1.0)
    assert float(v @ (A @ v)) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Divergence coupling
# ---------------------------------------------------------------------------


def test_div_of_position_field(mesh2, dofmap2):
    B = assemble_div(mesh2, dofmap2)
    coords = mesh2.p2_node_coords()
    v = _interleave(coords)
    ones = np.ones(dofmap2.n_scalar)
    assert float(ones @ (B @ v)) == pytest.approx(2.0, abs=1e-12)


def test_div_of_constant_field(mesh2, dofmap2):
    B = assemble_div(mesh2, dofmap2)
    v = _interleave(np.tile([3.7, -1.2], (dofmap2.n_p2_nodes, 1)))
    assert np.max(np.abs(B @ v)) <= 1e-12


def test_div_of_quadratic_field(mesh2, dofmap2):
    B = assemble_div(mesh2, dofmap2)
    coords = mesh2.p2_node_coords()
    v = _interleave(np.column_stack([coords[:, 0] ** 2, np.zeros(len(coords))]))
    ones = np.ones(dofmap2.n_scalar)
    assert float(ones @ (B @ v)) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Scalar mass and stiffness
# ---------------------------------------------------------------------------


def test_scalar_mass_total_and_row_sums(mesh2, dofmap2):
    M = assemble_scalar_mass(mesh2, dofmap2)
    assert float(M.sum()) == pytest.approx(1.0, rel=1e-12)
    load_of_one = assemble_domain_load(
        DomainQuadrature.from_mesh(mesh2, dofmap2), lambda x, t: np.ones(x.shape[0]), 0.0,
        space="scalar",
    )
    assert np.allclose(M @ np.ones(dofmap2.n_scalar), load_of_one, atol=1e-13)


def test_scalar_mass_spd(mesh2, dofmap2):
    eigs = np.linalg.eigvalsh(assemble_scalar_mass(mesh2, dofmap2).toarray())
    assert eigs.min() > 0.0


def test_vector_mass_spd(mesh2, dofmap2):
    eigs = np.linalg.eigvalsh(assemble_vector_mass(mesh2, dofmap2).toarray())
    assert eigs.min() > 0.0


def test_stiffness_kernel_is_constants(mesh2, dofmap2):
    S = assemble_scalar_stiffness(mesh2, dofmap2)
    const = np.full(dofmap2.n_scalar, 4.2)
    assert np.max(np.abs(S @ const)) <= 1e-12
    eigs = np.linalg.eigvalsh(S.toarray())
    assert eigs[0] == pytest.approx(0.0, abs=1e-12)
    assert eigs[1] > 1e-8  # one-dimensional kernel only


def test_stiffness_dirichlet_energy_of_x1(mesh2, dofmap2):
    S = assemble_scalar_stiffness(mesh2, dofmap2, coeff=1.0)
    x1 = mesh2.vertices[:, 0]
    assert float(x1 @ (S @ x1)) == pytest.approx(1.0, rel=1e-12)


def test_stiffness_coefficient_scaling(mesh2, dofmap2):
    S1 = assemble_scalar_stiffness(mesh2, dofmap2, coeff=1.0)
    S2 = assemble_scalar_stiffness(mesh2, dofmap2, coeff=2.5)
    assert np.allclose(S2.toarray(), 2.5 * S1.toarray(), atol=1e-13)


# ---------------------------------------------------------------------------
# Loads
# ---------------------------------------------------------------------------


def test_constant_body_force_sums_to_total(mesh2, dofmap2):
    def f(x, t):
        out = np.zeros((x.shape[0], 2))
        out[:, 0] = 1.0
        return out

    rhs = assemble_domain_load(DomainQuadrature.from_mesh(mesh2, dofmap2), f, 0.0, space="vector")
    assert float(rhs[0::2].sum()) == pytest.approx(1.0, rel=1e-12)
    assert float(rhs[1::2].sum()) == pytest.approx(0.0, abs=1e-13)


def test_locking_traction_loads(mesh2, dofmap2):
    bench = get_benchmark("locking")
    mech, flow = assemble_load(_loads(mesh2, dofmap2, bench), 0.0)
    assert np.max(np.abs(flow)) == 0.0
    assert float(mech[1::2].sum()) == pytest.approx(-1.0, rel=1e-12)
    assert float(mech[0::2].sum()) == pytest.approx(0.0, abs=1e-13)
    # Only the top side carries a traction, so only its nodes are loaded.
    coords = mesh2.p2_node_coords()
    loaded_nodes = np.unique(np.nonzero(mech)[0] // 2)
    assert loaded_nodes.size
    assert np.allclose(coords[loaded_nodes, 1], 1.0, atol=1e-14)


def test_unit_mass_source_sums_to_area(mesh2, dofmap2):
    bench = conservation_benchmark(phi_const=1.0, flux_bottom=0.0)
    _, flow = assemble_load(_loads(mesh2, dofmap2, bench), 0.0)
    assert float(flow.sum()) == pytest.approx(1.0, rel=1e-12)


def test_boundary_flux_load_sums_to_side_integral(mesh2, dofmap2):
    bench = conservation_benchmark(phi_const=0.0, flux_bottom=0.3)
    _, flow = assemble_load(_loads(mesh2, dofmap2, bench), 0.0)
    assert float(flow.sum()) == pytest.approx(0.3, rel=1e-12)


def test_gravity_load_against_linear_test_function(mesh2, dofmap2):
    prm = MaterialParams(
        lam=1.0, mu=1.0, alpha=1.0, c0=1.0, K=2.0, mu_f=1.0, rho_f=2.0, g=(0.0, -3.0)
    )
    grav = assemble_gravity_load(mesh2, dofmap2, prm)
    x2 = mesh2.vertices[:, 1]
    # (K/mu_f) * (rho_f g . grad x2) * |domain| = 2 * 2 * (-3) * 1
    assert float(x2 @ grav) == pytest.approx(-12.0, rel=1e-12)
    zero_g = assemble_gravity_load(mesh2, dofmap2, MaterialParams())
    assert np.max(np.abs(zero_g)) == 0.0


def test_assembly_is_deterministic(mesh2, dofmap2):
    A1 = assemble_elasticity(mesh2, dofmap2)
    A2 = assemble_elasticity(mesh2, dofmap2)
    assert (A1 != A2).nnz == 0
    bench = get_benchmark("test1")
    l1 = assemble_load(_loads(mesh2, dofmap2, bench), 5e-4)
    l2 = assemble_load(_loads(mesh2, dofmap2, bench), 5e-4)
    assert np.array_equal(l1[0], l2[0]) and np.array_equal(l1[1], l2[1])


# ---------------------------------------------------------------------------
# Tabulated load assembler against the per-call einsum formula
# ---------------------------------------------------------------------------


def _reference_edge_load(mesh, closures, t, out, vector):
    rule = edge_quadrature(5)
    s, w = rule.points[:, 1], rule.weights
    for tag in sorted(closures, key=int):
        closure = closures[tag]
        eids = mesh.edges_with_tag(tag)
        if closure is None or eids.size == 0:
            continue
        va = mesh.vertices[mesh.edges[eids, 0]]
        vb = mesh.vertices[mesh.edges[eids, 1]]
        length = np.linalg.norm(vb - va, axis=1)
        pts = va[:, None, :] * (1.0 - s)[None, :, None] + vb[:, None, :] * s[None, :, None]
        ne, nq = pts.shape[0], pts.shape[1]
        if vector:
            data = np.asarray(closure(pts.reshape(-1, 2), t), dtype=float).reshape(ne, nq, 2)
            local = np.einsum("q,eqa,qi,e->eia", w, data, edge_trace_p2(s), length, optimize=True)
            nodes = np.column_stack(
                [mesh.edges[eids, 0], mesh.edges[eids, 1], mesh.edge_nodes[eids]]
            )
            dofs = (2 * nodes[:, :, None] + np.array([0, 1])).reshape(ne, 6)
            np.add.at(out, dofs, local.reshape(ne, 6))
        else:
            data = np.asarray(closure(pts.reshape(-1, 2), t), dtype=float).reshape(ne, nq)
            local = np.einsum("q,eq,qj,e->ej", w, data, edge_trace_p1(s), length, optimize=True)
            np.add.at(out, mesh.edges[eids], local)


def _reference_load(mesh, dofmap, bench, t):
    """The load assembly the tabulated assembler replaced: every call maps
    the quadrature points, contracts with an einsum and scatters with
    np.add.at."""
    rule = triangle_quadrature(6)
    pts = physical_points(mesh, rule.points)
    n_tri, nq = pts.shape[0], pts.shape[1]
    flat = pts.reshape(-1, 2)
    maps = AffineMaps.from_mesh(mesh)
    w, det = rule.weights, maps.det
    p2, _ = eval_basis("P2", rule.points)
    p1, p1_grads = eval_basis("P1", rule.points)
    mech = np.zeros(dofmap.n_u)
    data = np.asarray(bench.sources.f(flat, t), dtype=float).reshape(n_tri, nq, 2)
    local = np.einsum("q,fqa,qi,f->fia", w, data, p2, det, optimize=True)
    np.add.at(mech, dofmap.triangle_u, local.reshape(n_tri, 12))
    flow = np.zeros(dofmap.n_scalar)
    data = np.asarray(bench.sources.phi(flat, t), dtype=float).reshape(n_tri, nq)
    np.add.at(flow, mesh.triangles, np.einsum("q,fq,qj,f->fj", w, data, p1, det, optimize=True))
    bcs = bench.bcs
    tractions = {tag: bc.traction for tag, bc in bcs.mechanical.items()}
    boundary = np.zeros(dofmap.n_u)
    _reference_edge_load(mesh, tractions, t, boundary, vector=True)
    mech += boundary
    fluxes = {tag: (bc.value if bc.kind == "flux" else None) for tag, bc in bcs.flow.items()}
    boundary = np.zeros(dofmap.n_scalar)
    _reference_edge_load(mesh, fluxes, t, boundary, vector=False)
    flow += boundary
    prm = bench.params
    gravity = np.zeros(dofmap.n_scalar)
    if np.any(prm.rho_g):
        g_rule = triangle_quadrature(1)
        _, g_grads = eval_basis("P1", g_rule.points)
        grads = maps.physical_gradients(g_grads)
        local = (prm.K / prm.mu_f) * np.einsum(
            "q,a,fqja,f->fj", g_rule.weights, prm.rho_g, grads, det, optimize=True
        )
        np.add.at(gravity, mesh.triangles, local)
    flow += gravity
    return mech, flow


def _with_gravity(bench):
    params = dataclasses.replace(bench.params, rho_f=2.0, g=(0.5, -3.0))
    return dataclasses.replace(bench, params=params)


_LOAD_CASES = {
    "test1": lambda: get_benchmark("test1"),
    "barry_mercer": lambda: get_benchmark("barry_mercer"),
    "locking": lambda: get_benchmark("locking"),
    "polynomial": lambda: get_benchmark("polynomial"),
    "test1_gravity": lambda: _with_gravity(get_benchmark("test1")),
}


@pytest.mark.parametrize("case", sorted(_LOAD_CASES))
def test_tabulated_load_matches_reference_formula(case):
    bench = _LOAD_CASES[case]()
    mesh = jittered_mesh(6, 5)
    dofmap = DofMap.from_mesh(mesh)
    loads = _loads(mesh, dofmap, bench)
    for t in (0.0, bench.T / 3.0, bench.T):
        got = assemble_load(loads, t)
        want = _reference_load(mesh, dofmap, bench, t)
        for new, old in zip(got, want):
            assert np.max(np.abs(new - old)) <= 1e-14 * np.max(np.abs(old)), (case, t)


def test_zero_closures_are_dropped_and_give_exact_zeros(mesh2, dofmap2):
    # locking: zero body force, mass source and fluxes, zero tractions on
    # the right and bottom sides; only the top traction is integrated.
    bench = get_benchmark("locking")
    loads = _loads(mesh2, dofmap2, bench)
    assert loads.flow_terms == ()
    assert [closure for closure, _ in loads.mech_terms] == [
        bench.bcs.mechanical[BoundarySegment.TOP].traction
    ]
    mech, flow = assemble_load(loads, bench.T)
    assert np.all(flow == 0.0)
    top = dofmap2.u_dofs(mesh2.nodes_on_segment(BoundarySegment.TOP), 1)
    off_top = np.setdiff1d(np.arange(dofmap2.n_u), top)
    assert np.all(mech[off_top] == 0.0)
    assert np.all(mech[top] < 0.0)


def test_load_tables_are_built_once_per_run(monkeypatch):
    calls = []
    original = porofem.assembly.physical_points

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(porofem.assembly, "physical_points", counting)
    bench = get_benchmark("test1")
    counts = []
    for n_steps in (2, 6):
        calls.clear()
        run(bench, Discretization.build(build_rect_mesh(3, 3), bench.params),
            TimeScheme(dt=1e-4, n_steps=n_steps, theta=1))
        counts.append(len(calls))
    assert counts[0] == counts[1] == 1


# ---------------------------------------------------------------------------
# Constraints
# ---------------------------------------------------------------------------


def test_constraints_locking_layout(mesh2, dofmap2):
    bench = get_benchmark("locking")
    bd = build_constraints(mesh2, dofmap2, bench.bcs, bench.coeffs)
    n_left_nodes = 2 * mesh2.ny + 1
    assert bd.u_dofs.size == 2 * n_left_nodes
    assert bd.pressure_vertices.size == 0
    assert bd.rigid_rows is None
    coords = mesh2.p2_node_coords()
    for dof in bd.u_dofs:
        assert coords[dof // 2, 0] == pytest.approx(0.0, abs=1e-14)


def test_constraints_test1_layout(mesh2, dofmap2):
    bench = get_benchmark("test1")
    bd = build_constraints(mesh2, dofmap2, bench.bcs, bench.coeffs)
    assert bd.pressure_vertices.size == 2 * (mesh2.nx + mesh2.ny)
    assert bd.rigid_rows is None
    coords = mesh2.p2_node_coords()
    for dof in bd.u_dofs:
        node, comp = divmod(dof, 2)
        x, y = coords[node]
        if comp == 0:
            assert min(abs(x), abs(x - 1.0)) <= 1e-14  # u1 on vertical sides
        else:
            assert min(abs(y), abs(y - 1.0)) <= 1e-14  # u2 on horizontal sides


def test_constraints_pure_traction_gets_rigid_rows(mesh2, dofmap2):
    bench = conservation_benchmark()
    bd = build_constraints(mesh2, dofmap2, bench.bcs, bench.coeffs)
    assert bd.u_dofs.size == 0
    assert bd.rigid_rows is not None
    assert bd.rigid_rows.shape == (3, dofmap2.n_u)
    # The rows are L2 pairings with (1,0), (0,1), (-x2, x1): on the unit
    # square, u = (1, 0) gives (1, 0, -1/2) and u = (0, 1) gives (0, 1, 1/2).
    for comp, expected in ((0, [1.0, 0.0, -0.5]), (1, [0.0, 1.0, 0.5])):
        u = np.zeros(dofmap2.n_u)
        u[comp::2] = 1.0
        assert np.allclose(bd.rigid_rows @ u, expected, rtol=0.0, atol=1e-13)


def test_constraints_reject_kappa2_zero_with_pressure_bc(mesh2, dofmap2):
    bench = get_benchmark("test1", MaterialParams(lam=0.0, mu=1.0, alpha=1.0, c0=1.0))
    with pytest.raises(ValueError, match="kappa2"):
        build_constraints(mesh2, dofmap2, bench.bcs, bench.coeffs)


def _reference_boundary_values(mesh, bcs, t):
    """Per-dof loop over segments in ascending tag order; the first segment
    that lists a dof or vertex supplies its value."""
    coords = mesh.p2_node_coords()
    u_map = {}
    for tag in sorted(bcs.mechanical, key=int):
        nodes = mesh.nodes_on_segment(tag)
        for comp in (0, 1):
            closure = bcs.mechanical[tag].dirichlet[comp]
            if closure is None:
                continue
            values = np.asarray(closure(coords[nodes], t), dtype=float)
            for node, val in zip(nodes, values):
                u_map.setdefault(2 * int(node) + comp, float(val))
    p_map = {}
    for tag in sorted(bcs.flow, key=int):
        bc = bcs.flow[tag]
        if bc.kind != "pressure":
            continue
        verts = np.unique(mesh.edges[mesh.edges_with_tag(tag)].ravel())
        values = np.asarray(bc.value(mesh.vertices[verts], t), dtype=float)
        for vert, val in zip(verts, values):
            p_map.setdefault(int(vert), float(val))
    u_dofs = sorted(u_map)
    p_verts = sorted(p_map)
    return (
        np.array(u_dofs, dtype=np.int64),
        np.array([u_map[d] for d in u_dofs], dtype=float),
        np.array(p_verts, dtype=np.int64),
        np.array([p_map[v] for v in p_verts], dtype=float),
    )


def _disagreeing_corners_spec():
    # Every side prescribes its own constant, so each corner node is
    # listed by two sides with different values.
    def const(value):
        return lambda x, t: np.full(x.shape[0], value * (1.0 + t))

    mechanical = {
        tag: MechanicalBC(dirichlet=(const(float(tag)), const(-float(tag))))
        for tag in BoundarySegment
    }
    flow = {tag: FlowBC(kind="pressure", value=const(10.0 * tag)) for tag in BoundarySegment}
    return BoundaryConditionSpec(mechanical=mechanical, flow=flow)


@pytest.mark.parametrize("name", ["test1", "barry_mercer", "locking", "polynomial", "corners"])
def test_boundary_values_match_per_dof_reference(name):
    mesh = build_rect_mesh(3, 2)
    dofmap = DofMap.from_mesh(mesh)
    if name == "corners":
        bcs, coeffs, t_later = _disagreeing_corners_spec(), derive_kappas(MaterialParams()), 0.25
    else:
        bench = get_benchmark(name)
        bcs, coeffs, t_later = bench.bcs, bench.coeffs, 0.37 * bench.T
    bd = build_constraints(mesh, dofmap, bcs, coeffs)
    for t in (0.0, t_later):
        u_dofs, u_vals, p_verts, p_vals = _reference_boundary_values(mesh, bcs, t)
        got_u, got_p = bd.values(t)
        assert np.array_equal(bd.u_dofs, u_dofs)
        assert np.array_equal(bd.pressure_vertices, p_verts)
        assert np.array_equal(got_u, u_vals)
        assert np.array_equal(got_p, p_vals)


def test_reduced_system_identity_with_prescribed_dof():
    rs = ReducedSystem(sp.eye(2, format="csr"), slaves=np.array([0]))
    prescribed = np.array([5.0])
    fact = factorize(rs.matrix, np.arange(rs.matrix.shape[0]))
    x, _ = solve(fact, rs.reduce_rhs(np.array([7.0, 3.0]), prescribed))
    assert np.allclose(rs.expand(x, prescribed), [5.0, 3.0], atol=1e-14)


def test_reduced_system_lagrange_row_matches_dense_kkt_oracle():
    matrix = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    rhs = np.array([1.0, 3.0])
    none = np.empty(0)
    rs = ReducedSystem(matrix, slaves=none, lag_rows=sp.csr_matrix(np.array([[1.0, 1.0]])))
    fact = factorize(rs.matrix, np.arange(rs.matrix.shape[0]))
    x, _ = solve(fact, rs.reduce_rhs(rhs, none))
    got = rs.expand(x, none)
    kkt = np.array([[2.0, -1.0, 1.0], [-1.0, 2.0, 1.0], [1.0, 1.0, 0.0]])
    oracle = np.linalg.solve(kkt, np.array([1.0, 3.0, 0.0]))
    assert np.allclose(got, oracle[:2], atol=1e-13)
    assert x[2] == pytest.approx(oracle[2], abs=1e-13)  # the multiplier


def test_rigid_motion_constrained_traction_solve(mesh2, dofmap2):
    bench = conservation_benchmark()
    A = assemble_elasticity(mesh2, dofmap2, bench.params.mu)
    mech, _ = assemble_load(_loads(mesh2, dofmap2, bench), 0.0)
    bd = build_constraints(mesh2, dofmap2, bench.bcs, bench.coeffs)
    u_values, _ = bd.values(0.0)
    rs = ReducedSystem(A, slaves=bd.u_dofs, lag_rows=bd.rigid_rows)
    fact = factorize(rs.matrix, np.arange(rs.matrix.shape[0]))
    x, _ = solve(fact, rs.reduce_rhs(mech, u_values))
    u = rs.expand(x, u_values)
    basis = rigid_motion_basis(mesh2, dofmap2)
    for row in basis:
        assert abs(row @ u) <= 1e-10 * max(1.0, np.linalg.norm(u) * np.linalg.norm(row))


@pytest.mark.parametrize(
    "slaves, message",
    [([1, 1], "distinct"), ([3], "distinct"), ([-1], "distinct"), ([0], "master dofs only")],
)
def test_reduced_system_rejects_invalid_slaves(slaves, message):
    # Duplicate and out-of-range slaves, and a coupling that reads a slave.
    coupling = sp.csr_matrix(np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match=message):
        ReducedSystem(sp.eye(3, format="csr"), slaves=np.array(slaves), coupling=coupling)


def test_reduced_system_pads_narrow_lagrange_rows():
    # Rows over the leading two unknowns act as rows zero on the third.
    matrix = sp.csr_matrix(np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]))
    slaves = np.array([2])
    narrow = ReducedSystem(matrix, slaves=slaves, lag_rows=sp.csr_matrix([[1.0, 1.0]]))
    full = ReducedSystem(matrix, slaves=slaves, lag_rows=sp.csr_matrix([[1.0, 1.0, 0.0]]))
    assert (narrow.matrix != full.matrix).nnz == 0
    rhs, values = np.array([1.0, 3.0, 5.0]), np.array([0.5])
    assert np.array_equal(narrow.reduce_rhs(rhs, values), full.reduce_rhs(rhs, values))
    with pytest.raises(ValueError, match="wider than the system"):
        ReducedSystem(matrix, slaves=slaves, lag_rows=sp.csr_matrix(np.ones((1, 4))))


def test_dependent_affine_rows_rejected():
    with pytest.raises(SingularConstraintsError):
        ReducedSystem(
            sp.eye(2, format="csr"), slaves=np.empty(0),
            lag_rows=sp.csr_matrix(np.array([[1.0, 1.0], [2.0, 2.0]])),
        )


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    with_coupling=st.booleans(),
    n_lag=st.integers(0, 2),
)
def test_reduced_system_matches_dense_kkt_oracle(n, seed, with_coupling, n_lag):
    """A random master/slave split of a random SPD matrix, with prescribed
    slave values, optionally slaves coupled to masters and homogeneous
    Lagrange rows, against the full saddle-point system solved densely."""
    rng = np.random.default_rng(seed)
    g = rng.uniform(-1.0, 1.0, (n, n))
    A = g @ g.T + n * np.eye(n)
    is_slave = rng.random(n) < 0.4
    is_slave[rng.integers(n)] = False
    masters, slaves = np.flatnonzero(~is_slave), np.flatnonzero(is_slave)
    n_lag = min(n_lag, masters.size)
    values = rng.uniform(-2.0, 2.0, slaves.size)
    # The coupling is given in full-system columns, zero in the slave ones.
    C = np.zeros((slaves.size, n))
    if with_coupling:
        C[:, masters] = rng.uniform(-1.0, 1.0, (slaves.size, masters.size))
        C *= rng.random(C.shape) < 0.5
    L = rng.uniform(-1.0, 1.0, (n_lag, n))
    b = rng.uniform(-1.0, 1.0, n)
    # The Lagrange rows act on x_m and x_s = C x_m + values alike.
    assume(
        n_lag == 0
        or np.linalg.svd(L[:, masters] + L[:, slaves] @ C[:, masters], compute_uv=False)[-1] > 1e-3
    )

    # Unknowns (x, lam): master rows of A x + L^T lam = b, each slave row
    # replaced by its constraint x_s - C x_m = values, and L x = 0.
    kkt = np.zeros((n + n_lag, n + n_lag))
    kkt[masters, :n] = A[masters]
    kkt[masters, n:] = L[:, masters].T
    kkt[slaves, slaves] = 1.0
    kkt[np.ix_(slaves, masters)] = -C[:, masters]
    kkt[n:, :n] = L
    full_rhs = np.concatenate([b, np.zeros(n_lag)])
    full_rhs[slaves] = values
    assume(np.linalg.cond(kkt) < 1e8)
    oracle = np.linalg.solve(kkt, full_rhs)

    rs = ReducedSystem(
        sp.csr_matrix(A), slaves=slaves,
        coupling=sp.csr_matrix(C) if with_coupling else None,
        lag_rows=sp.csr_matrix(L) if n_lag else None,
    )
    y = np.linalg.solve(rs.matrix.toarray(), rs.reduce_rhs(b, values))
    tol = 1e-9 * max(1.0, np.max(np.abs(oracle)))
    assert np.allclose(rs.expand(y, values), oracle[:n], rtol=0.0, atol=tol)
    assert np.allclose(y[masters.size:], oracle[n:], rtol=0.0, atol=tol)
