"""Sparse form assembly and constraint reduction.

The elasticity oracle below re-integrates the strain form with explicit
per-element loops and dense arithmetic, independent of the vectorized
production assembler; the two must agree entrywise.
"""

from __future__ import annotations

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
    assemble_div,
    assemble_domain_load,
    assemble_elasticity,
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
    Benchmark,
    BoundaryConditionSpec,
    FlowBC,
    MaterialParams,
    MechanicalBC,
    Separable,
    SourceFunctions,
    get_benchmark,
    zero_scalar,
    zero_vector,
)
from porofem.diagnostics import ErrorEvaluator
from porofem.solver import factorize, solve
from porofem.stepper import Discretization, TimeScheme, run

from helpers import conservation_benchmark, jittered_mesh, rigid_motion_rows, zero_benchmark


@pytest.fixture(scope="module")
def mesh2():
    return build_rect_mesh(2, 2)


@pytest.fixture(scope="module")
def dofmap2(mesh2):
    return DofMap.from_mesh(mesh2)


def _loads(mesh, dofmap, bench) -> LoadAssembler:
    quadrature = DomainQuadrature.from_mesh(mesh, dofmap)
    return LoadAssembler.build(mesh, dofmap, quadrature, bench.sources, bench.bcs)


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
        DomainQuadrature.from_mesh(mesh2, dofmap2),
        Separable((), ((1.0, lambda x: np.ones(x.shape[0])),)), 0.0,
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
    def field(x):
        out = np.zeros((x.shape[0], 2))
        out[:, 0] = 1.0
        return out

    f = Separable((2,), ((1.0, field),))
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


def _reference_gradient_load(mesh, dofmap, c):
    """(c, grad psi_i) for a constant vector c: the domain term of a constant
    fluid body force in Darcy's law, K (rho_f g, grad psi_i) with c = K rho_f g,
    K the Darcy mobility, as the flow load once assembled it."""
    rule = triangle_quadrature(1)
    _, ref_grads = eval_basis("P1", rule.points)
    maps = AffineMaps.from_mesh(mesh)
    grads = maps.physical_gradients(ref_grads)
    local = np.einsum("q,a,fqja,f->fj", rule.weights, c, grads, maps.det, optimize=True)
    out = np.zeros(dofmap.n_scalar)
    np.add.at(out, mesh.triangles, local)
    return out


@pytest.mark.parametrize("mesh", [build_rect_mesh(5, 4), jittered_mesh(6, 5)],
                         ids=["unit", "jittered"])
def test_constant_darcy_body_force_is_flux_data(mesh):
    # The divergence theorem against P1 test functions: (c, grad psi_i)
    # = <c . n, psi_i> for constant c, so a flux of c . n on every side
    # assembles exactly the domain term a constant rho_f g once added.
    c = np.array([2.0, -12.0])  # K rho_f g for K = 2, rho_f = 2, g = (0.5, -3)
    dofmap = DofMap.from_mesh(mesh)

    def flux_for(normal):
        return Separable((), ((1.0, lambda x: np.full(x.shape[0], c @ normal)),))

    bench = Benchmark(
        name="constant_flux",
        T=1.0,
        params=MaterialParams(),
        bcs=BoundaryConditionSpec(
            mechanical={seg: MechanicalBC(traction=zero_vector) for seg in BoundarySegment},
            flow={seg: FlowBC(kind="flux", value=flux_for(np.array(seg.normal, dtype=float)))
                  for seg in BoundarySegment},
        ),
        sources=SourceFunctions(f=zero_vector, phi=zero_scalar),
    )
    _, flow = assemble_load(_loads(mesh, dofmap, bench), 0.0)
    want = _reference_gradient_load(mesh, dofmap, c)
    assert np.max(np.abs(flow - want)) <= 1e-14 * np.max(np.abs(want))


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
    return mech, flow


_LOAD_CASES = {
    "test1": lambda: get_benchmark("test1"),
    "barry_mercer": lambda: get_benchmark("barry_mercer"),
    "locking": lambda: get_benchmark("locking"),
    "polynomial": lambda: get_benchmark("polynomial"),
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
    assert loads.flow.terms == ()
    top_terms = bench.bcs.mechanical[BoundarySegment.TOP].traction.terms
    assert [factor for factor, _ in loads.mech.terms] == [factor for factor, _ in top_terms]
    mech, flow = assemble_load(loads, bench.T)
    assert np.all(flow == 0.0)
    top = dofmap2.u_dofs(mesh2.nodes_on_segment(BoundarySegment.TOP), 1)
    off_top = np.setdiff1d(np.arange(dofmap2.n_u), top)
    assert np.all(mech[off_top] == 0.0)
    assert np.all(mech[top] < 0.0)


# ---------------------------------------------------------------------------
# Tables built once against direct evaluation at each time
# ---------------------------------------------------------------------------


def _per_step_integral(rule, datum, t):
    """The per-step path the load tables replaced: the datum evaluated at
    the rule's points at time t, weighted and scattered."""
    values = np.asarray(datum(rule.points, t), dtype=float)
    local = values.reshape(rule.measure.size, -1) @ rule.table
    local *= rule.measure[:, None]
    return np.bincount(rule.dofs.ravel(), local.ravel(), rule.size)


def _per_step_load(mesh, dofmap, quadrature, bench, t):
    """Both loads at time t, each datum with terms integrated at t, in the
    assembler's order: the domain datum, then each segment's by tag."""
    bcs = bench.bcs
    tractions = [(tag, bc.traction) for tag, bc in bcs.mechanical.items()]
    fluxes = [(tag, bc.value) for tag, bc in bcs.flow.items() if bc.kind == "flux"]
    loads = []
    for domain, rule, edges, space, size in (
        (bench.sources.f, quadrature.vector, tractions, "vector", dofmap.n_u),
        (bench.sources.phi, quadrature.scalar, fluxes, "scalar", dofmap.n_scalar),
    ):
        out = np.zeros(size)
        if domain.terms:
            out += _per_step_integral(rule, domain, t)
        for tag, datum in sorted(edges, key=lambda item: int(item[0])):
            if datum is not None and datum.terms:
                edge_rule = porofem.assembly._edge_rule(mesh, dofmap, tag, space)
                out += _per_step_integral(edge_rule, datum, t)
        loads.append(out)
    return loads


_TABLE_CASES = {
    **{name: (lambda name=name: get_benchmark(name)) for name in
       ("test1", "barry_mercer", "locking", "polynomial")},
    "conservation_fixture": conservation_benchmark,
    "zero_fixture": zero_benchmark,
}


def _close(new, old):
    return np.max(np.abs(new - old), initial=0.0) <= 1e-13 * np.max(np.abs(old), initial=0.0)


@pytest.mark.parametrize("case", sorted(_TABLE_CASES))
def test_tables_match_direct_evaluation(case):
    bench = _TABLE_CASES[case]()
    mesh = jittered_mesh(6, 5)
    dofmap = DofMap.from_mesh(mesh)
    quadrature = DomainQuadrature.from_mesh(mesh, dofmap)
    loads = LoadAssembler.build(mesh, dofmap, quadrature, bench.sources, bench.bcs)
    boundary = build_constraints(mesh, dofmap, bench.bcs)
    evaluator = (ErrorEvaluator(bench, mesh, dofmap, quadrature)
                 if bench.has_exact_solution else None)
    f, q = mesh.n_triangles, quadrature.rule.weights.size
    flat = quadrature.vector.points
    for t in (0.0, 0.5 * bench.T, bench.T):
        got = assemble_load(loads, t)
        want = _per_step_load(mesh, dofmap, quadrature, bench, t)
        for new, old in zip(got, want):
            if case == "locking":  # one term, constant in time
                assert new.tobytes() == old.tobytes(), t
            assert _close(new, old), (t, np.max(np.abs(new - old)))
        _, u_want, _, p_want = _reference_boundary_values(mesh, bench.bcs, t)
        for new, old in zip(boundary.values(t), (u_want, p_want)):
            assert _close(new, old), t
        if evaluator is None:
            continue
        for table, direct in (
            (evaluator.exact_u, bench.exact_u(flat, t).reshape(f, q, 2)),
            (evaluator.exact_grad_u, bench.exact_grad_u(flat, t).reshape(f, q, 2, 2)),
            (evaluator.exact_p, bench.exact_p(flat, t).reshape(f, q)),
            (evaluator.exact_grad_p, np.moveaxis(bench.exact_grad_p(flat, t).reshape(f, q, 2), 1, 2)),
        ):
            assert _close(table(t), direct), t


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
    bd = build_constraints(mesh2, dofmap2, bench.bcs)
    n_left_nodes = 2 * mesh2.ny + 1
    assert bd.u_dofs.size == 2 * n_left_nodes
    assert bd.pressure_vertices.size == 0
    coords = mesh2.p2_node_coords()
    for dof in bd.u_dofs:
        assert coords[dof // 2, 0] == pytest.approx(0.0, abs=1e-14)


def test_constraints_test1_layout(mesh2, dofmap2):
    bench = get_benchmark("test1")
    bd = build_constraints(mesh2, dofmap2, bench.bcs)
    assert bd.pressure_vertices.size == 2 * (mesh2.nx + mesh2.ny)
    coords = mesh2.p2_node_coords()
    for dof in bd.u_dofs:
        node, comp = divmod(dof, 2)
        x, y = coords[node]
        if comp == 0:
            assert min(abs(x), abs(x - 1.0)) <= 1e-14  # u1 on vertical sides
        else:
            assert min(abs(y), abs(y - 1.0)) <= 1e-14  # u2 on horizontal sides


def test_constraints_pure_traction_pins_three_dofs(mesh2, dofmap2):
    bench = conservation_benchmark()
    bd = build_constraints(mesh2, dofmap2, bench.bcs)
    # Both components at (0, 0) and the vertical one at (1, 0), all zero.
    coords = mesh2.p2_node_coords()
    pinned = [(tuple(coords[dof // 2]), dof % 2) for dof in bd.u_dofs]
    assert pinned == [((0.0, 0.0), 0), ((0.0, 0.0), 1), ((1.0, 0.0), 1)]
    assert bd.pressure_vertices.size == 0
    for t in (0.0, bench.T):
        assert np.array_equal(bd.values(t)[0], np.zeros(3))
    # They admit no rigid motion: its values there vanish only for zero.
    basis = rigid_motion_basis(mesh2, dofmap2)
    assert np.linalg.matrix_rank(basis[:, bd.u_dofs]) == 3


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
    if bcs.is_pure_traction():
        # The rigid-motion pins: both components at the lower-left corner,
        # the vertical one at the lower-right corner, zero at all times.
        x, y = mesh.vertices.T
        low = y == y.min()
        for vert, comps in ((np.flatnonzero(low & (x == x.min())), (0, 1)),
                            (np.flatnonzero(low & (x == x.max())), (1,))):
            for comp in comps:
                u_map.setdefault(2 * int(vert[0]) + comp, 0.0)
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
        return Separable((), ((lambda t: 1.0 + t, lambda x: np.full(x.shape[0], value)),))

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
        bcs, t_later = _disagreeing_corners_spec(), 0.25
    else:
        bench = get_benchmark(name)
        bcs, t_later = bench.bcs, 0.37 * bench.T
    bd = build_constraints(mesh, dofmap, bcs)
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


def test_rigid_motion_constrained_traction_solve(mesh2, dofmap2):
    # The pinned traction solve and the solve that makes u L2-orthogonal to
    # the rigid motions by multipliers differ by a rigid motion alone.
    bench = conservation_benchmark()
    A = assemble_elasticity(mesh2, dofmap2, bench.params.mu)
    mech, _ = assemble_load(_loads(mesh2, dofmap2, bench), 0.0)
    bd = build_constraints(mesh2, dofmap2, bench.bcs)
    u_values, _ = bd.values(0.0)
    rs = ReducedSystem(A, slaves=bd.u_dofs)
    fact = factorize(rs.matrix, np.arange(rs.matrix.shape[0]))
    x, _ = solve(fact, rs.reduce_rhs(mech, u_values))
    u = rs.expand(x, u_values)
    assert np.array_equal(u[bd.u_dofs], np.zeros(3))
    C = rigid_motion_rows(mesh2, dofmap2)
    # The rows are L2 pairings with (1,0), (0,1), (-x2, x1): on the unit
    # square, u = (1, 0) gives (1, 0, -1/2) and u = (0, 1) gives (0, 1, 1/2).
    for comp, expected in ((0, [1.0, 0.0, -0.5]), (1, [0.0, 1.0, 0.5])):
        assert np.allclose(C[:, comp::2].sum(axis=1), expected, rtol=0.0, atol=1e-13)
    kkt = np.block([[A.toarray(), C.T], [C, np.zeros((3, 3))]])
    oracle = np.linalg.solve(kkt, np.concatenate([mech, np.zeros(3)]))[: dofmap2.n_u]
    basis = rigid_motion_basis(mesh2, dofmap2)
    coef = np.linalg.lstsq(basis.T, u - oracle, rcond=None)[0]
    assert np.max(np.abs(u - oracle - basis.T @ coef)) <= 1e-12 * np.max(np.abs(oracle))


@pytest.mark.parametrize(
    "slaves, message",
    [([1, 1], "distinct"), ([3], "distinct"), ([-1], "distinct"), ([0], "master dofs only")],
)
def test_reduced_system_rejects_invalid_slaves(slaves, message):
    # Duplicate and out-of-range slaves, and a coupling that reads a slave.
    coupling = sp.csr_matrix(np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match=message):
        ReducedSystem(sp.eye(3, format="csr"), slaves=np.array(slaves), coupling=coupling)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    with_coupling=st.booleans(),
)
def test_reduced_system_matches_dense_kkt_oracle(n, seed, with_coupling):
    """A random master/slave split of a random SPD matrix, with prescribed
    slave values and optionally slaves coupled to masters, against the full
    system with each slave row replaced by its constraint, solved
    densely."""
    rng = np.random.default_rng(seed)
    g = rng.uniform(-1.0, 1.0, (n, n))
    A = g @ g.T + n * np.eye(n)
    is_slave = rng.random(n) < 0.4
    is_slave[rng.integers(n)] = False
    masters, slaves = np.flatnonzero(~is_slave), np.flatnonzero(is_slave)
    values = rng.uniform(-2.0, 2.0, slaves.size)
    # The coupling is given in full-system columns, zero in the slave ones.
    C = np.zeros((slaves.size, n))
    if with_coupling:
        C[:, masters] = rng.uniform(-1.0, 1.0, (slaves.size, masters.size))
        C *= rng.random(C.shape) < 0.5
    b = rng.uniform(-1.0, 1.0, n)

    # Master rows of A x = b, each slave row replaced by its constraint
    # x_s - C x_m = values.
    kkt = np.zeros((n, n))
    kkt[masters] = A[masters]
    kkt[slaves, slaves] = 1.0
    kkt[np.ix_(slaves, masters)] = -C[:, masters]
    full_rhs = b.copy()
    full_rhs[slaves] = values
    assume(np.linalg.cond(kkt) < 1e8)
    oracle = np.linalg.solve(kkt, full_rhs)

    rs = ReducedSystem(
        sp.csr_matrix(A), slaves=slaves,
        coupling=sp.csr_matrix(C) if with_coupling else None,
    )
    y = np.linalg.solve(rs.matrix.toarray(), rs.reduce_rhs(b, values))
    tol = 1e-9 * max(1.0, np.max(np.abs(oracle)))
    assert np.allclose(rs.expand(y, values), oracle, rtol=0.0, atol=tol)
