"""Sparse form assembly and constraint reduction.

The elasticity oracle below re-integrates the strain form with explicit
per-element loops and dense arithmetic, independent of the vectorized
production assembler; the two must agree entrywise.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from porofem.assembly import (
    DofMap,
    ReducedSystem,
    SingularConstraintsError,
    assemble_boundary_load,
    assemble_div,
    assemble_domain_load,
    assemble_elasticity,
    assemble_gravity_load,
    assemble_load,
    assemble_scalar_mass,
    assemble_scalar_stiffness,
    assemble_vector_mass,
    build_constraints,
    rigid_motion_basis,
)
from porofem.elements import eval_basis, triangle_quadrature
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

from helpers import conservation_benchmark


@pytest.fixture(scope="module")
def mesh2():
    return build_rect_mesh(2, 2)


@pytest.fixture(scope="module")
def dofmap2(mesh2):
    return DofMap.from_mesh(mesh2)


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
        mesh2, dofmap2, lambda x, t: np.ones(x.shape[0]), 0.0, space="scalar"
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

    rhs = assemble_domain_load(mesh2, dofmap2, f, 0.0, space="vector")
    assert float(rhs[0::2].sum()) == pytest.approx(1.0, rel=1e-12)
    assert float(rhs[1::2].sum()) == pytest.approx(0.0, abs=1e-13)


def test_locking_traction_loads(mesh2, dofmap2):
    bench = get_benchmark("locking")
    mech, flow = assemble_load(
        mesh2, dofmap2, bench.sources, bench.bcs, bench.params, 0.0
    )
    assert np.max(np.abs(flow)) == 0.0
    assert float(mech[1::2].sum()) == pytest.approx(-1.0, rel=1e-12)
    assert float(mech[0::2].sum()) == pytest.approx(0.0, abs=1e-13)


def test_unit_mass_source_sums_to_area(mesh2, dofmap2):
    bench = conservation_benchmark(phi_const=1.0, flux_bottom=0.0)
    _, flow = assemble_load(mesh2, dofmap2, bench.sources, bench.bcs, bench.params, 0.0)
    assert float(flow.sum()) == pytest.approx(1.0, rel=1e-12)


def test_boundary_flux_load_sums_to_side_integral(mesh2, dofmap2):
    bench = conservation_benchmark(phi_const=0.0, flux_bottom=0.3)
    _, flow = assemble_load(mesh2, dofmap2, bench.sources, bench.bcs, bench.params, 0.0)
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
    l1 = assemble_load(mesh2, dofmap2, bench.sources, bench.bcs, bench.params, 5e-4)
    l2 = assemble_load(mesh2, dofmap2, bench.sources, bench.bcs, bench.params, 5e-4)
    assert np.array_equal(l1[0], l2[0]) and np.array_equal(l1[1], l2[1])


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
    rs = ReducedSystem(
        sp.eye(2, format="csr"), masters=np.array([1]), keep_rows=np.array([1]),
        slaves=np.array([0]),
    )
    prescribed = np.array([5.0])
    x, _ = solve(factorize(rs.matrix), rs.reduce_rhs(np.array([7.0, 3.0]), prescribed))
    assert np.allclose(rs.expand(x, prescribed), [5.0, 3.0], atol=1e-14)


def test_reduced_system_lagrange_row_matches_dense_kkt_oracle():
    matrix = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    rhs = np.array([1.0, 1.0])
    both = np.array([0, 1])
    none = np.empty(0)
    rs = ReducedSystem(
        matrix, masters=both, keep_rows=both,
        lag_rows=sp.csr_matrix(np.array([[1.0, 1.0]])), lag_rhs=np.array([1.0]),
    )
    x, _ = solve(factorize(rs.matrix), rs.reduce_rhs(rhs, none))
    got = rs.expand(x, none)
    kkt = np.array([[2.0, -1.0, 1.0], [-1.0, 2.0, 1.0], [1.0, 1.0, 0.0]])
    oracle = np.linalg.solve(kkt, np.array([1.0, 1.0, 1.0]))
    assert np.allclose(got, oracle[:2], atol=1e-13)
    assert rs.multipliers(x)[0] == pytest.approx(oracle[2], abs=1e-13)


def test_rigid_motion_constrained_traction_solve(mesh2, dofmap2):
    bench = conservation_benchmark()
    A = assemble_elasticity(mesh2, dofmap2, bench.params.mu)
    mech, _ = assemble_load(mesh2, dofmap2, bench.sources, bench.bcs, bench.params, 0.0)
    bd = build_constraints(mesh2, dofmap2, bench.bcs, bench.coeffs)
    u_values, _ = bd.values(0.0)
    masters = np.setdiff1d(np.arange(dofmap2.n_u), bd.u_dofs)
    rs = ReducedSystem(
        A, masters=masters, keep_rows=masters, slaves=bd.u_dofs, lag_rows=bd.rigid_rows
    )
    x, _ = solve(factorize(rs.matrix), rs.reduce_rhs(mech, u_values))
    u = rs.expand(x, u_values)
    basis = rigid_motion_basis(mesh2, dofmap2)
    for row in basis:
        assert abs(row @ u) <= 1e-10 * max(1.0, np.linalg.norm(u) * np.linalg.norm(row))


def test_dof_both_master_and_slave_rejected():
    with pytest.raises(SingularConstraintsError):
        ReducedSystem(
            sp.eye(3, format="csr"), masters=np.array([0, 1]), keep_rows=np.array([0, 1]),
            slaves=np.array([1]),
        )


def test_dependent_affine_rows_rejected():
    both = np.array([0, 1])
    with pytest.raises(SingularConstraintsError):
        ReducedSystem(
            sp.eye(2, format="csr"), masters=both, keep_rows=both,
            lag_rows=sp.csr_matrix(np.array([[1.0, 1.0], [2.0, 2.0]])),
            lag_rhs=np.array([1.0, 2.0]),
        )


def test_boundary_load_single_side(mesh2, dofmap2):
    closures = {BoundarySegment.TOP: lambda x, t: np.column_stack(
        [np.zeros(x.shape[0]), np.full(x.shape[0], -1.0)]
    )}
    rhs = assemble_boundary_load(mesh2, dofmap2, closures, 0.0, space="vector")
    assert float(rhs[1::2].sum()) == pytest.approx(-1.0, rel=1e-12)
    coords = mesh2.p2_node_coords()
    nonzero_nodes = np.unique(np.nonzero(rhs)[0] // 2)
    assert np.allclose(coords[nonzero_nodes, 1], 1.0, atol=1e-14)
