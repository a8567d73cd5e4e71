"""Sparse operator assembly on the P2-vector / P1-scalar element pair.

Builds the matrices of the two-field formulation (elasticity block,
divergence coupling, scalar mass and stiffness), load vectors including
boundary tractions and fluxes (from quadrature tables built once, not per step),
the boundary data of a problem (which dofs are constrained, built once,
and their values at any time), and the reduction of a full linear system
to its free unknowns.

Displacement dofs are interleaved: dof(node, comp) = 2*node + comp, with
quadratic nodes ordered vertices-first then edge midpoints.  Scalar dofs
coincide with vertex indices.  The monolithic layout is [u | xi | eta].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np
import scipy.sparse as sp

from .elements import (
    AffineMaps,
    QuadratureRule,
    edge_quadrature,
    edge_trace_p1,
    edge_trace_p2,
    eval_basis,
    physical_points,
    triangle_quadrature,
)
from .mesh import BoundarySegment, Mesh
from .model import (
    BoundaryConditionSpec,
    DerivedCoeffs,
    MaterialParams,
    SourceFunctions,
    zero_scalar,
    zero_vector,
)

__all__ = [
    "DofMap",
    "nested_dissection",
    "SingularConstraintsError",
    "assemble_elasticity",
    "assemble_div",
    "assemble_scalar_mass",
    "assemble_scalar_stiffness",
    "assemble_vector_mass",
    "CellRule",
    "DomainQuadrature",
    "LoadAssembler",
    "assemble_domain_load",
    "assemble_gravity_load",
    "assemble_load",
    "rigid_motion_basis",
    "rigid_motion_rows",
    "boundary_flux_functional",
    "BoundaryData",
    "check_eta_elimination",
    "build_constraints",
    "ReducedSystem",
]


class SingularConstraintsError(RuntimeError):
    """Raised when a constraint block is rank deficient."""


@dataclass(frozen=True)
class DofMap:
    """Degree-of-freedom numbering for one mesh.

    Attributes:
        mesh: the underlying triangulation.
        triangle_p2: (F, 6) quadratic node ids per triangle, vertices then
            the midpoints opposite each vertex (matching the P2 basis order).
        triangle_u: (F, 12) interleaved displacement dofs per triangle.
        n_p2_nodes: number of quadratic nodes (vertices + edges).
        n_u: displacement dof count, 2 * n_p2_nodes.
        n_scalar: scalar dof count (= vertex count).
    """

    mesh: Mesh
    triangle_p2: np.ndarray
    triangle_u: np.ndarray
    n_p2_nodes: int
    n_u: int
    n_scalar: int

    @classmethod
    def from_mesh(cls, mesh: Mesh) -> "DofMap":
        midpoint_nodes = mesh.edge_nodes[mesh.triangle_edges]
        triangle_p2 = np.hstack([mesh.triangles, midpoint_nodes]).astype(np.int64)
        comps = np.array([0, 1], dtype=np.int64)
        triangle_u = (2 * triangle_p2[:, :, None] + comps).reshape(len(triangle_p2), 12)
        n_p2 = mesh.n_vertices + mesh.n_edges
        return cls(
            mesh=mesh,
            triangle_p2=triangle_p2,
            triangle_u=triangle_u,
            n_p2_nodes=n_p2,
            n_u=2 * n_p2,
            n_scalar=mesh.n_vertices,
        )

    def u_dofs(self, nodes: np.ndarray, comp: int) -> np.ndarray:
        """Interleaved displacement dofs of the given component at nodes."""
        return 2 * np.asarray(nodes, dtype=np.int64) + comp

    @property
    def xi_offset(self) -> int:
        return self.n_u

    @property
    def eta_offset(self) -> int:
        return self.n_u + self.n_scalar

    @property
    def n_monolithic(self) -> int:
        return self.n_u + 2 * self.n_scalar

    @property
    def n_step1(self) -> int:
        """Size of the displacement/xi saddle block."""
        return self.n_u + self.n_scalar

    def grid_index(self) -> np.ndarray:
        """(n_monolithic, 2) logical grid position of every [u | xi | eta] dof.

        Vertex k of the structured mesh sits at (k mod (nx+1), k div (nx+1)),
        doubled; an edge node sits halfway between its two vertices.  A
        displacement dof takes its node's position and a scalar dof its
        vertex's.  Every element lies in one grid cell, so the dofs on an
        even (vertex) line separate those on either side of it exactly,
        whatever the vertex coordinates.
        """
        mesh = self.mesh
        k = np.arange(mesh.n_vertices, dtype=np.int64)
        vertex = 2 * np.column_stack([k % (mesh.nx + 1), k // (mesh.nx + 1)])
        edge = (vertex[mesh.edges[:, 0]] + vertex[mesh.edges[:, 1]]) // 2
        node = np.vstack([vertex, edge])
        return np.vstack([np.repeat(node, 2, axis=0), vertex, vertex])


def nested_dissection(grid: np.ndarray) -> np.ndarray:
    """Fill-reducing elimination order of dofs at logical grid positions.

    Recursive bisection on even grid lines (George, SIAM J. Numer. Anal.
    10, 1973): the longer side of a region's bounding box is split at the
    even line nearest its middle, and the two halves are ordered, each by
    the same rule, before the separating line.  A region too narrow to hold
    an interior even line keeps ascending dof order.

    All regions of one bisection level are split together.  Each level
    gives every dof a digit: 0 or 1 for the half it falls into, 2 on the
    separator (which ends its recursion), 0 once its recursion has ended;
    the order sorts the digit strings, so halves precede their separator.

    Args:
        grid: (n, 2) nonnegative integer positions, as taken from
            DofMap.grid_index.

    Returns:
        A permutation of range(n): position i holds the dof eliminated i-th.
    """
    grid = np.asarray(grid, dtype=np.int64)
    n = grid.shape[0]
    active = np.arange(n, dtype=np.int64)
    region = np.zeros(n, dtype=np.int64)
    n_regions = 1
    digits: list[np.ndarray] = []
    while active.size:
        x, y = grid[active, 0], grid[active, 1]
        box = np.empty((4, n_regions), dtype=np.int64)
        box[:2] = np.iinfo(np.int64).max
        box[2:] = -1
        np.minimum.at(box[0], region, x)
        np.minimum.at(box[1], region, y)
        np.maximum.at(box[2], region, x)
        np.maximum.at(box[3], region, y)
        on_x = box[2] - box[0] >= box[3] - box[1]
        lo = np.where(on_x, box[0], box[1])
        hi = np.where(on_x, box[2], box[3])
        line = (lo + hi) // 4 * 2
        line[line <= lo] += 2
        split = (line < hi)[region]
        coord = np.where(on_x[region], x, y)
        at = line[region]
        digit = np.where(coord < at, 0, np.where(coord > at, 1, 2)).astype(np.int8)
        digit[~split] = 0
        level = np.zeros(n, dtype=np.int8)
        level[active] = digit
        digits.append(level)
        going = split & (digit < 2)
        active = active[going]
        halves = 2 * region[going] + digit[going]
        present = np.zeros(2 * n_regions, dtype=bool)
        present[halves] = True
        region = (np.cumsum(present) - 1)[halves]
        n_regions = int(np.count_nonzero(present))
    return np.lexsort(digits[::-1]) if digits else np.zeros(0, dtype=np.int64)


def _scatter(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape) -> sp.csr_matrix:
    mat = sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=shape)
    return mat.tocsr()


def _pair_indices(dofs_i: np.ndarray, dofs_j: np.ndarray):
    rows = np.broadcast_to(dofs_i[:, :, None], dofs_i.shape + (dofs_j.shape[1],))
    cols = np.broadcast_to(dofs_j[:, None, :], (dofs_j.shape[0],) + (dofs_i.shape[1], dofs_j.shape[1]))
    return rows, cols


def assemble_elasticity(mesh: Mesh, dofmap: DofMap, mu: float = 1.0) -> sp.csr_matrix:
    """Elasticity block A with A[2i+a, 2j+b] = mu * (eps(phi_j e_b), eps(phi_i e_a)).

    Symmetric positive semidefinite; its kernel on the unconstrained space
    is spanned by the rigid motions.
    """
    rule = triangle_quadrature(2)
    _, ref_grads = eval_basis("P2", rule.points)
    maps = AffineMaps.from_mesh(mesh)
    grads = maps.physical_gradients(ref_grads)  # (F, nq, 6, 2)
    w = rule.weights
    det = maps.det
    gx = grads[..., 0]
    gy = grads[..., 1]

    def integ(ti, tj):
        return np.einsum("q,fqi,fqj,f->fij", w, ti, tj, det, optimize=True)

    kxx = integ(gx, gx) + 0.5 * integ(gy, gy)
    kyy = integ(gy, gy) + 0.5 * integ(gx, gx)
    kxy = 0.5 * integ(gy, gx)
    kyx = 0.5 * integ(gx, gy)
    n_tri = mesh.n_triangles
    local = np.zeros((n_tri, 12, 12))
    local[:, 0::2, 0::2] = kxx
    local[:, 1::2, 1::2] = kyy
    local[:, 0::2, 1::2] = kxy
    local[:, 1::2, 0::2] = kyx
    local *= mu
    rows, cols = _pair_indices(dofmap.triangle_u, dofmap.triangle_u)
    return _scatter(rows, cols, local, (dofmap.n_u, dofmap.n_u))


def assemble_div(mesh: Mesh, dofmap: DofMap) -> sp.csr_matrix:
    """Divergence coupling B with B[j, 2i+a] = (d_a phi_i, psi_j)."""
    rule = triangle_quadrature(2)
    _, ref_grads = eval_basis("P2", rule.points)
    p1_vals, _ = eval_basis("P1", rule.points)
    maps = AffineMaps.from_mesh(mesh)
    grads = maps.physical_gradients(ref_grads)  # (F, nq, 6, 2)
    local = np.einsum("q,qj,fqia,f->fjia", rule.weights, p1_vals, grads, maps.det, optimize=True)
    local = local.reshape(mesh.n_triangles, 3, 12)
    rows, cols = _pair_indices(mesh.triangles, dofmap.triangle_u)
    return _scatter(rows, cols, local, (dofmap.n_scalar, dofmap.n_u))


def assemble_scalar_mass(mesh: Mesh, dofmap: DofMap) -> sp.csr_matrix:
    """P1 mass matrix M with M[i, j] = (psi_j, psi_i)."""
    rule = triangle_quadrature(2)
    vals, _ = eval_basis("P1", rule.points)
    maps = AffineMaps.from_mesh(mesh)
    local = np.einsum("q,qi,qj,f->fij", rule.weights, vals, vals, maps.det, optimize=True)
    rows, cols = _pair_indices(mesh.triangles, mesh.triangles)
    return _scatter(rows, cols, local, (dofmap.n_scalar, dofmap.n_scalar))


def assemble_scalar_stiffness(mesh: Mesh, dofmap: DofMap, coeff: float = 1.0) -> sp.csr_matrix:
    """P1 stiffness S with S[i, j] = coeff * (grad psi_j, grad psi_i).

    The coefficient is the mobility K/mu_f in the flow equation.
    """
    rule = triangle_quadrature(1)
    _, ref_grads = eval_basis("P1", rule.points)
    maps = AffineMaps.from_mesh(mesh)
    grads = maps.physical_gradients(ref_grads)
    local = coeff * np.einsum(
        "q,fqia,fqja,f->fij", rule.weights, grads, grads, maps.det, optimize=True
    )
    rows, cols = _pair_indices(mesh.triangles, mesh.triangles)
    return _scatter(rows, cols, local, (dofmap.n_scalar, dofmap.n_scalar))


def assemble_vector_mass(mesh: Mesh, dofmap: DofMap) -> sp.csr_matrix:
    """P2 vector mass matrix, block-diagonal over components."""
    rule = triangle_quadrature(4)
    vals, _ = eval_basis("P2", rule.points)
    maps = AffineMaps.from_mesh(mesh)
    block = np.einsum("q,qi,qj,f->fij", rule.weights, vals, vals, maps.det, optimize=True)
    local = np.zeros((mesh.n_triangles, 12, 12))
    local[:, 0::2, 0::2] = block
    local[:, 1::2, 1::2] = block
    rows, cols = _pair_indices(dofmap.triangle_u, dofmap.triangle_u)
    return _scatter(rows, cols, local, (dofmap.n_u, dofmap.n_u))


@dataclass(frozen=True, eq=False)
class CellRule:
    """A quadrature rule laid over a set of cells against one basis,
    tabulated once: the triangles of a mesh, or the edges of a boundary
    segment.

    Attributes:
        points: (n * nq, 2) physical quadrature points, cell by cell.
        measure: (n,) |det J| of each triangle, or the length of each edge.
        table: (nq * c, k * c) rule weights times the k basis values (or
            edge traces) at the nq points.  For vector fields (c = 2) it is
            the Kronecker product with the 2 x 2 identity, so interleaved
            closure values map onto interleaved dofs; for scalars c = 1.
        dofs: (n, k * c) global dof of each local entry.
        size: length of the assembled vector.
    """

    points: np.ndarray
    measure: np.ndarray
    table: np.ndarray
    dofs: np.ndarray
    size: int

    def integrate(self, closure: Callable, t: float) -> np.ndarray:
        """Load vector (closure(., t), phi_i) over the cells."""
        values = np.asarray(closure(self.points, t), dtype=float)
        local = values.reshape(self.measure.size, -1) @ self.table
        local *= self.measure[:, None]
        return np.bincount(self.dofs.ravel(), local.ravel(), self.size)


@dataclass(frozen=True, eq=False)
class DomainQuadrature:
    """A triangle rule over every triangle of a mesh, tabulated once.

    The loads, the initial L2 projections and the error evaluation of a
    run share one instance, and so do all runs on one mesh.

    Attributes:
        rule: the reference rule.
        maps: the affine geometry of the triangles.
        vector: the rule against P2 vector test functions.
        scalar: the rule against P1 scalar test functions.
    """

    rule: QuadratureRule
    maps: AffineMaps
    vector: CellRule
    scalar: CellRule

    @classmethod
    def from_mesh(cls, mesh: Mesh, dofmap: DofMap) -> "DomainQuadrature":
        rule = triangle_quadrature(6)
        maps = AffineMaps.from_mesh(mesh)
        points = physical_points(mesh, rule.points).reshape(-1, 2)
        p2, _ = eval_basis("P2", rule.points)
        p1, _ = eval_basis("P1", rule.points)
        w = rule.weights[:, None]
        return cls(
            rule=rule,
            maps=maps,
            vector=CellRule(points, maps.det, np.kron(w * p2, np.eye(2)), dofmap.triangle_u, dofmap.n_u),
            scalar=CellRule(points, maps.det, w * p1, mesh.triangles, dofmap.n_scalar),
        )


def _edge_rule(mesh: Mesh, dofmap: DofMap, tag: BoundarySegment, space: str) -> CellRule:
    """Edge rule over one segment against P2 vector or P1 scalar traces."""
    eids = mesh.edges_with_tag(tag)
    rule = edge_quadrature(5)
    s = rule.points[:, 1]
    w = rule.weights[:, None]
    va = mesh.vertices[mesh.edges[eids, 0]]
    vb = mesh.vertices[mesh.edges[eids, 1]]
    points = va[:, None, :] * (1.0 - s)[None, :, None] + vb[:, None, :] * s[None, :, None]
    points = points.reshape(-1, 2)
    length = np.linalg.norm(vb - va, axis=1)
    if space == "vector":
        nodes = np.column_stack([mesh.edges[eids, 0], mesh.edges[eids, 1], mesh.edge_nodes[eids]])
        dofs = (2 * nodes[:, :, None] + np.array([0, 1])).reshape(eids.size, 6)
        table = np.kron(w * edge_trace_p2(s), np.eye(2))
        return CellRule(points, length, table, dofs, dofmap.n_u)
    return CellRule(points, length, w * edge_trace_p1(s), mesh.edges[eids], dofmap.n_scalar)


def _contributes(closure: Optional[Callable]) -> bool:
    """False for an absent closure and for the model's zero closures."""
    return closure is not None and closure is not zero_vector and closure is not zero_scalar


def assemble_domain_load(
    quadrature: DomainQuadrature, closure: Callable, t: float, space: str = "vector"
) -> np.ndarray:
    """Domain load (f, v) against P2 vectors or (phi, psi) against P1 scalars."""
    if space not in ("vector", "scalar"):
        raise ValueError(f"unknown load space {space!r}")
    rule = quadrature.vector if space == "vector" else quadrature.scalar
    return rule.integrate(closure, t)


def _edge_terms(
    mesh: Mesh,
    dofmap: DofMap,
    closures: Mapping[BoundarySegment, Optional[Callable]],
    space: str,
) -> list[tuple[Callable, CellRule]]:
    """(closure, edge rule) per segment in tag order, for every closure
    that can contribute."""
    return [
        (closures[tag], _edge_rule(mesh, dofmap, tag, space))
        for tag in sorted(closures, key=int)
        if _contributes(closures[tag])
    ]


def _sum_terms(terms, t: float, size: int) -> np.ndarray:
    out = np.zeros(size)
    for closure, rule in terms:
        out += rule.integrate(closure, t)
    return out


def assemble_gravity_load(mesh: Mesh, dofmap: DofMap, params: MaterialParams) -> np.ndarray:
    """Gravity contribution (K/mu_f) * (rho_f g, grad psi_i) to the flow rhs."""
    rho_g = params.rho_g
    if not np.any(rho_g):
        return np.zeros(dofmap.n_scalar)
    rule = triangle_quadrature(1)
    _, ref_grads = eval_basis("P1", rule.points)
    maps = AffineMaps.from_mesh(mesh)
    # P1 gradients are constant on a triangle: grad psi_j = J^{-T} grad_ref psi_j.
    grads = ref_grads[0] @ np.swapaxes(maps.inv_jac_t, 1, 2)  # (F, 3, 2)
    local = (params.K / params.mu_f) * rule.weights[0] * maps.det[:, None] * (grads @ rho_g)
    return np.bincount(mesh.triangles.ravel(), local.ravel(), dofmap.n_scalar)


@dataclass(frozen=True, eq=False)
class LoadAssembler:
    """Right-hand sides of one problem on one mesh, with every table built once.

    Each term pairs a closure with the cell rule it is integrated by: the
    body force and the mass source over the triangles, each traction and
    each flux over the edges of its segment.  A closure that is
    zero_vector or zero_scalar contributes nothing and is dropped here, so
    no step evaluates it.  The gravity term does not depend on time.  The
    domain quadrature is shared with the rest of a run, and with other runs
    on the same mesh; only the closures belong to this problem.
    """

    quadrature: DomainQuadrature
    mech_terms: tuple[tuple[Callable, CellRule], ...]
    flow_terms: tuple[tuple[Callable, CellRule], ...]
    gravity: np.ndarray

    @classmethod
    def build(
        cls,
        mesh: Mesh,
        dofmap: DofMap,
        quadrature: DomainQuadrature,
        sources: SourceFunctions,
        bcs: BoundaryConditionSpec,
        params: MaterialParams,
    ) -> "LoadAssembler":
        mech = [(sources.f, quadrature.vector)] if _contributes(sources.f) else []
        tractions = {tag: bc.traction for tag, bc in bcs.mechanical.items()}
        mech += _edge_terms(mesh, dofmap, tractions, "vector")
        flow = [(sources.phi, quadrature.scalar)] if _contributes(sources.phi) else []
        fluxes = {tag: bc.value for tag, bc in bcs.flow.items() if bc.kind == "flux"}
        flow += _edge_terms(mesh, dofmap, fluxes, "scalar")
        return cls(
            quadrature=quadrature,
            mech_terms=tuple(mech),
            flow_terms=tuple(flow),
            gravity=assemble_gravity_load(mesh, dofmap, params),
        )


def assemble_load(loads: LoadAssembler, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Full right-hand sides at time t.

    Returns (rhs_mech, rhs_flow) with rhs_mech = (f, v) + <f1, v> over
    traction-carrying segments and rhs_flow = (phi, psi) + <phi1, psi> over
    flux segments plus the gravity term (K/mu_f)(rho_f g, grad psi).
    Entries at constrained dofs are present but ignored by the reduction.
    """
    mech = _sum_terms(loads.mech_terms, t, loads.quadrature.vector.size)
    flow = _sum_terms(loads.flow_terms, t, loads.quadrature.scalar.size)
    flow += loads.gravity
    return mech, flow


def rigid_motion_basis(mesh: Mesh, dofmap: DofMap) -> np.ndarray:
    """Nodal coefficients of the rigid motions (1,0), (0,1), (-x2, x1).

    Returns a (3, n_u) array; these fields span the kernel of the strain
    operator and of the elasticity matrix.
    """
    coords = mesh.p2_node_coords()
    basis = np.zeros((3, dofmap.n_u))
    basis[0, 0::2] = 1.0
    basis[1, 1::2] = 1.0
    basis[2, 0::2] = -coords[:, 1]
    basis[2, 1::2] = coords[:, 0]
    return basis


def rigid_motion_rows(mesh: Mesh, dofmap: DofMap) -> np.ndarray:
    """Rows (r_i, .)_{L2} of the rigid-motion orthogonality constraint.

    Returns a dense (3, n_u) array: the L2 pairing of each rigid motion of
    rigid_motion_basis with the displacement dofs.
    """
    mass = assemble_vector_mass(mesh, dofmap)
    return mass.dot(rigid_motion_basis(mesh, dofmap).T).T


def boundary_flux_functional(mesh: Mesh, dofmap: DofMap) -> np.ndarray:
    """The vector g with g @ u = the boundary integral of u . n.

    u . n is linear in the displacement coefficients, so the flux of any
    state is one dot product with g.
    """
    g = np.zeros(dofmap.n_u)
    for tag in BoundarySegment:
        rule = _edge_rule(mesh, dofmap, tag, "vector")
        g += rule.integrate(lambda x, t: np.broadcast_to(tag.normal, x.shape), 0.0)
    return g


@dataclass(frozen=True, eq=False)
class BoundaryData:
    """Boundary constraints of the coupled problem, fixed for a whole run.

    Which dofs are constrained does not depend on time; only the prescribed
    values do, and values(t) evaluates them.

    Attributes:
        u_dofs: sorted displacement dofs carrying Dirichlet data.
        pressure_vertices: sorted vertex ids carrying pressure-Dirichlet
            data; at each, eta is eliminated through xi by the row
            kappa1*xi_b + kappa2*eta_b = p_D(x_b, t).
        rigid_rows: (3, n_u) rows (r_i, .)_{L2} enforcing rigid-motion
            orthogonality of the displacement; present exactly when no
            displacement component is Dirichlet anywhere.
    """

    u_dofs: np.ndarray
    pressure_vertices: np.ndarray
    rigid_rows: Optional[sp.csr_matrix]
    # (closure, points) per Dirichlet segment in ascending tag order, and
    # the position in their concatenated values of each constrained entry's
    # first listing: where segments share a node the lower tag supplies it.
    _u_sources: tuple[tuple[Callable, np.ndarray], ...]
    _u_pick: np.ndarray
    _p_sources: tuple[tuple[Callable, np.ndarray], ...]
    _p_pick: np.ndarray

    def values(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Dirichlet displacement values at u_dofs and pressure data at
        pressure_vertices, at time t."""
        return _gather(self._u_sources, self._u_pick, t), _gather(self._p_sources, self._p_pick, t)


def _first_wins(keys: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct keys and the index of each one's first listing."""
    if not keys:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(keys).astype(np.int64), return_index=True)


def _gather(sources, pick: np.ndarray, t: float) -> np.ndarray:
    if not sources:
        return np.empty(0)
    vals = np.concatenate(
        [np.asarray(closure(points, t), dtype=float) for closure, points in sources]
    )
    return vals[pick]


def check_eta_elimination(bcs: BoundaryConditionSpec, coeffs: DerivedCoeffs) -> None:
    """Refuse, with ValueError, pressure-Dirichlet data with kappa2 = 0,
    where the elimination of eta through xi is undefined."""
    if coeffs.kappa2 == 0.0 and any(bc.kind == "pressure" for bc in bcs.flow.values()):
        raise ValueError(
            "pressure-Dirichlet data requires kappa2 > 0 (i.e. lam > 0); "
            "the eta elimination is undefined otherwise"
        )


def build_constraints(
    mesh: Mesh,
    dofmap: DofMap,
    bcs: BoundaryConditionSpec,
    coeffs: DerivedCoeffs,
) -> BoundaryData:
    """Boundary data of the coupled problem; data that check_eta_elimination
    refuses raise its ValueError."""
    check_eta_elimination(bcs, coeffs)
    coords = mesh.p2_node_coords()
    u_sources, u_keys = [], []
    for tag in sorted(bcs.mechanical, key=int):
        nodes = mesh.nodes_on_segment(tag)
        for comp, closure in enumerate(bcs.mechanical[tag].dirichlet):
            if closure is not None:
                u_sources.append((closure, coords[nodes]))
                u_keys.append(dofmap.u_dofs(nodes, comp))

    p_sources, p_keys = [], []
    for tag in sorted(bcs.flow, key=int):
        bc = bcs.flow[tag]
        if bc.kind == "pressure":
            verts = mesh.vertices_on_segment(tag)
            p_sources.append((bc.value, mesh.vertices[verts]))
            p_keys.append(verts)

    u_dofs, u_pick = _first_wins(u_keys)
    pverts, p_pick = _first_wins(p_keys)

    rigid = None
    if bcs.is_pure_traction():
        rigid = sp.csr_matrix(rigid_motion_rows(mesh, dofmap))
    return BoundaryData(
        u_dofs=u_dofs,
        pressure_vertices=pverts,
        rigid_rows=rigid,
        _u_sources=tuple(u_sources),
        _u_pick=u_pick,
        _p_sources=tuple(p_sources),
        _p_pick=p_pick,
    )


class ReducedSystem:
    """Affine reduction of a sparse system, reusable across right-hand sides.

    The slaves are the prescribed dofs and the masters all the others, in
    ascending order.  The full unknown is recovered as x = T y + s where the
    columns of T correspond to master dofs and s carries prescribed slave
    values; the retained equations are the master rows.  A coupling of
    shape (n_slaves, n_full), nonzero in master columns only, adds
    coupling @ x to the slaves.  Extra homogeneous constraint rows (the
    rigid-motion constraints) are enforced by Lagrange multipliers appended
    after the reduction; rows narrower than the system cover its leading
    unknowns and are zero on the rest.
    """

    def __init__(
        self,
        matrix: sp.spmatrix,
        slaves: np.ndarray,
        coupling: Optional[sp.spmatrix] = None,
        lag_rows: Optional[sp.spmatrix] = None,
    ) -> None:
        matrix = matrix.tocsr()
        n_full = matrix.shape[0]
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("reduction requires a square matrix")
        slaves = np.asarray(slaves, dtype=np.int64)
        if slaves.size and (
            np.unique(slaves).size != slaves.size or slaves.min() < 0 or slaves.max() >= n_full
        ):
            raise ValueError("slaves must be distinct dofs of the system")
        masters = np.setdiff1d(np.arange(n_full, dtype=np.int64), slaves)

        self.masters = masters
        self.slaves = slaves
        n_m = masters.size

        t_rows = [masters]
        t_cols = [np.arange(n_m, dtype=np.int64)]
        t_vals = [np.ones(n_m)]
        if coupling is not None and slaves.size:
            coup = sp.csc_matrix(coupling)
            if coup[:, slaves].count_nonzero():
                raise ValueError("coupling must act on master dofs only")
            coup = coup[:, masters].tocoo()
            t_rows.append(slaves[coup.row])
            t_cols.append(coup.col.astype(np.int64))
            t_vals.append(coup.data)
        self.T = sp.coo_matrix(
            (np.concatenate(t_vals), (np.concatenate(t_rows), np.concatenate(t_cols))),
            shape=(n_full, n_m),
        ).tocsr()

        a_keep = matrix[masters, :]
        self._a_slave = a_keep[:, slaves].tocsr() if slaves.size else None
        core = (a_keep @ self.T).tocsr()

        self.n_lag = 0
        self._lag_slave = None
        if lag_rows is not None and lag_rows.shape[0] > 0:
            lag = lag_rows.tocsr()
            if lag.shape[1] > n_full:
                raise ValueError("constraint rows are wider than the system")
            lag = sp.csr_matrix((lag.data, lag.indices, lag.indptr), shape=(lag.shape[0], n_full))
            self.n_lag = lag.shape[0]
            lag_red = (lag @ self.T).tocsr()
            gram = (lag_red @ lag_red.T).toarray()
            eigs = np.linalg.eigvalsh(gram)
            if eigs[-1] <= 0.0 or eigs[0] < 1e-12 * eigs[-1]:
                raise SingularConstraintsError(
                    "constraint rows are linearly dependent after elimination"
                )
            self._lag_slave = lag[:, slaves].tocsr() if slaves.size else None
            col_block = lag[:, masters].T.tocsr()
            core = sp.bmat([[core, col_block], [lag_red, None]], format="csr")
        self.matrix = core.tocsc()

    def _slave_vals(self, slave_values: np.ndarray) -> np.ndarray:
        vals = np.asarray(slave_values, dtype=float)
        if vals.shape != self.slaves.shape:
            raise ValueError("slave value vector has wrong length")
        return vals

    def reduce_rhs(self, rhs: np.ndarray, slave_values: np.ndarray) -> np.ndarray:
        """Right-hand side of the reduced system for given slave values."""
        top = np.asarray(rhs, dtype=float)[self.masters].copy()
        bottom = np.zeros(self.n_lag)
        if self.slaves.size:
            vals = self._slave_vals(slave_values)
            top -= self._a_slave @ vals
            if self._lag_slave is not None:
                bottom -= self._lag_slave @ vals
        return np.concatenate([top, bottom]) if self.n_lag else top

    def expand(self, solution: np.ndarray, slave_values: np.ndarray) -> np.ndarray:
        """Recover the full dof vector from a reduced solution."""
        y = np.asarray(solution, dtype=float)[: self.masters.size]
        x = self.T @ y
        if self.slaves.size:
            x[self.slaves] += self._slave_vals(slave_values)
        return x
