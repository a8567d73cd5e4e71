"""Sparse operator assembly on the P2-vector / P1-scalar element pair.

Builds the matrices of the two-field formulation (elasticity block,
divergence coupling, scalar mass and stiffness), load vectors including
boundary tractions and fluxes, the boundary data of a problem (which dofs
are constrained and their values at any time), and the reduction of a full
linear system to its free unknowns.  Every datum is separable (model.Separable):
its space parts are integrated or evaluated once per run, and each time
only scales and sums them.

Displacement dofs are interleaved: dof(node, comp) = 2*node + comp, with
quadratic nodes ordered vertices-first then edge midpoints.  Scalar dofs
coincide with vertex indices.  The monolithic layout is [u | xi | eta].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

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
    Field,
    Separable,
    SourceFunctions,
    Tabulated,
    zero_scalar,
)

__all__ = [
    "DofMap",
    "nested_dissection",
    "assemble_elasticity",
    "assemble_div",
    "assemble_scalar_mass",
    "assemble_scalar_stiffness",
    "assemble_vector_mass",
    "CellRule",
    "DomainQuadrature",
    "LoadAssembler",
    "assemble_domain_load",
    "assemble_load",
    "rigid_motion_basis",
    "boundary_flux_functional",
    "BoundaryData",
    "build_constraints",
    "ReducedSystem",
]


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

    The coefficient is the Darcy mobility K in the flow equation.
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
            field values map onto interleaved dofs; for scalars c = 1.
        dofs: (n, k * c) global dof of each local entry.
        size: length of the assembled vector.
    """

    points: np.ndarray
    measure: np.ndarray
    table: np.ndarray
    dofs: np.ndarray
    size: int

    def load(self, field: Field) -> np.ndarray:
        """Load vector (g, phi_i) over the cells of a field g of space alone."""
        values = np.asarray(field(self.points), dtype=float)
        local = values.reshape(self.measure.size, -1) @ self.table
        local *= self.measure[:, None]
        return np.bincount(self.dofs.ravel(), local.ravel(), self.size)


@dataclass(frozen=True, eq=False)
class DomainQuadrature:
    """A triangle rule over every triangle of a mesh, tabulated once.

    The loads, the initial pressure projection and the error evaluation of a
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


def _tabulate(data: list[tuple[Separable, CellRule]], size: int) -> Tabulated:
    """The loads of (datum, cell rule) pairs: every term's load vector,
    integrated once, with its time factor."""
    return Tabulated((size,), tuple(term for datum, rule in data for term in datum.tabulate(rule.load)))


def assemble_domain_load(
    quadrature: DomainQuadrature, datum: Separable, t: float, space: str = "vector"
) -> np.ndarray:
    """Domain load (f, v) against P2 vectors or (phi, psi) against P1 scalars."""
    if space not in ("vector", "scalar"):
        raise ValueError(f"unknown load space {space!r}")
    rule = quadrature.vector if space == "vector" else quadrature.scalar
    return _tabulate([(datum, rule)], rule.size)(t)


def _edge_data(
    mesh: Mesh,
    dofmap: DofMap,
    data: Mapping[BoundarySegment, Optional[Separable]],
    space: str,
) -> list[tuple[Separable, CellRule]]:
    """(datum, edge rule) per segment in tag order, for every datum with
    terms."""
    return [
        (data[tag], _edge_rule(mesh, dofmap, tag, space))
        for tag in sorted(data, key=int)
        if data[tag] is not None and data[tag].terms
    ]


@dataclass(frozen=True, eq=False)
class LoadAssembler:
    """Right-hand sides of one problem on one mesh, tabulated once.

    Each term a_k(t) g_k(x) of the body force and of the mass source is
    integrated over the triangles once, and each term of each traction and
    each flux over the edges of its segment; a step scales the stored
    vectors by a_k(t) and sums them.  A datum with no terms (zero_vector,
    zero_scalar) contributes nothing.  A constant fluid body force in
    Darcy's law is part of the flux data (FlowBC), not a term of its own.

    Attributes:
        mech: the load against P2 vector test functions.
        flow: the load against P1 scalar test functions.
    """

    mech: Tabulated
    flow: Tabulated

    @classmethod
    def build(
        cls,
        mesh: Mesh,
        dofmap: DofMap,
        quadrature: DomainQuadrature,
        sources: SourceFunctions,
        bcs: BoundaryConditionSpec,
    ) -> "LoadAssembler":
        tractions = {tag: bc.traction for tag, bc in bcs.mechanical.items()}
        mech = [(sources.f, quadrature.vector)] + _edge_data(mesh, dofmap, tractions, "vector")
        fluxes = {tag: bc.value for tag, bc in bcs.flow.items() if bc.kind == "flux"}
        flow = [(sources.phi, quadrature.scalar)] + _edge_data(mesh, dofmap, fluxes, "scalar")
        return cls(mech=_tabulate(mech, dofmap.n_u), flow=_tabulate(flow, dofmap.n_scalar))


def assemble_load(loads: LoadAssembler, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Full right-hand sides at time t, as fresh arrays.

    Returns (rhs_mech, rhs_flow) with rhs_mech = (f, v) + <f1, v> over
    traction-carrying segments and rhs_flow = (phi, psi) + <phi1, psi> over
    flux segments, phi1 the flux datum K grad p . n (FlowBC).
    Entries at constrained dofs are present but ignored by the reduction.
    """
    return loads.mech(t), loads.flow(t)


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


def boundary_flux_functional(mesh: Mesh, dofmap: DofMap) -> np.ndarray:
    """The vector g with g @ u = the boundary integral of u . n.

    u . n is linear in the displacement coefficients, so the flux of any
    state is one dot product with g.
    """
    g = np.zeros(dofmap.n_u)
    for tag in BoundarySegment:
        rule = _edge_rule(mesh, dofmap, tag, "vector")
        g += rule.load(lambda x: np.broadcast_to(tag.normal, x.shape))
    return g


@dataclass(frozen=True, eq=False)
class BoundaryData:
    """Boundary constraints of the coupled problem, fixed for a whole run.

    Which dofs are constrained does not depend on time; only the prescribed
    values do, and values(t) sums their tabulated terms.

    Attributes:
        u_dofs: sorted displacement dofs carrying Dirichlet data.
        pressure_vertices: sorted vertex ids carrying pressure-Dirichlet
            data; at each, eta is eliminated through xi by the row
            kappa1*xi_b + kappa2*eta_b = p_D(x_b, t).
    """

    u_dofs: np.ndarray
    pressure_vertices: np.ndarray
    # The data's terms at u_dofs and at pressure_vertices (_dirichlet).
    _u_values: Tabulated
    _p_values: Tabulated

    def values(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Dirichlet displacement values at u_dofs and pressure data at
        pressure_vertices, at time t."""
        return self._u_values(t), self._p_values(t)

    @property
    def steady(self) -> bool:
        """Whether the values are the same at every t (Tabulated.steady)."""
        return self._u_values.steady and self._p_values.steady


def _dirichlet(
    sources: list[tuple[Separable, np.ndarray]], keys: list[np.ndarray]
) -> tuple[np.ndarray, Tabulated]:
    """Sorted distinct keys, and the data's terms at them.

    sources holds a (datum, points) pair per segment in ascending tag order,
    or per other listing after them, and keys the dof or vertex of each
    point.  Where segments share a key, the first listing supplies its
    value: each term is evaluated at its segment's points once and placed
    at the keys that segment supplies, zero elsewhere.
    """
    if not keys:
        return np.empty(0, dtype=np.int64), Tabulated((0,))
    distinct, first = np.unique(np.concatenate(keys).astype(np.int64), return_index=True)
    bounds = np.cumsum([0] + [k.size for k in keys])
    terms = []
    for (datum, points), lo, hi in zip(sources, bounds, bounds[1:]):
        for factor, values in datum.tabulate(lambda g: g(points)):
            listing = np.zeros(bounds[-1])
            listing[lo:hi] = values
            terms.append((factor, listing[first]))
    return distinct, Tabulated((distinct.size,), tuple(terms))


def build_constraints(mesh: Mesh, dofmap: DofMap, bcs: BoundaryConditionSpec) -> BoundaryData:
    """Boundary data of the coupled problem.

    Pure-traction mechanics determine the displacement only up to a rigid
    motion.  Three zero displacements pin it, as Dirichlet data like any
    other: both components at the bottom side's first vertex, (x_min,
    y_min), and the vertical one at its last, (x_max, y_min).
    """
    coords = mesh.p2_node_coords()
    u_sources, u_keys = [], []
    for tag in sorted(bcs.mechanical, key=int):
        nodes = mesh.nodes_on_segment(tag)
        for comp, datum in enumerate(bcs.mechanical[tag].dirichlet):
            if datum is not None:
                u_sources.append((datum, coords[nodes]))
                u_keys.append(dofmap.u_dofs(nodes, comp))

    if bcs.is_pure_traction():
        first, last = mesh.vertices_on_segment(BoundarySegment.BOTTOM)[[0, -1]]
        pins = np.array([first, first, last])
        u_sources.append((zero_scalar, coords[pins]))
        u_keys.append(2 * pins + np.array([0, 1, 1]))

    p_sources, p_keys = [], []
    for tag in sorted(bcs.flow, key=int):
        bc = bcs.flow[tag]
        if bc.kind == "pressure":
            verts = mesh.vertices_on_segment(tag)
            p_sources.append((bc.value, mesh.vertices[verts]))
            p_keys.append(verts)

    u_dofs, u_values = _dirichlet(u_sources, u_keys)
    pverts, p_values = _dirichlet(p_sources, p_keys)
    return BoundaryData(
        u_dofs=u_dofs, pressure_vertices=pverts, _u_values=u_values, _p_values=p_values
    )


class ReducedSystem:
    """Affine reduction of a sparse system, reusable across right-hand sides.

    The slaves are the prescribed dofs and the masters all the others, in
    ascending order.  The full unknown is recovered as x = T y + s where the
    columns of T correspond to master dofs and s carries prescribed slave
    values; the retained equations are the master rows.  A coupling of
    shape (n_slaves, n_full), nonzero in master columns only, adds
    coupling @ x to the slaves.
    """

    def __init__(
        self,
        matrix: sp.spmatrix,
        slaves: np.ndarray,
        coupling: Optional[sp.spmatrix] = None,
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
        self.matrix = (a_keep @ self.T).tocsc()

    def _slave_vals(self, slave_values: np.ndarray) -> np.ndarray:
        vals = np.asarray(slave_values, dtype=float)
        if vals.shape != self.slaves.shape:
            raise ValueError("slave value vector has wrong length")
        return vals

    def reduce_rhs(self, rhs: np.ndarray, slave_values: np.ndarray) -> np.ndarray:
        """Right-hand side of the reduced system for given slave values."""
        reduced = np.asarray(rhs, dtype=float)[self.masters].copy()
        if self.slaves.size:
            reduced -= self._a_slave @ self._slave_vals(slave_values)
        return reduced

    def expand(self, solution: np.ndarray, slave_values: np.ndarray) -> np.ndarray:
        """Recover the full dof vector from a reduced solution."""
        x = self.T @ np.asarray(solution, dtype=float)
        if self.slaves.size:
            x[self.slaves] += self._slave_vals(slave_values)
        return x
