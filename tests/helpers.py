"""Reusable benchmark fixtures and test-only checks for the test suite.

The fixtures are small, hand-checkable problem definitions used across the
stepper, diagnostics and acceptance tests.  Reference values quoted in the
tests that use them are derived by hand from the conserved-quantity
recursions.  The checks (the inf-sup pencil, the centerline locking scan,
an independent triangle-area formula and the p/q identities of a state)
certify claims of the method that no command reports, so they live here
with the tests that call them.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.linalg as la

from porofem.assembly import (
    DofMap,
    assemble_div,
    assemble_elasticity,
    assemble_scalar_mass,
    rigid_motion_rows,
)
from porofem.mesh import BoundarySegment, Mesh, build_rect_mesh
from porofem.model import (
    Benchmark,
    BoundaryConditionSpec,
    DerivedCoeffs,
    FlowBC,
    MaterialParams,
    MechanicalBC,
    SourceFunctions,
)
from porofem.stepper import Discretization, FieldState, LinearSolves, init_state

def jittered_mesh(nx: int, ny: int, rect=(0.0, 0.0, 1.0, 1.0), seed: int = 0) -> Mesh:
    """A structured mesh with every vertex moved by up to 0.2 cell widths,
    boundary vertices along their side and corners not at all, so that
    triangle areas and boundary edge lengths all differ."""
    mesh = build_rect_mesh(nx, ny, rect)
    x0, y0, x1, y1 = rect
    hx, hy = (x1 - x0) / nx, (y1 - y0) / ny
    rng = np.random.default_rng(seed)
    moved = mesh.vertices + rng.uniform(-0.2, 0.2, mesh.vertices.shape) * (hx, hy)
    on_x_side = np.isclose(mesh.vertices[:, 0], x0) | np.isclose(mesh.vertices[:, 0], x1)
    on_y_side = np.isclose(mesh.vertices[:, 1], y0) | np.isclose(mesh.vertices[:, 1], y1)
    moved[on_x_side, 0] = mesh.vertices[on_x_side, 0]
    moved[on_y_side, 1] = mesh.vertices[on_y_side, 1]
    return dataclasses.replace(mesh, vertices=moved)


def triangle_areas(mesh: Mesh) -> np.ndarray:
    """(F,) signed triangle areas (positive for counterclockwise), from the
    vertex coordinates alone."""
    p0 = mesh.vertices[mesh.triangles[:, 0]]
    d1 = mesh.vertices[mesh.triangles[:, 1]] - p0
    d2 = mesh.vertices[mesh.triangles[:, 2]] - p0
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def infsup_constant(mesh: Mesh, B: np.ndarray, Mp: np.ndarray) -> float:
    """Dense inf-sup constant of the P2-vector space against the pressure
    space whose divergence matrix is B (n_p, n_u) and mass matrix Mp.

    The square root of the smallest generalized eigenvalue of the pencil
    (B A^+ B^T, Mp) over mean-zero pressures, where A^+ applies the
    rigid-motion-orthogonal inverse of the unconstrained elasticity form.
    """
    dofmap = DofMap.from_mesh(mesh)
    n_u, n_p = dofmap.n_u, B.shape[0]
    C = rigid_motion_rows(mesh, dofmap)
    K = np.zeros((n_u + 3, n_u + 3))
    K[:n_u, :n_u] = assemble_elasticity(mesh, dofmap, 1.0).toarray()
    K[:n_u, n_u:] = C.T
    K[n_u:, :n_u] = C
    rhs = np.zeros((n_u + 3, n_p))
    rhs[:n_u] = B.T
    G = B @ la.solve(K, rhs)[:n_u]
    G = 0.5 * (G + G.T)
    W = la.null_space((Mp @ np.ones(n_p))[None, :])
    eigs = la.eigh(W.T @ G @ W, W.T @ Mp @ W, eigvals_only=True)
    return float(np.sqrt(max(eigs[0], 0.0)))


def taylor_hood_infsup(mesh: Mesh) -> float:
    """infsup_constant of the package's pair: continuous P1 pressures."""
    dofmap = DofMap.from_mesh(mesh)
    return infsup_constant(
        mesh, assemble_div(mesh, dofmap).toarray(), assemble_scalar_mass(mesh, dofmap).toarray()
    )


@dataclasses.dataclass(frozen=True)
class LockingIndicator:
    """Oscillation measures of the vertex pressure along a vertical line.

    The line is x1 = 0.5, the vertical centerline of the unit square.
    undershoot is the negative excursion of the pressure relative to the
    magnitude of the prescribed boundary pressure data (or, in a run with
    no pressure-Dirichlet data, relative to the pressure scale on the
    line itself).
    """

    ys: np.ndarray
    values: np.ndarray
    extrema_count: int
    undershoot: float
    min_value: float
    scale: float


def locking_scan(state, mesh: Mesh, benchmark: Benchmark) -> LockingIndicator:
    """Count strict interior extrema of p along the vertical line x1 = 0.5.

    Raises:
        ValueError: when no mesh vertex lies on the line (an odd nx).
    """
    on_line = np.flatnonzero(np.abs(mesh.vertices[:, 0] - 0.5) <= 1e-12)
    if on_line.size == 0:
        raise ValueError("no mesh vertex lies on the line x1 = 0.5 that the locking scan reads")
    order = np.argsort(mesh.vertices[on_line, 1])
    verts = on_line[order]
    ys = mesh.vertices[verts, 1]
    vals = state.p[verts]
    count = 0
    for i in range(1, len(vals) - 1):
        left = vals[i] - vals[i - 1]
        right = vals[i + 1] - vals[i]
        if left * right < 0.0:
            count += 1
    scale = 0.0
    for tag in sorted(benchmark.bcs.flow, key=int):
        bc = benchmark.bcs.flow[tag]
        if bc.kind != "pressure":
            continue
        pts = mesh.vertices[mesh.vertices_on_segment(tag)]
        scale = max(scale, float(np.max(np.abs(bc.value(pts, state.t)))))
    if scale == 0.0:
        scale = float(np.max(np.abs(vals)))
    min_value = float(np.min(vals))
    undershoot = max(0.0, -min_value) / max(scale, 1e-30)
    return LockingIndicator(
        ys=ys,
        values=vals,
        extrema_count=count,
        undershoot=undershoot,
        min_value=min_value,
        scale=scale,
    )


def initial_state(benchmark: Benchmark, mesh: Mesh) -> FieldState:
    """The initial state of a run of benchmark on mesh."""
    disc = Discretization.build(mesh, benchmark.params)
    return init_state([benchmark], disc, LinearSolves())[0].state


def check_state_consistency(state, coeffs: DerivedCoeffs) -> tuple[float, float]:
    """Max-abs residuals of p = k1*xi + k2*eta_theta and q = k1*eta - k3*xi,
    the formulas written out again rather than read from pq_from_xieta."""
    p_res = np.max(np.abs(state.p - (coeffs.kappa1 * state.xi + coeffs.kappa2 * state.eta_theta)))
    q_res = np.max(np.abs(state.q - (coeffs.kappa1 * state.eta - coeffs.kappa3 * state.xi)))
    return float(p_res), float(q_res)


def zero_vector(x: np.ndarray, t: float) -> np.ndarray:
    return np.zeros((x.shape[0], 2))


def zero_scalar(x: np.ndarray, t: float) -> np.ndarray:
    return np.zeros(x.shape[0])


def normal_traction(tag: BoundarySegment, scale: float = 1.0):
    """Traction f1 = scale * n on one side; globally self-equilibrated."""
    n1, n2 = tag.normal

    def closure(x: np.ndarray, t: float) -> np.ndarray:
        out = np.empty((x.shape[0], 2))
        out[:, 0] = scale * n1
        out[:, 1] = scale * n2
        return out

    return closure


def conservation_benchmark(
    lam: float = 2.0,
    mu: float = 1.0,
    alpha: float = 1.0,
    c0: float = 0.5,
    phi_const: float = 1.0,
    flux_bottom: float = 0.3,
    T: float = 0.1,
) -> Benchmark:
    """Pure-traction mechanics + pure-Neumann flow on the unit square.

    Data: f = 0, f1 = n (compatible with rigid motions), phi = phi_const,
    boundary flux flux_bottom on the bottom side and zero elsewhere.  All
    five conserved-quantity identities are applicable, and the reference
    recursions can be evaluated by hand:
    integral-of-eta grows by dt*(phi_const*|domain| + flux_bottom*|bottom|)
    per step.
    """

    def phi(x: np.ndarray, t: float) -> np.ndarray:
        return np.full(x.shape[0], phi_const)

    def flux_b(x: np.ndarray, t: float) -> np.ndarray:
        return np.full(x.shape[0], flux_bottom)

    mechanical = {
        tag: MechanicalBC(traction=normal_traction(tag)) for tag in BoundarySegment
    }
    flow = {tag: FlowBC(kind="flux", value=zero_scalar) for tag in BoundarySegment}
    flow[BoundarySegment.BOTTOM] = FlowBC(kind="flux", value=flux_b)
    return Benchmark(
        name="conservation_fixture",
        T=T,
        params=MaterialParams(lam=lam, mu=mu, alpha=alpha, c0=c0, K=1.0, mu_f=1.0),
        bcs=BoundaryConditionSpec(mechanical=mechanical, flow=flow),
        sources=SourceFunctions(f=zero_vector, phi=phi),
    )


def zero_benchmark() -> Benchmark:
    """Zero data everywhere: clamped left side, zero flux, zero sources."""
    mechanical = {tag: MechanicalBC(traction=zero_vector) for tag in BoundarySegment}
    mechanical[BoundarySegment.LEFT] = MechanicalBC(
        dirichlet=(zero_scalar, zero_scalar)
    )
    flow = {tag: FlowBC(kind="flux", value=zero_scalar) for tag in BoundarySegment}
    return Benchmark(
        name="zero_fixture",
        T=1e-2,
        params=MaterialParams(lam=1.0, mu=1.0, alpha=1.0, c0=0.5, K=1.0, mu_f=1.0),
        bcs=BoundaryConditionSpec(mechanical=mechanical, flow=flow),
        sources=SourceFunctions(f=zero_vector, phi=zero_scalar),
    )
