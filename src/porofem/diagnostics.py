"""Run-time verification diagnostics for the coupled scheme.

Implements the quantities the discretization is provably required to
reproduce: conserved integrals under Neumann-type boundary conditions,
the per-step discrete energy identity (and its inequality form for the
decoupled scheme), error norms and convergence-rate extraction against
exact closures, a centerline pressure-locking indicator, a dense inf-sup
estimator for the mixed pair, and the vanishing-storage (c0 -> 0) sweep.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .assembly import (
    DofMap,
    DomainQuadrature,
    LoadAssembler,
    assemble_div,
    assemble_elasticity,
    assemble_load,
    assemble_scalar_mass,
    assemble_scalar_stiffness,
    assemble_vector_mass,
    rigid_motion_basis,
)
from .elements import AffineMaps, edge_quadrature, edge_trace_p2, eval_basis, triangle_quadrature
# Unused here since DomainQuadrature tabulates the points, but perfbench's
# tracer still wraps this name (perfbench/spans.py).
from .elements import physical_points  # noqa: F401
from .mesh import BoundarySegment, Mesh
from .model import Benchmark, DerivedCoeffs, get_benchmark

__all__ = [
    "ConservedQuantities",
    "ConservationResiduals",
    "ConservationTracker",
    "check_conservation",
    "boundary_flux",
    "boundary_flux_functional",
    "EnergyRecord",
    "EnergyAuditor",
    "energy_audit",
    "VariableNorms",
    "ErrorReport",
    "ErrorEvaluator",
    "error_norms",
    "summarize_error_history",
    "extract_rates",
    "LockingIndicator",
    "locking_scan",
    "BudgetExceededError",
    "estimate_infsup",
    "SweepRow",
    "biot_limit_sweep",
    "check_state_consistency",
    "DiagnosticsRecord",
]


# --------------------------------------------------------------------------
# conserved quantities
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ConservedQuantities:
    """Reference integrals and their measured counterparts at one time level.

    The references follow the recursions
        C_eta(t_{n+1}) = C_eta(t_n) + dt[(phi,1) + <phi1,1>],
        C_xi = [mu*k1*C_eta(t_lag) - (f,x) - <f1,x>]/(d + mu*k3),
        C_q = k1*C_eta(t) - k3*C_xi,  C_u = k1*C_eta(t_lag) - k3*C_xi,
        C_p = k1*C_xi + k2*C_eta(t_lag),
    where t_lag = t_{n-1+theta} matches the lag of the scheme's stored p
    and of the divergence equation.
    """

    t: float
    c_eta: float
    c_xi: float
    c_q: float
    c_p: float
    c_u: float
    eta_measured: float
    xi_measured: float
    q_measured: float
    p_measured: float
    flux_measured: float
    eta_applicable: bool
    traction_applicable: bool


@dataclass(frozen=True)
class ConservationResiduals:
    """Relative residuals |measured - reference| / max(1, |reference|).

    A residual is None when the corresponding identity is not applicable
    for the run's boundary conditions (skipped, not failed).
    """

    eta: Optional[float]
    xi: Optional[float]
    q: Optional[float]
    p: Optional[float]
    flux: Optional[float]


def _rel(measured: float, ref: float) -> float:
    return abs(measured - ref) / max(1.0, abs(ref))


def check_conservation(state, refs: ConservedQuantities) -> ConservationResiduals:
    """Residuals of the conservation identities for one state.

    The eta identity needs a pure-Neumann flow boundary; the xi, q, p and
    flux identities additionally need pure-traction mechanics.
    """
    if abs(refs.t - state.t) > 1e-12 * max(1.0, abs(state.t)):
        raise ValueError("reference quantities were computed at a different time")
    eta = _rel(refs.eta_measured, refs.c_eta) if refs.eta_applicable else None
    if refs.eta_applicable and refs.traction_applicable:
        xi = _rel(refs.xi_measured, refs.c_xi)
        q = _rel(refs.q_measured, refs.c_q)
        p = _rel(refs.p_measured, refs.c_p)
        flux = _rel(refs.flux_measured, refs.c_u)
    else:
        xi = q = p = flux = None
    return ConservationResiduals(eta=eta, xi=xi, q=q, p=p, flux=flux)


def boundary_flux_functional(mesh: Mesh, dofmap: DofMap) -> np.ndarray:
    """The vector g with g @ u = the boundary integral of u . n.

    u . n is linear in the displacement coefficients, so the flux of any
    state is one dot product with g.
    """
    rule = edge_quadrature(5)
    trace_integrals = rule.weights @ edge_trace_p2(rule.points[:, 1])  # (3,)
    dofs, weights = [], []
    for tag in BoundarySegment:
        normal = mesh.outward_normal(tag)
        eids = mesh.edges_with_tag(tag)
        nodes = np.column_stack([mesh.edges[eids, 0], mesh.edges[eids, 1], mesh.edge_nodes[eids]])
        va = mesh.vertices[mesh.edges[eids, 0]]
        vb = mesh.vertices[mesh.edges[eids, 1]]
        length = np.linalg.norm(vb - va, axis=1)
        per_node = length[:, None] * trace_integrals  # (ne, 3)
        for comp in (0, 1):
            dofs.append(2 * nodes.ravel() + comp)
            weights.append(normal[comp] * per_node.ravel())
    return np.bincount(np.concatenate(dofs), np.concatenate(weights), dofmap.n_u)


def boundary_flux(mesh: Mesh, dofmap: DofMap, u: np.ndarray) -> float:
    """The boundary integral of u . n over the whole boundary."""
    return float(boundary_flux_functional(mesh, dofmap) @ u)


class ConservationTracker:
    """Advances the reference recursions alongside a run and measures states."""

    def __init__(self, benchmark: Benchmark, mesh: Mesh, dofmap: DofMap,
                 scalar_mass: sp.spmatrix, theta: int) -> None:
        self.benchmark = benchmark
        self.mesh = mesh
        self.dofmap = dofmap
        self.M = scalar_mass
        self.theta = theta
        self.coeffs = benchmark.coeffs
        self.mu = benchmark.params.mu
        self.dim = 2
        coords = mesh.p2_node_coords()
        self.x_pairing = coords.ravel()  # interpolant of the position field
        self.flux_functional = boundary_flux_functional(mesh, dofmap)
        self.eta_applicable = benchmark.bcs.is_pure_neumann_flow()
        self.traction_applicable = self.eta_applicable and benchmark.bcs.is_pure_traction()
        self._c_eta: Optional[float] = None
        self._c_eta_prev: Optional[float] = None

    def _integral(self, vec: np.ndarray) -> float:
        return float((self.M @ vec).sum())

    def _measure(self, state) -> dict[str, float]:
        return {
            "eta": self._integral(state.eta),
            "xi": self._integral(state.xi),
            "q": self._integral(state.q),
            "p": self._integral(state.p),
            "flux": float(self.flux_functional @ state.u),
        }

    def start(self, state0) -> ConservedQuantities:
        self._c_eta = self._integral(state0.eta)
        self._c_eta_prev = self._c_eta
        m = self._measure(state0)
        return ConservedQuantities(
            t=state0.t,
            c_eta=self._c_eta,
            c_xi=m["xi"],
            c_q=m["q"],
            c_p=m["p"],
            c_u=m["flux"],
            eta_measured=m["eta"],
            xi_measured=m["xi"],
            q_measured=m["q"],
            p_measured=m["p"],
            flux_measured=m["flux"],
            eta_applicable=self.eta_applicable,
            traction_applicable=self.traction_applicable,
        )

    def advance(self, state, dt: float, mech_load: np.ndarray, flow_load: np.ndarray) -> ConservedQuantities:
        """Push the references forward by one step and measure the new state.

        mech_load and flow_load must be the assembled right-hand sides the
        stepper used for this step (evaluated at the new time), so that the
        references use the same quadrature as the scheme itself.
        """
        if self._c_eta is None:
            raise RuntimeError("tracker not started; call start(initial_state) first")
        k1, k2, k3 = self.coeffs.kappa1, self.coeffs.kappa2, self.coeffs.kappa3
        self._c_eta_prev = self._c_eta
        self._c_eta = self._c_eta + dt * float(flow_load.sum())
        c_eta_lag = self._c_eta if self.theta == 1 else self._c_eta_prev
        work = float(mech_load @ self.x_pairing)
        c_xi = (self.mu * k1 * c_eta_lag - work) / (self.dim + self.mu * k3)
        m = self._measure(state)
        return ConservedQuantities(
            t=state.t,
            c_eta=self._c_eta,
            c_xi=c_xi,
            c_q=k1 * self._c_eta - k3 * c_xi,
            c_p=k1 * c_xi + k2 * c_eta_lag,
            c_u=k1 * c_eta_lag - k3 * c_xi,
            eta_measured=m["eta"],
            xi_measured=m["xi"],
            q_measured=m["q"],
            p_measured=m["p"],
            flux_measured=m["flux"],
            eta_applicable=self.eta_applicable,
            traction_applicable=self.traction_applicable,
        )


# --------------------------------------------------------------------------
# discrete energy law
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EnergyRecord:
    """Energy functional, accumulated dissipation, and identity residual.

    level is the index ell of the identity J^ell + S^ell = J^0; a record at
    level ell is computed once the state of time step ell+1 is available.
    For theta=0 the inequality form carries s_hat_cum and hat_slack =
    J^ell + S_hat^ell - J^0 (nonpositive up to solver tolerance when the
    time step respects the parabolic gate).
    """

    level: int
    t: float
    J: float
    s_cum: float
    residual: float
    s_hat_cum: Optional[float] = None
    hat_slack: Optional[float] = None


class EnergyAuditor:
    """Incremental evaluation of the per-step discrete energy identity.

    Uses the assembled operators and the (time-independent) loads; all the
    inner products of the identity reduce to matrix-vector work on the
    coefficient vectors, so the audit is exact to rounding.
    """

    def __init__(
        self,
        A: sp.spmatrix,
        M: sp.spmatrix,
        S: sp.spmatrix,
        mech_load: np.ndarray,
        flow_load: np.ndarray,
        coeffs: DerivedCoeffs,
        theta: int,
        dt: float,
    ) -> None:
        self.A = A
        self.M = M
        self.S = S
        self.mech_load = mech_load
        self.flow_load = flow_load
        self.coeffs = coeffs
        self.theta = theta
        self.dt = dt
        self._count = 0
        self._prev = None
        self._j0: Optional[float] = None
        self._s_cum = 0.0
        self._s_hat_cum = 0.0

    def _energy(self, state) -> float:
        k2, k3 = self.coeffs.kappa2, self.coeffs.kappa3
        quad = (
            state.u @ (self.A @ state.u)
            + k2 * (state.eta_theta @ (self.M @ state.eta_theta))
            + k3 * (state.xi @ (self.M @ state.xi))
        )
        return 0.5 * quad - float(self.mech_load @ state.u)

    def ingest(self, state) -> Optional[EnergyRecord]:
        """Feed the next state (starting from the initial one); returns the
        energy record once a full level is available, i.e. from the second
        call onward."""
        self._count += 1
        if self._count == 1:
            self._prev = state
            return None
        k1, k2, k3 = self.coeffs.kappa1, self.coeffs.kappa2, self.coeffs.kappa3
        dt = self.dt
        j = self._energy(state)
        if self._count == 2:
            self._j0 = j
            self._prev = state
            return EnergyRecord(
                level=0, t=state.t, J=j, s_cum=0.0, residual=0.0,
                s_hat_cum=0.0 if self.theta == 0 else None,
                hat_slack=0.0 if self.theta == 0 else None,
            )
        prev = self._prev
        d_u = (state.u - prev.u) / dt
        d_xi = (state.xi - prev.xi) / dt
        d_eta_theta = (state.eta_theta - prev.eta_theta) / dt
        p_new = state.p
        du_a_du = d_u @ (self.A @ d_u)
        p_s_p = p_new @ (self.S @ p_new)
        d_eta_m = d_eta_theta @ (self.M @ d_eta_theta)
        d_xi_m = d_xi @ (self.M @ d_xi)
        source_work = float(self.flow_load @ p_new)
        term = (
            0.5 * dt * du_a_du
            + p_s_p
            + 0.5 * dt * k2 * d_eta_m
            + 0.5 * dt * k3 * d_xi_m
            - source_work
        )
        if self.theta == 0:
            term -= k1 * dt * float(d_xi @ (self.S @ p_new))
        self._s_cum += dt * term
        hat_cum = None
        slack = None
        if self.theta == 0:
            hat_term = (
                0.25 * dt * du_a_du
                + 0.5 * p_s_p
                + 0.5 * dt * k2 * d_eta_m
                + 0.5 * dt * k3 * d_xi_m
                - source_work
            )
            self._s_hat_cum += dt * hat_term
            hat_cum = self._s_hat_cum
            slack = j + hat_cum - self._j0
        self._prev = state
        return EnergyRecord(
            level=self._count - 2,
            t=state.t,
            J=j,
            s_cum=self._s_cum,
            residual=j + self._s_cum - self._j0,
            s_hat_cum=hat_cum,
            hat_slack=slack,
        )


def energy_audit(
    trajectory: Sequence,
    theta: int,
    benchmark: Benchmark,
    mesh: Mesh,
    dofmap: Optional[DofMap] = None,
) -> list[EnergyRecord]:
    """Evaluate the discrete energy identity along a trajectory of states.

    The identity holds exactly (to solver tolerance) for time-independent
    sources and boundary data; otherwise the residual is still reported,
    with a warning, as purely informational.
    """
    if len(trajectory) < 2:
        return []
    dofmap = dofmap or DofMap.from_mesh(mesh)
    prm = benchmark.params
    A = assemble_elasticity(mesh, dofmap, prm.mu)
    M = assemble_scalar_mass(mesh, dofmap)
    S = assemble_scalar_stiffness(mesh, dofmap, prm.K / prm.mu_f)
    t0 = trajectory[0].t
    t_end = trajectory[-1].t
    loads = LoadAssembler.build(mesh, dofmap, benchmark.sources, benchmark.bcs, prm)
    mech0, flow0 = assemble_load(loads, t0)
    mech1, flow1 = assemble_load(loads, t_end)
    if not (np.allclose(mech0, mech1, atol=1e-14) and np.allclose(flow0, flow1, atol=1e-14)):
        warnings.warn(
            "sources or boundary data vary in time; the energy identity is "
            "reported informationally only",
            stacklevel=2,
        )
    dt = trajectory[1].t - trajectory[0].t
    auditor = EnergyAuditor(A, M, S, mech0, flow0, benchmark.coeffs, theta, dt)
    records = []
    for state in trajectory:
        rec = auditor.ingest(state)
        if rec is not None:
            records.append(rec)
    return records


# --------------------------------------------------------------------------
# error norms and rates
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class VariableNorms:
    """Space-time error norms of one variable."""

    linf_l2: float
    l2_h1: Optional[float]


@dataclass(frozen=True)
class ErrorReport:
    """Error norms per variable plus the per-step history used to form them."""

    variables: dict[str, VariableNorms]
    times: list[float]
    history: dict[str, list[float]]


class ErrorEvaluator:
    """Quadrature evaluation of instantaneous errors against exact closures.

    Evaluates at the points of a DomainQuadrature, a run's own when it
    passes one.  Each field's values and gradients at the points are
    matrix products of its per-triangle coefficients with basis tables.
    """

    def __init__(
        self,
        benchmark: Benchmark,
        mesh: Mesh,
        dofmap: DofMap,
        quadrature: Optional[DomainQuadrature] = None,
    ) -> None:
        if benchmark.exact_u is None or benchmark.exact_p is None:
            raise ValueError("benchmark carries no exact solution closures")
        self.benchmark = benchmark
        self.mesh = mesh
        self.dofmap = dofmap
        quad = quadrature or DomainQuadrature.from_mesh(mesh, dofmap)
        self.flat = quad.vector.points
        self.weights = quad.rule.weights
        self.det = quad.maps.det
        self.n_tri = mesh.n_triangles
        self.nq = quad.rule.weights.size
        p2_vals, p2_grads = eval_basis("P2", quad.rule.points)
        p1_vals, p1_grads = eval_basis("P1", quad.rule.points)
        # Interleaved P2 coefficients (12,) -> values (nq, 2).
        self.u_values = np.kron(p2_vals.T, np.eye(2))
        # (F, 6, nq * 2): physical gradient of P2 basis function i at each
        # point, so (coefficients^T @ table) gives grad u per triangle.
        grads = quad.maps.physical_gradients(p2_grads)  # (F, nq, 6, 2)
        self.p2_grads = np.ascontiguousarray(grads.transpose(0, 2, 1, 3)).reshape(
            self.n_tri, 6, 2 * self.nq
        )
        self.p1_values = p1_vals.T  # (3, nq)
        # (F, 3, 2): P1 gradients are constant on each triangle.
        self.p1_grads = quad.maps.physical_gradients(p1_grads[:1])[:, 0]

    def _norm2(self, squares: np.ndarray) -> float:
        """Integral of squares (F, nq, ...), summed over its trailing axes."""
        per_point = squares[0].size // self.nq
        weights = np.repeat(self.weights, per_point)
        return float(self.det @ (squares.reshape(self.n_tri, -1) @ weights))

    def evaluate(self, state) -> dict[str, float]:
        """Instantaneous errors: L2 and H1-seminorm for u and p, L2 for xi
        and eta (derived from the exact p and div u)."""
        bm = self.benchmark
        t = state.t
        f, q = self.n_tri, self.nq
        u_coef = state.u[self.dofmap.triangle_u]  # (F, 12)
        u_vals = (u_coef @ self.u_values).reshape(f, q, 2)
        ue = np.asarray(bm.exact_u(self.flat, t)).reshape(f, q, 2)
        out = {"u_L2": np.sqrt(self._norm2((u_vals - ue) ** 2))}
        if bm.exact_grad_u is not None:
            u_by_comp = u_coef.reshape(f, 6, 2).transpose(0, 2, 1)  # (F, 2, 6)
            u_grads = np.matmul(u_by_comp, self.p2_grads).reshape(f, 2, q, 2)  # [f, c, q, a]
            ge = np.asarray(bm.exact_grad_u(self.flat, t)).reshape(f, q, 2, 2)  # [f, q, c, a]
            out["u_H1"] = np.sqrt(self._norm2((u_grads.transpose(0, 2, 1, 3) - ge) ** 2))
        triangles = self.mesh.triangles
        p_coef = state.p[triangles]
        p_vals = p_coef @ self.p1_values
        pe = np.asarray(bm.exact_p(self.flat, t)).reshape(f, q)
        out["p_L2"] = np.sqrt(self._norm2((p_vals - pe) ** 2))
        if bm.exact_grad_p is not None:
            p_grads = np.matmul(p_coef[:, None, :], self.p1_grads)  # (F, 1, 2)
            gpe = np.asarray(bm.exact_grad_p(self.flat, t)).reshape(f, q, 2)
            out["p_H1"] = np.sqrt(self._norm2((p_grads - gpe) ** 2))
        if bm.exact_grad_u is not None:
            prm = bm.params
            qe = ge[..., 0, 0] + ge[..., 1, 1]  # exact div u
            xi_e = prm.alpha * pe - prm.lam * qe
            eta_e = prm.c0 * pe + prm.alpha * qe
            xi_vals = state.xi[triangles] @ self.p1_values
            eta_vals = state.eta[triangles] @ self.p1_values
            out["xi_L2"] = np.sqrt(self._norm2((xi_vals - xi_e) ** 2))
            out["eta_L2"] = np.sqrt(self._norm2((eta_vals - eta_e) ** 2))
        return out


def summarize_error_history(times: Sequence[float], history: Mapping[str, Sequence[float]]) -> ErrorReport:
    """Collapse per-level errors into space-time norms.

    L-infinity-in-time of the L2 error is taken over all levels including
    the initial one; the L2-in-time H1 norm is the dt-weighted sum over
    the stepped levels.
    """
    dts = np.diff(times)
    variables: dict[str, VariableNorms] = {}
    for var in ("u", "p", "xi", "eta"):
        l2_key = f"{var}_L2"
        if l2_key not in history:
            continue
        linf = float(np.max(history[l2_key]))
        h1_key = f"{var}_H1"
        l2h1 = None
        if h1_key in history and len(times) > 1:
            vals = np.asarray(history[h1_key][1:])
            l2h1 = float(np.sqrt(np.sum(dts * vals**2)))
        variables[var] = VariableNorms(linf_l2=linf, l2_h1=l2h1)
    return ErrorReport(
        variables=variables,
        times=list(times),
        history={k: list(v) for k, v in history.items()},
    )


def error_norms(
    trajectory: Sequence,
    benchmark: Benchmark,
    mesh: Mesh,
    dofmap: Optional[DofMap] = None,
    min_degree: int = 6,
) -> ErrorReport:
    """Space-time error norms over a trajectory of states."""
    if not trajectory:
        raise ValueError("empty trajectory")
    dofmap = dofmap or DofMap.from_mesh(mesh)
    quadrature = DomainQuadrature.from_mesh(mesh, dofmap, min_degree)
    ev = ErrorEvaluator(benchmark, mesh, dofmap, quadrature)
    history: dict[str, list[float]] = {}
    times = []
    for state in trajectory:
        errs = ev.evaluate(state)
        times.append(state.t)
        for key, val in errs.items():
            history.setdefault(key, []).append(val)
    return summarize_error_history(times, history)


def extract_rates(hs: Sequence[float], errors: Sequence[float]) -> list[Optional[float]]:
    """log2 error ratios between consecutive meshes of refinement ratio 2.

    The first entry is None; a rate is also None when the mesh ratio is
    not 2 (within 1e-8) or an error vanishes.
    """
    if len(hs) != len(errors):
        raise ValueError("mismatched sequence lengths")
    rates: list[Optional[float]] = [None]
    for i in range(1, len(hs)):
        ratio = hs[i - 1] / hs[i]
        if abs(ratio - 2.0) > 1e-8 or errors[i] <= 0.0 or errors[i - 1] <= 0.0:
            rates.append(None)
        else:
            rates.append(float(np.log2(errors[i - 1] / errors[i])))
    return rates


# --------------------------------------------------------------------------
# locking indicator
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LockingIndicator:
    """Oscillation measures of the vertex pressure along a vertical line.

    undershoot is the negative excursion of the pressure relative to the
    magnitude of the prescribed boundary pressure data (or, in a run with
    no pressure-Dirichlet data, relative to the pressure scale on the
    line itself).
    """

    line_x: float
    ys: np.ndarray
    values: np.ndarray
    extrema_count: int
    undershoot: float
    min_value: float
    scale: float


def locking_scan(state, mesh: Mesh, benchmark: Benchmark, line_x: float = 0.5,
                 tol: float = 1e-12) -> LockingIndicator:
    """Count strict interior extrema of p along the vertical line x1 = line_x."""
    on_line = np.flatnonzero(np.abs(mesh.vertices[:, 0] - line_x) <= tol)
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
        eids = mesh.edges_with_tag(tag)
        if eids.size == 0:
            continue
        pts = mesh.vertices[np.unique(mesh.edges[eids].ravel())]
        scale = max(scale, float(np.max(np.abs(bc.value(pts, state.t)))))
    if scale == 0.0 and vals.size:
        scale = float(np.max(np.abs(vals)))
    min_value = float(np.min(vals)) if vals.size else 0.0
    undershoot = max(0.0, -min_value) / max(scale, 1e-30)
    return LockingIndicator(
        line_x=line_x,
        ys=ys,
        values=vals,
        extrema_count=count,
        undershoot=undershoot,
        min_value=min_value,
        scale=scale,
    )


# --------------------------------------------------------------------------
# inf-sup estimator
# --------------------------------------------------------------------------


class BudgetExceededError(RuntimeError):
    """Raised when a dense diagnostic would exceed its size budget."""


def _dg_pressure_operators(mesh: Mesh, dofmap: DofMap) -> tuple[np.ndarray, np.ndarray]:
    """Divergence and mass operators for a discontinuous P1 pressure space.

    Used only as a negative control: the P2/P1-discontinuous pair is not
    inf-sup stable, so the estimator must collapse on it.
    """
    rule = triangle_quadrature(2)
    _, ref_grads = eval_basis("P2", rule.points)
    p1_vals, _ = eval_basis("P1", rule.points)
    maps = AffineMaps.from_mesh(mesh)
    grads = maps.physical_gradients(ref_grads)
    local = np.einsum("q,qj,fqia,f->fjia", rule.weights, p1_vals, grads, maps.det, optimize=True)
    local = local.reshape(mesh.n_triangles, 3, 12)
    n_p = 3 * mesh.n_triangles
    B = np.zeros((n_p, dofmap.n_u))
    rows = 3 * np.arange(mesh.n_triangles)[:, None] + np.arange(3)[None, :]
    cols = dofmap.triangle_u  # (F, 12); each (triangle, local row) owns a unique row
    for k in range(3):
        np.add.at(B, (rows[:, k][:, None], cols), local[:, k, :])
    areas = mesh.triangle_areas()
    m_loc = (np.ones((3, 3)) + np.eye(3)) / 12.0
    M = np.zeros((n_p, n_p))
    for k in range(3):
        for l in range(3):
            M[rows[:, k], rows[:, l]] = areas * m_loc[k, l]
    return B, M


def estimate_infsup(mesh: Mesh, budget: int = 2000, discontinuous_pressure: bool = False) -> float:
    """Dense inf-sup estimate for the P2-vector / P1 pair on a small mesh.

    Computes sqrt of the smallest generalized eigenvalue of the projected
    pencil (B A^+ B^T, M_p) over mean-zero pressures, where A^+ applies the
    rigid-motion-orthogonal inverse of the unconstrained elasticity form.

    Raises:
        BudgetExceededError: when the dense solve would exceed the budget.
    """
    dofmap = DofMap.from_mesh(mesh)
    n_p = 3 * mesh.n_triangles if discontinuous_pressure else dofmap.n_scalar
    n_total = dofmap.n_u + n_p
    if n_total > budget:
        raise BudgetExceededError(
            f"{n_total} dofs exceed the dense diagnostic budget of {budget}"
        )
    A = assemble_elasticity(mesh, dofmap, 1.0).toarray()
    basis = rigid_motion_basis(mesh, dofmap)
    mass_u = assemble_vector_mass(mesh, dofmap)
    C = mass_u.dot(basis.T).T  # (3, n_u)
    n_u = dofmap.n_u
    K = np.zeros((n_u + 3, n_u + 3))
    K[:n_u, :n_u] = A
    K[:n_u, n_u:] = C.T
    K[n_u:, :n_u] = C
    if discontinuous_pressure:
        B, Mp = _dg_pressure_operators(mesh, dofmap)
    else:
        B = assemble_div(mesh, dofmap).toarray()
        Mp = assemble_scalar_mass(mesh, dofmap).toarray()
    rhs = np.zeros((n_u + 3, n_p))
    rhs[:n_u] = B.T
    X = la.solve(K, rhs)
    G = B @ X[:n_u]
    G = 0.5 * (G + G.T)
    mean_row = (Mp @ np.ones(n_p))[None, :]
    W = la.null_space(mean_row)
    Gw = W.T @ G @ W
    Mw = W.T @ Mp @ W
    eigs = la.eigh(Gw, Mw, eigvals_only=True)
    return float(np.sqrt(max(eigs[0], 0.0)))


# --------------------------------------------------------------------------
# Biot-limit (c0 -> 0) sweep
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    """Distances between the runs of two consecutive storage coefficients."""

    c0_a: float
    c0_b: float
    dist_u: float
    dist_eta: float
    dist_xi: float


def biot_limit_sweep(benchmark: Benchmark, c0_values: Sequence[float], mesh: Mesh,
                     scheme) -> list[SweepRow]:
    """Pairwise L-infinity(L2) distances between runs with decreasing c0.

    Re-solves the benchmark with each storage coefficient on the same mesh
    and time scheme, then reports max-over-time L2 distances of u, eta and
    xi between consecutive c0 values.
    """
    from . import stepper  # local import: stepper depends on this module

    dofmap = DofMap.from_mesh(mesh)
    mass_u = assemble_vector_mass(mesh, dofmap)
    mass_p = assemble_scalar_mass(mesh, dofmap)
    trajectories = []
    for c0 in c0_values:
        params = replace(benchmark.params, c0=float(c0))
        bench = get_benchmark(benchmark.name, params)
        result = stepper.run(bench, mesh, scheme, keep_states=True, compute_errors=False)
        trajectories.append([(s.u, s.eta, s.xi) for s in result.states])

    def l2(vec: np.ndarray, mat) -> float:
        return float(np.sqrt(max(vec @ (mat @ vec), 0.0)))

    rows = []
    for (c0a, traj_a), (c0b, traj_b) in zip(
        zip(c0_values, trajectories), zip(c0_values[1:], trajectories[1:])
    ):
        du = deta = dxi = 0.0
        for (ua, ea, xa), (ub, eb, xb) in zip(traj_a, traj_b):
            du = max(du, l2(ua - ub, mass_u))
            deta = max(deta, l2(ea - eb, mass_p))
            dxi = max(dxi, l2(xa - xb, mass_p))
        rows.append(SweepRow(float(c0a), float(c0b), du, deta, dxi))
    return rows


# --------------------------------------------------------------------------
# state consistency and per-step record
# --------------------------------------------------------------------------


def check_state_consistency(state, coeffs: DerivedCoeffs) -> tuple[float, float]:
    """Max-abs residuals of p = k1*xi + k2*eta_theta and q = k1*eta - k3*xi."""
    p_res = np.max(np.abs(state.p - (coeffs.kappa1 * state.xi + coeffs.kappa2 * state.eta_theta)))
    q_res = np.max(np.abs(state.q - (coeffs.kappa1 * state.eta - coeffs.kappa3 * state.xi)))
    return float(p_res), float(q_res)


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One completed step's diagnostics, in the order they are serialized."""

    step: int
    t: float
    J: Optional[float] = None
    s_cum: Optional[float] = None
    energy_residual: Optional[float] = None
    c_eta_res: Optional[float] = None
    c_xi_res: Optional[float] = None
    flux_res: Optional[float] = None
    err_u_L2: Optional[float] = None
    err_u_H1: Optional[float] = None
    err_p_L2: Optional[float] = None
    err_p_H1: Optional[float] = None
