"""Run-time verification diagnostics for the coupled scheme.

Implements the quantities a run or a command reports: conserved integrals
under Neumann-type boundary conditions, the per-step discrete energy
identity (and its inequality form for the decoupled scheme), error norms
and convergence-rate extraction against exact closures, and the
vanishing-storage (c0 -> 0) sweep.  The inf-sup estimate and the
centerline locking scan, which no command reports, live with the tests
that certify those claims.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .assembly import (
    DofMap,
    DomainQuadrature,
    assemble_vector_mass,
    boundary_flux_functional,
)
from .elements import eval_basis
from .mesh import Mesh
from .model import Benchmark, DerivedCoeffs, get_benchmark, xieta_from_pq
from .solver import DEFAULT_TOLERANCE

__all__ = [
    "ConservedQuantities",
    "ConservationTracker",
    "EnergyRecord",
    "EnergyAuditor",
    "VariableNorms",
    "ErrorEvaluator",
    "summarize_error_history",
    "extract_rates",
    "SweepRow",
    "SweepRows",
    "biot_limit_sweep",
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
        C_xi = [mu*k1*C_eta(t_lag) - (f,x) - <f1,x>]/(2 + mu*k3),
        C_u = k1*C_eta(t_lag) - k3*C_xi,
    where t_lag = t_{n-1+theta} matches the lag of the divergence equation;
    C_u is the reference for the boundary flux of u.

    The residual properties are relative, |measured - reference| /
    max(1, |reference|).  The xi and flux identities hold only for
    pure-traction mechanics; elsewhere their references and measurements
    are None, and so are their residuals.
    """

    t: float
    c_eta: float
    eta_measured: float
    c_xi: Optional[float] = None
    c_u: Optional[float] = None
    xi_measured: Optional[float] = None
    flux_measured: Optional[float] = None

    @property
    def eta_res(self) -> float:
        return _rel(self.eta_measured, self.c_eta)

    @property
    def xi_res(self) -> Optional[float]:
        return None if self.xi_measured is None else _rel(self.xi_measured, self.c_xi)

    @property
    def flux_res(self) -> Optional[float]:
        return None if self.flux_measured is None else _rel(self.flux_measured, self.c_u)


def _rel(measured: float, ref: float) -> float:
    return abs(measured - ref) / max(1.0, abs(ref))


class ConservationTracker:
    """Advances the reference recursions alongside a run and measures states.

    The identities need a pure-Neumann flow boundary; a tracker for any
    other benchmark is refused with ValueError.  The xi and flux identities
    are tracked only when the mechanics are pure traction as well.  The
    recursions start from the integral of eta in the initial state.
    """

    def __init__(self, benchmark: Benchmark, mesh: Mesh, dofmap: DofMap,
                 scalar_mass: sp.spmatrix, theta: int, initial_state) -> None:
        if not benchmark.bcs.is_pure_neumann_flow():
            raise ValueError(f"{benchmark.name}: conservation needs a pure-Neumann flow boundary")
        self.M = scalar_mass
        self.theta = theta
        self.coeffs = benchmark.coeffs
        self.mu = benchmark.params.mu
        self.flux_functional = self.x_pairing = None
        if benchmark.bcs.is_pure_traction():
            self.flux_functional = boundary_flux_functional(mesh, dofmap)
            self.x_pairing = mesh.p2_node_coords().ravel()  # interpolant of the position field
        self._c_eta = self._integral(initial_state.eta)

    def _integral(self, vec: np.ndarray) -> float:
        return float((self.M @ vec).sum())

    def advance(self, state, dt: float, mech_load: np.ndarray, flow_load: np.ndarray) -> ConservedQuantities:
        """Push the references forward by one step and measure the new state.

        mech_load and flow_load must be the assembled right-hand sides the
        stepper used for this step (evaluated at the new time), so that the
        references use the same quadrature as the scheme itself.
        """
        k1, k3 = self.coeffs.kappa1, self.coeffs.kappa3
        c_eta_prev = self._c_eta
        self._c_eta = c_eta_prev + dt * float(flow_load.sum())
        eta_measured = self._integral(state.eta)
        if self.flux_functional is None:
            return ConservedQuantities(state.t, self._c_eta, eta_measured)
        c_eta_lag = self._c_eta if self.theta == 1 else c_eta_prev
        work = float(mech_load @ self.x_pairing)
        # 2 is the space dimension: the divergence of the position field.
        c_xi = (self.mu * k1 * c_eta_lag - work) / (2 + self.mu * k3)
        return ConservedQuantities(
            state.t,
            self._c_eta,
            eta_measured,
            c_xi=c_xi,
            c_u=k1 * c_eta_lag - k3 * c_xi,
            xi_measured=self._integral(state.xi),
            flux_measured=float(self.flux_functional @ state.u),
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
        self._level = -1
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

    def ingest(self, state) -> EnergyRecord:
        """Feed the state of the next time step; returns its energy record.

        The first state fed sets J^0 and is level 0; each later one is the
        next level.  The initial state of a run is not fed.
        """
        j = self._energy(state)
        prev, self._prev = self._prev, state
        self._level += 1
        if prev is None:
            self._j0 = j
        else:
            self._dissipate(prev, state)
        decoupled = self.theta == 0
        return EnergyRecord(
            level=self._level,
            t=state.t,
            J=j,
            s_cum=self._s_cum,
            residual=j + self._s_cum - self._j0,
            s_hat_cum=self._s_hat_cum if decoupled else None,
            hat_slack=j + self._s_hat_cum - self._j0 if decoupled else None,
        )

    def _dissipate(self, prev, state) -> None:
        """Add the step from prev to state to S (and, for theta = 0, S_hat)."""
        k1, k2, k3 = self.coeffs.kappa1, self.coeffs.kappa2, self.coeffs.kappa3
        dt = self.dt
        d_u = (state.u - prev.u) / dt
        d_xi = (state.xi - prev.xi) / dt
        d_eta_theta = (state.eta_theta - prev.eta_theta) / dt
        p_new = state.p
        s_p = self.S @ p_new
        du_a_du = d_u @ (self.A @ d_u)
        p_s_p = p_new @ s_p
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
            term -= k1 * dt * float(d_xi @ s_p)
            hat_term = (
                0.25 * dt * du_a_du
                + 0.5 * p_s_p
                + 0.5 * dt * k2 * d_eta_m
                + 0.5 * dt * k3 * d_xi_m
                - source_work
            )
            self._s_hat_cum += dt * hat_term
        self._s_cum += dt * term


# --------------------------------------------------------------------------
# error norms and rates
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class VariableNorms:
    """Space-time error norms of one variable."""

    linf_l2: float
    l2_h1: Optional[float]


class ErrorEvaluator:
    """Quadrature evaluation of instantaneous errors against exact closures.

    Evaluates at the points of a DomainQuadrature; a run passes the one its
    loads use.  Each field's values and gradients at the points are matrix
    products of its per-triangle coefficients with basis tables.
    """

    def __init__(
        self,
        benchmark: Benchmark,
        mesh: Mesh,
        dofmap: DofMap,
        quadrature: DomainQuadrature,
    ) -> None:
        if not benchmark.has_exact_solution:
            raise ValueError("benchmark carries no exact solution closures")
        self.benchmark = benchmark
        self.mesh = mesh
        self.dofmap = dofmap
        self.flat = quadrature.vector.points
        self.weights = quadrature.rule.weights
        self.det = quadrature.maps.det
        self.n_tri = mesh.n_triangles
        self.nq = quadrature.rule.weights.size
        p2_vals, p2_grads = eval_basis("P2", quadrature.rule.points)
        p1_vals, p1_grads = eval_basis("P1", quadrature.rule.points)
        # Interleaved P2 coefficients (12,) -> values (nq, 2).
        self.u_values = np.kron(p2_vals.T, np.eye(2))
        # (F, 6, nq * 2): physical gradient of P2 basis function i at each
        # point, so (coefficients^T @ table) gives grad u per triangle.
        grads = quadrature.maps.physical_gradients(p2_grads)  # (F, nq, 6, 2)
        self.p2_grads = np.ascontiguousarray(grads.transpose(0, 2, 1, 3)).reshape(
            self.n_tri, 6, 2 * self.nq
        )
        self.p1_values = p1_vals.T  # (3, nq)
        # (F, 3, 2): P1 gradients are constant on each triangle.
        self.p1_grads = quadrature.maps.physical_gradients(p1_grads[:1])[:, 0]

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
            qe = ge[..., 0, 0] + ge[..., 1, 1]  # exact div u
            xi_e, eta_e = xieta_from_pq(pe, qe, bm.params)
            xi_vals = state.xi[triangles] @ self.p1_values
            eta_vals = state.eta[triangles] @ self.p1_values
            out["xi_L2"] = np.sqrt(self._norm2((xi_vals - xi_e) ** 2))
            out["eta_L2"] = np.sqrt(self._norm2((eta_vals - eta_e) ** 2))
        return out


def summarize_error_history(levels: Sequence[tuple[float, Mapping[str, float]]]) -> dict[str, VariableNorms]:
    """Collapse per-level errors into space-time norms, per variable.

    levels holds (t, ErrorEvaluator.evaluate errors) for each time level,
    the initial one first.  L-infinity-in-time of the L2 error is taken
    over all levels; the L2-in-time H1 norm is the dt-weighted sum over
    the stepped levels.
    """
    dts = np.diff([t for t, _ in levels])
    keys = levels[0][1]
    variables: dict[str, VariableNorms] = {}
    for var in ("u", "p", "xi", "eta"):
        l2_key = f"{var}_L2"
        if l2_key not in keys:
            continue
        linf = float(np.max([errs[l2_key] for _, errs in levels]))
        h1_key = f"{var}_H1"
        l2h1 = None
        if h1_key in keys and len(levels) > 1:
            vals = np.asarray([errs[h1_key] for _, errs in levels[1:]])
            l2h1 = float(np.sqrt(np.sum(dts * vals**2)))
        variables[var] = VariableNorms(linf_l2=linf, l2_h1=l2h1)
    return variables


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


class SweepRows(list):
    """A sweep's SweepRow list, in c0 order, with the linear algebra behind
    them: `projections`, the factorization of the initial pressure
    projections its members share, and `members`, each member's c0 and
    RunResult (states dropped), whose factorizations and solves are that
    member's own."""

    def __init__(self, rows: Sequence[SweepRow], projections: tuple, members: tuple) -> None:
        super().__init__(rows)
        self.projections = projections
        self.members = members


def biot_limit_sweep(benchmark: Benchmark, c0_values: Sequence[float], mesh: Mesh,
                     scheme, tolerance: float = DEFAULT_TOLERANCE) -> SweepRows:
    """Pairwise L-infinity(L2) distances between runs with decreasing c0.

    Re-solves the benchmark with each storage coefficient on the same mesh
    and time scheme, then reports max-over-time L2 distances of u, eta and
    xi between consecutive c0 values.  The runs share one discretization
    (c0 enters no operator of it), and their initial data are built
    together before the first run factorizes its step systems: each
    member's displacement is its interpolant, and the pressure projections,
    which c0 enters only through the data, are solved from one factor of M.
    Each run is compared with the one before it as soon as it finishes, so
    only two trajectories are held.  `tolerance` bounds every linear solve
    of every run, as in `run`.
    """
    from . import stepper  # local import: stepper depends on this module

    disc = stepper.Discretization.build(mesh, benchmark.params)
    benchmarks = [
        get_benchmark(benchmark.name, replace(benchmark.params, c0=float(c0))) for c0 in c0_values
    ]
    projections = stepper.LinearSolves(tolerance)
    initial = stepper.init_state(benchmarks, disc, projections)
    mass_u = assemble_vector_mass(mesh, disc.dofmap)

    def l2(vec: np.ndarray, mat) -> float:
        return float(np.sqrt(max(vec @ (mat @ vec), 0.0)))

    rows, members = [], []
    c0_prev = states_prev = None
    for c0, bench, start in zip(c0_values, benchmarks, initial):
        result = stepper.run(
            bench, disc, scheme, keep_steps=range(scheme.n_steps + 1), compute_errors=False,
            tolerance=tolerance, initial=start,
        )
        states = result.states
        if states_prev is not None:
            pairs = list(zip(states_prev, states))
            rows.append(SweepRow(
                float(c0_prev), float(c0),
                max(0.0, *(l2(a.u - b.u, mass_u) for a, b in pairs)),
                max(0.0, *(l2(a.eta - b.eta, disc.M) for a, b in pairs)),
                max(0.0, *(l2(a.xi - b.xi, disc.M) for a, b in pairs)),
            ))
        members.append((float(c0), replace(result, states=[])))
        c0_prev, states_prev = c0, states
    return SweepRows(rows, tuple(projections.factorizations), tuple(members))


# --------------------------------------------------------------------------
# per-step record
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One completed step's diagnostics; diagnostics.csv has one column per
    field, named and ordered as here."""

    step: int
    t: float
    J: Optional[float] = None
    S_cum: Optional[float] = None
    energy_residual: Optional[float] = None
    C_eta_res: Optional[float] = None
    C_xi_res: Optional[float] = None
    flux_res: Optional[float] = None
    err_u_L2: Optional[float] = None
    err_u_H1: Optional[float] = None
    err_p_L2: Optional[float] = None
    err_p_H1: Optional[float] = None
