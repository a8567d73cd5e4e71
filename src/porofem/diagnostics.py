"""Run-time verification diagnostics for the coupled scheme.

Measures the states of a run for what a run or a command reports:
conserved integrals under Neumann-type boundary conditions, the per-step
discrete energy identity (and its inequality form for the decoupled
scheme), error norms and convergence-rate extraction against exact
fields, and the distances between two trajectories that the
vanishing-storage (c0 -> 0) sweep (stepper.biot_limit_sweep) reports.
Nothing here runs a step; the inf-sup estimate and the centerline locking
scan, which no command reports, live with the tests that certify those
claims.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .model import Benchmark, DerivedCoeffs, Tabulated

__all__ = [
    "ConservedQuantities",
    "ConservationTracker",
    "EnergyRecord",
    "EnergyAuditor",
    "VariableNorms",
    "ErrorEvaluator",
    "summarize_error_history",
    "extract_rates",
    "TrajectoryDistance",
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
        # The integral of a scalar field is its dot product with the basis
        # integrals, (M 1) as M is symmetric.
        self.basis_integrals = scalar_mass @ np.ones(scalar_mass.shape[0])
        self.theta = theta
        self.coeffs = benchmark.coeffs
        self.mu = benchmark.params.mu
        self.flux_functional = self.x_pairing = None
        if benchmark.bcs.is_pure_traction():
            self.flux_functional = boundary_flux_functional(mesh, dofmap)
            self.x_pairing = mesh.p2_node_coords().ravel()  # interpolant of the position field
        self._c_eta = self._integral(initial_state.eta)

    def _integral(self, vec: np.ndarray) -> float:
        return float(self.basis_integrals @ vec)

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

    The record of the state of time step n is level ell = n - 1 of the
    identity J^ell + S^ell = J^0.  For theta=0 the inequality form carries
    s_hat_cum and hat_slack = J^ell + S_hat^ell - J^0 (nonpositive up to
    solver tolerance when the time step respects the parabolic gate).
    """

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
    coefficient vectors, so the audit is exact to rounding.  Each state fed
    meets each operator once: A u, M eta_theta and M xi give J, and past
    level 0, S p gives the flow dissipation.  A step's quadratic increments
    reuse the previous level's products, dt^2 d.K d = dx.(K x - K x') with
    dx = x - x' for K = A, M.

    max_hat_slack is the largest hat_slack of a theta = 0 audit over levels
    1 and up (NaN if any is NaN); level 0's slack is J^0 - J^0 = 0 by
    construction.  It is None for theta = 1 and before level 1.
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
        self._prev = None  # the previous level's u, eta_theta, xi and A u, M eta_theta, M xi
        self._j0: Optional[float] = None
        self._s_cum = 0.0
        self._s_hat_cum = 0.0
        self.max_hat_slack: Optional[float] = None

    def ingest(self, state) -> EnergyRecord:
        """Feed the state of the next time step; returns its energy record.

        The first state fed sets J^0 and is level 0; each later one is the
        next level.  The initial state of a run is not fed.
        """
        k1, k2, k3 = self.coeffs.kappa1, self.coeffs.kappa2, self.coeffs.kappa3
        u, eta, xi = state.u, state.eta_theta, state.xi
        a_u, m_eta, m_xi = self.A @ u, self.M @ eta, self.M @ xi
        j = 0.5 * (u @ a_u + k2 * (eta @ m_eta) + k3 * (xi @ m_xi)) - float(self.mech_load @ u)
        prev, self._prev = self._prev, (u, eta, xi, a_u, m_eta, m_xi)
        decoupled = self.theta == 0
        if prev is None:
            self._j0 = j
        else:
            u0, eta0, xi0, a_u0, m_eta0, m_xi0 = prev
            d_xi = xi - xi0
            # dt^2 d.K d of each quadratic term, as dx.(K x - K x').
            elastic = (u - u0) @ (a_u - a_u0)
            storage = k2 * ((eta - eta0) @ (m_eta - m_eta0)) + k3 * (d_xi @ (m_xi - m_xi0))
            p = state.p
            s_p = self.S @ p
            flow = self.dt * (p @ s_p)
            source = self.dt * float(self.flow_load @ p)
            self._s_cum += 0.5 * (elastic + storage) + flow - source
            if decoupled:
                self._s_cum -= k1 * self.dt * float(d_xi @ s_p)
                self._s_hat_cum += 0.25 * elastic + 0.5 * (flow + storage) - source
        record = EnergyRecord(
            t=state.t,
            J=j,
            s_cum=self._s_cum,
            residual=j + self._s_cum - self._j0,
            s_hat_cum=self._s_hat_cum if decoupled else None,
            hat_slack=j + self._s_hat_cum - self._j0 if decoupled else None,
        )
        if decoupled and prev is not None:  # np.maximum, unlike max, keeps a NaN
            slack = record.hat_slack
            self.max_hat_slack = float(
                slack if self.max_hat_slack is None else np.maximum(self.max_hat_slack, slack)
            )
        return record


# --------------------------------------------------------------------------
# error norms and rates
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class VariableNorms:
    """Space-time error norms of one variable."""

    linf_l2: float
    l2_h1: Optional[float]


class ErrorEvaluator:
    """Quadrature evaluation of instantaneous errors against exact fields.

    Evaluates at the points of a DomainQuadrature; a run passes the one its
    loads use.  Each exact field's terms are evaluated at the points once,
    in the layout of the computed field they are compared with, so a call
    only scales and sums them.  Each computed field's values and gradients
    at the points are matrix products of its per-triangle coefficients with
    basis tables.  The displacement gradient is one product with reference
    gradients per reference direction, pushed forward by two multiply-adds
    with per-triangle Jacobian tables, all laid out [f, q, c, a] like the
    exact gradient.
    """

    def __init__(
        self,
        benchmark: Benchmark,
        mesh: Mesh,
        dofmap: DofMap,
        quadrature: DomainQuadrature,
    ) -> None:
        if not benchmark.has_exact_solution:
            raise ValueError("benchmark carries no exact solution")
        self.mesh = mesh
        self.dofmap = dofmap
        self.det = quadrature.maps.det
        f = self.n_tri = mesh.n_triangles
        q = self.nq = quadrature.rule.weights.size
        points, w = quadrature.vector.points, quadrature.rule.weights

        def table(datum, shape, points_last=False) -> Optional[Tabulated]:
            """The datum's terms at the points as (F, nq, *shape) arrays, or
            (F, *shape, nq) with points_last."""
            def space(g):
                values = g(points).reshape(f, q, *shape)
                return np.ascontiguousarray(np.moveaxis(values, 1, -1)) if points_last else values

            full = (f, *shape, q) if points_last else (f, q, *shape)
            return None if datum is None else Tabulated(full, datum.tabulate(space))

        self.exact_u = table(benchmark.exact_u, (2,))
        self.exact_grad_u = table(benchmark.exact_grad_u, (2, 2))  # [f, q, c, a] = du_c/dx_a
        self.exact_p = table(benchmark.exact_p, ())
        # [f, a, q]: a triangle's constant P1 gradient broadcasts along q.
        self.exact_grad_p = table(benchmark.exact_grad_p, (2,), points_last=True)
        # The rule weights along one triangle's entries, per layout.
        self.weights = {"q": w, "qc": np.repeat(w, 2), "qca": np.repeat(w, 4), "aq": np.tile(w, 2)}
        p2_vals, p2_grads = eval_basis("P2", quadrature.rule.points)
        p1_vals, p1_grads = eval_basis("P1", quadrature.rule.points)
        # Interleaved P2 coefficients (12,) -> values (nq, 2).
        self.u_values = np.kron(p2_vals.T, np.eye(2))
        # Per reference direction b, interleaved P2 coefficients (12,) ->
        # derivative b of component c at point q, repeated over the physical
        # direction a: [q, c, a].  jacobians[b][f, (q, c, a)] =
        # inv_jac_t[f, a, b], so that grad u is the sum over b of
        # jacobians[b] * (coefficients @ ref_grads[b]).
        ref = np.einsum("qib,cd,a->bidqca", p2_grads, np.eye(2), np.ones(2))
        self.ref_grads = tuple(ref[b].reshape(12, q * 4) for b in (0, 1))
        jac = quadrature.maps.inv_jac_t
        self.jacobians = tuple(
            np.ascontiguousarray(np.broadcast_to(jac[:, None, None, :, b], (f, q, 2, 2))).reshape(f, -1)
            for b in (0, 1)
        )
        self.p1_values = p1_vals.T  # (3, nq)
        # (F, 3, 2): P1 gradients are constant on each triangle.
        self.p1_grads = quadrature.maps.physical_gradients(p1_grads[:1])[:, 0]

    def _error(self, values: np.ndarray, exact: Tabulated, t: float, layout: str) -> float:
        """L2 norm over the triangles of values minus exact(t); values
        broadcasts to the table's shape, laid out as named in self.weights."""
        diff = exact(t)  # a fresh array, worked in place
        diff -= values
        diff *= diff
        return float(np.sqrt(self.det @ (diff.reshape(self.n_tri, -1) @ self.weights[layout])))

    def evaluate(self, state) -> dict[str, float]:
        """Instantaneous errors: L2 and H1-seminorm for u and p."""
        t = state.t
        f, q = self.n_tri, self.nq
        u_coef = state.u[self.dofmap.triangle_u]  # (F, 12)
        u_vals = (u_coef @ self.u_values).reshape(f, q, 2)
        out = {"u_L2": self._error(u_vals, self.exact_u, t, "qc")}
        if self.exact_grad_u is not None:
            u_grads, d1 = (u_coef @ table for table in self.ref_grads)
            u_grads *= self.jacobians[0]
            d1 *= self.jacobians[1]
            u_grads += d1
            out["u_H1"] = self._error(u_grads.reshape(f, q, 2, 2), self.exact_grad_u, t, "qca")
        p_coef = state.p[self.mesh.triangles]
        out["p_L2"] = self._error(p_coef @ self.p1_values, self.exact_p, t, "q")
        if self.exact_grad_p is not None:
            p_grads = np.matmul(p_coef[:, None, :], self.p1_grads)  # (F, 1, 2)
            out["p_H1"] = self._error(p_grads.reshape(f, 2, 1), self.exact_grad_p, t, "aq")
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
    for var in ("u", "p"):
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
# distance between two trajectories
# --------------------------------------------------------------------------


class TrajectoryDistance:
    """Max-over-time L2 distances of u, eta and xi between two trajectories
    on one mesh, compared state by state (the c0 sweep's distances)."""

    def __init__(self, mesh: Mesh, dofmap: DofMap, scalar_mass: sp.spmatrix) -> None:
        self.vector_mass = assemble_vector_mass(mesh, dofmap)
        self.scalar_mass = scalar_mass

    def __call__(self, states_a: Sequence, states_b: Sequence) -> tuple[float, float, float]:
        def l2(vec: np.ndarray, mat) -> float:
            return float(np.sqrt(max(vec @ (mat @ vec), 0.0)))

        pairs = list(zip(states_a, states_b))
        return (
            max(0.0, *(l2(a.u - b.u, self.vector_mass) for a, b in pairs)),
            max(0.0, *(l2(a.eta - b.eta, self.scalar_mass) for a, b in pairs)),
            max(0.0, *(l2(a.xi - b.xi, self.scalar_mass) for a, b in pairs)),
        )


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
