"""Time integration of the reformulated poroelastic system.

Each step solves a generalized Stokes problem for the displacement and the
total-pressure-like variable xi, and a diffusion problem for the mass-like
variable eta.  With coupling weight theta = 1 both solves are performed
monolithically; with theta = 0 the diffusion step uses the previous eta in
the Stokes step, decoupling the two solves at the cost of a parabolic
time-step restriction (advisory, not enforced).

The physical pressure and the displacement divergence are recovered per
step as p = kappa1*xi + kappa2*eta_lag and q = kappa1*eta - kappa3*xi,
where eta_lag is the eta level the Stokes step actually used.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .assembly import (
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
    build_constraints,
    rigid_motion_basis,
)
from .diagnostics import (
    ConservationTracker,
    DiagnosticsRecord,
    EnergyAuditor,
    EnergyRecord,
    ConservedQuantities,
    ErrorEvaluator,
    ErrorReport,
    check_conservation,
    check_state_consistency,
    summarize_error_history,
)
from .mesh import BoundarySegment, Mesh
from .model import Benchmark, MaterialParams, DerivedCoeffs
from .solver import (
    DEFAULT_TOLERANCE,
    Factorization,
    LinearSolveReport,
    SolverFailureError,
    factorize,
    solve,
)

__all__ = [
    "TimeScheme",
    "GateReport",
    "evaluate_gate",
    "FieldState",
    "StepSystems",
    "init_state",
    "step_coupled",
    "step_decoupled",
    "RunResult",
    "run",
]

# Tightest coefficient-identity tolerance the scheme must maintain per step.
_CONSISTENCY_TOL = 1e-14


@dataclass(frozen=True)
class TimeScheme:
    """Uniform time grid and coupling weight.

    Attributes:
        dt: time step, positive.
        n_steps: number of steps, nonnegative.
        theta: coupling weight; 1 solves the Stokes and diffusion problems
            together, 0 decouples them by lagging eta.
        T: final time; must equal n_steps * dt to relative 1e-12.
    """

    dt: float
    n_steps: int
    theta: int
    T: float = -1.0

    def __post_init__(self) -> None:
        for name in ("dt", "n_steps", "T"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.dt <= 0.0:
            raise ValueError(f"time step must be positive, got {self.dt}")
        if self.n_steps < 0:
            raise ValueError(f"step count must be nonnegative, got {self.n_steps}")
        if self.theta not in (0, 1):
            raise ValueError(f"coupling weight theta must be 0 or 1, got {self.theta}")
        if self.T < 0.0:
            object.__setattr__(self, "T", self.dt * self.n_steps)
        span = self.dt * self.n_steps
        if abs(span - self.T) > 1e-12 * max(1.0, abs(self.T)):
            raise ValueError(
                f"n_steps * dt = {span} does not reach the final time {self.T}"
            )

    @classmethod
    def from_final_time(cls, T: float, dt: float, theta: int) -> "TimeScheme":
        """Build the scheme covering [0, T]; T must be a multiple of dt."""
        if dt <= 0.0:
            raise ValueError(f"time step must be positive, got {dt}")
        ratio = T / dt
        # A non-finite T or dt is rejected, by name, when the scheme is built.
        n = int(round(ratio)) if np.isfinite(ratio) else 0
        return cls(dt=dt, n_steps=n, theta=theta, T=float(T))


@dataclass(frozen=True)
class GateReport:
    """Outcome of the advisory dt <= c_stab * h^2 check for theta = 0."""

    dt: float
    h: float
    c_stab: float
    threshold: float
    satisfied: bool

    def describe(self) -> str:
        word = "satisfied" if self.satisfied else "VIOLATED (advisory)"
        return (
            f"decoupled-step gate dt <= c_stab*h^2: dt={self.dt:.6g}, "
            f"c_stab={self.c_stab:.6g}, threshold={self.threshold:.6g} -> {word}"
        )


def evaluate_gate(
    scheme: TimeScheme,
    mesh: Mesh,
    params: MaterialParams,
    coeffs: DerivedCoeffs,
    c_stab: Optional[float] = None,
) -> GateReport:
    """Evaluate the parabolic step-size gate for the decoupled scheme.

    The default constant balances the lagged coupling term against the
    dissipation: c_stab = mu_f / (2 * mu * K * kappa1^2).
    """
    if c_stab is None:
        c_stab = 0.5 * params.mu_f / (params.mu * params.K * coeffs.kappa1**2)
    threshold = c_stab * mesh.h**2
    return GateReport(
        dt=scheme.dt,
        h=mesh.h,
        c_stab=float(c_stab),
        threshold=float(threshold),
        satisfied=bool(scheme.dt <= threshold),
    )


@dataclass(frozen=True, eq=False)
class FieldState:
    """All coefficient vectors at one time level.

    eta_theta is the eta level the Stokes solve of this step consumed
    (current eta for theta = 1, previous eta for theta = 0; the initial eta
    at level 0).  The stored pressure satisfies p = kappa1*xi +
    kappa2*eta_theta and the divergence q = kappa1*eta - kappa3*xi exactly.
    """

    t: float
    u: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    eta_theta: np.ndarray
    p: np.ndarray
    q: np.ndarray


class StepSystems:
    """Assembled operators, reductions and factorizations for one run.

    Built once per (benchmark, mesh, scheme); every step reuses the
    factorizations and only reassembles right-hand sides and boundary
    values.  The boundary data (which dofs are constrained) and the load
    assembler's quadrature tables are built once, at construction; each
    step evaluates only the closures.
    """

    def __init__(
        self,
        benchmark: Benchmark,
        mesh: Mesh,
        scheme: TimeScheme,
        dofmap: Optional[DofMap] = None,
        tolerance: float = DEFAULT_TOLERANCE,
    ) -> None:
        self.benchmark = benchmark
        self.mesh = mesh
        self.scheme = scheme
        self.tolerance = float(tolerance)
        self.dofmap = dofmap or DofMap.from_mesh(mesh)
        dm = self.dofmap
        prm = benchmark.params
        self.params = prm
        self.coeffs = benchmark.coeffs
        k1, k2, k3 = self.coeffs.kappa1, self.coeffs.kappa2, self.coeffs.kappa3

        self.A = assemble_elasticity(mesh, dm, prm.mu)
        self.B = assemble_div(mesh, dm)
        self.M = assemble_scalar_mass(mesh, dm)
        self.S = assemble_scalar_stiffness(mesh, dm, prm.K / prm.mu_f)

        self.boundary = build_constraints(mesh, dm, benchmark.bcs, self.coeffs)
        u_dofs = self.boundary.u_dofs
        pverts = self.boundary.pressure_vertices

        dt = scheme.dt
        self.solve_reports: list[LinearSolveReport] = []
        self.last_loads: Optional[tuple[np.ndarray, np.ndarray]] = None

        if scheme.theta == 1:
            mono = sp.bmat(
                [
                    [self.A, -self.B.T, None],
                    [self.B, k3 * self.M, -k1 * self.M],
                    [None, k1 * self.S, self.M / dt + k2 * self.S],
                ],
                format="csr",
            )
            slaves = np.concatenate([u_dofs, dm.eta_offset + pverts])
            masters = np.setdiff1d(np.arange(dm.n_monolithic, dtype=np.int64), slaves)
            coupling = None
            if pverts.size:
                # Substituting eta_b = (p_D - kappa1*xi_b)/kappa2 couples each
                # slave eta to its master xi.
                xi_cols = np.searchsorted(masters, dm.xi_offset + pverts)
                rows = np.arange(u_dofs.size, slaves.size, dtype=np.int64)
                coupling = sp.coo_matrix(
                    (np.full(pverts.size, -k1 / k2), (rows, xi_cols)),
                    shape=(slaves.size, masters.size),
                )
            self.reduced_mono = ReducedSystem(
                mono,
                masters=masters,
                keep_rows=masters,
                slaves=slaves,
                coupling=coupling,
                lag_rows=self.boundary.rigid_rows_padded(dm.n_monolithic),
            )
            self.fact_mono = factorize(self.reduced_mono.matrix)
        else:
            if k3 == 0.0 and _normal_component_fully_prescribed(benchmark.bcs):
                raise ValueError(
                    "decoupled scheme is singular for this problem: with zero "
                    "storage (kappa3 = 0) and the normal displacement "
                    "prescribed on the whole boundary, the Stokes step "
                    "determines xi only up to a constant; use the coupled "
                    "scheme (theta = 1) or a positive storage coefficient"
                )
            n1 = dm.n_step1
            saddle = sp.bmat(
                [[self.A, -self.B.T], [self.B, k3 * self.M]], format="csr"
            )
            masters1 = np.setdiff1d(np.arange(n1, dtype=np.int64), u_dofs)
            self.reduced_stokes = ReducedSystem(
                saddle,
                masters=masters1,
                keep_rows=masters1,
                slaves=u_dofs,
                lag_rows=self.boundary.rigid_rows_padded(n1),
            )
            self.fact_stokes = factorize(self.reduced_stokes.matrix)

            diffusion = (self.M / dt + k2 * self.S).tocsr()
            masters2 = np.setdiff1d(np.arange(dm.n_scalar, dtype=np.int64), pverts)
            self.reduced_diffusion = ReducedSystem(
                diffusion, masters=masters2, keep_rows=masters2, slaves=pverts
            )
            self.fact_diffusion = factorize(self.reduced_diffusion.matrix)

        # Built after the factorizations, so its tables do not add to their
        # memory peak.
        self.loads = LoadAssembler.build(mesh, dm, benchmark.sources, benchmark.bcs, prm)

    def boundary_values(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Dirichlet displacement values and pressure data at time t."""
        return self.boundary.values(t)

    def assemble_rhs(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        mech, flow = assemble_load(self.loads, t)
        self.last_loads = (mech, flow)
        return mech, flow

    def _solve(self, fact: Factorization, rhs: np.ndarray, label: str) -> np.ndarray:
        try:
            x, report = solve(fact, rhs, self.tolerance)
        except SolverFailureError as exc:
            raise SolverFailureError(f"{label}: {exc}", exc.report) from exc
        self.solve_reports.append(report)
        return x

    def estimate_decoupled_amplification(self, n_iters: int = 25) -> float:
        """Per-step growth factor of the decoupled scheme's homogeneous map.

        The new eta of a decoupled step is a fixed linear map of the old
        one (the displacement does not feed back); power iteration on that
        map with zero loads and zero boundary data estimates its spectral
        radius.  A value above one means the step amplifies errors
        geometrically no matter how small the time step: the nodal
        elimination of the boundary eta through the freshly computed xi
        can be unstable when the storage term is too weak to damp it.
        Only meaningful for theta = 0.
        """
        if self.scheme.theta != 0:
            raise ValueError("amplification estimate applies to theta = 0 only")
        dm = self.dofmap
        k1, k2 = self.coeffs.kappa1, self.coeffs.kappa2
        dt = self.scheme.dt
        pverts = self.boundary.pressure_vertices
        u_zero = np.zeros(self.boundary.u_dofs.size)
        vec = np.ones(dm.n_scalar) / np.sqrt(dm.n_scalar)
        ratios: list[float] = []
        for _ in range(n_iters):
            rhs1 = np.concatenate([np.zeros(dm.n_u), k1 * (self.M @ vec)])
            y1, _ = solve(
                self.fact_stokes, self.reduced_stokes.reduce_rhs(rhs1, u_zero),
                self.tolerance,
            )
            xi = self.reduced_stokes.expand(y1, u_zero)[dm.n_u:]
            rhs2 = self.M @ vec / dt - k1 * (self.S @ xi)
            eta_values = -(k1 / k2) * xi[pverts] if pverts.size else np.zeros(0)
            y2, _ = solve(
                self.fact_diffusion,
                self.reduced_diffusion.reduce_rhs(rhs2, eta_values),
                self.tolerance,
            )
            new = self.reduced_diffusion.expand(y2, eta_values)
            norm = float(np.linalg.norm(new))
            if norm == 0.0:
                return 0.0
            ratios.append(norm)
            vec = new / norm
        tail = ratios[-5:]
        return float(np.exp(np.mean(np.log(tail))))


def _interleave(values: np.ndarray) -> np.ndarray:
    """(n, 2) nodal vector field -> interleaved dof vector of length 2n."""
    return np.asarray(values, dtype=float).reshape(-1)


_NORMAL_COMPONENT = {
    BoundarySegment.LEFT: 0,
    BoundarySegment.RIGHT: 0,
    BoundarySegment.BOTTOM: 1,
    BoundarySegment.TOP: 1,
}


def _normal_component_fully_prescribed(bcs) -> bool:
    """True when u . n is Dirichlet on every boundary side.

    In that case no discrete displacement test function carries boundary
    flux, so constant xi lies in the kernel of the divergence coupling.
    """
    return all(
        bcs.mechanical[seg].dirichlet[comp] is not None
        for seg, comp in _NORMAL_COMPONENT.items()
    )


def init_state(
    benchmark: Benchmark,
    mesh: Mesh,
    dofmap: Optional[DofMap] = None,
    systems: Optional[StepSystems] = None,
) -> FieldState:
    """Discrete initial data.

    The displacement is the elliptic projection of the initial field: it
    matches the strain energy of the nodal interpolant, satisfies the t=0
    Dirichlet values, and (for pure-traction problems) is orthogonal to the
    rigid motions.  The initial pressure and divergence are L2 projections;
    eta and xi follow coefficientwise from the change of variables, and the
    stored p, q are re-derived from them so the state identities hold
    exactly.

    A run passes its StepSystems, whose operators, boundary data and
    quadrature tables are then reused; without it they are built here.
    """
    prm = benchmark.params
    coeffs = benchmark.coeffs
    if systems is not None:
        dofmap = systems.dofmap
        A, M, boundary = systems.A, systems.M, systems.boundary
        quadrature = systems.loads.quadrature
    else:
        dofmap = dofmap or DofMap.from_mesh(mesh)
        A = assemble_elasticity(mesh, dofmap, prm.mu)
        M = assemble_scalar_mass(mesh, dofmap)
        boundary = build_constraints(mesh, dofmap, benchmark.bcs, coeffs)
        quadrature = DomainQuadrature.from_mesh(mesh, dofmap)

    coords = mesh.p2_node_coords()
    u_interp = _interleave(benchmark.u0(coords, 0.0))
    u_values, _ = boundary.values(0.0)
    masters = np.setdiff1d(np.arange(dofmap.n_u, dtype=np.int64), boundary.u_dofs)
    system = ReducedSystem(
        A, masters=masters, keep_rows=masters, slaves=boundary.u_dofs,
        lag_rows=boundary.rigid_rows,
    )
    fact = factorize(system.matrix)
    y, _ = solve(fact, system.reduce_rhs(A @ u_interp, u_values), DEFAULT_TOLERANCE)
    u0 = system.expand(y, u_values)

    mass_fact = factorize(M)
    p_load = assemble_domain_load(quadrature, benchmark.p0, 0.0, space="scalar")
    q_load = assemble_domain_load(quadrature, benchmark.div_u0, 0.0, space="scalar")
    p0, _ = solve(mass_fact, p_load, DEFAULT_TOLERANCE)
    q0, _ = solve(mass_fact, q_load, DEFAULT_TOLERANCE)

    eta0 = prm.c0 * p0 + prm.alpha * q0
    xi0 = prm.alpha * p0 - prm.lam * q0
    return FieldState(
        t=0.0,
        u=u0,
        xi=xi0,
        eta=eta0,
        eta_theta=eta0.copy(),
        p=coeffs.kappa1 * xi0 + coeffs.kappa2 * eta0,
        q=coeffs.kappa1 * eta0 - coeffs.kappa3 * xi0,
    )


def step_coupled(state: FieldState, scheme: TimeScheme, systems: StepSystems) -> FieldState:
    """One monolithic (theta = 1) step from state.t to state.t + dt."""
    dm = systems.dofmap
    k1, k2, k3 = systems.coeffs.kappa1, systems.coeffs.kappa2, systems.coeffs.kappa3
    dt = scheme.dt
    t_next = state.t + dt
    label = f"coupled step to t={t_next:.6g}"

    mech, flow = systems.assemble_rhs(t_next)
    rhs = np.concatenate(
        [mech, np.zeros(dm.n_scalar), systems.M @ state.eta / dt + flow]
    )
    u_values, p_data = systems.boundary_values(t_next)
    slave_values = np.concatenate([u_values, p_data / k2])
    red = systems.reduced_mono
    y = systems._solve(systems.fact_mono, red.reduce_rhs(rhs, slave_values), label)
    x = red.expand(y, slave_values)

    u = x[: dm.n_u]
    xi = x[dm.xi_offset : dm.eta_offset]
    eta = x[dm.eta_offset :]
    return FieldState(
        t=t_next,
        u=u,
        xi=xi,
        eta=eta,
        eta_theta=eta.copy(),
        p=k1 * xi + k2 * eta,
        q=k1 * eta - k3 * xi,
    )


def step_decoupled(state: FieldState, scheme: TimeScheme, systems: StepSystems) -> FieldState:
    """One decoupled (theta = 0) step: Stokes solve with lagged eta, then
    the diffusion solve for the new eta."""
    dm = systems.dofmap
    k1, k2, k3 = systems.coeffs.kappa1, systems.coeffs.kappa2, systems.coeffs.kappa3
    dt = scheme.dt
    t_next = state.t + dt

    mech, flow = systems.assemble_rhs(t_next)
    u_values, p_data = systems.boundary_values(t_next)

    rhs1 = np.concatenate([mech, k1 * (systems.M @ state.eta)])
    red1 = systems.reduced_stokes
    y1 = systems._solve(
        systems.fact_stokes,
        red1.reduce_rhs(rhs1, u_values),
        f"decoupled Stokes step to t={t_next:.6g}",
    )
    x1 = red1.expand(y1, u_values)
    u = x1[: dm.n_u]
    xi = x1[dm.n_u :]

    rhs2 = systems.M @ state.eta / dt + flow - k1 * (systems.S @ xi)
    eta_values = (p_data - k1 * xi[systems.boundary.pressure_vertices]) / k2
    red2 = systems.reduced_diffusion
    y2 = systems._solve(
        systems.fact_diffusion,
        red2.reduce_rhs(rhs2, eta_values),
        f"decoupled diffusion step to t={t_next:.6g}",
    )
    eta = red2.expand(y2, eta_values)

    return FieldState(
        t=t_next,
        u=u,
        xi=xi,
        eta=eta,
        eta_theta=state.eta.copy(),
        p=k1 * xi + k2 * state.eta,
        q=k1 * eta - k3 * xi,
    )


@dataclass
class RunResult:
    """A completed time integration with its diagnostics stream.

    states holds the full trajectory when keep_states was set, otherwise
    just the initial and (when stepped) final states.
    """

    benchmark: Benchmark
    mesh: Mesh
    scheme: TimeScheme
    dofmap: DofMap
    states: list[FieldState]
    records: list[DiagnosticsRecord]
    energy: list[EnergyRecord]
    conservation: list[ConservedQuantities]
    errors: Optional[ErrorReport]
    gate: Optional[GateReport]
    time_independent_loads: bool
    max_solver_residual: float
    solve_count: int = 0
    decoupled_amplification: Optional[float] = None

    @property
    def initial_state(self) -> FieldState:
        return self.states[0]

    @property
    def final_state(self) -> FieldState:
        return self.states[-1]


def run(
    benchmark: Benchmark,
    mesh: Mesh,
    scheme: TimeScheme,
    *,
    dofmap: Optional[DofMap] = None,
    keep_states: bool = False,
    compute_errors="auto",
    c_stab: Optional[float] = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> RunResult:
    """Integrate a benchmark over [0, T] and collect per-step diagnostics.

    Every step records the energy identity level, conservation residuals
    (where the boundary conditions make them applicable), and, when exact
    closures are available and errors are requested, instantaneous error
    norms.  The coefficient identities for p and q are enforced to 1e-14
    after every step.
    """
    dofmap = dofmap or DofMap.from_mesh(mesh)
    systems = StepSystems(benchmark, mesh, scheme, dofmap, tolerance=tolerance)
    coeffs = systems.coeffs

    gate = None
    amplification = None
    if scheme.theta == 0:
        gate = evaluate_gate(scheme, mesh, benchmark.params, coeffs, c_stab)
        if not gate.satisfied:
            warnings.warn(
                f"decoupled scheme outside its advisory step-size gate: "
                f"dt={gate.dt:.6g} > {gate.threshold:.6g}",
                stacklevel=2,
            )
        if systems.boundary.pressure_vertices.size and scheme.n_steps > 0:
            amplification = systems.estimate_decoupled_amplification()
            if amplification > 1.000001:
                warnings.warn(
                    f"decoupled scheme amplifies errors by a factor of "
                    f"{amplification:.3g} per step for this problem "
                    f"(independent of the step size): the nodal elimination "
                    f"of boundary eta values is unstable for these material "
                    f"parameters; use theta=1",
                    stacklevel=2,
                )

    state = init_state(benchmark, mesh, dofmap, systems=systems)

    mech0, flow0 = assemble_load(systems.loads, state.t)
    mech_end, flow_end = assemble_load(systems.loads, state.t + scheme.T)
    time_independent = bool(
        np.allclose(mech0, mech_end, rtol=1e-12, atol=1e-14)
        and np.allclose(flow0, flow_end, rtol=1e-12, atol=1e-14)
    )

    if systems.boundary.rigid_rows is not None:
        # Pure-traction mechanics: the load must do no work on rigid
        # motions, else the continuous problem has no solution and the
        # multiplier silently absorbs the imbalance.
        basis = rigid_motion_basis(mesh, dofmap)
        scale = np.linalg.norm(mech0) * np.linalg.norm(basis, axis=1)
        worst = float(np.max(np.abs(basis @ mech0) / np.maximum(1.0, scale)))
        if worst > 1e-10:
            warnings.warn(
                f"pure-traction load is incompatible with rigid motions "
                f"(relative imbalance {worst:.3e})",
                stacklevel=2,
            )

    auditor = EnergyAuditor(
        systems.A, systems.M, systems.S, mech0, flow0, coeffs, scheme.theta, scheme.dt
    )
    auditor.ingest(state)
    tracker = ConservationTracker(benchmark, mesh, dofmap, systems.M, scheme.theta)
    tracker.start(state)

    want_errors = (
        compute_errors is True
        or (compute_errors == "auto" and benchmark.exact_u is not None and benchmark.exact_p is not None)
    )
    evaluator = (
        ErrorEvaluator(benchmark, mesh, dofmap, systems.loads.quadrature)
        if want_errors else None
    )
    times: list[float] = []
    history: dict[str, list[float]] = {}

    def observe_errors(st: FieldState) -> dict[str, float]:
        if evaluator is None:
            return {}
        errs = evaluator.evaluate(st)
        times.append(st.t)
        for key, val in errs.items():
            history.setdefault(key, []).append(val)
        return errs

    observe_errors(state)

    states = [state]
    records: list[DiagnosticsRecord] = []
    energy: list[EnergyRecord] = []
    conservation: list[ConservedQuantities] = []
    step_fn = step_coupled if scheme.theta == 1 else step_decoupled

    for n in range(1, scheme.n_steps + 1):
        state = step_fn(state, scheme, systems)
        p_res, q_res = check_state_consistency(state, coeffs)
        if max(p_res, q_res) > _CONSISTENCY_TOL:
            raise RuntimeError(
                f"step {n}: coefficient identities violated "
                f"(p residual {p_res:.3e}, q residual {q_res:.3e})"
            )
        erec = auditor.ingest(state)
        energy.append(erec)
        mech, flow = systems.last_loads
        refs = tracker.advance(state, scheme.dt, mech, flow)
        conservation.append(refs)
        residuals = check_conservation(state, refs)
        errs = observe_errors(state)
        records.append(
            DiagnosticsRecord(
                step=n,
                t=state.t,
                J=erec.J,
                s_cum=erec.s_cum,
                energy_residual=erec.residual,
                c_eta_res=residuals.eta,
                c_xi_res=residuals.xi,
                flux_res=residuals.flux,
                err_u_L2=errs.get("u_L2"),
                err_u_H1=errs.get("u_H1"),
                err_p_L2=errs.get("p_L2"),
                err_p_H1=errs.get("p_H1"),
            )
        )
        if keep_states:
            states.append(state)
    if not keep_states and scheme.n_steps > 0:
        states.append(state)

    errors = summarize_error_history(times, history) if evaluator is not None else None
    reports = systems.solve_reports
    max_residual = max((r.relative_residual for r in reports), default=0.0)
    return RunResult(
        benchmark=benchmark,
        mesh=mesh,
        scheme=scheme,
        dofmap=dofmap,
        states=states,
        records=records,
        energy=energy,
        conservation=conservation,
        errors=errors,
        gate=gate,
        time_independent_loads=time_independent,
        max_solver_residual=max_residual,
        solve_count=len(reports),
        decoupled_amplification=amplification,
    )
