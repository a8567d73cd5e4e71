"""Time integration of the reformulated poroelastic system.

Each step solves a generalized Stokes problem for the displacement and the
total-pressure-like variable xi, and a diffusion problem for the mass-like
variable eta.  With coupling weight theta = 1 both solves are performed
monolithically; with theta = 0 the diffusion step uses the previous eta in
the Stokes step, decoupling the two solves at the cost of a parabolic
time-step restriction (advisory, not enforced).

A state holds only the solved unknowns.  The physical pressure and the
displacement divergence are derived from them when read, as
p = kappa1*xi + kappa2*eta_lag and q = kappa1*eta - kappa3*xi, where
eta_lag is the eta level the Stokes step actually used.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
from typing import Collection, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .assembly import (
    BoundaryData,
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
    check_eta_elimination,
    nested_dissection,
    rigid_motion_basis,
)
from .diagnostics import (
    ConservationTracker,
    DiagnosticsRecord,
    EnergyAuditor,
    EnergyRecord,
    ConservedQuantities,
    ErrorEvaluator,
    VariableNorms,
    summarize_error_history,
)
from .mesh import BoundarySegment, Mesh
from .model import Benchmark, MaterialParams, DerivedCoeffs, pq_from_xieta, xieta_from_pq
from .solver import (
    DEFAULT_TOLERANCE,
    Factorization,
    LinearSolveReport,
    SingularMatrixError,
    SolverFailureError,
    factorize,
    solve,
)

__all__ = [
    "Discretization",
    "TimeScheme",
    "FactorizationRecord",
    "LinearSystem",
    "LinearSolves",
    "InitialData",
    "GateReport",
    "evaluate_gate",
    "FieldState",
    "StepSystems",
    "check_scheme",
    "init_state",
    "step_coupled",
    "step_decoupled",
    "RunResult",
    "run",
    "UNSTABLE_AMPLIFICATION",
]

# Power iterations of the decoupled amplification estimate; the growth
# factor is the geometric mean of the last five ratios.
_AMPLIFICATION_ITERS = 25

# A decoupled amplification estimate above this is a step that amplifies
# errors: run() warns and run.log's verdict reads UNSTABLE.
UNSTABLE_AMPLIFICATION = 1.000001


@dataclass(frozen=True)
class TimeScheme:
    """Uniform time grid and coupling weight.

    Attributes:
        dt: time step, positive.
        n_steps: number of steps, an integer in [0, 2**63 - 1].
        theta: coupling weight; 1 solves the Stokes and diffusion problems
            together, 0 decouples them by lagging eta.
        T: final time; must equal n_steps * dt to relative 1e-12.
    """

    dt: float
    n_steps: int
    theta: int
    T: float = -1.0

    def __post_init__(self) -> None:
        for name in ("dt", "T"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        n = self.n_steps
        if not (isinstance(n, (int, np.integer)) and 0 <= n < 2**63):
            shown = f"{n:.6g}" if isinstance(n, numbers.Real) else repr(n)
            raise ValueError(
                f"n_steps must be finite, a nonnegative integer at most 2**63 - 1, got {shown}"
            )
        if self.dt <= 0.0:
            raise ValueError(f"time step must be positive, got {self.dt}")
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
        # A non-finite T or dt is rejected, by name, when the scheme is built;
        # a T / dt past the float range, as a step count.
        n = int(round(ratio)) if np.isfinite(ratio) else ratio
        return cls(dt=dt, n_steps=n, theta=theta, T=float(T))


@dataclass(frozen=True)
class GateReport:
    """Outcome of the advisory dt <= c_stab * h^2 check for theta = 0."""

    dt: float
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
        c_stab=float(c_stab),
        threshold=float(threshold),
        satisfied=bool(scheme.dt <= threshold),
    )


@dataclass(frozen=True)
class FactorizationRecord:
    """Size and fill of one factorization of a run."""

    label: str
    unknowns: int
    lu_nnz: int


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """One prepared linear system: its reduction and the factorization of
    the reduced matrix (StepSystems.prepare)."""

    reduced: ReducedSystem
    factorization: Factorization


@dataclass(frozen=True, eq=False)
class FieldState:
    """The solved coefficient vectors at one time level.

    eta_theta is the eta level the Stokes solve of this step consumed
    (current eta for theta = 1, previous eta for theta = 0; the initial eta
    at level 0).  The pressure p and the divergence q are not stored: each
    read derives them from xi, eta, eta_theta and the coefficients
    (pq_from_xieta), so they cannot disagree with the unknowns.  No array
    of a state is written after it is built.
    """

    t: float
    u: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    eta_theta: np.ndarray
    coeffs: DerivedCoeffs

    @property
    def p(self) -> np.ndarray:
        """Pressure kappa1*xi + kappa2*eta_theta."""
        return pq_from_xieta(self.xi, self.eta_theta, self.coeffs)[0]

    @property
    def q(self) -> np.ndarray:
        """Displacement divergence kappa1*eta - kappa3*xi."""
        return pq_from_xieta(self.xi, self.eta, self.coeffs)[1]


@dataclass(frozen=True, eq=False)
class Discretization:
    """The operators and quadrature tables of one mesh, shared by every run
    on it.  A carries mu and S the mobility K/mu_f; no other parameter and
    no closure enters, so all runs whose benchmarks have those two values
    (the c0 values of a sweep, say) can share one instance.
    """

    mesh: Mesh
    dofmap: DofMap
    grid: np.ndarray  # dofmap.grid_index(), which orders every factorization
    mu: float
    mobility: float
    A: sp.csr_matrix
    B: sp.csr_matrix
    M: sp.csr_matrix
    S: sp.csr_matrix
    quadrature: DomainQuadrature

    @classmethod
    def build(cls, mesh: Mesh, params: MaterialParams) -> "Discretization":
        dm = DofMap.from_mesh(mesh)
        mobility = params.K / params.mu_f
        return cls(
            mesh, dm, dm.grid_index(), params.mu, mobility,
            assemble_elasticity(mesh, dm, params.mu),
            assemble_div(mesh, dm),
            assemble_scalar_mass(mesh, dm),
            assemble_scalar_stiffness(mesh, dm, mobility),
            DomainQuadrature.from_mesh(mesh, dm),
        )


class LinearSolves:
    """The one path from a matrix to a solution: prepare reduces and
    factorizes a system, solve solves it at one tolerance.  The size and
    fill of every factorization and the report of every solve are
    recorded.  The caller keeps a prepared system as long as it solves
    with it; nothing here holds a factor.
    """

    def __init__(self, tolerance: float = DEFAULT_TOLERANCE) -> None:
        self.tolerance = float(tolerance)
        self.solve_reports: list[LinearSolveReport] = []
        self.factorizations: list[FactorizationRecord] = []

    def prepare(
        self, label: str, matrix: sp.spmatrix, grid: np.ndarray, slaves: np.ndarray,
        coupling: Optional[sp.spmatrix] = None, lag_rows: Optional[sp.spmatrix] = None,
    ) -> LinearSystem:
        """The reduction of one system (see ReducedSystem), and its
        factorization in nested-dissection order of its masters' grid
        positions, Lagrange rows last; its size and fill are recorded under
        the label, and a failure names it.  A matrix the caller does not
        hold is freed before the factorization starts."""
        reduced = ReducedSystem(matrix, slaves=slaves, coupling=coupling, lag_rows=lag_rows)
        del matrix
        n_masters = reduced.masters.size
        order = np.concatenate(
            [nested_dissection(grid[reduced.masters]), n_masters + np.arange(reduced.n_lag)]
        )
        try:
            fact = factorize(reduced.matrix, order)
        except SingularMatrixError as exc:
            raise SingularMatrixError(f"{label}: {exc}", exc.row) from exc
        self.factorizations.append(FactorizationRecord(label, fact.shape[0], fact.lu_nnz))
        return LinearSystem(reduced, fact)

    def solve(
        self, system: LinearSystem, rhs: np.ndarray, slave_values: np.ndarray, label: str
    ) -> np.ndarray:
        """Full solution of one prepared system at the tolerance; the
        solve's report is recorded, and a failure names the label."""
        reduced_rhs = system.reduced.reduce_rhs(rhs, slave_values)
        try:
            y, report = solve(system.factorization, reduced_rhs, self.tolerance)
        except SolverFailureError as exc:
            raise SolverFailureError(f"{label}: {exc}", exc.report) from exc
        self.solve_reports.append(report)
        return system.reduced.expand(y, slave_values)


class StepSystems(LinearSolves):
    """Block matrices, reductions and factorizations for one run.

    Built once per (benchmark, discretization, scheme), on the boundary
    data init_state built for the run; every step reuses the
    factorizations and only reassembles right-hand sides and boundary
    values.  The load closures are set up once, at construction; each step
    evaluates only the closures.  A discretization built for another mu or
    K/mu_f than the benchmark's is refused with ValueError, and so is one
    that check_scheme refuses.  Every system is prepared and solved
    through LinearSolves.
    """

    def __init__(
        self,
        benchmark: Benchmark,
        discretization: Discretization,
        scheme: TimeScheme,
        boundary: BoundaryData,
        tolerance: float = DEFAULT_TOLERANCE,
    ) -> None:
        super().__init__(tolerance)
        disc = discretization
        prm = benchmark.params
        if (prm.mu, prm.K / prm.mu_f) != (disc.mu, disc.mobility):
            raise ValueError(
                f"the discretization carries mu, K/mu_f = {disc.mu:.17g}, "
                f"{disc.mobility:.17g}, the benchmark {prm.mu:.17g}, {prm.K / prm.mu_f:.17g}"
            )
        self.benchmark = benchmark
        self.discretization = disc
        self.scheme = scheme
        dm = disc.dofmap
        self.coeffs = benchmark.coeffs
        k1, k2, k3 = self.coeffs.kappa1, self.coeffs.kappa2, self.coeffs.kappa3
        A, B, M, S = disc.A, disc.B, disc.M, disc.S

        check_scheme(benchmark, scheme.theta)
        self.boundary = boundary
        u_dofs = boundary.u_dofs
        pverts = boundary.pressure_vertices

        dt = scheme.dt
        rigid = boundary.rigid_rows
        # Each block matrix is built in the call that reduces it, so that
        # only its reduction is alive while the reduction is factorized.
        if scheme.theta == 1:
            slaves = np.concatenate([u_dofs, dm.eta_offset + pverts])
            coupling = None
            if pverts.size:
                # Substituting eta_b = (p_D - kappa1*xi_b)/kappa2 couples each
                # slave eta to its master xi.
                rows = np.arange(u_dofs.size, slaves.size, dtype=np.int64)
                coupling = sp.coo_matrix(
                    (np.full(pverts.size, -k1 / k2), (rows, dm.xi_offset + pverts)),
                    shape=(slaves.size, dm.n_monolithic),
                )
            self.coupled = self.prepare(
                "coupled system",
                sp.bmat(
                    [
                        [A, -B.T, None],
                        [B, k3 * M, -k1 * M],
                        [None, k1 * S, M / dt + k2 * S],
                    ],
                    format="csr",
                ),
                disc.grid, slaves, coupling, rigid,
            )
        else:
            self.stokes = self.prepare(
                "Stokes system", sp.bmat([[A, -B.T], [B, k3 * M]], format="csr"),
                disc.grid[: dm.n_step1], u_dofs, lag_rows=rigid,
            )
            self.diffusion = self.prepare(
                "diffusion system", (M / dt + k2 * S).tocsr(),
                disc.grid[dm.xi_offset : dm.eta_offset], pverts,
            )

        self.loads = LoadAssembler.build(disc.mesh, dm, disc.quadrature, benchmark.sources,
                                         benchmark.bcs, prm)

    def boundary_values(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Dirichlet displacement values and pressure data at time t."""
        return self.boundary.values(t)

    def estimate_decoupled_amplification(self) -> float:
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
        dm = self.discretization.dofmap
        mech, flow = np.zeros(dm.n_u), np.zeros(dm.n_scalar)
        u_values = np.zeros(self.boundary.u_dofs.size)
        p_data = np.zeros(self.boundary.pressure_vertices.size)
        vec = np.ones(dm.n_scalar) / np.sqrt(dm.n_scalar)
        ratios: list[float] = []
        for _ in range(_AMPLIFICATION_ITERS):
            _, _, new = _decoupled_solves(
                self, vec, mech, flow, u_values, p_data, "solve of the amplification estimate"
            )
            norm = float(np.linalg.norm(new))
            if norm == 0.0:
                return 0.0
            ratios.append(norm)
            vec = new / norm
        tail = ratios[-5:]
        return float(np.exp(np.mean(np.log(tail))))


def check_scheme(benchmark: Benchmark, theta: int) -> None:
    """Refuse, with ValueError, a benchmark that the scheme with coupling
    weight theta cannot step on any mesh.

    Pressure-Dirichlet data need kappa2 > 0 (check_eta_elimination).  With
    zero storage (kappa3 = 0) and u . n Dirichlet on every side, no
    displacement test function carries boundary flux, so constant xi lies
    in the kernel of the decoupled Stokes step.  The decoupled step-size
    gate (evaluate_gate) divides by mu*K*kappa1**2, which must not vanish.
    """
    check_eta_elimination(benchmark.bcs, benchmark.coeffs)
    prm, kappa1 = benchmark.params, benchmark.coeffs.kappa1
    if theta == 0 and prm.mu * prm.K * kappa1**2 == 0.0:
        raise ValueError(
            f"decoupled scheme's step-size gate c_stab = mu_f/(2*mu*K*kappa1**2) divides by "
            f"zero: mu*K*kappa1**2 underflows (mu = {prm.mu}, K = {prm.K}, "
            f"kappa1 = alpha/(alpha*alpha + lam*c0) = {kappa1:.6g}); use the coupled scheme "
            "(theta = 1)"
        )
    if theta == 0 and benchmark.coeffs.kappa3 == 0.0 and all(
        closure is not None
        for seg in BoundarySegment
        for closure, n in zip(benchmark.bcs.mechanical[seg].dirichlet, seg.normal)
        if n
    ):
        raise ValueError(
            "decoupled scheme is singular for this problem: with zero storage (kappa3 = 0) "
            "and the normal displacement prescribed on the whole boundary, the Stokes step "
            "determines xi only up to a constant; use the coupled scheme (theta = 1) or a "
            "positive storage coefficient"
        )


@dataclass(frozen=True, eq=False)
class InitialData:
    """A run's boundary data and its initial state (init_state)."""

    boundary: BoundaryData
    state: FieldState


def init_state(
    benchmarks: Sequence[Benchmark], discretization: Discretization, solves: LinearSolves
) -> list[InitialData]:
    """Discrete initial data of runs on one discretization, each with the
    boundary data it starts under.

    The displacement is the nodal interpolant u_I of the initial field, with
    no solve.  It is the elliptic projection of itself: the projection
    solves A_ff x = (A u_I)_f - A_fs g, and when g, the t = 0 Dirichlet
    values, equals u_I on the Dirichlet dofs (and, for pure-traction
    problems, u_I is orthogonal to the rigid motions) its solution is
    (u_I)_f.  A benchmark whose u_I breaks either condition is refused with
    ValueError.  The initial pressure is an L2 projection, and q0 = 0
    since u0 is divergence-free (Benchmark.u0).  eta and xi follow
    coefficientwise from the change of variables; the state derives p and
    q back from them.

    The pressure projection does not depend on the kappas or the
    constraints, so M is factorized once for all the benchmarks, each
    solving with its own data; that factor is dropped before this returns,
    so it is not live while a step system is factorized.
    """
    disc = discretization
    dm = disc.dofmap
    coords = disc.mesh.p2_node_coords()
    boundaries, u0s = [], []
    for bench in benchmarks:
        boundary = build_constraints(disc.mesh, dm, bench.bcs, bench.coeffs)
        u0 = np.asarray(bench.u0(coords, 0.0), dtype=float).reshape(-1)  # interleaved
        g = boundary.values(0.0)[0]
        if not np.array_equal(u0[boundary.u_dofs], g):
            gap = np.abs(u0[boundary.u_dofs] - g)
            raise ValueError(
                f"benchmark {bench.name!r}: the initial displacement u0(x, 0) differs from "
                f"the t = 0 Dirichlet data at {np.count_nonzero(gap != 0)} of "
                f"{gap.size} prescribed dofs (max |difference| {np.max(gap):.3e}); "
                "a run starts from the interpolant of u0, which must meet that data"
            )
        rigid = boundary.rigid_rows @ u0 if boundary.rigid_rows is not None else np.zeros(0)
        if np.any(rigid):
            raise ValueError(
                f"benchmark {bench.name!r}: the initial displacement u0(x, 0) is not "
                f"orthogonal to the rigid motions (max |(r_i, u0)| {np.max(np.abs(rigid)):.3e}); "
                "a pure-traction run starts from the interpolant of u0, which must be"
            )
        boundaries.append(boundary)
        u0s.append(u0)

    none = np.empty(0)
    mass = solves.prepare(
        "initial mass projections", disc.M, disc.grid[dm.xi_offset : dm.eta_offset], none
    )
    p0s = [
        solves.solve(
            mass, assemble_domain_load(disc.quadrature, bench.p0, 0.0, space="scalar"), none,
            "initial pressure projection",
        )
        for bench in benchmarks
    ]

    initial = []
    for bench, boundary, u0, p0 in zip(benchmarks, boundaries, u0s, p0s):
        xi0, eta0 = xieta_from_pq(p0, np.zeros_like(p0), bench.params)
        initial.append(
            InitialData(boundary, FieldState(0.0, u0, xi0, eta0, eta0, bench.coeffs))
        )
    return initial


def step_coupled(
    state: FieldState, systems: StepSystems, mech: np.ndarray, flow: np.ndarray
) -> FieldState:
    """One monolithic (theta = 1) step from state.t to state.t + dt, with
    the loads mech, flow assembled at state.t + dt."""
    disc = systems.discretization
    dm = disc.dofmap
    dt = systems.scheme.dt
    t_next = state.t + dt

    rhs = np.concatenate(
        [mech, np.zeros(dm.n_scalar), disc.M @ state.eta / dt + flow]
    )
    u_values, p_data = systems.boundary_values(t_next)
    slave_values = np.concatenate([u_values, p_data / systems.coeffs.kappa2])
    x = systems.solve(systems.coupled, rhs, slave_values, f"coupled step to t={t_next:.6g}")
    eta = x[dm.eta_offset :]
    return FieldState(
        t_next, x[: dm.n_u], x[dm.xi_offset : dm.eta_offset], eta, eta, systems.coeffs
    )


def _decoupled_solves(
    systems: StepSystems,
    eta_prev: np.ndarray,
    mech: np.ndarray,
    flow: np.ndarray,
    u_values: np.ndarray,
    p_data: np.ndarray,
    label: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The decoupled step map: the Stokes solve with eta lagged at eta_prev,
    then the diffusion solve for the new eta.  Returns (u, xi, eta)."""
    disc = systems.discretization
    dm = disc.dofmap
    k1, k2 = systems.coeffs.kappa1, systems.coeffs.kappa2
    rhs1 = np.concatenate([mech, k1 * (disc.M @ eta_prev)])
    x1 = systems.solve(systems.stokes, rhs1, u_values, f"decoupled Stokes {label}")
    xi = x1[dm.n_u :]
    rhs2 = disc.M @ eta_prev / systems.scheme.dt + flow - k1 * (disc.S @ xi)
    eta_values = (p_data - k1 * xi[systems.boundary.pressure_vertices]) / k2
    eta = systems.solve(systems.diffusion, rhs2, eta_values, f"decoupled diffusion {label}")
    return x1[: dm.n_u], xi, eta


def step_decoupled(
    state: FieldState, systems: StepSystems, mech: np.ndarray, flow: np.ndarray
) -> FieldState:
    """One decoupled (theta = 0) step: Stokes solve with lagged eta, then
    the diffusion solve for the new eta; mech, flow as for step_coupled."""
    t_next = state.t + systems.scheme.dt
    u_values, p_data = systems.boundary_values(t_next)
    u, xi, eta = _decoupled_solves(
        systems, state.eta, mech, flow, u_values, p_data, f"step to t={t_next:.6g}"
    )
    return FieldState(t_next, u, xi, eta, state.eta, systems.coeffs)


@dataclass
class RunResult:
    """A completed time integration with its diagnostics stream.

    states holds the states at the steps run() was asked to keep, in step
    order.  conservation is empty unless the flow boundary is pure Neumann
    (ConservationTracker).
    """

    states: list[FieldState]
    records: list[DiagnosticsRecord]
    energy: list[EnergyRecord]
    conservation: list[ConservedQuantities]
    errors: Optional[dict[str, VariableNorms]]
    gate: Optional[GateReport]
    time_independent_loads: bool
    max_solver_residual: float
    factorizations: tuple[FactorizationRecord, ...]
    solve_count: int = 0
    decoupled_amplification: Optional[float] = None


def _check_rigid_balance(
    rigid: np.ndarray, n: int, t: float, mech: np.ndarray
) -> Optional[np.ndarray]:
    """The rigid-motion rows to check later loads against, or None once a
    load doing work on a rigid motion has been named (warned once)."""
    scale = np.linalg.norm(mech) * np.linalg.norm(rigid, axis=1)
    worst = float(np.max(np.abs(rigid @ mech) / np.maximum(1.0, scale)))
    if worst <= 1e-10:
        return rigid
    warnings.warn(
        f"pure-traction load is incompatible with rigid motions from "
        f"step {n} (t={t:.6g}) on (relative imbalance {worst:.3e})",
        stacklevel=3,
    )
    return None


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    """np.allclose(a, b, rtol=1e-12, atol=1e-14) for finite a, b, without
    its broadcasting and special-value passes."""
    return bool(np.all(np.abs(a - b) <= 1e-14 + 1e-12 * np.abs(b)))


def run(
    benchmark: Benchmark,
    discretization: Discretization,
    scheme: TimeScheme,
    *,
    keep_steps: Collection[int] = (0, -1),
    compute_errors: bool = True,
    c_stab: Optional[float] = None,
    tolerance: float = DEFAULT_TOLERANCE,
    initial: Optional[InitialData] = None,
) -> RunResult:
    """Integrate a benchmark over [0, T] and collect per-step diagnostics.

    Every step records the energy identity level, conservation residuals
    (for a pure-Neumann flow boundary), and, when exact closures are
    available and errors are requested, instantaneous error norms.  Every
    step's loads are compared with t = 0's and, for pure traction, checked
    against the rigid motions.

    keep_steps names the states result.states keeps: indices into the
    trajectory of n_steps + 1 states, negative ones counting from its end
    as for a sequence.  The default keeps the initial and final states, and
    range(n_steps + 1) keeps all; a state no caller reads is not held.

    The run starts from `initial` when a caller built it together with
    other runs' (init_state); otherwise it builds its own initial data
    first, before it factorizes its step systems.
    """
    disc = discretization
    levels = range(scheme.n_steps + 1)
    try:
        kept = {levels[k] for k in keep_steps}
    except IndexError:
        raise ValueError(
            f"keep_steps must index the {len(levels)} states of the run, "
            f"got {sorted(keep_steps)}"
        ) from None
    projections = LinearSolves(tolerance)
    if initial is None:
        (initial,) = init_state([benchmark], disc, projections)
    systems = StepSystems(benchmark, disc, scheme, initial.boundary, tolerance=tolerance)
    mesh, dofmap = disc.mesh, disc.dofmap
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
            if amplification > UNSTABLE_AMPLIFICATION:
                warnings.warn(
                    f"decoupled scheme amplifies errors by a factor of "
                    f"{amplification:.3g} per step for this problem "
                    f"(independent of the step size): the nodal elimination "
                    f"of boundary eta values is unstable for these material "
                    f"parameters; use theta=1",
                    stacklevel=2,
                )

    state = initial.state
    mech0, flow0 = assemble_load(systems.loads, state.t)
    # The loads are steady while every step's equal t = 0's.  A pure-traction
    # load must do no work on rigid motions, else the continuous problem has
    # no solution and the multiplier silently absorbs the imbalance; the
    # first step whose load does is named, once.
    time_independent = True
    rigid = None
    if systems.boundary.rigid_rows is not None:
        rigid = _check_rigid_balance(rigid_motion_basis(mesh, dofmap), 0, state.t, mech0)
    auditor = EnergyAuditor(disc.A, disc.M, disc.S, mech0, flow0, coeffs, scheme.theta, scheme.dt)
    tracker = (
        ConservationTracker(benchmark, mesh, dofmap, disc.M, scheme.theta, state)
        if benchmark.bcs.is_pure_neumann_flow() else None
    )
    first_step_report = len(systems.solve_reports)

    evaluator = (
        ErrorEvaluator(benchmark, mesh, dofmap, disc.quadrature)
        if compute_errors and benchmark.has_exact_solution else None
    )
    error_levels = [(state.t, evaluator.evaluate(state))] if evaluator is not None else []

    states = [state] if 0 in kept else []
    records: list[DiagnosticsRecord] = []
    energy: list[EnergyRecord] = []
    conservation: list[ConservedQuantities] = []
    step_fn = step_coupled if scheme.theta == 1 else step_decoupled

    for n in range(1, scheme.n_steps + 1):
        mech, flow = assemble_load(systems.loads, state.t + scheme.dt)
        state = step_fn(state, systems, mech, flow)
        erec = auditor.ingest(state)
        energy.append(erec)
        time_independent = time_independent and _close(mech0, mech) and _close(flow0, flow)
        if rigid is not None:
            rigid = _check_rigid_balance(rigid, n, state.t, mech)
        cells = {}
        if tracker is not None:
            refs = tracker.advance(state, scheme.dt, mech, flow)
            conservation.append(refs)
            cells.update(C_eta_res=refs.eta_res, C_xi_res=refs.xi_res, flux_res=refs.flux_res)
        if evaluator is not None:
            errs = evaluator.evaluate(state)
            error_levels.append((state.t, errs))
            cells.update({f"err_{key}": errs.get(key) for key in ("u_L2", "u_H1", "p_L2", "p_H1")})
        records.append(DiagnosticsRecord(
            step=n, t=state.t, J=erec.J, S_cum=erec.s_cum, energy_residual=erec.residual, **cells
        ))
        if n in kept:
            states.append(state)

    errors = summarize_error_history(error_levels) if evaluator is not None else None
    reports = systems.solve_reports[first_step_report:]
    max_residual = max((r.relative_residual for r in reports), default=0.0)
    return RunResult(
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
        factorizations=tuple(projections.factorizations + systems.factorizations),
    )
