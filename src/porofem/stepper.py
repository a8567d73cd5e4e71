"""Time integration of the reformulated poroelastic system.

Each step solves a generalized Stokes problem for the displacement and the
total-pressure-like variable xi, and a diffusion problem for the mass-like
variable eta.  With coupling weight theta = 1 both solves are performed
monolithically; with theta = 0 the diffusion step uses the previous eta in
the Stokes step, decoupling the two solves at the cost of a parabolic
time-step restriction (advisory, not enforced).

biot_limit_sweep repeats a run over several storage coefficients c0 and
compares consecutive trajectories.

A state holds only the solved unknowns.  The physical pressure and the
displacement divergence are derived from them when read, as
p = kappa1*xi + kappa2*eta_lag and q = kappa1*eta - kappa3*xi, where
eta_lag is the eta level the Stokes step actually used.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, replace
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
    nested_dissection,
    rigid_motion_basis,
)
from .diagnostics import (
    ConservationTracker,
    DiagnosticsRecord,
    EnergyAuditor,
    ErrorEvaluator,
    TrajectoryDistance,
    VariableNorms,
    summarize_error_history,
)
from .mesh import BoundarySegment, Mesh
from .model import (
    Benchmark, MaterialParams, DerivedCoeffs, get_benchmark, pq_from_xieta, xieta_from_pq,
)
from .solver import (
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
    "SweepRow",
    "SweepRows",
    "sweep_members",
    "biot_limit_sweep",
    "AmplificationEstimate",
]

# The decoupled amplification estimate's budget of step-map applications
# (two solves each), and the fraction of the estimate's distance from one
# below which its Ritz residual settles the verdict.
_AMPLIFICATION_ITERS = 25
_AMPLIFICATION_SETTLE = 1e-3


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
) -> GateReport:
    """Evaluate the parabolic step-size gate for the decoupled scheme.

    The constant balances the lagged coupling term against the
    dissipation: c_stab = 1 / (2 * mu * K * kappa1^2).
    """
    c_stab = 0.5 / (params.mu * params.K * coeffs.kappa1**2)
    threshold = c_stab * mesh.h**2
    return GateReport(
        dt=scheme.dt,
        c_stab=float(c_stab),
        threshold=float(threshold),
        satisfied=bool(scheme.dt <= threshold),
    )


@dataclass(frozen=True)
class AmplificationEstimate:
    """StepSystems.estimate_decoupled_amplification's outcome: rho, the
    modulus of the Ritz value of largest modulus; residual, its Ritz
    residual; applications, the step-map applications (two solves each)
    it took; settled, whether the residual settled which side of one rho
    lies on (or the Krylov space was invariant) before the budget ran
    out."""

    rho: float
    residual: float
    applications: int
    settled: bool

    @property
    def unstable(self) -> bool:
        """A settled estimate above one: the step amplifies errors."""
        return self.settled and self.rho > 1.0

    @property
    def verdict(self) -> str:
        """The stability verdict run.log prints."""
        if not self.settled:
            return "unsettled"
        return "UNSTABLE (use theta=1)" if self.unstable else "stable"


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
    on it.  A carries mu and S the Darcy mobility K; no other parameter and
    no benchmark datum enters, so all runs whose benchmarks have those two values
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
        return cls(
            mesh, dm, dm.grid_index(), params.mu, params.K,
            assemble_elasticity(mesh, dm, params.mu),
            assemble_div(mesh, dm),
            assemble_scalar_mass(mesh, dm),
            assemble_scalar_stiffness(mesh, dm, params.K),
            DomainQuadrature.from_mesh(mesh, dm),
        )


class LinearSolves:
    """The one path from a matrix to a solution: prepare reduces and
    factorizes a system, solve solves it under the residual gate.  The
    size and fill of every factorization and the report of every solve are
    recorded; a run keeps one such ledger for all of its systems.  The
    caller keeps a prepared system as long as it solves with it; nothing
    here holds a factor.
    """

    def __init__(self) -> None:
        self.solve_reports: list[LinearSolveReport] = []
        self.factorizations: list[FactorizationRecord] = []

    def prepare(
        self, label: str, matrix: sp.spmatrix, grid: np.ndarray, slaves: np.ndarray,
        coupling: Optional[sp.spmatrix] = None,
    ) -> LinearSystem:
        """The reduction of one system (see ReducedSystem), and its
        factorization in nested-dissection order of its masters' grid
        positions; its size and fill are recorded under the label, and a
        failure names it.  A matrix the caller does not hold is freed
        before the factorization starts."""
        reduced = ReducedSystem(matrix, slaves=slaves, coupling=coupling)
        del matrix
        try:
            fact = factorize(reduced.matrix, nested_dissection(grid[reduced.masters]))
        except SingularMatrixError as exc:
            raise SingularMatrixError(f"{label}: {exc}", exc.row) from exc
        self.factorizations.append(FactorizationRecord(label, fact.shape[0], fact.lu_nnz))
        return LinearSystem(reduced, fact)

    def solve(
        self, system: LinearSystem, rhs: np.ndarray, slave_values: np.ndarray, label: str
    ) -> np.ndarray:
        """Full solution of one prepared system under the residual gate;
        the solve's report is recorded, and a failure names the label."""
        reduced_rhs = system.reduced.reduce_rhs(rhs, slave_values)
        try:
            y, report = solve(system.factorization, reduced_rhs)
        except SolverFailureError as exc:
            raise SolverFailureError(f"{label}: {exc}", exc.report) from exc
        self.solve_reports.append(report)
        return system.reduced.expand(y, slave_values)


class StepSystems:
    """Block matrices, reductions and factorizations for one run.

    Built once per run, after its initial data, on the boundary data
    init_state built for it; every step reuses the factorizations and only
    reassembles right-hand sides and boundary values.  The loads are
    tabulated once, at construction; each step only scales and sums the
    stored vectors.  A discretization built for another mu or K than the
    benchmark's is refused with ValueError, and so is one that
    check_scheme refuses.  Every system is prepared and solved through
    `solves`, the run's ledger.
    """

    def __init__(
        self,
        benchmark: Benchmark,
        discretization: Discretization,
        scheme: TimeScheme,
        boundary: BoundaryData,
        solves: LinearSolves,
    ) -> None:
        disc = discretization
        prm = benchmark.params
        if (prm.mu, prm.K) != (disc.mu, disc.mobility):
            raise ValueError(
                f"the discretization carries mu, K = {disc.mu:.17g}, "
                f"{disc.mobility:.17g}, the benchmark {prm.mu:.17g}, {prm.K:.17g}"
            )
        self.benchmark = benchmark
        self.discretization = disc
        self.scheme = scheme
        self.solves = solves
        dm = disc.dofmap
        self.coeffs = benchmark.coeffs
        k1, k2, k3 = self.coeffs.kappa1, self.coeffs.kappa2, self.coeffs.kappa3
        A, B, M, S = disc.A, disc.B, disc.M, disc.S

        check_scheme(benchmark, scheme.theta)
        self.boundary = boundary
        u_dofs = boundary.u_dofs
        pverts = boundary.pressure_vertices

        dt = scheme.dt
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
            self.coupled = solves.prepare(
                "coupled system",
                sp.bmat(
                    [
                        [A, -B.T, None],
                        [B, k3 * M, -k1 * M],
                        [None, k1 * S, M / dt + k2 * S],
                    ],
                    format="csr",
                ),
                disc.grid, slaves, coupling,
            )
        else:
            self.stokes = solves.prepare(
                "Stokes system", sp.bmat([[A, -B.T], [B, k3 * M]], format="csr"),
                disc.grid[: dm.n_step1], u_dofs,
            )
            self.diffusion = solves.prepare(
                "diffusion system", (M / dt + k2 * S).tocsr(),
                disc.grid[dm.xi_offset : dm.eta_offset], pverts,
            )

        self.loads = LoadAssembler.build(disc.mesh, dm, disc.quadrature, benchmark.sources,
                                         benchmark.bcs)

    def boundary_values(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Dirichlet displacement values and pressure data at time t."""
        return self.boundary.values(t)

    def estimate_decoupled_amplification(self) -> AmplificationEstimate:
        """Per-step growth factor of the decoupled scheme's homogeneous map.

        The new eta of a decoupled step is a fixed linear map of the old
        one (the displacement does not feed back); its spectral radius is
        estimated, with zero loads and zero boundary data, by the Ritz
        value of largest modulus of an Arnoldi process from ones/sqrt(n)
        (two Gram-Schmidt passes per step, no restarts).  After each map
        application the Ritz residual h_{j+1,j}*|y_j| of that value is
        read, y its unit eigenvector of the Hessenberg matrix; the process
        stops once the residual is at most _AMPLIFICATION_SETTLE times the
        distance of the modulus from one, which settles the verdict, on an
        invariant Krylov space (h_{j+1,j} = 0), or after
        _AMPLIFICATION_ITERS applications, which leaves the verdict
        unsettled (AmplificationEstimate.verdict).  A value above one means
        the step amplifies errors geometrically no matter how small the
        time step: the nodal elimination of the boundary eta through the
        freshly computed xi can be unstable when the storage term is too
        weak to damp it.  Only meaningful for theta = 0.
        """
        if self.scheme.theta != 0:
            raise ValueError("amplification estimate applies to theta = 0 only")
        dm = self.discretization.dofmap
        n = dm.n_scalar
        mech, flow = np.zeros(dm.n_u), np.zeros(n)
        u_values = np.zeros(self.boundary.u_dofs.size)
        p_data = np.zeros(self.boundary.pressure_vertices.size)
        m = min(_AMPLIFICATION_ITERS, n)
        basis = np.zeros((m + 1, n))
        basis[0] = 1.0 / np.sqrt(n)
        hess = np.zeros((m + 1, m))
        for j in range(m):
            _, _, w = _decoupled_solves(
                self, basis[j], mech, flow, u_values, p_data, "solve of the amplification estimate"
            )
            for _ in range(2):
                h = basis[: j + 1] @ w
                w = w - basis[: j + 1].T @ h
                hess[: j + 1, j] += h
            beta = float(np.linalg.norm(w))
            hess[j + 1, j] = beta
            values, vectors = np.linalg.eig(hess[: j + 1, : j + 1])
            k = int(np.argmax(np.abs(values)))
            rho = float(np.abs(values[k]))
            residual = beta * float(np.abs(vectors[j, k]))
            settled = beta == 0.0 or residual <= _AMPLIFICATION_SETTLE * abs(rho - 1.0)
            if settled:
                break
            basis[j + 1] = w / beta
        return AmplificationEstimate(rho, residual, j + 1, settled)


def check_scheme(benchmark: Benchmark, theta: int) -> None:
    """Refuse, with ValueError, a benchmark that the scheme with coupling
    weight theta cannot step on any mesh.

    Pressure-Dirichlet data need kappa2 > 0: the elimination of eta through
    xi divides by it.  With zero storage (kappa3 = 0) and u . n Dirichlet
    on every side, no displacement test function carries boundary flux, so
    constant xi lies in the kernel of the decoupled Stokes step.  The decoupled step-size
    gate (evaluate_gate) divides by mu*K*kappa1**2, which must not vanish.
    """
    prm, kappa1 = benchmark.params, benchmark.coeffs.kappa1
    if benchmark.coeffs.kappa2 == 0.0 and any(
        bc.kind == "pressure" for bc in benchmark.bcs.flow.values()
    ):
        raise ValueError(
            "pressure-Dirichlet data requires kappa2 > 0 (i.e. lam > 0); "
            "the eta elimination is undefined otherwise"
        )
    if theta == 0 and prm.mu * prm.K * kappa1**2 == 0.0:
        raise ValueError(
            f"decoupled scheme's step-size gate c_stab = 1/(2*mu*K*kappa1**2) divides by "
            f"zero: mu*K*kappa1**2 underflows (mu = {prm.mu}, K = {prm.K}, "
            f"kappa1 = alpha/(alpha*alpha + lam*c0) = {kappa1:.6g}); use the coupled scheme "
            "(theta = 1)"
        )
    if theta == 0 and benchmark.coeffs.kappa3 == 0.0 and all(
        datum is not None
        for seg in BoundarySegment
        for datum, n in zip(benchmark.bcs.mechanical[seg].dirichlet, seg.normal)
        if n
    ):
        raise ValueError(
            "decoupled scheme is singular for this problem: with zero storage (kappa3 = 0) "
            "and the normal displacement prescribed on the whole boundary, the Stokes step "
            "determines xi only up to a constant; use the coupled scheme (theta = 1) or a "
            "positive storage coefficient"
        )


def init_state(
    benchmark: Benchmark, discretization: Discretization, solves: LinearSolves
) -> tuple[BoundaryData, FieldState]:
    """Discrete initial data of one run, with the boundary data it starts
    under.

    The displacement is the nodal interpolant u_I of the initial field, with
    no solve.  It is the elliptic projection of itself: the projection
    solves A_ff x = (A u_I)_f - A_fs g, and when g, the t = 0 Dirichlet
    values, equals u_I on the Dirichlet dofs (for pure traction, the three
    pins of build_constraints) its solution is (u_I)_f.  A benchmark whose
    u_I breaks that condition is refused with ValueError.  The initial
    pressure is the L2 projection of p0, from a factor of M that is dropped
    before this returns, so it is not live while a step system is
    factorized; a p0 with no terms (the model's zero_scalar) projects to
    zeros with no factorization, as LoadAssembler drops such data from the
    loads.  q0 = 0 since u0 is divergence-free (Benchmark.u0).  eta and xi
    follow coefficientwise from the change of variables; the state derives
    p and q back from them.
    """
    disc = discretization
    dm = disc.dofmap
    boundary = build_constraints(disc.mesh, dm, benchmark.bcs)
    coords = disc.mesh.p2_node_coords()
    u0 = np.asarray(benchmark.u0(coords, 0.0), dtype=float).reshape(-1)  # interleaved
    g = boundary.values(0.0)[0]
    if not np.array_equal(u0[boundary.u_dofs], g):
        gap = np.abs(u0[boundary.u_dofs] - g)
        raise ValueError(
            f"benchmark {benchmark.name!r}: the initial displacement u0(x, 0) differs from "
            f"the t = 0 Dirichlet data at {np.count_nonzero(gap != 0)} of "
            f"{gap.size} prescribed dofs (max |difference| {np.max(gap):.3e}); "
            "a run starts from the interpolant of u0, which must meet that data"
        )

    if not benchmark.p0.terms:
        p0 = np.zeros(dm.n_scalar)
    else:
        none = np.empty(0)
        mass = solves.prepare(
            "initial mass projection", disc.M, disc.grid[dm.xi_offset : dm.eta_offset], none
        )
        p0 = solves.solve(
            mass, assemble_domain_load(disc.quadrature, benchmark.p0, 0.0, space="scalar"), none,
            "initial pressure projection",
        )
    xi0, eta0 = xieta_from_pq(p0, np.zeros_like(p0), benchmark.params)
    return boundary, FieldState(0.0, u0, xi0, eta0, eta0, benchmark.coeffs)


def step_coupled(
    state: FieldState, systems: StepSystems, mech: np.ndarray, flow: np.ndarray,
    u_values: np.ndarray, p_data: np.ndarray,
) -> FieldState:
    """One monolithic (theta = 1) step from state.t to state.t + dt, with the
    loads mech, flow and the boundary values u_values, p_data at state.t + dt."""
    disc = systems.discretization
    dm = disc.dofmap
    dt = systems.scheme.dt
    t_next = state.t + dt

    rhs = np.concatenate(
        [mech, np.zeros(dm.n_scalar), disc.M @ state.eta / dt + flow]
    )
    slave_values = np.concatenate([u_values, p_data / systems.coeffs.kappa2])
    x = systems.solves.solve(systems.coupled, rhs, slave_values, f"coupled step to t={t_next:.6g}")
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
    mass_eta = disc.M @ eta_prev
    rhs1 = np.concatenate([mech, k1 * mass_eta])
    x1 = systems.solves.solve(systems.stokes, rhs1, u_values, f"decoupled Stokes {label}")
    xi = x1[dm.n_u :]
    rhs2 = mass_eta / systems.scheme.dt + flow - k1 * (disc.S @ xi)
    eta_values = (p_data - k1 * xi[systems.boundary.pressure_vertices]) / k2
    eta = systems.solves.solve(systems.diffusion, rhs2, eta_values, f"decoupled diffusion {label}")
    return x1[: dm.n_u], xi, eta


def step_decoupled(
    state: FieldState, systems: StepSystems, mech: np.ndarray, flow: np.ndarray,
    u_values: np.ndarray, p_data: np.ndarray,
) -> FieldState:
    """One decoupled (theta = 0) step: Stokes solve with lagged eta, then
    the diffusion solve for the new eta; the data as for step_coupled."""
    t_next = state.t + systems.scheme.dt
    u, xi, eta = _decoupled_solves(
        systems, state.eta, mech, flow, u_values, p_data, f"step to t={t_next:.6g}"
    )
    return FieldState(t_next, u, xi, eta, state.eta, systems.coeffs)


@dataclass
class RunResult:
    """A completed time integration with its diagnostics stream.

    states holds the states at the steps run() was asked to keep, in step
    order, and records one DiagnosticsRecord per step.  max_hat_slack is the
    run's EnergyAuditor.max_hat_slack: None for theta = 1 and for a run of
    fewer than two steps.  time_independent_loads says no term of the
    loads or of the Dirichlet data varies in time (Tabulated.steady), for a
    run of no steps too.  amplification is the decoupled amplification
    estimate, None where the run makes none (theta = 1, no pressure data,
    no steps).  factorizations, solve_count and max_solver_residual cover
    every linear system and solve of the run: the initial pressure
    projection, the decoupled amplification estimate and the steps.
    """

    states: list[FieldState]
    records: list[DiagnosticsRecord]
    errors: Optional[dict[str, VariableNorms]]
    gate: Optional[GateReport]
    time_independent_loads: bool
    max_solver_residual: float
    factorizations: tuple[FactorizationRecord, ...]
    solve_count: int = 0
    amplification: Optional[AmplificationEstimate] = None
    max_hat_slack: Optional[float] = None


def _check_rigid_balance(
    rigid: np.ndarray, n: int, t: float, mech: np.ndarray
) -> Optional[np.ndarray]:
    """The rigid motions to check later loads against, or None once a load
    doing work on one has been named (warned once); the three pins would
    take that work up as reactions without a word."""
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


def run(
    benchmark: Benchmark,
    discretization: Discretization,
    scheme: TimeScheme,
    *,
    keep_steps: Collection[int] = (0, -1),
    compute_errors: bool = True,
) -> RunResult:
    """Integrate a benchmark over [0, T] and collect per-step diagnostics.

    Every step records the energy identity, conservation residuals (for a
    pure-Neumann flow boundary), and, when exact fields are available and
    errors are requested, instantaneous error norms.  Every step's loads and
    boundary values are evaluated once and handed to the step; pure-traction
    loads are checked against the rigid motions.

    keep_steps names the states result.states keeps: indices into the
    trajectory of n_steps + 1 states, negative ones counting from its end
    as for a sequence.  The default keeps the initial and final states, and
    range(n_steps + 1) keeps all; a state no caller reads is not held.

    The run builds its initial data (init_state) first, so the factor of
    its pressure projection is dropped before its step systems are
    factorized.  Both record into the run's one LinearSolves ledger.
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
    solves = LinearSolves()
    boundary, state = init_state(benchmark, disc, solves)
    systems = StepSystems(benchmark, disc, scheme, boundary, solves)
    mesh, dofmap = disc.mesh, disc.dofmap
    coeffs = systems.coeffs

    gate = None
    amplification = None
    if scheme.theta == 0:
        gate = evaluate_gate(scheme, mesh, benchmark.params, coeffs)
        if not gate.satisfied:
            warnings.warn(
                f"decoupled scheme outside its advisory step-size gate: "
                f"dt={gate.dt:.6g} > {gate.threshold:.6g}",
                stacklevel=2,
            )
        if systems.boundary.pressure_vertices.size and scheme.n_steps > 0:
            amplification = systems.estimate_decoupled_amplification()
            if amplification.unstable:
                warnings.warn(
                    f"decoupled scheme amplifies errors by a factor of "
                    f"{amplification.rho:.3g} per step for this problem "
                    f"(independent of the step size): the nodal elimination "
                    f"of boundary eta values is unstable for these material "
                    f"parameters; use theta=1",
                    stacklevel=2,
                )

    mech0, flow0 = assemble_load(systems.loads, state.t)
    # The data are steady exactly when no term of them has a time factor.
    loads = systems.loads
    time_independent = loads.mech.steady and loads.flow.steady and systems.boundary.steady
    # A pure-traction load must do no work on rigid motions, else the problem
    # has no solution and the reactions at the three pins silently absorb the
    # imbalance; the first step whose load does is named, once.
    rigid = None
    if benchmark.bcs.is_pure_traction():
        rigid = _check_rigid_balance(rigid_motion_basis(mesh, dofmap), 0, state.t, mech0)
    auditor = EnergyAuditor(disc.A, disc.M, disc.S, mech0, flow0, coeffs, scheme.theta, scheme.dt)
    tracker = (
        ConservationTracker(benchmark, mesh, dofmap, disc.M, scheme.theta, state)
        if benchmark.bcs.is_pure_neumann_flow() else None
    )

    evaluator = (
        ErrorEvaluator(benchmark, mesh, dofmap, disc.quadrature)
        if compute_errors and benchmark.has_exact_solution else None
    )
    error_levels = [(state.t, evaluator.evaluate(state))] if evaluator is not None else []

    states = [state] if 0 in kept else []
    records: list[DiagnosticsRecord] = []
    step_fn = step_coupled if scheme.theta == 1 else step_decoupled

    for n in range(1, scheme.n_steps + 1):
        t_next = state.t + scheme.dt
        mech, flow = assemble_load(systems.loads, t_next)
        state = step_fn(state, systems, mech, flow, *systems.boundary_values(t_next))
        erec = auditor.ingest(state)
        if rigid is not None:
            rigid = _check_rigid_balance(rigid, n, state.t, mech)
        cells = {}
        if tracker is not None:
            refs = tracker.advance(state, scheme.dt, mech, flow)
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
    reports = solves.solve_reports
    max_residual = max((r.relative_residual for r in reports), default=0.0)
    return RunResult(
        states=states,
        records=records,
        errors=errors,
        gate=gate,
        time_independent_loads=time_independent,
        max_solver_residual=max_residual,
        solve_count=len(reports),
        amplification=amplification,
        factorizations=tuple(solves.factorizations),
        max_hat_slack=auditor.max_hat_slack,
    )


@dataclass(frozen=True)
class SweepRow:
    """Distances between the runs of two consecutive storage coefficients."""

    c0_a: float
    c0_b: float
    dist_u: float
    dist_eta: float
    dist_xi: float


class SweepRows(list):
    """A sweep's SweepRow list, in c0 order, with `members`: each member's
    c0 and RunResult (states dropped), which holds the factorizations and
    solves of that member's standalone run."""

    def __init__(self, rows: Sequence[SweepRow], members: tuple) -> None:
        super().__init__(rows)
        self.members = members


def sweep_members(benchmark: Benchmark, c0_values: Sequence[float]) -> list[Benchmark]:
    """The runs of a c0 sweep: the benchmark with each c0 of c0_values."""
    params = benchmark.params
    return [get_benchmark(benchmark.name, replace(params, c0=float(c0))) for c0 in c0_values]


def biot_limit_sweep(benchmark: Benchmark, c0_values: Sequence[float], mesh: Mesh,
                     scheme: TimeScheme) -> SweepRows:
    """Pairwise L-infinity(L2) distances between runs with decreasing c0.

    Re-solves the benchmark with each storage coefficient on the same mesh
    and time scheme, then reports max-over-time L2 distances of u, eta and
    xi between consecutive c0 values.  The runs share one discretization
    (c0 enters no operator of it); each is the member's standalone `run`,
    initial data included.  Each run is compared with the one before it as
    soon as it finishes, so only two trajectories are held.
    """
    disc = Discretization.build(mesh, benchmark.params)
    distance = TrajectoryDistance(mesh, disc.dofmap, disc.M)
    rows, members = [], []
    c0_prev = states_prev = None
    for bench in sweep_members(benchmark, c0_values):
        c0 = bench.params.c0
        result = run(
            bench, disc, scheme, keep_steps=range(scheme.n_steps + 1), compute_errors=False
        )
        states = result.states
        if states_prev is not None:
            rows.append(SweepRow(c0_prev, c0, *distance(states_prev, states)))
        members.append((c0, replace(result, states=[])))
        c0_prev, states_prev = c0, states
    return SweepRows(rows, tuple(members))
