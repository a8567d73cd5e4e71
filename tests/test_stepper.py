"""Time integration: schemes, initial data, stepping, run-level plumbing."""

from __future__ import annotations

import dataclasses
import gc
import sys
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import porofem.assembly
import porofem.diagnostics
import porofem.solver
import porofem.stepper
from porofem.assembly import (
    DofMap,
    DomainQuadrature,
    ReducedSystem,
    assemble_load,
    build_constraints,
)
from porofem.diagnostics import ErrorEvaluator
from porofem.mesh import BoundarySegment, build_rect_mesh
from porofem.model import (
    BoundaryConditionSpec,
    MechanicalBC,
    get_benchmark,
)
from porofem.solver import SolverFailureError
from porofem.stepper import (
    Discretization,
    LinearSolves,
    StepSystems,
    TimeScheme,
    evaluate_gate,
    init_state,
    run,
    step_coupled,
    step_decoupled,
)

from helpers import (
    check_state_consistency,
    conservation_benchmark,
    initial_state,
    jittered_mesh,
    normal_traction,
    zero_benchmark,
    zero_scalar,
    zero_vector,
)


def _boundary(bench, disc):
    return build_constraints(disc.mesh, disc.dofmap, bench.bcs, bench.coeffs)


def _interleave(values: np.ndarray) -> np.ndarray:
    out = np.empty(2 * values.shape[0])
    out[0::2] = values[:, 0]
    out[1::2] = values[:, 1]
    return out


# ---------------------------------------------------------------------------
# TimeScheme
# ---------------------------------------------------------------------------


def test_scheme_validation():
    with pytest.raises(ValueError, match="positive"):
        TimeScheme(dt=0.0, n_steps=1, theta=1)
    with pytest.raises(ValueError, match="nonnegative"):
        TimeScheme(dt=0.1, n_steps=-1, theta=1)
    with pytest.raises(ValueError, match="theta"):
        TimeScheme(dt=0.1, n_steps=1, theta=2)
    with pytest.raises(ValueError, match="final time"):
        TimeScheme(dt=0.1, n_steps=3, theta=1, T=0.5)
    # The step count is an int64: T / dt = 1e297 is refused, not a TypeError.
    with pytest.raises(ValueError, match=r"^n_steps must be finite.*2\*\*63 - 1"):
        TimeScheme(dt=0.1, n_steps=2**63, theta=1)
    with pytest.raises(ValueError, match=r"^n_steps must be finite"):
        TimeScheme.from_final_time(T=1e-3, dt=1e-300, theta=1)
    assert TimeScheme(dt=0.5, n_steps=2**63 - 1, theta=1, T=0.5 * (2**63 - 1)).n_steps == 2**63 - 1
    # A step count that is not a number is refused by name too.
    with pytest.raises(ValueError, match=r"^n_steps must be finite.*got None$"):
        TimeScheme(dt=0.1, n_steps=None, theta=1)
    with pytest.raises(ValueError, match=r"^n_steps must be finite.*got '3'$"):
        TimeScheme(dt=0.1, n_steps="3", theta=1)


@settings(max_examples=60, deadline=None)
@given(
    field=st.sampled_from(["dt", "n_steps", "T"]),
    value=st.sampled_from([float("nan"), float("inf"), float("-inf")]),
)
def test_scheme_rejects_non_finite(field, value):
    fields = {"dt": 0.1, "n_steps": 3, "theta": 1, field: value}
    with pytest.raises(ValueError, match=rf"^{field} must be finite"):
        TimeScheme(**fields)
    if field != "n_steps":
        # A negative dt is refused as a nonpositive step before T / dt.
        with pytest.raises(ValueError, match=rf"^{field} must be finite|time step"):
            TimeScheme.from_final_time(T=fields.get("T", 0.3), dt=fields["dt"], theta=1)


def test_scheme_default_final_time():
    s = TimeScheme(dt=0.25, n_steps=4, theta=0)
    assert s.T == pytest.approx(1.0)


def test_scheme_from_final_time():
    s = TimeScheme.from_final_time(T=1e-3, dt=1e-4, theta=1)
    assert s.n_steps == 10
    assert s.T == 1e-3


# ---------------------------------------------------------------------------
# Gate
# ---------------------------------------------------------------------------


def test_gate_default_constant_on_locking():
    bench = get_benchmark("locking")
    mesh = build_rect_mesh(8, 8)
    scheme = TimeScheme(dt=1e-4, n_steps=10, theta=0)
    gate = evaluate_gate(scheme, mesh, bench.params, bench.coeffs)
    # c_stab = mu_f / (2 mu K kappa1^2); E = 1e5, nu = 0.4 gives mu = 1e5/2.8,
    # so c_stab = 0.5 / (1e5/2.8 * 1e-6) = 14 and threshold = 14 * (sqrt(2)/8)^2.
    assert gate.c_stab == pytest.approx(14.0, rel=1e-12)
    assert gate.threshold == pytest.approx(0.4375, rel=1e-12)
    assert gate.satisfied is True
    assert "satisfied" in gate.describe()


def test_gate_custom_constant_and_violation():
    bench = get_benchmark("locking")
    mesh = build_rect_mesh(8, 8)
    scheme = TimeScheme(dt=0.5, n_steps=1, theta=0)
    gate = evaluate_gate(scheme, mesh, bench.params, bench.coeffs, c_stab=1.0)
    assert gate.threshold == pytest.approx(mesh.h**2, rel=1e-12)
    assert gate.satisfied is False
    assert "VIOLATED" in gate.describe()


def test_gate_violation_warns_but_run_completes():
    bench = zero_benchmark()
    mesh = build_rect_mesh(2, 2)
    scheme = TimeScheme(dt=10.0, n_steps=1, theta=0)
    with pytest.warns(UserWarning, match="gate"):
        result = run(bench, Discretization.build(mesh, bench.params), scheme)
    assert result.gate is not None and not result.gate.satisfied
    assert np.max(np.abs(result.states[-1].u)) == 0.0


def test_coupled_run_has_no_gate():
    bench = zero_benchmark()
    result = run(bench, Discretization.build(build_rect_mesh(2, 2), bench.params),
                 TimeScheme(dt=1e-3, n_steps=1, theta=1))
    assert result.gate is None


# ---------------------------------------------------------------------------
# Initial data
# ---------------------------------------------------------------------------


def test_init_state_reproduces_in_space_data():
    bench = get_benchmark("polynomial")
    mesh = build_rect_mesh(3, 3)
    state = initial_state(bench, mesh)
    coords = mesh.p2_node_coords()
    u_exact = _interleave(bench.exact_u(coords, 0.0))
    p_exact = bench.exact_p(mesh.vertices, 0.0)
    assert np.max(np.abs(state.u - u_exact)) <= 1e-10
    assert np.max(np.abs(state.p - p_exact)) <= 1e-10
    assert np.max(np.abs(state.q)) <= 1e-10  # divergence-free initial field
    assert state.t == 0.0


def test_init_state_identities_hold_exactly():
    bench = get_benchmark("test1")
    state = initial_state(bench, build_rect_mesh(4, 4))
    p_res, q_res = check_state_consistency(state, bench.coeffs)
    assert max(p_res, q_res) == 0.0


def test_init_state_solves_at_the_run_tolerance():
    bench = get_benchmark("test1")
    disc = Discretization.build(build_rect_mesh(4, 4), bench.params)
    with pytest.raises(SolverFailureError, match="initial pressure projection"):
        init_state([bench], disc, LinearSolves(tolerance=1e-18))
    with pytest.raises(SolverFailureError, match="initial pressure projection"):
        run(bench, disc, TimeScheme(dt=1e-3, n_steps=1, theta=1), tolerance=1e-18)


def test_init_state_starts_runs_of_other_constraint_sets_together():
    # test1 prescribes displacements; the pure-traction fixture has none and
    # carries rigid-motion rows instead.  No factor of A is shared any more,
    # so they start together, each as it starts alone.
    mesh = build_rect_mesh(2, 2)
    clamped, free = get_benchmark("test1"), conservation_benchmark()
    disc = Discretization.build(mesh, clamped.params)
    scheme = TimeScheme(dt=1e-3, n_steps=2, theta=1)
    starts = init_state([clamped, free], disc, LinearSolves())
    for bench, start in zip((clamped, free), starts):
        alone = run(bench, disc, scheme, keep_steps=range(3), compute_errors=False)
        together = run(bench, disc, scheme, keep_steps=range(3), compute_errors=False,
                       initial=start)
        assert len(alone.states) == len(together.states) == 3
        for got, want in zip(together.states, alone.states):
            assert got.t == want.t
            for field in ("u", "xi", "eta", "eta_theta", "p", "q"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field


@pytest.mark.filterwarnings("ignore:decoupled scheme amplifies errors")
@pytest.mark.parametrize("theta", [0, 1])
@pytest.mark.parametrize("name", ["test1", "barry_mercer", "locking", "polynomial"])
def test_init_state_starts_from_the_interpolant(name, theta):
    bench = get_benchmark(name)
    mesh = build_rect_mesh(4, 4)
    disc = Discretization.build(mesh, bench.params)
    result = run(bench, disc, TimeScheme(dt=bench.default_dt, n_steps=1, theta=theta),
                 compute_errors=False)
    u_interp = np.asarray(bench.u0(mesh.p2_node_coords(), 0.0), dtype=float).reshape(-1)
    assert result.states[0].u.tobytes() == u_interp.tobytes()
    labels = [f.label for f in result.factorizations]
    assert "initial displacement projection" not in labels
    assert labels[0] == "initial mass projections"


def test_init_state_refuses_an_interpolant_off_the_constraints():
    mesh = build_rect_mesh(3, 3)
    test1 = get_benchmark("test1")
    late = dataclasses.replace(test1, u0=lambda x, t: test1.exact_u(x, 1.0))
    disc = Discretization.build(mesh, test1.params)
    with pytest.raises(ValueError, match="'test1'.*t = 0 Dirichlet data"):
        init_state([late], disc, LinearSolves())

    free = conservation_benchmark()

    def translated(x: np.ndarray, t: float) -> np.ndarray:
        return np.column_stack([np.full(x.shape[0], 0.25), np.zeros(x.shape[0])])

    moved = dataclasses.replace(free, u0=translated)
    disc = Discretization.build(mesh, free.params)
    with pytest.raises(ValueError, match="'conservation_fixture'.*rigid motions"):
        init_state([moved], disc, LinearSolves())
    # A member that breaks its constraints is refused with the others.
    with pytest.raises(ValueError, match="rigid motions"):
        init_state([free, moved], disc, LinearSolves())


def test_polynomial_interpolant_is_its_elliptic_projection():
    # The interpolant replaces the elliptic projection A_ff x = (A u_I)_f -
    # A_fs g; for polynomial's u0, which is its own Dirichlet data, the two
    # agree to rounding.
    bench = get_benchmark("polynomial")
    mesh = build_rect_mesh(8, 8)
    disc = Discretization.build(mesh, bench.params)
    (initial,) = init_state([bench], disc, LinearSolves())
    boundary = initial.boundary
    solves = LinearSolves()
    elastic = solves.prepare(
        "elliptic projection", disc.A, disc.grid[: disc.dofmap.n_u], boundary.u_dofs,
        lag_rows=boundary.rigid_rows,
    )
    u_interp = initial.state.u
    projected = solves.solve(elastic, disc.A @ u_interp, boundary.values(0.0)[0], "projection")
    assert np.max(np.abs(projected - u_interp)) <= 1e-13 * np.max(np.abs(u_interp))


def test_init_state_pressure_projection_second_order():
    bench = get_benchmark("test1")
    errs = []
    for nx in (8, 16):
        mesh = build_rect_mesh(nx, nx)
        dofmap = DofMap.from_mesh(mesh)
        state = initial_state(bench, mesh)
        quadrature = DomainQuadrature.from_mesh(mesh, dofmap)
        errs.append(ErrorEvaluator(bench, mesh, dofmap, quadrature).evaluate(state)["p_L2"])
    rate = np.log2(errs[0] / errs[1])
    assert 1.8 <= rate <= 2.2


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("theta", [0, 1])
def test_zero_data_stays_zero(theta):
    bench = zero_benchmark()
    result = run(
        bench,
        Discretization.build(build_rect_mesh(3, 3), bench.params),
        TimeScheme(dt=1e-3, n_steps=4, theta=theta),
        keep_steps=range(5),
    )
    for state in result.states:
        for vec in (state.u, state.xi, state.eta, state.p, state.q):
            assert np.max(np.abs(vec)) == 0.0


def test_polynomial_solution_is_exact_in_space_and_time():
    # Quadratic divergence-free u and linear p with c0 = 0: the interpolant
    # solves the coupled discrete equations at every level, so the computed
    # states must match it to solver tolerance.
    bench = get_benchmark("polynomial")
    mesh = build_rect_mesh(4, 4)
    scheme = TimeScheme(dt=1e-3, n_steps=10, theta=1)
    result = run(bench, Discretization.build(mesh, bench.params), scheme,
                 keep_steps=range(scheme.n_steps + 1))
    coords = mesh.p2_node_coords()
    tol = 1e-10
    for state in result.states:
        u_exact = _interleave(bench.exact_u(coords, state.t))
        p_exact = bench.exact_p(mesh.vertices, state.t)
        assert np.max(np.abs(state.u - u_exact)) <= tol
        assert np.max(np.abs(state.eta)) <= tol
        assert np.max(np.abs(state.p - p_exact)) <= tol
    report = result.errors
    assert report is not None
    assert report["u"].linf_l2 <= tol
    assert report["p"].linf_l2 <= tol


def test_decoupled_boundary_elimination_instability_is_detected():
    # With c0 = 0 and pressure-Dirichlet data, the decoupled step's nodal
    # eta elimination feeds the fresh xi back with gain above one for these
    # materials: errors grow geometrically no matter the step size.  The
    # run must measure that amplification and warn; the scheme stays
    # consistent, so a short horizon still tracks the exact solution.
    bench = get_benchmark("polynomial")
    mesh = build_rect_mesh(4, 4)
    with pytest.warns(UserWarning, match="amplifies"):
        result = run(bench, Discretization.build(mesh, bench.params),
                     TimeScheme(dt=1e-3, n_steps=8, theta=0),
                     keep_steps=range(9), compute_errors=False)
    rho = result.decoupled_amplification
    assert rho is not None and rho > 1.5
    coords = mesh.p2_node_coords()
    for state in result.states:
        u_exact = _interleave(bench.exact_u(coords, state.t))
        assert np.max(np.abs(state.u - u_exact)) <= 1e-7
    # Stable configurations carry the estimate without warning: the same
    # elimination with unit storage has gain below one.
    unit = get_benchmark("test1")
    stable = run(unit, Discretization.build(mesh, unit.params),
                 TimeScheme(dt=2e-4, n_steps=1, theta=0), compute_errors=False)
    assert stable.decoupled_amplification is not None
    assert stable.decoupled_amplification < 1.0


def test_decoupled_matches_coupled_to_first_order_in_dt():
    # The two schemes differ only through the lagged eta, so their gap at
    # the final time must shrink linearly with the step size.
    bench = get_benchmark("test1")
    disc = Discretization.build(build_rect_mesh(8, 8), bench.params)
    gaps = []
    for dt, n in ((1e-4, 10), (5e-5, 20)):
        finals = []
        for theta in (0, 1):
            result = run(bench, disc, TimeScheme(dt=dt, n_steps=n, theta=theta),
                         compute_errors=False)
            finals.append(result.states[-1])
        gaps.append(np.max(np.abs(finals[0].xi - finals[1].xi)))
    ratio = gaps[0] / gaps[1]
    assert 1.6 <= ratio <= 2.5


@pytest.mark.parametrize("theta", [0, 1])
def test_pressure_boundary_data_enforced_at_new_time(theta):
    bench = get_benchmark("test1")
    mesh = build_rect_mesh(4, 4)
    disc = Discretization.build(mesh, bench.params)
    result = run(bench, disc, TimeScheme(dt=2e-4, n_steps=5, theta=theta),
                 keep_steps=range(6), compute_errors=False)
    k1, k2 = bench.coeffs.kappa1, bench.coeffs.kappa2
    boundary = np.unique(mesh.edges[np.flatnonzero(mesh.edge_tags)])
    for state in result.states[1:]:
        p_data = bench.exact_p(mesh.vertices[boundary], state.t)
        recovered = k1 * state.xi[boundary] + k2 * state.eta[boundary]
        assert np.max(np.abs(recovered - p_data)) <= 1e-9


def test_displacement_dirichlet_enforced_at_new_time():
    bench = get_benchmark("test1")
    mesh = build_rect_mesh(4, 4)
    disc = Discretization.build(mesh, bench.params)
    result = run(bench, disc, TimeScheme(dt=2e-4, n_steps=3, theta=1),
                 keep_steps=range(4), compute_errors=False)
    coords = mesh.p2_node_coords()
    left = np.flatnonzero(np.abs(coords[:, 0]) <= 1e-14)
    for state in result.states[1:]:
        # u1 = t/2 * x1^2 = 0 on the left side, prescribed strongly.
        assert np.max(np.abs(state.u[2 * left])) <= 1e-12


def test_state_identities_hold_along_trajectory():
    bench = get_benchmark("test1")
    result = run(bench, Discretization.build(build_rect_mesh(4, 4), bench.params),
                 TimeScheme(dt=2e-4, n_steps=5, theta=0),
                 keep_steps=range(6), compute_errors=False)
    for state in result.states:
        p_res, q_res = check_state_consistency(state, bench.coeffs)
        assert max(p_res, q_res) <= 1e-14


# ---------------------------------------------------------------------------
# Conservation along a run
# ---------------------------------------------------------------------------


def test_conserved_quantities_tracked_to_rounding():
    bench = conservation_benchmark()
    mesh = build_rect_mesh(4, 4)
    disc = Discretization.build(mesh, bench.params)
    result = run(bench, disc, TimeScheme(dt=0.02, n_steps=5, theta=1),
                 keep_steps=range(6))
    assert result.errors is None  # no exact closures on this fixture
    for record in result.records:
        assert record.C_eta_res is not None and record.C_eta_res <= 1e-12
        assert record.C_xi_res is not None and record.C_xi_res <= 1e-12
        assert record.flux_res is not None and record.flux_res <= 1e-12
    # Hand value: (eta(T), 1) = T * (phi*|domain| + flux*|bottom|) = 0.1*1.3.
    final_refs = result.conservation[-1]
    assert final_refs.eta_measured == pytest.approx(0.13, rel=1e-10)
    assert final_refs.c_eta == pytest.approx(0.13, rel=1e-12)


def test_conservation_residuals_marked_inapplicable_with_dirichlet_bcs(monkeypatch):
    # Pressure data on part of the boundary: no tracker is built, and the
    # conservation columns stay empty.
    def refuse(*args):
        raise AssertionError("conservation tracker built for pressure-Dirichlet data")

    monkeypatch.setattr(porofem.stepper, "ConservationTracker", refuse)
    for name, theta in (("test1", 1), ("barry_mercer", 0)):
        bench = get_benchmark(name)
        result = run(bench, Discretization.build(build_rect_mesh(3, 3), bench.params),
                     TimeScheme(dt=2e-4, n_steps=2, theta=theta), compute_errors=False)
        assert result.conservation == []
        for record in result.records:
            assert record.C_eta_res is None
            assert record.C_xi_res is None
            assert record.flux_res is None


# ---------------------------------------------------------------------------
# Energy stream
# ---------------------------------------------------------------------------


def test_energy_identity_machine_exact_for_steady_loads():
    bench = get_benchmark("locking")
    mesh = build_rect_mesh(8, 8)
    disc = Discretization.build(mesh, bench.params)
    result = run(bench, disc, TimeScheme(dt=1e-4, n_steps=10, theta=1),
                 compute_errors=False)
    j0 = result.energy[0].J
    scale = max(1.0, abs(j0))
    for rec in result.energy:
        assert abs(rec.residual) <= 1e-10 * scale
        assert rec.s_hat_cum is None and rec.hat_slack is None


def test_decoupled_energy_identity_and_inequality():
    bench = get_benchmark("locking")
    mesh = build_rect_mesh(8, 8)
    disc = Discretization.build(mesh, bench.params)
    result = run(bench, disc, TimeScheme(dt=1e-4, n_steps=10, theta=0),
                 compute_errors=False)
    assert result.gate is not None and result.gate.satisfied
    j0 = result.energy[0].J
    scale = max(1.0, abs(j0))
    for rec in result.energy:
        assert abs(rec.residual) <= 1e-10 * scale
        assert rec.hat_slack is not None
        assert rec.hat_slack <= 1e-8 * scale


# ---------------------------------------------------------------------------
# Run-level bookkeeping
# ---------------------------------------------------------------------------


def test_zero_step_run():
    bench = zero_benchmark()
    result = run(bench, Discretization.build(build_rect_mesh(2, 2), bench.params),
                 TimeScheme(dt=1e-3, n_steps=0, theta=1))
    assert len(result.states) == 1
    assert result.records == [] and result.energy == [] and result.conservation == []
    assert result.solve_count == 0


def test_pure_traction_boundary_data_built_once(monkeypatch):
    calls = []
    original = porofem.assembly.assemble_vector_mass

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (porofem.assembly, porofem.diagnostics):
        monkeypatch.setattr(module, "assemble_vector_mass", counting)
    bench = conservation_benchmark()
    counts = []
    for n_steps in (2, 6):
        calls.clear()
        run(bench, Discretization.build(build_rect_mesh(2, 2), bench.params),
            TimeScheme(dt=0.02, n_steps=n_steps, theta=1))
        counts.append(len(calls))
    # Once per run, for the rigid rows of the boundary data.
    assert counts == [1, 1]


def test_run_builds_boundary_data_once(monkeypatch):
    calls = []
    original = porofem.stepper.build_constraints

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(porofem.stepper, "build_constraints", counting)
    bench = get_benchmark("test1")
    run(bench, Discretization.build(build_rect_mesh(3, 3), bench.params),
        TimeScheme(dt=1e-4, n_steps=2, theta=1))
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["test1", "conservation"])
def test_init_state_reuses_step_systems(name, monkeypatch):
    bench = conservation_benchmark() if name == "conservation" else get_benchmark(name)
    mesh = build_rect_mesh(4, 4)
    disc = Discretization.build(mesh, bench.params)
    calls = []

    def counting(module, attr):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            calls.append(attr)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, attr, wrapper)

    for attr in ("assemble_elasticity", "assemble_div", "assemble_scalar_mass",
                 "assemble_scalar_stiffness", "build_constraints"):
        counting(porofem.stepper, attr)
    for attr in ("assemble_vector_mass", "physical_points"):
        counting(porofem.assembly, attr)
    (initial,) = init_state([bench], disc, LinearSolves())
    StepSystems(bench, disc, TimeScheme(dt=1e-3, n_steps=1, theta=1), initial.boundary)
    # Nothing is assembled twice: operators and quadrature tables come from
    # the discretization, and the boundary data init_state builds (with the
    # rigid-motion rows of the pure-traction fixture) serve the run's
    # StepSystems.
    rigid = ["assemble_vector_mass"] if name == "conservation" else []
    assert calls == ["build_constraints"] + rigid
    p_res, q_res = check_state_consistency(initial.state, bench.coeffs)
    assert max(p_res, q_res) == 0.0


@pytest.mark.parametrize("theta", [0, 1])
def test_init_state_releases_its_factors(theta, monkeypatch):
    # The peak depends on the initial pressure projection's factor being
    # freed before the step systems are factorized, and it must be dead by
    # the first step (docs/decisions.md, "The initial displacement is the
    # interpolant").
    original = porofem.stepper.factorize
    refs = []
    alive_at_first_step = []

    def keeping(*args, **kwargs):
        fact = original(*args, **kwargs)
        refs.append(weakref.ref(fact))
        return fact

    def stepping(original_step):
        def step(*args, **kwargs):
            if not alive_at_first_step:
                gc.collect()
                alive_at_first_step.extend(ref() is not None for ref in refs)
            return original_step(*args, **kwargs)

        return step

    monkeypatch.setattr(porofem.stepper, "factorize", keeping)
    for name in ("step_coupled", "step_decoupled"):
        monkeypatch.setattr(porofem.stepper, name, stepping(getattr(porofem.stepper, name)))
    bench = get_benchmark("test1")
    result = run(bench, Discretization.build(build_rect_mesh(3, 3), bench.params),
                 TimeScheme(dt=1e-3, n_steps=2, theta=theta))
    n_step = 1 if theta == 1 else 2
    assert [f.label for f in result.factorizations][:1] == ["initial mass projections"]
    assert len(refs) == n_step + 1
    assert alive_at_first_step == [False] + [True] * n_step


def _factorize_frame_arrays(scaled) -> list[str]:
    """The locals of the factorize call that is about to hand `scaled` to
    SuperLU, other than the matrix it keeps and SuperLU's input, that hold
    an array longer than one entry per unknown."""
    frame = sys._getframe(2)
    assert frame.f_code.co_name == "factorize"
    names = dict(frame.f_locals)
    del frame
    kept = names["matrix"]
    allowed = [kept.data, kept.indices, kept.indptr, scaled.data, scaled.indices, scaled.indptr]
    extra = []
    for name, value in names.items():
        if sp.issparse(value):
            arrays = [value.data, value.indices, value.indptr]
        else:
            arrays = [value] if isinstance(value, np.ndarray) else []
        if any(
            a.size > kept.shape[0] + 1 and not any(np.may_share_memory(a, b) for b in allowed)
            for a in arrays
        ):
            extra.append(name)
    return extra


@pytest.mark.parametrize("theta", [0, 1])
def test_only_the_kept_and_scaled_matrices_are_alive_while_factorizing(theta, monkeypatch):
    # While SuperLU runs, only the reduced matrix (kept for the residual
    # gate), SuperLU's scaled and permuted input, the order and the
    # scalings are alive (docs/decisions.md, "What is alive during a
    # factorization"): the unreduced block matrix of each step system and
    # factorize's own masks and index copies are already freed.
    unreduced = []
    entries = []
    original_init = ReducedSystem.__init__
    original_splu = porofem.solver.spla.splu

    def init(self, matrix, *args, **kwargs):
        unreduced.append(weakref.ref(matrix))
        original_init(self, matrix, *args, **kwargs)

    def splu(scaled, **kwargs):
        gc.collect()
        entries.append((unreduced[-1]() is None, _factorize_frame_arrays(scaled)))
        return original_splu(scaled, **kwargs)

    monkeypatch.setattr(ReducedSystem, "__init__", init)
    monkeypatch.setattr(porofem.solver.spla, "splu", splu)
    bench = get_benchmark("test1")
    result = run(bench, Discretization.build(build_rect_mesh(3, 3), bench.params),
                 TimeScheme(dt=1e-3, n_steps=1, theta=theta))
    labels = [f.label for f in result.factorizations]
    assert len(entries) == len(labels) == (2 if theta == 1 else 3)
    for label, (block_freed, extra) in zip(labels, entries):
        assert extra == [], label
        # The projection reduces the discretization's own M.
        assert block_freed == (not label.startswith("initial")), label


@pytest.mark.parametrize(
    "keep_steps, steps",
    [(None, [0, 5]), (range(6), [0, 1, 2, 3, 4, 5]), ((), []), ((3, -1, 5, 0, -6), [0, 3, 5])],
    ids=["default", "all", "none", "some"],
)
def test_state_retention(keep_steps, steps):
    bench = zero_benchmark()
    kwargs = {} if keep_steps is None else {"keep_steps": keep_steps}
    result = run(bench, Discretization.build(build_rect_mesh(2, 2), bench.params),
                 TimeScheme(dt=1e-3, n_steps=5, theta=1), **kwargs)
    assert [state.t for state in result.states] == pytest.approx([1e-3 * n for n in steps])


def test_keep_steps_outside_the_run_are_refused():
    bench = zero_benchmark()
    with pytest.raises(ValueError, match="keep_steps must index the 6 states of the run"):
        run(bench, Discretization.build(build_rect_mesh(2, 2), bench.params),
            TimeScheme(dt=1e-3, n_steps=5, theta=1), keep_steps=(0, 6))


@pytest.mark.parametrize("theta", [0, 1])
def test_kept_states_are_those_of_the_full_trajectory(theta):
    bench = get_benchmark("test1")
    disc = Discretization.build(build_rect_mesh(4, 4), bench.params)
    scheme = TimeScheme(dt=2e-4, n_steps=7, theta=theta)
    full = run(bench, disc, scheme, keep_steps=range(8), compute_errors=False).states
    kept = run(bench, disc, scheme, keep_steps=(5, -1, 2, 0), compute_errors=False).states
    assert len(kept) == 4
    for n, got in zip([0, 2, 5, 7], kept):
        want = full[n]
        assert got.t == want.t
        for field in ("u", "xi", "eta", "eta_theta", "p", "q"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), (n, field)


def test_solve_counts_per_scheme():
    bench = zero_benchmark()
    mesh = build_rect_mesh(2, 2)
    disc = Discretization.build(mesh, bench.params)
    r1 = run(bench, disc, TimeScheme(dt=1e-3, n_steps=4, theta=1))
    r0 = run(bench, disc, TimeScheme(dt=1e-3, n_steps=4, theta=0))
    assert r1.solve_count == 4  # one monolithic solve per step
    assert r0.solve_count == 8  # Stokes + diffusion per step
    assert r1.max_solver_residual <= 1e-10
    assert r0.max_solver_residual <= 1e-10


def test_time_independence_flag():
    locking, test1 = get_benchmark("locking"), get_benchmark("test1")
    steady = run(locking, Discretization.build(build_rect_mesh(3, 3), locking.params),
                 TimeScheme(dt=1e-4, n_steps=1, theta=1), compute_errors=False)
    varying = run(test1, Discretization.build(build_rect_mesh(3, 3), test1.params),
                  TimeScheme(dt=2e-4, n_steps=1, theta=1), compute_errors=False)
    assert steady.time_independent_loads is True
    assert varying.time_independent_loads is False


def test_load_periodic_over_the_run_is_not_steady():
    # sin(2 pi t / T) vanishes at t = 0 and at t = T, but not in between:
    # the flag must follow the loads the steps used, not the two ends.
    bench = zero_benchmark()
    period = 4e-3

    def pulsing(x: np.ndarray, t: float) -> np.ndarray:
        return np.full(x.shape[0], np.sin(2.0 * np.pi * t / period))

    pulsed = dataclasses.replace(
        bench, sources=dataclasses.replace(bench.sources, phi=pulsing)
    )
    result = run(pulsed, Discretization.build(build_rect_mesh(2, 2), pulsed.params),
                 TimeScheme(dt=1e-3, n_steps=4, theta=1))
    assert result.time_independent_loads is False


def test_error_reporting_modes():
    bench = get_benchmark("test1")
    scheme = TimeScheme(dt=2e-4, n_steps=2, theta=1)
    disc = Discretization.build(build_rect_mesh(3, 3), bench.params)
    auto = run(bench, disc, scheme)
    off = run(bench, disc, scheme, compute_errors=False)
    assert auto.errors is not None
    assert set(auto.errors) >= {"u", "p"}
    assert off.errors is None
    assert off.records[-1].err_u_L2 is None
    assert auto.records[-1].err_u_L2 is not None


def test_incompatible_pure_traction_load_warns():
    # Upward pull on the top side only: nonzero net force, so no solution of
    # the pure-traction problem exists; the run must say so.
    bench = conservation_benchmark(phi_const=0.0, flux_bottom=0.0)
    mechanical = {
        tag: MechanicalBC(traction=zero_vector) for tag in BoundarySegment
    }
    mechanical[BoundarySegment.TOP] = MechanicalBC(
        traction=normal_traction(BoundarySegment.TOP)
    )
    bcs = BoundaryConditionSpec(mechanical=mechanical, flow=bench.bcs.flow)
    bad = dataclasses.replace(bench, bcs=bcs)
    disc = Discretization.build(build_rect_mesh(2, 2), bad.params)
    with pytest.warns(UserWarning, match="incompatible"):
        run(bad, disc, TimeScheme(dt=1e-2, n_steps=1, theta=1))


def test_pure_traction_load_checked_at_every_step():
    # Traction t * n on the top side only: balanced at t = 0, where it
    # vanishes, and a net upward pull at every later step.
    bench = conservation_benchmark(phi_const=0.0, flux_bottom=0.0)
    pull = normal_traction(BoundarySegment.TOP)

    def growing(x: np.ndarray, t: float) -> np.ndarray:
        return t * pull(x, t)

    mechanical = {
        tag: MechanicalBC(traction=zero_vector) for tag in BoundarySegment
    }
    mechanical[BoundarySegment.TOP] = MechanicalBC(traction=growing)
    bcs = BoundaryConditionSpec(mechanical=mechanical, flow=bench.bcs.flow)
    bad = dataclasses.replace(bench, bcs=bcs)
    disc = Discretization.build(build_rect_mesh(2, 2), bad.params)
    with pytest.warns(UserWarning, match="incompatible") as caught:
        run(bad, disc, TimeScheme(dt=1e-2, n_steps=3, theta=1))
    incompatible = [w for w in caught if "incompatible" in str(w.message)]
    assert len(incompatible) == 1
    assert "step 1 " in str(incompatible[0].message)


@pytest.mark.parametrize("field", ["mu", "K", "mu_f"])
def test_step_systems_reject_a_discretization_of_other_coefficients(field):
    bench = get_benchmark("test1")
    other = dataclasses.replace(bench.params, **{field: 2.0 * getattr(bench.params, field)})
    disc = Discretization.build(build_rect_mesh(2, 2), other)
    with pytest.raises(ValueError, match="discretization carries mu"):
        StepSystems(bench, disc, TimeScheme(dt=1e-4, n_steps=1, theta=1), _boundary(bench, disc))
    with pytest.raises(ValueError, match="discretization carries mu"):
        run(bench, disc, TimeScheme(dt=1e-4, n_steps=1, theta=1))


def test_step_systems_accept_a_discretization_of_other_storage():
    # c0, lam and alpha enter no operator of the discretization.
    bench = get_benchmark("test1")
    other = dataclasses.replace(bench.params, c0=0.5, lam=3.0, alpha=0.5)
    disc = Discretization.build(build_rect_mesh(2, 2), other)
    result = run(bench, disc, TimeScheme(dt=1e-4, n_steps=1, theta=1))
    reference = run(bench, Discretization.build(build_rect_mesh(2, 2), bench.params),
                    TimeScheme(dt=1e-4, n_steps=1, theta=1))
    assert np.array_equal(result.states[-1].u, reference.states[-1].u)
    assert np.array_equal(result.states[-1].p, reference.states[-1].p)


def test_decoupled_rejects_singular_enclosed_zero_storage_problem():
    # u . n Dirichlet on every side plus kappa3 = 0 puts constant xi in the
    # kernel of the decoupled Stokes block; the run must refuse up front.
    bench = zero_benchmark()
    mechanical = {
        tag: MechanicalBC(dirichlet=(zero_scalar, zero_scalar))
        for tag in BoundarySegment
    }
    bcs = BoundaryConditionSpec(mechanical=mechanical, flow=bench.bcs.flow)
    params = dataclasses.replace(bench.params, c0=0.0)
    enclosed = dataclasses.replace(bench, bcs=bcs, params=params)
    disc = Discretization.build(build_rect_mesh(2, 2), enclosed.params)
    with pytest.raises(ValueError, match="singular"):
        run(enclosed, disc, TimeScheme(dt=1e-3, n_steps=1, theta=0))
    # The coupled scheme handles the same problem without complaint.
    result = run(enclosed, disc, TimeScheme(dt=1e-3, n_steps=1, theta=1))
    assert np.max(np.abs(result.states[-1].u)) == 0.0


def test_compatible_pure_traction_run_is_clean():
    import warnings as _warnings

    bench = conservation_benchmark()
    with _warnings.catch_warnings():
        _warnings.simplefilter("error")
        result = run(bench, Discretization.build(build_rect_mesh(3, 3), bench.params),
                     TimeScheme(dt=0.02, n_steps=2, theta=1))
    assert np.all(np.isfinite(result.states[-1].u))


# ---------------------------------------------------------------------------
# Factorization order and fill
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("theta", [0, 1])
def test_factorization_orders_are_permutations_with_lagrange_rows_last(theta):
    # Pure traction: every mechanical system carries three rigid-motion rows.
    bench = conservation_benchmark()
    disc = Discretization.build(build_rect_mesh(4, 3), bench.params)
    systems = StepSystems(
        bench, disc, TimeScheme(dt=1e-3, n_steps=1, theta=theta), _boundary(bench, disc)
    )
    records = [systems.coupled] if theta == 1 else [systems.stokes, systems.diffusion]
    for record in records:
        reduced, fact = record.reduced, record.factorization
        n = reduced.matrix.shape[0]
        n_masters = reduced.masters.size
        assert sorted(fact._order.tolist()) == list(range(n))
        assert n - n_masters == reduced.n_lag
        assert fact._order[n_masters:].tolist() == list(range(n_masters, n))
    assert records[0].reduced.n_lag == 3


@pytest.mark.parametrize("name", ["locking", "test1"])
def test_first_separator_decouples_reduced_coupled_matrix_on_jittered_mesh(name):
    # The split is taken on logical grid lines, so moving the vertices off
    # those lines leaves it exact; test1 also couples each eliminated
    # boundary eta to its vertex's xi.
    bench = get_benchmark(name)
    disc = Discretization.build(jittered_mesh(9, 6), bench.params)
    systems = StepSystems(
        bench, disc, TimeScheme(dt=1e-4, n_steps=1, theta=1), _boundary(bench, disc)
    )
    reduced = systems.coupled.reduced
    n_masters = reduced.masters.size
    grid = disc.grid[reduced.masters]
    # The longer side (x: 9 cells) is split at the vertex line nearest its
    # middle, the even line 8 of 0..18.
    line = 8
    left = np.flatnonzero(grid[:, 0] < line)
    right = np.flatnonzero(grid[:, 0] > line)
    separator = np.flatnonzero(grid[:, 0] == line)
    matrix = reduced.matrix[:n_masters, :n_masters].tocsr()
    assert matrix[left][:, right].count_nonzero() == 0
    assert matrix[right][:, left].count_nonzero() == 0
    assert matrix[left][:, separator].count_nonzero() > 0
    assert matrix[right][:, separator].count_nonzero() > 0
    order = systems.coupled.factorization._order[:n_masters]
    assert set(order[: left.size].tolist()) == set(left.tolist())
    assert set(order[left.size : left.size + right.size].tolist()) == set(right.tolist())
    assert set(order[-separator.size :].tolist()) == set(separator.tolist())


def test_coupled_locking_fill_and_residual_at_nx32():
    # Locking's nearly incompressible coupled system: COLAMD ordering gave
    # about 3.6M L+U nonzeros here, grid nested dissection about 1.66M.
    bench = get_benchmark("locking")
    disc = Discretization.build(build_rect_mesh(32, 32), bench.params)
    (initial,) = init_state([bench], disc, LinearSolves())
    systems = StepSystems(bench, disc, TimeScheme(dt=1e-4, n_steps=1, theta=1), initial.boundary)
    assert systems.coupled.factorization.lu_nnz <= 2_500_000
    state = step_coupled(initial.state, systems, *assemble_load(systems.loads, 1e-4))
    assert state.t == pytest.approx(1e-4)
    assert systems.solve_reports[-1].relative_residual <= 1e-11


def test_run_records_each_factorization():
    scheme = TimeScheme(dt=1e-3, n_steps=1, theta=0)
    bench = get_benchmark("barry_mercer")
    disc = Discretization.build(build_rect_mesh(3, 3), bench.params)
    result = run(bench, disc, scheme)
    labels = [f.label for f in result.factorizations]
    assert labels == ["initial mass projections", "Stokes system", "diffusion system"]
    by_label = {f.label: f for f in result.factorizations}
    assert by_label["initial mass projections"].unknowns == disc.dofmap.n_scalar
    assert all(f.lu_nnz >= f.unknowns > 0 for f in result.factorizations)


@pytest.mark.parametrize("name, theta", [("test1", 1), ("barry_mercer", 0)])
def test_hand_loop_of_steps_reproduces_run(name, theta):
    # The step functions take the loads of the new time; a loop that
    # assembles them reproduces run() bit for bit.
    bench = get_benchmark(name)
    disc = Discretization.build(build_rect_mesh(4, 4), bench.params)
    scheme = TimeScheme(dt=bench.default_dt, n_steps=3, theta=theta)
    result = run(bench, disc, scheme, keep_steps=range(scheme.n_steps + 1))
    (initial,) = init_state([bench], disc, LinearSolves())
    systems = StepSystems(bench, disc, scheme, initial.boundary)
    step = step_coupled if theta == 1 else step_decoupled
    states = [initial.state]
    for _ in range(scheme.n_steps):
        t_next = states[-1].t + scheme.dt
        states.append(step(states[-1], systems, *assemble_load(systems.loads, t_next)))
    assert len(result.states) == len(states) == 4
    for got, want in zip(states, result.states):
        assert got.t == want.t
        for field in ("u", "xi", "eta", "eta_theta", "p", "q"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
