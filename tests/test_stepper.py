"""Time integration: schemes, initial data, stepping, run-level plumbing."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import porofem.assembly
import porofem.diagnostics
import porofem.stepper
from porofem.assembly import DofMap
from porofem.diagnostics import ErrorEvaluator, check_state_consistency
from porofem.mesh import BoundarySegment, build_rect_mesh
from porofem.model import (
    BoundaryConditionSpec,
    FlowBC,
    MechanicalBC,
    get_benchmark,
)
from porofem.stepper import (
    StepSystems,
    TimeScheme,
    evaluate_gate,
    init_state,
    run,
)

from helpers import (
    conservation_benchmark,
    normal_traction,
    zero_benchmark,
    zero_scalar,
    zero_vector,
)


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
        result = run(bench, mesh, scheme)
    assert result.gate is not None and not result.gate.satisfied
    assert np.max(np.abs(result.final_state.u)) == 0.0


def test_coupled_run_has_no_gate():
    result = run(zero_benchmark(), build_rect_mesh(2, 2),
                 TimeScheme(dt=1e-3, n_steps=1, theta=1))
    assert result.gate is None


# ---------------------------------------------------------------------------
# Initial data
# ---------------------------------------------------------------------------


def test_init_state_reproduces_in_space_data():
    bench = get_benchmark("polynomial")
    mesh = build_rect_mesh(3, 3)
    dofmap = DofMap.from_mesh(mesh)
    state = init_state(bench, mesh, dofmap)
    coords = mesh.p2_node_coords()
    u_exact = _interleave(bench.exact_u(coords, 0.0))
    p_exact = bench.exact_p(mesh.vertices, 0.0)
    assert np.max(np.abs(state.u - u_exact)) <= 1e-10
    assert np.max(np.abs(state.p - p_exact)) <= 1e-10
    assert np.max(np.abs(state.q)) <= 1e-10  # divergence-free initial field
    assert state.t == 0.0


def test_init_state_identities_hold_exactly():
    bench = get_benchmark("test1")
    state = init_state(bench, build_rect_mesh(4, 4))
    p_res, q_res = check_state_consistency(state, bench.coeffs)
    assert max(p_res, q_res) == 0.0


def test_init_state_pressure_projection_second_order():
    bench = get_benchmark("test1")
    errs = []
    for nx in (8, 16):
        mesh = build_rect_mesh(nx, nx)
        dofmap = DofMap.from_mesh(mesh)
        state = init_state(bench, mesh, dofmap)
        errs.append(ErrorEvaluator(bench, mesh, dofmap).evaluate(state)["p_L2"])
    rate = np.log2(errs[0] / errs[1])
    assert 1.8 <= rate <= 2.2


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("theta", [0, 1])
def test_zero_data_stays_zero(theta):
    result = run(
        zero_benchmark(),
        build_rect_mesh(3, 3),
        TimeScheme(dt=1e-3, n_steps=4, theta=theta),
        keep_states=True,
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
    result = run(bench, mesh, scheme, keep_states=True)
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
    assert report.variables["u"].linf_l2 <= tol
    assert report.variables["p"].linf_l2 <= tol


def test_decoupled_boundary_elimination_instability_is_detected():
    # With c0 = 0 and pressure-Dirichlet data, the decoupled step's nodal
    # eta elimination feeds the fresh xi back with gain above one for these
    # materials: errors grow geometrically no matter the step size.  The
    # run must measure that amplification and warn; the scheme stays
    # consistent, so a short horizon still tracks the exact solution.
    bench = get_benchmark("polynomial")
    mesh = build_rect_mesh(4, 4)
    with pytest.warns(UserWarning, match="amplifies"):
        result = run(bench, mesh, TimeScheme(dt=1e-3, n_steps=8, theta=0),
                     keep_states=True, compute_errors=False)
    rho = result.decoupled_amplification
    assert rho is not None and rho > 1.5
    coords = mesh.p2_node_coords()
    for state in result.states:
        u_exact = _interleave(bench.exact_u(coords, state.t))
        assert np.max(np.abs(state.u - u_exact)) <= 1e-7
    # Stable configurations carry the estimate without warning: the same
    # elimination with unit storage has gain below one.
    stable = run(get_benchmark("test1"), mesh,
                 TimeScheme(dt=2e-4, n_steps=1, theta=0), compute_errors=False)
    assert stable.decoupled_amplification is not None
    assert stable.decoupled_amplification < 1.0


def test_decoupled_matches_coupled_to_first_order_in_dt():
    # The two schemes differ only through the lagged eta, so their gap at
    # the final time must shrink linearly with the step size.
    bench = get_benchmark("test1")
    mesh = build_rect_mesh(8, 8)
    gaps = []
    for dt, n in ((1e-4, 10), (5e-5, 20)):
        finals = []
        for theta in (0, 1):
            result = run(bench, mesh, TimeScheme(dt=dt, n_steps=n, theta=theta),
                         compute_errors=False)
            finals.append(result.final_state)
        gaps.append(np.max(np.abs(finals[0].xi - finals[1].xi)))
    ratio = gaps[0] / gaps[1]
    assert 1.6 <= ratio <= 2.5


@pytest.mark.parametrize("theta", [0, 1])
def test_pressure_boundary_data_enforced_at_new_time(theta):
    bench = get_benchmark("test1")
    mesh = build_rect_mesh(4, 4)
    result = run(bench, mesh, TimeScheme(dt=2e-4, n_steps=5, theta=theta),
                 keep_states=True, compute_errors=False)
    k1, k2 = bench.coeffs.kappa1, bench.coeffs.kappa2
    boundary = mesh.vertices_on_boundary()
    for state in result.states[1:]:
        p_data = bench.exact_p(mesh.vertices[boundary], state.t)
        recovered = k1 * state.xi[boundary] + k2 * state.eta[boundary]
        assert np.max(np.abs(recovered - p_data)) <= 1e-9


def test_displacement_dirichlet_enforced_at_new_time():
    bench = get_benchmark("test1")
    mesh = build_rect_mesh(4, 4)
    result = run(bench, mesh, TimeScheme(dt=2e-4, n_steps=3, theta=1),
                 keep_states=True, compute_errors=False)
    coords = mesh.p2_node_coords()
    left = np.flatnonzero(np.abs(coords[:, 0]) <= 1e-14)
    for state in result.states[1:]:
        # u1 = t/2 * x1^2 = 0 on the left side, prescribed strongly.
        assert np.max(np.abs(state.u[2 * left])) <= 1e-12


def test_state_identities_hold_along_trajectory():
    bench = get_benchmark("test1")
    result = run(bench, build_rect_mesh(4, 4),
                 TimeScheme(dt=2e-4, n_steps=5, theta=0),
                 keep_states=True, compute_errors=False)
    for state in result.states:
        p_res, q_res = check_state_consistency(state, bench.coeffs)
        assert max(p_res, q_res) <= 1e-14


# ---------------------------------------------------------------------------
# Conservation along a run
# ---------------------------------------------------------------------------


def test_conserved_quantities_tracked_to_rounding():
    bench = conservation_benchmark()
    mesh = build_rect_mesh(4, 4)
    result = run(bench, mesh, TimeScheme(dt=0.02, n_steps=5, theta=1),
                 keep_states=True)
    assert result.errors is None  # no exact closures on this fixture
    for record in result.records:
        assert record.c_eta_res is not None and record.c_eta_res <= 1e-12
        assert record.c_xi_res is not None and record.c_xi_res <= 1e-12
        assert record.flux_res is not None and record.flux_res <= 1e-12
    # Hand value: (eta(T), 1) = T * (phi*|domain| + flux*|bottom|) = 0.1*1.3.
    final_refs = result.conservation[-1]
    assert final_refs.eta_measured == pytest.approx(0.13, rel=1e-10)
    assert final_refs.c_eta == pytest.approx(0.13, rel=1e-12)


def test_conservation_residuals_marked_inapplicable_with_dirichlet_bcs():
    bench = get_benchmark("test1")
    result = run(bench, build_rect_mesh(3, 3),
                 TimeScheme(dt=2e-4, n_steps=2, theta=1), compute_errors=False)
    refs = result.conservation[-1]
    assert not refs.eta_applicable
    assert not refs.traction_applicable
    for record in result.records:
        assert record.c_eta_res is None
        assert record.c_xi_res is None
        assert record.flux_res is None


# ---------------------------------------------------------------------------
# Energy stream
# ---------------------------------------------------------------------------


def test_energy_identity_machine_exact_for_steady_loads():
    bench = get_benchmark("locking")
    mesh = build_rect_mesh(8, 8)
    result = run(bench, mesh, TimeScheme(dt=1e-4, n_steps=10, theta=1),
                 compute_errors=False)
    j0 = result.energy[0].J
    scale = max(1.0, abs(j0))
    for rec in result.energy:
        assert abs(rec.residual) <= 1e-10 * scale
        assert rec.s_hat_cum is None and rec.hat_slack is None


def test_decoupled_energy_identity_and_inequality():
    bench = get_benchmark("locking")
    mesh = build_rect_mesh(8, 8)
    result = run(bench, mesh, TimeScheme(dt=1e-4, n_steps=10, theta=0),
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
    result = run(zero_benchmark(), build_rect_mesh(2, 2),
                 TimeScheme(dt=1e-3, n_steps=0, theta=1))
    assert len(result.states) == 1
    assert result.records == [] and result.energy == [] and result.conservation == []
    assert result.solve_count == 0
    assert result.initial_state is result.final_state


def test_pure_traction_boundary_data_built_once(monkeypatch):
    calls = []
    original = porofem.assembly.assemble_vector_mass

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (porofem.assembly, porofem.diagnostics):
        monkeypatch.setattr(module, "assemble_vector_mass", counting)
    counts = []
    for n_steps in (2, 6):
        calls.clear()
        run(conservation_benchmark(), build_rect_mesh(2, 2),
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
    run(get_benchmark("test1"), build_rect_mesh(3, 3), TimeScheme(dt=1e-4, n_steps=2, theta=1))
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["test1", "conservation"])
def test_init_state_reuses_step_systems(name):
    bench = conservation_benchmark() if name == "conservation" else get_benchmark(name)
    mesh = build_rect_mesh(4, 4, rect=bench.rect)
    dofmap = DofMap.from_mesh(mesh)
    systems = StepSystems(bench, mesh, TimeScheme(dt=1e-3, n_steps=1, theta=1), dofmap)
    shared = init_state(bench, mesh, dofmap, systems=systems)
    alone = init_state(bench, mesh, dofmap)
    for field in ("u", "xi", "eta", "eta_theta", "p", "q"):
        assert np.array_equal(getattr(shared, field), getattr(alone, field)), field


@pytest.mark.parametrize("keep,expected", [(False, 2), (True, 6)])
def test_state_retention(keep, expected):
    result = run(zero_benchmark(), build_rect_mesh(2, 2),
                 TimeScheme(dt=1e-3, n_steps=5, theta=1), keep_states=keep)
    assert len(result.states) == expected
    assert result.final_state.t == pytest.approx(5e-3)


def test_solve_counts_per_scheme():
    bench = zero_benchmark()
    mesh = build_rect_mesh(2, 2)
    r1 = run(bench, mesh, TimeScheme(dt=1e-3, n_steps=4, theta=1))
    r0 = run(bench, mesh, TimeScheme(dt=1e-3, n_steps=4, theta=0))
    assert r1.solve_count == 4  # one monolithic solve per step
    assert r0.solve_count == 8  # Stokes + diffusion per step
    assert r1.max_solver_residual <= 1e-10
    assert r0.max_solver_residual <= 1e-10


def test_time_independence_flag():
    steady = run(get_benchmark("locking"), build_rect_mesh(3, 3),
                 TimeScheme(dt=1e-4, n_steps=1, theta=1), compute_errors=False)
    varying = run(get_benchmark("test1"), build_rect_mesh(3, 3),
                  TimeScheme(dt=2e-4, n_steps=1, theta=1), compute_errors=False)
    assert steady.time_independent_loads is True
    assert varying.time_independent_loads is False


def test_error_reporting_modes():
    bench = get_benchmark("test1")
    mesh = build_rect_mesh(3, 3)
    scheme = TimeScheme(dt=2e-4, n_steps=2, theta=1)
    auto = run(bench, mesh, scheme)
    off = run(bench, mesh, scheme, compute_errors=False)
    assert auto.errors is not None
    assert set(auto.errors.variables) >= {"u", "p"}
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
    with pytest.warns(UserWarning, match="incompatible"):
        run(bad, build_rect_mesh(2, 2), TimeScheme(dt=1e-2, n_steps=1, theta=1))


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
    mesh = build_rect_mesh(2, 2)
    with pytest.raises(ValueError, match="singular"):
        run(enclosed, mesh, TimeScheme(dt=1e-3, n_steps=1, theta=0))
    # The coupled scheme handles the same problem without complaint.
    result = run(enclosed, mesh, TimeScheme(dt=1e-3, n_steps=1, theta=1))
    assert np.max(np.abs(result.final_state.u)) == 0.0


def test_compatible_pure_traction_run_is_clean():
    import warnings as _warnings

    bench = conservation_benchmark()
    with _warnings.catch_warnings():
        _warnings.simplefilter("error")
        result = run(bench, build_rect_mesh(3, 3),
                     TimeScheme(dt=0.02, n_steps=2, theta=1))
    assert np.all(np.isfinite(result.final_state.u))
