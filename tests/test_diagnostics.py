"""Diagnostics: energy audit, conservation, errors/rates, locking, inf-sup,
vanishing-storage sweep."""

from __future__ import annotations

import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import porofem.assembly
import porofem.diagnostics
import porofem.stepper
from porofem.assembly import (
    DofMap,
    DomainQuadrature,
    LoadAssembler,
    assemble_elasticity,
    assemble_load,
    assemble_scalar_mass,
    assemble_scalar_stiffness,
    assemble_vector_mass,
)
from porofem.diagnostics import (
    ConservationTracker,
    ConservedQuantities,
    EnergyAuditor,
    ErrorEvaluator,
    boundary_flux_functional,
    extract_rates,
    summarize_error_history,
)
from porofem.elements import (
    AffineMaps,
    edge_quadrature,
    edge_trace_p2,
    eval_basis,
    physical_points,
    triangle_quadrature,
)
from porofem.mesh import BoundarySegment, build_rect_mesh
from porofem.model import (
    BoundaryConditionSpec,
    DerivedCoeffs,
    FlowBC,
    MaterialParams,
    MechanicalBC,
    get_benchmark,
)
from porofem.stepper import (
    Discretization, FieldState, SweepRow, TimeScheme, biot_limit_sweep, run,
)

from helpers import (
    conservation_benchmark,
    infsup_constant,
    initial_state,
    jittered_mesh,
    locking_scan,
    taylor_hood_infsup,
    triangle_areas,
    zero_benchmark,
    zero_scalar,
)


def _scalar_state(mesh, p_values, t=0.0):
    dofmap = DofMap.from_mesh(mesh)
    zeros_u = np.zeros(dofmap.n_u)
    zeros = np.zeros(dofmap.n_scalar)
    # kappa = (0, 1, 0) makes p = eta_theta and q = 0.
    p = np.asarray(p_values, dtype=float)
    return FieldState(t=t, u=zeros_u, xi=zeros, eta=zeros, eta_theta=p,
                      coeffs=DerivedCoeffs(0.0, 1.0, 0.0))


# ---------------------------------------------------------------------------
# Energy audit
# ---------------------------------------------------------------------------


class _ReferenceAuditor:
    """The energy audit as EnergyAuditor computed it before it reused its
    products: J from fresh A u, M eta_theta and M xi products, and each
    step's dissipation from fresh products of the difference quotients."""

    def __init__(self, A, M, S, mech_load, flow_load, coeffs, theta, dt):
        self.A, self.M, self.S = A, M, S
        self.mech_load, self.flow_load = mech_load, flow_load
        self.coeffs, self.theta, self.dt = coeffs, theta, dt
        self._prev = self._j0 = None
        self._s_cum = self._s_hat_cum = 0.0

    def _energy(self, state):
        k2, k3 = self.coeffs.kappa2, self.coeffs.kappa3
        quad = (
            state.u @ (self.A @ state.u)
            + k2 * (state.eta_theta @ (self.M @ state.eta_theta))
            + k3 * (state.xi @ (self.M @ state.xi))
        )
        return 0.5 * quad - float(self.mech_load @ state.u)

    def ingest(self, state):
        j = self._energy(state)
        prev, self._prev = self._prev, state
        if prev is None:
            self._j0 = j
        else:
            self._dissipate(prev, state)
        decoupled = self.theta == 0
        return porofem.diagnostics.EnergyRecord(
            t=state.t,
            J=j,
            s_cum=self._s_cum,
            residual=j + self._s_cum - self._j0,
            s_hat_cum=self._s_hat_cum if decoupled else None,
            hat_slack=j + self._s_hat_cum - self._j0 if decoupled else None,
        )

    def _dissipate(self, prev, state):
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


class _Counted:
    """A sparse operator whose products with vectors are counted."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.shape = matrix.shape
        self.products = 0

    def __matmul__(self, vec):
        self.products += 1
        return self.matrix @ vec


def _audit(states, theta, dt, bench, mesh, auditor=EnergyAuditor):
    """The energy identity evaluated along a trajectory by an EnergyAuditor
    (or another auditor class of its signature) built from freshly assembled
    operators and the loads at the initial state's time, independent of the
    run that produced the states; the auditor is fed the stepped states."""
    dofmap = DofMap.from_mesh(mesh)
    prm = bench.params
    A = assemble_elasticity(mesh, dofmap, prm.mu)
    M = assemble_scalar_mass(mesh, dofmap)
    S = assemble_scalar_stiffness(mesh, dofmap, prm.K)
    quadrature = DomainQuadrature.from_mesh(mesh, dofmap)
    loads = LoadAssembler.build(mesh, dofmap, quadrature, bench.sources, bench.bcs)
    mech, flow = assemble_load(loads, states[0].t)
    audit = auditor(A, M, S, mech, flow, bench.coeffs, theta, dt)
    return [audit.ingest(state) for state in states[1:]]


def _track(states, theta, dt, bench, mesh):
    """The conserved quantities along a trajectory, from a
    ConservationTracker built from freshly assembled operators and started
    from the initial state, independent of the run that produced the
    states; each stepped state is measured with the loads at its time, as
    run() assembles them."""
    dofmap = DofMap.from_mesh(mesh)
    M = assemble_scalar_mass(mesh, dofmap)
    quadrature = DomainQuadrature.from_mesh(mesh, dofmap)
    loads = LoadAssembler.build(mesh, dofmap, quadrature, bench.sources, bench.bcs)
    tracker = ConservationTracker(bench, mesh, dofmap, M, theta, states[0])
    return [tracker.advance(state, dt, *assemble_load(loads, state.t)) for state in states[1:]]


def test_energy_audit_zero_run():
    bench = zero_benchmark()
    mesh = build_rect_mesh(3, 3)
    disc = Discretization.build(mesh, bench.params)
    result = run(bench, disc, TimeScheme(dt=1e-3, n_steps=3, theta=1),
                 keep_steps=range(4))
    records = _audit(result.states, 1, 1e-3, bench, mesh)
    assert len(records) == 3
    for rec in records:
        assert rec.J == 0.0 and rec.s_cum == 0.0 and rec.residual == 0.0


@pytest.mark.parametrize("theta", [0, 1])
def test_energy_audit_matches_run_records(theta):
    bench = get_benchmark("locking")
    mesh = build_rect_mesh(6, 6)
    disc = Discretization.build(mesh, bench.params)
    result = run(bench, disc, TimeScheme(dt=1e-4, n_steps=6, theta=theta),
                 keep_steps=range(7), compute_errors=False)
    records = _audit(result.states, theta, 1e-4, bench, mesh)
    assert len(records) == len(result.records)
    for ext, internal in zip(records, result.records):
        assert ext.t == internal.t
        assert ext.J == pytest.approx(internal.J, rel=1e-12, abs=1e-14)
        assert ext.s_cum == pytest.approx(internal.S_cum, rel=1e-12, abs=1e-14)
        assert abs(ext.residual) <= 1e-10 * max(1.0, abs(records[0].J))


def test_energy_level_indexing():
    bench = get_benchmark("locking")
    mesh = build_rect_mesh(4, 4)
    disc = Discretization.build(mesh, bench.params)
    result = run(bench, disc, TimeScheme(dt=1e-4, n_steps=4, theta=1),
                 compute_errors=False)
    steps = [rec.step for rec in result.records]
    assert steps == [1, 2, 3, 4]
    # level ell = step - 1 is recorded once the state of step ell+1 exists
    assert result.records[0].t == pytest.approx(1e-4)
    # J^0 is the energy of step 1's state, so level 0 has no dissipation
    assert result.records[0].S_cum == 0.0 and result.records[0].energy_residual == 0.0


# The first slack is 0 by construction, so each case has its maximum past step 1.
@pytest.mark.filterwarnings("ignore:decoupled scheme amplifies errors")
@pytest.mark.parametrize("name", ["polynomial", "barry_mercer"])
def test_max_hat_slack_is_the_audited_maximum(name):
    bench = get_benchmark(name)
    mesh = build_rect_mesh(6, 6)
    disc = Discretization.build(mesh, bench.params)
    dt = bench.default_dt
    result = run(bench, disc, TimeScheme(dt=dt, n_steps=6, theta=0),
                 keep_steps=range(7), compute_errors=False)
    slacks = [rec.hat_slack for rec in _audit(result.states, 0, dt, bench, mesh)]
    assert len(slacks) == 6 and max(slacks) > slacks[0]
    assert result.max_hat_slack == max(slacks)


@pytest.mark.filterwarnings("ignore:decoupled scheme amplifies errors")
@pytest.mark.parametrize(
    "name, nx, theta",
    [("locking", 6, 0), ("locking", 6, 1), ("barry_mercer", 4, 0), ("test1", 4, 1)],
)
def test_energy_audit_matches_the_reference_audit(name, nx, theta):
    # The reused products change S, S_hat and the residuals by rounding
    # only; J is formed from the same products in the same order.
    bench = get_benchmark(name)
    mesh = build_rect_mesh(nx, nx)
    dt = 1e-4 if name == "locking" else bench.default_dt
    result = run(bench, Discretization.build(mesh, bench.params),
                 TimeScheme(dt=dt, n_steps=6, theta=theta), keep_steps=range(7),
                 compute_errors=False)
    records = _audit(result.states, theta, dt, bench, mesh)
    reference = _audit(result.states, theta, dt, bench, mesh, auditor=_ReferenceAuditor)
    scale = 1e-12 * max(1.0, abs(reference[0].J))
    assert len(records) == len(reference) == 6
    for rec, ref in zip(records, reference):
        assert rec.t == ref.t and rec.J == ref.J
        for field in ("s_cum", "s_hat_cum", "residual", "hat_slack"):
            got, want = getattr(rec, field), getattr(ref, field)
            if theta == 1 and field in ("s_hat_cum", "hat_slack"):
                assert got is None and want is None
            else:
                assert abs(got - want) <= scale, field
    assert reference[-1].s_cum != 0.0


@pytest.mark.parametrize("theta", [0, 1])
def test_energy_audit_forms_each_product_once_per_level(theta):
    bench = get_benchmark("locking")
    mesh = build_rect_mesh(4, 4)
    dofmap = DofMap.from_mesh(mesh)
    result = run(bench, Discretization.build(mesh, bench.params),
                 TimeScheme(dt=1e-4, n_steps=4, theta=theta), keep_steps=range(5),
                 compute_errors=False)
    prm = bench.params
    A = _Counted(assemble_elasticity(mesh, dofmap, prm.mu))
    M = _Counted(assemble_scalar_mass(mesh, dofmap))
    S = _Counted(assemble_scalar_stiffness(mesh, dofmap, prm.K))
    zeros = np.zeros(dofmap.n_u), np.zeros(dofmap.n_scalar)
    auditor = EnergyAuditor(A, M, S, *zeros, bench.coeffs, theta, 1e-4)
    counts = []
    for state in result.states[1:]:
        before = (A.products, M.products, S.products)
        auditor.ingest(state)
        counts.append(tuple(op.products - n for op, n in zip((A, M, S), before)))
    # Level 0 forms J only; each later level adds S p and reuses the rest.
    assert counts == [(1, 2, 0)] + [(1, 2, 1)] * 3


# ---------------------------------------------------------------------------
# Conservation
# ---------------------------------------------------------------------------


def test_conserved_references_match_hand_recursion():
    # lam=2, mu=1, alpha=1, c0=0.5 -> kappa = (1/2, 1, 1/4); traction f1 = n
    # gives work <f1, x> = 2*|domain| = 2; C_eta(t) = 1.3 t; hence at t = 0.1
    # C_xi = (0.5*0.13 - 2)/(2 + 0.25) = -0.86, C_u = 0.5*0.13 + 0.25*0.86 = 0.28.
    bench = conservation_benchmark()
    mesh = build_rect_mesh(4, 4)
    result = run(bench, Discretization.build(mesh, bench.params),
                 TimeScheme(dt=0.02, n_steps=5, theta=1), keep_steps=range(6))
    refs = _track(result.states, 1, 0.02, bench, mesh)[-1]
    assert refs.c_eta == pytest.approx(0.13, rel=1e-12)
    assert refs.c_xi == pytest.approx(-0.86, rel=1e-12)
    assert refs.c_u == pytest.approx(0.28, rel=1e-12)
    assert refs.eta_measured == pytest.approx(0.13, rel=1e-10)
    assert refs.xi_measured == pytest.approx(-0.86, rel=1e-10)
    assert refs.flux_measured == pytest.approx(0.28, rel=1e-10)


def test_conserved_references_use_lagged_eta_for_decoupled_scheme():
    # Same fixture with theta = 0: the xi identity pairs with eta at the
    # previous level, so at t = 0.1 the reference is (0.65*0.08 - 2)/2.25.
    bench = conservation_benchmark()
    mesh = build_rect_mesh(4, 4)
    result = run(bench, Discretization.build(mesh, bench.params),
                 TimeScheme(dt=0.02, n_steps=5, theta=0), keep_steps=range(6))
    refs = _track(result.states, 0, 0.02, bench, mesh)[-1]
    expected = (0.65 * 0.08 - 2.0) / 2.25
    assert refs.c_xi == pytest.approx(expected, rel=1e-12)
    assert abs(refs.xi_measured - refs.c_xi) <= 1e-12


@pytest.mark.parametrize(
    "neumann_flow, traction, expected",
    [
        (True, True, (0.25, 0.1, 0.5)),
        (True, False, (0.25, None, None)),
        (False, True, None),
        (False, False, None),
    ],
    ids=["both", "eta-only", "traction-only", "neither"],
)
def test_conservation_residuals_follow_applicability(neumann_flow, traction, expected):
    # The conservation fixture with a clamped left side (not pure traction)
    # and a pressure-Dirichlet top side (not pure-Neumann flow).
    bench = conservation_benchmark()
    mechanical, flow = dict(bench.bcs.mechanical), dict(bench.bcs.flow)
    if not traction:
        mechanical[BoundarySegment.LEFT] = MechanicalBC(dirichlet=(zero_scalar, zero_scalar))
    if not neumann_flow:
        flow[BoundarySegment.TOP] = FlowBC(kind="pressure", value=zero_scalar)
    bench = dataclasses.replace(bench, bcs=BoundaryConditionSpec(mechanical, flow))
    mesh = build_rect_mesh(2, 2)
    dofmap = DofMap.from_mesh(mesh)
    ones = np.ones(dofmap.n_scalar)
    state = FieldState(0.0, np.zeros(dofmap.n_u), ones, ones, ones, bench.coeffs)
    args = (bench, mesh, dofmap, assemble_scalar_mass(mesh, dofmap), 1, state)
    if expected is None:
        with pytest.raises(ValueError, match="pure-Neumann flow"):
            ConservationTracker(*args)
        return
    measured = ConservationTracker(*args).advance(state, 0.1, np.zeros(dofmap.n_u), ones)
    assert (measured.xi_measured is None) == (measured.flux_measured is None) == (not traction)
    assert (measured.c_xi is None) == (measured.c_u is None) == (not traction)

    # Relative to max(1, |reference|): eta 0.5 off a reference 2, xi 0.1
    # off a reference below 1 in size, flux 1.5 off a reference -3.
    xi_and_flux = dict(c_xi=-0.5, c_u=-3.0, xi_measured=-0.4, flux_measured=-4.5)
    refs = ConservedQuantities(t=0.1, c_eta=2.0, eta_measured=2.5, **(xi_and_flux if traction else {}))
    got = (refs.eta_res, refs.xi_res, refs.flux_res)
    for value, want in zip(got, expected):
        assert value == (None if want is None else pytest.approx(want, rel=1e-12))


def test_conservation_tracker_builds_only_what_locking_reads(monkeypatch):
    # Pressure data on test1's boundary: no identity applies, no tracker.
    bench = get_benchmark("test1")
    mesh = build_rect_mesh(2, 2)
    dofmap = DofMap.from_mesh(mesh)
    state = initial_state(bench, mesh)
    with pytest.raises(ValueError, match="pure-Neumann flow"):
        ConservationTracker(bench, mesh, dofmap, assemble_scalar_mass(mesh, dofmap), 1, state)

    # locking has pure-Neumann flow but a clamped side: eta only, and the
    # flux functional is never built.
    def refuse(*args):
        raise AssertionError("boundary flux functional built for a clamped benchmark")

    monkeypatch.setattr(porofem.diagnostics, "boundary_flux_functional", refuse)
    bench = get_benchmark("locking")
    result = run(bench, Discretization.build(build_rect_mesh(4, 4), bench.params),
                 TimeScheme(dt=1e-4, n_steps=3, theta=1))
    assert len(result.records) == 3
    for record in result.records:
        assert record.C_eta_res is not None and record.C_eta_res <= 1e-10
        assert record.C_xi_res is None and record.flux_res is None


def test_run_records_carry_conservation_residuals():
    bench = conservation_benchmark()
    mesh = build_rect_mesh(2, 2)
    result = run(bench, Discretization.build(mesh, bench.params),
                 TimeScheme(dt=0.05, n_steps=2, theta=1), keep_steps=range(3))
    tracked = _track(result.states, 1, 0.05, bench, mesh)
    assert len(result.records) == len(tracked) == 2
    for record, refs in zip(result.records, tracked):
        assert record.t == refs.t
        assert (record.C_eta_res, record.C_xi_res, record.flux_res) == (
            refs.eta_res, refs.xi_res, refs.flux_res
        )
        assert record.C_eta_res <= 1e-10 and record.flux_res <= 1e-10


@pytest.mark.parametrize("theta", [0, 1])
def test_conservation_tracker_advance_forms_no_mass_product(theta):
    # Each integral is a dot product with the basis integrals M 1, which
    # the constructor forms once.
    bench = conservation_benchmark()
    mesh = build_rect_mesh(2, 2)
    dofmap = DofMap.from_mesh(mesh)
    result = run(bench, Discretization.build(mesh, bench.params),
                 TimeScheme(dt=0.05, n_steps=2, theta=theta), keep_steps=range(3))
    M = _Counted(assemble_scalar_mass(mesh, dofmap))
    tracker = ConservationTracker(bench, mesh, dofmap, M, theta, result.states[0])
    assert M.products == 1
    quadrature = DomainQuadrature.from_mesh(mesh, dofmap)
    loads = LoadAssembler.build(mesh, dofmap, quadrature, bench.sources, bench.bcs)
    tracked = [tracker.advance(state, 0.05, *assemble_load(loads, state.t))
               for state in result.states[1:]]
    assert M.products == 1
    assert tracked == _track(result.states, theta, 0.05, bench, mesh)


def test_tracker_starts_from_initial_state():
    bench = conservation_benchmark()
    mesh = build_rect_mesh(2, 2)
    dofmap = DofMap.from_mesh(mesh)
    ones = np.ones(dofmap.n_scalar)
    state = FieldState(0.0, np.zeros(dofmap.n_u), 0.0 * ones, ones, ones, bench.coeffs)
    tracker = ConservationTracker(bench, mesh, dofmap, assemble_scalar_mass(mesh, dofmap), 1, state)
    # eta = 1 integrates to |domain| = 1; with no source over the step the
    # reference stays there, and the unchanged state measures it exactly.
    refs = tracker.advance(state, 0.1, np.zeros(dofmap.n_u), np.zeros(dofmap.n_scalar))
    assert refs.c_eta == pytest.approx(1.0, rel=1e-14)
    assert refs.eta_res == 0.0


def test_boundary_flux_of_simple_fields():
    mesh = build_rect_mesh(3, 3)
    dofmap = DofMap.from_mesh(mesh)
    coords = mesh.p2_node_coords()
    position = np.empty(dofmap.n_u)
    position[0::2] = coords[:, 0]
    position[1::2] = coords[:, 1]
    g = boundary_flux_functional(mesh, dofmap)
    assert g @ position == pytest.approx(2.0, rel=1e-12)
    constant = np.empty(dofmap.n_u)
    constant[0::2] = 3.0
    constant[1::2] = -7.0
    assert g @ constant == pytest.approx(0.0, abs=1e-13)
    quadratic = np.zeros(dofmap.n_u)
    quadratic[0::2] = coords[:, 0] ** 2
    assert g @ quadratic == pytest.approx(1.0, rel=1e-12)


def _reference_boundary_flux(mesh, u):
    """Per-call edge quadrature of u . n, independent of the functional."""
    rule = edge_quadrature(5)
    traces = edge_trace_p2(rule.points[:, 1])
    total = 0.0
    for tag in BoundarySegment:
        normal = tag.normal
        eids = mesh.edges_with_tag(tag)
        nodes = np.column_stack([mesh.edges[eids, 0], mesh.edges[eids, 1], mesh.edge_nodes[eids]])
        un = u[2 * nodes] * normal[0] + u[2 * nodes + 1] * normal[1]
        va = mesh.vertices[mesh.edges[eids, 0]]
        vb = mesh.vertices[mesh.edges[eids, 1]]
        length = np.linalg.norm(vb - va, axis=1)
        total += float(np.einsum("q,eq,e->", rule.weights, un @ traces.T, length))
    return total


def test_boundary_flux_functional_matches_edge_quadrature():
    mesh = jittered_mesh(5, 4, rect=(0.0, -1.0, 2.0, 0.5))
    dofmap = DofMap.from_mesh(mesh)
    g = boundary_flux_functional(mesh, dofmap)
    rng = np.random.default_rng(7)
    for _ in range(3):
        u = rng.standard_normal(dofmap.n_u)
        want = _reference_boundary_flux(mesh, u)
        assert g @ u == pytest.approx(want, rel=1e-13, abs=1e-13)


# ---------------------------------------------------------------------------
# Error norms and rates
# ---------------------------------------------------------------------------


def test_error_evaluator_is_zero_for_exact_state():
    bench = get_benchmark("polynomial")
    mesh = build_rect_mesh(3, 3)
    dofmap = DofMap.from_mesh(mesh)
    state = initial_state(bench, mesh)
    quadrature = DomainQuadrature.from_mesh(mesh, dofmap)
    errs = ErrorEvaluator(bench, mesh, dofmap, quadrature).evaluate(state)
    for key in ("u_L2", "u_H1", "p_L2", "p_H1"):
        assert errs[key] <= 1e-10


def _reference_errors(bench, mesh, dofmap, state):
    """Per-triangle physical gradient tables contracted by einsum: the
    formula ErrorEvaluator.evaluate replaced.  Returns each error with the
    L2 norm of the exact field it measures."""
    rule = triangle_quadrature(6)
    flat = physical_points(mesh, rule.points).reshape(-1, 2)
    maps = AffineMaps.from_mesh(mesh)
    wdet = rule.weights[None, :] * maps.det[:, None]
    p2_vals, p2_grads = eval_basis("P2", rule.points)
    p1_vals, p1_grads = eval_basis("P1", rule.points)
    p2_grads = maps.physical_gradients(p2_grads)
    p1_grads = maps.physical_gradients(p1_grads)
    f, q = mesh.n_triangles, rule.points.shape[0]
    t = state.t

    def norm(sq):
        return float(np.sqrt(np.sum(wdet * sq)))

    u_coef = state.u[dofmap.triangle_u].reshape(f, 6, 2)
    u_vals = np.einsum("qi,fic->fqc", p2_vals, u_coef, optimize=True)
    u_grads = np.einsum("fqia,fic->fqca", p2_grads, u_coef, optimize=True)
    ue = bench.exact_u(flat, t).reshape(f, q, 2)
    ge = bench.exact_grad_u(flat, t).reshape(f, q, 2, 2)
    p_coef = state.p[mesh.triangles]
    p_vals = np.einsum("qj,fj->fq", p1_vals, p_coef, optimize=True)
    p_grads = np.einsum("fqja,fj->fqa", p1_grads, p_coef, optimize=True)
    pe = bench.exact_p(flat, t).reshape(f, q)
    gpe = bench.exact_grad_p(flat, t).reshape(f, q, 2)
    return {
        "u_L2": (norm(np.sum((u_vals - ue) ** 2, axis=2)), norm(np.sum(ue**2, axis=2))),
        "u_H1": (norm(np.sum((u_grads - ge) ** 2, axis=(2, 3))), norm(np.sum(ge**2, axis=(2, 3)))),
        "p_L2": (norm((p_vals - pe) ** 2), norm(pe**2)),
        "p_H1": (norm(np.sum((p_grads - gpe) ** 2, axis=2)), norm(np.sum(gpe**2, axis=2))),
    }


@pytest.mark.parametrize("name", ["test1", "polynomial"])
def test_error_evaluator_matches_reference_formula(name):
    bench = get_benchmark(name)
    mesh = jittered_mesh(6, 6)
    dofmap = DofMap.from_mesh(mesh)
    disc = Discretization.build(mesh, bench.params)
    result = run(bench, disc, TimeScheme(dt=bench.default_dt, n_steps=3, theta=1),
                 compute_errors=False)
    state = result.states[-1]
    quadrature = DomainQuadrature.from_mesh(mesh, dofmap)
    got = ErrorEvaluator(bench, mesh, dofmap, quadrature).evaluate(state)
    want = _reference_errors(bench, mesh, dofmap, state)
    assert set(got) == set(want)
    for key, (value, field) in want.items():
        # polynomial is reproduced exactly, so its errors are rounding noise
        # (1e-16 to 1e-11) that a last-bit change in a gradient moves by
        # 1e-5 relative; compare them against the size of the field instead.
        scale = max(field, value) if name == "polynomial" else value
        assert abs(got[key] - value) <= 1e-13 * scale, key


def _matmul_errors(bench, mesh, dofmap, quadrature, state):
    """The formulation ErrorEvaluator.evaluate had before its gradient
    tables were laid out [f, q, c, a]: P2 gradients pushed forward once per
    triangle by physical_gradients, contracted with the coefficients by a
    batched matmul, and exact fields evaluated at the points on each call."""
    flat, t = quadrature.vector.points, state.t
    weights, maps = quadrature.rule.weights, quadrature.maps
    f, q = mesh.n_triangles, weights.size
    p2_vals, p2_grads = eval_basis("P2", quadrature.rule.points)
    p1_vals, p1_grads = eval_basis("P1", quadrature.rule.points)
    grads = maps.physical_gradients(p2_grads)  # (F, nq, 6, 2)
    table = np.ascontiguousarray(grads.transpose(0, 2, 1, 3)).reshape(f, 6, 2 * q)

    def norm(squares):
        per_point = squares[0].size // q
        return float(np.sqrt(maps.det @ (squares.reshape(f, -1) @ np.repeat(weights, per_point))))

    u_coef = state.u[dofmap.triangle_u]
    u_vals = (u_coef @ np.kron(p2_vals.T, np.eye(2))).reshape(f, q, 2)
    u_grads = np.matmul(u_coef.reshape(f, 6, 2).transpose(0, 2, 1), table).reshape(f, 2, q, 2)
    p_coef = state.p[mesh.triangles]
    p_grads = np.matmul(p_coef[:, None, :], maps.physical_gradients(p1_grads[:1])[:, 0])
    return {
        "u_L2": norm((u_vals - bench.exact_u(flat, t).reshape(f, q, 2)) ** 2),
        "u_H1": norm((u_grads.transpose(0, 2, 1, 3) - bench.exact_grad_u(flat, t).reshape(f, q, 2, 2)) ** 2),
        "p_L2": norm((p_coef @ p1_vals.T - bench.exact_p(flat, t).reshape(f, q)) ** 2),
        "p_H1": norm((p_grads - bench.exact_grad_p(flat, t).reshape(f, q, 2)) ** 2),
    }


@pytest.mark.parametrize("mesh", [jittered_mesh(9, 6), build_rect_mesh(8, 8)],
                         ids=["jittered", "unit"])
def test_error_evaluator_gradient_layout_matches_matmul_formulation(mesh):
    bench = get_benchmark("test1")
    dofmap = DofMap.from_mesh(mesh)
    disc = Discretization.build(mesh, bench.params)
    result = run(bench, disc, TimeScheme(dt=bench.default_dt, n_steps=3, theta=1),
                 compute_errors=False)
    state = result.states[-1]
    quadrature = DomainQuadrature.from_mesh(mesh, dofmap)
    got = ErrorEvaluator(bench, mesh, dofmap, quadrature).evaluate(state)
    want = _matmul_errors(bench, mesh, dofmap, quadrature, state)
    assert set(got) == set(want)
    for key, value in want.items():
        assert abs(got[key] - value) <= 1e-13 * value, key


def test_error_evaluator_requires_exact_closures():
    bench = conservation_benchmark()
    mesh = build_rect_mesh(2, 2)
    dofmap = DofMap.from_mesh(mesh)
    with pytest.raises(ValueError, match="exact"):
        ErrorEvaluator(bench, mesh, dofmap, DomainQuadrature.from_mesh(mesh, dofmap))


def test_error_norms_trajectory():
    bench = get_benchmark("polynomial")
    mesh = build_rect_mesh(3, 3)
    dofmap = DofMap.from_mesh(mesh)
    state = initial_state(bench, mesh)
    errs = ErrorEvaluator(bench, mesh, dofmap, DomainQuadrature.from_mesh(mesh, dofmap)).evaluate(state)
    report = summarize_error_history([(state.t, errs)])
    assert report["u"].linf_l2 <= 1e-10
    assert report["u"].l2_h1 is None  # single level: no time norm


def test_summarize_error_history_hand_example():
    # Two levels dt = 0.5 apart; the H1 time norm is sqrt(dt * e1^2) over
    # the stepped level only, the Linf norm is the max over all levels.
    levels = [(0.0, {"u_L2": 3.0, "u_H1": 100.0}), (0.5, {"u_L2": 1.0, "u_H1": 2.0})]
    report = summarize_error_history(levels)
    assert report["u"].linf_l2 == pytest.approx(3.0)
    assert report["u"].l2_h1 == pytest.approx(np.sqrt(0.5 * 4.0))


def test_extract_rates_recovers_synthetic_order():
    hs = [0.4, 0.2, 0.1, 0.05]
    errors = [7.0 * h**2 for h in hs]
    rates = extract_rates(hs, errors)
    assert rates[0] is None
    for rate in rates[1:]:
        assert rate == pytest.approx(2.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    order=st.floats(min_value=0.25, max_value=4.0),
    scale=st.floats(min_value=1e-3, max_value=1e3),
    h0=st.floats(min_value=0.05, max_value=1.0),
)
def test_extract_rates_property(order, scale, h0):
    hs = [h0, h0 / 2, h0 / 4]
    errors = [scale * h**order for h in hs]
    rates = extract_rates(hs, errors)
    assert rates[0] is None
    assert rates[1] == pytest.approx(order, rel=1e-9)
    assert rates[2] == pytest.approx(order, rel=1e-9)


def test_extract_rates_guards():
    assert extract_rates([0.4, 0.3], [1.0, 0.5]) == [None, None]  # ratio != 2
    assert extract_rates([0.4, 0.2], [1.0, 0.0]) == [None, None]  # zero error
    with pytest.raises(ValueError, match="mismatch"):
        extract_rates([0.4, 0.2], [1.0])


# ---------------------------------------------------------------------------
# Locking indicator
# ---------------------------------------------------------------------------


def test_locking_scan_monotone_profile_has_no_extrema():
    mesh = build_rect_mesh(4, 4)
    bench = get_benchmark("locking")
    p = 2.0 + mesh.vertices[:, 1]  # increasing along every vertical line
    ind = locking_scan(_scalar_state(mesh, p), mesh, bench)
    assert ind.extrema_count == 0
    assert ind.undershoot == 0.0
    assert ind.values.shape == (5,)
    assert np.all(np.diff(ind.ys) > 0)


def test_locking_scan_checkerboard_counts_all_interior_extrema():
    mesh = build_rect_mesh(4, 4)
    bench = get_benchmark("locking")
    on_line = np.abs(mesh.vertices[:, 0] - 0.5) <= 1e-12
    p = np.where(np.round(mesh.vertices[:, 1] * 4).astype(int) % 2 == 0, 1.0, -1.0)
    p = np.where(on_line, p, 0.0)
    ind = locking_scan(_scalar_state(mesh, p), mesh, bench)
    assert ind.extrema_count == 3  # all three interior line vertices
    assert ind.min_value == pytest.approx(-1.0)
    # no pressure-Dirichlet data: the scale falls back to the line itself
    assert ind.scale == pytest.approx(1.0)
    assert ind.undershoot == pytest.approx(1.0)


def test_locking_scan_rejects_a_mesh_without_vertices_on_its_line():
    # With nx odd, x1 = 0.5 runs through cells only: an empty scan would
    # read as "no locking".
    mesh = build_rect_mesh(5, 4)
    bench = get_benchmark("locking")
    with pytest.raises(ValueError, match="x1 = 0.5"):
        locking_scan(_scalar_state(mesh, np.zeros(mesh.n_vertices)), mesh, bench)


def test_locking_scan_scale_from_boundary_pressure_data():
    mesh = build_rect_mesh(4, 4)
    bench = get_benchmark("barry_mercer")
    t = float(np.arcsin(0.5))  # boundary pulse magnitude 0.5
    p = np.zeros(mesh.n_vertices)
    on_line = np.flatnonzero(np.abs(mesh.vertices[:, 0] - 0.5) <= 1e-12)
    p[on_line[0]] = -0.2
    ind = locking_scan(_scalar_state(mesh, p, t=t), mesh, bench)
    assert ind.scale == pytest.approx(0.5, rel=1e-12)
    assert ind.undershoot == pytest.approx(0.4, rel=1e-12)


# ---------------------------------------------------------------------------
# Inf-sup estimator
# ---------------------------------------------------------------------------


def test_infsup_estimate_healthy_and_slowly_varying():
    values = [taylor_hood_infsup(build_rect_mesh(n, n)) for n in (2, 4, 8)]
    assert values[0] == pytest.approx(0.994956, abs=1e-4)
    assert values[1] == pytest.approx(0.985241, abs=1e-4)
    assert values[2] == pytest.approx(0.976455, abs=1e-4)
    for a, b in zip(values, values[1:]):
        assert b < a  # refinement shaves the constant...
        assert b > 0.9 * values[0]  # ...but never by more than a few percent


def _discontinuous_pressure_infsup(mesh) -> float:
    """The inf-sup constant of the P2-vector / discontinuous-P1 pair, which
    is not inf-sup stable: a negative control for the pencil."""
    dofmap = DofMap.from_mesh(mesh)
    n_p = 3 * mesh.n_triangles
    # Divergence and mass against three independent P1 functions per
    # triangle; each (triangle, local function) owns one pressure row.
    rule = triangle_quadrature(2)
    _, ref_grads = eval_basis("P2", rule.points)
    p1_vals, _ = eval_basis("P1", rule.points)
    maps = AffineMaps.from_mesh(mesh)
    grads = maps.physical_gradients(ref_grads)
    local = np.einsum("q,qj,fqia,f->fjia", rule.weights, p1_vals, grads, maps.det, optimize=True)
    local = local.reshape(mesh.n_triangles, 3, 12)
    rows = 3 * np.arange(mesh.n_triangles)[:, None] + np.arange(3)[None, :]
    B = np.zeros((n_p, dofmap.n_u))
    for k in range(3):
        np.add.at(B, (rows[:, k][:, None], dofmap.triangle_u), local[:, k, :])
    m_loc = (np.ones((3, 3)) + np.eye(3)) / 12.0
    Mp = np.zeros((n_p, n_p))
    for k in range(3):
        for l in range(3):
            Mp[rows[:, k], rows[:, l]] = triangle_areas(mesh) * m_loc[k, l]
    return infsup_constant(mesh, B, Mp)


def test_infsup_collapses_for_unstable_pair():
    stable = [taylor_hood_infsup(build_rect_mesh(n, n)) for n in (2, 4)]
    unstable = [_discontinuous_pressure_infsup(build_rect_mesh(n, n)) for n in (2, 4)]
    assert unstable[0] < 0.5 * stable[0]
    assert unstable[1] < 0.55 * unstable[0]  # keeps collapsing under refinement


# ---------------------------------------------------------------------------
# Vanishing-storage sweep
# ---------------------------------------------------------------------------


def test_sweep_identical_storage_gives_zero_distances():
    bench = get_benchmark("locking")
    rows = biot_limit_sweep(bench, [1e-2, 1e-2], build_rect_mesh(2, 2),
                            TimeScheme(dt=1e-4, n_steps=2, theta=1))
    assert len(rows) == 1
    assert rows[0].dist_u == 0.0
    assert rows[0].dist_eta == 0.0
    assert rows[0].dist_xi == 0.0


def test_sweep_distances_decrease_for_unit_materials():
    params = MaterialParams(lam=1.0, mu=1.0, alpha=1.0, c0=1.0, K=1.0)
    bench = get_benchmark("locking", params)
    rows = biot_limit_sweep(bench, [1e-2, 1e-4, 1e-6], build_rect_mesh(4, 4),
                            TimeScheme(dt=1e-4, n_steps=5, theta=1))
    assert len(rows) == 2
    assert rows[1].dist_u < rows[0].dist_u
    assert rows[1].dist_eta < rows[0].dist_eta
    assert rows[1].dist_xi < rows[0].dist_xi
    # the storage coefficient enters linearly below the crossover, so the
    # contraction is roughly the c0 ratio
    assert rows[1].dist_xi < 0.05 * rows[0].dist_xi


def test_sweep_rows_match_independent_runs_bit_for_bit():
    # The sweep shares one discretization and folds each run as it ends;
    # rows must equal those from separate runs on fresh discretizations.
    base = get_benchmark("test1")
    mesh = build_rect_mesh(4, 4)
    scheme = TimeScheme(dt=1e-4, n_steps=3, theta=1)
    c0_values = [1.0, 1e-2, 1e-4]
    rows = biot_limit_sweep(base, c0_values, mesh, scheme)

    dofmap = DofMap.from_mesh(mesh)
    mass_u = assemble_vector_mass(mesh, dofmap)
    mass_p = assemble_scalar_mass(mesh, dofmap)

    def l2(vec, mat):
        return float(np.sqrt(max(vec @ (mat @ vec), 0.0)))

    runs = []
    for c0 in c0_values:
        bench = get_benchmark("test1", dataclasses.replace(base.params, c0=c0))
        disc = Discretization.build(build_rect_mesh(4, 4), bench.params)
        runs.append(run(bench, disc, scheme, keep_steps=range(scheme.n_steps + 1),
                        compute_errors=False).states)
    expected = []
    for c0a, c0b, a, b in zip(c0_values, c0_values[1:], runs, runs[1:]):
        expected.append(SweepRow(
            c0a, c0b,
            max(l2(sa.u - sb.u, mass_u) for sa, sb in zip(a, b)),
            max(l2(sa.eta - sb.eta, mass_p) for sa, sb in zip(a, b)),
            max(l2(sa.xi - sb.xi, mass_p) for sa, sb in zip(a, b)),
        ))
    assert rows == expected
    assert all(row.dist_u > 0.0 for row in rows)


def test_sweep_assembles_the_mesh_operators_once(monkeypatch):
    calls = []

    def counting(module, attr):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            calls.append(attr)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, attr, wrapper)

    counting(porofem.stepper, "assemble_elasticity")
    counting(porofem.assembly, "physical_points")
    biot_limit_sweep(get_benchmark("locking"), [1e-2, 1e-4, 1e-6], build_rect_mesh(3, 3),
                     TimeScheme(dt=1e-4, n_steps=2, theta=1))
    assert sorted(calls) == ["assemble_elasticity", "physical_points"]


@pytest.mark.parametrize("c0_values", [[1e-2, 1e-4], [1e-2, 1e-4, 1e-6, 0.0]])
def test_sweep_members_factorize_only_their_coupled_systems(c0_values, monkeypatch):
    # Each member is its own run: locking's zero p0 is not projected, so
    # m members make m factorizations, each member's coupled system, and a
    # member's factor is dead when the next member's is made.
    original = porofem.stepper.factorize
    refs = []
    alive_before = []

    def keeping(*args, **kwargs):
        gc.collect()
        alive_before.append(sum(ref() is not None for ref in refs))
        fact = original(*args, **kwargs)
        refs.append(weakref.ref(fact))
        return fact

    monkeypatch.setattr(porofem.stepper, "factorize", keeping)
    rows = biot_limit_sweep(get_benchmark("locking"), c0_values, build_rect_mesh(4, 4),
                            TimeScheme(dt=1e-4, n_steps=2, theta=1))
    assert len(refs) == len(c0_values)
    assert alive_before == [0] * len(c0_values)
    assert [c0 for c0, _ in rows.members] == c0_values
    for _, member in rows.members:
        assert [f.label for f in member.factorizations] == ["coupled system"]
        assert member.solve_count == 2 and member.states == []


def test_sweep_holds_at_most_two_trajectories(monkeypatch):
    # Each member is compared with the one before it as soon as it ends, so
    # no earlier trajectory is alive while the next member runs.
    original = porofem.stepper.run
    refs, alive = [], []

    def tracking(*args, **kwargs):
        gc.collect()
        alive.append([ref() is not None for ref in refs])
        result = original(*args, **kwargs)
        refs.append(weakref.ref(result.states[-1]))
        return result

    monkeypatch.setattr(porofem.stepper, "run", tracking)
    biot_limit_sweep(get_benchmark("locking"), [1e-2, 1e-4, 1e-6, 1e-8], build_rect_mesh(2, 2),
                     TimeScheme(dt=1e-4, n_steps=2, theta=1))
    assert alive == [[], [True], [False, True], [False, False, True]]


def test_sweep_rows_carry_the_pair():
    bench = get_benchmark("locking")
    rows = biot_limit_sweep(bench, [1e-1, 1e-3], build_rect_mesh(2, 2),
                            TimeScheme(dt=1e-4, n_steps=1, theta=1))
    assert rows[0].c0_a == pytest.approx(1e-1)
    assert rows[0].c0_b == pytest.approx(1e-3)
