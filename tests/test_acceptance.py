"""End-to-end acceptance criteria.

Each test evaluates one numbered criterion at its stated tolerances,
records a single pass/fail line (echoed again in the terminal summary),
and then asserts.  Criterion 6 is expected to fail as stated for reasons
analyzed in docs/decisions.md; it is marked strict-xfail and a
supplementary test demonstrates the behavior the criterion is after in
the regime where it actually holds.  One test beside criterion 1 bounds
the order in time of both schemes, which criterion 1 (spatial) leaves out.
"""

from __future__ import annotations

import numpy as np
import pytest

from porofem.assembly import DofMap, assemble_div, assemble_elasticity
from porofem.diagnostics import extract_rates
from porofem.elements import eval_basis, edge_quadrature, triangle_quadrature
from porofem.mesh import build_rect_mesh
from porofem.model import MaterialParams, derive_kappas, get_benchmark
from porofem.stepper import Discretization, TimeScheme, biot_limit_sweep, run

from conftest import record_acceptance
from helpers import (
    check_state_consistency,
    conservation_benchmark,
    locking_scan,
    taylor_hood_infsup,
)


def _record(criterion: int, ok: bool, detail: str) -> bool:
    record_acceptance(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _interleave(columns: np.ndarray) -> np.ndarray:
    out = np.empty(2 * len(columns))
    out[0::2] = columns[:, 0]
    out[1::2] = columns[:, 1]
    return out


# ---------------------------------------------------------------------------
# 1. convergence orders of the manufactured smooth benchmark
# ---------------------------------------------------------------------------


def test_criterion_1_convergence_orders():
    bench = get_benchmark("test1")
    scheme = TimeScheme.from_final_time(T=0.001, dt=1e-5, theta=1)
    hs, p_linf, p_l2h1, u_h1 = [], [], [], []
    for nx in (8, 16, 32, 64):
        mesh = build_rect_mesh(nx, nx)
        disc = Discretization.build(mesh, bench.params)
        result = run(bench, disc, scheme, compute_errors=True)
        hs.append(mesh.h)
        p_linf.append(result.errors["p"].linf_l2)
        p_l2h1.append(result.errors["p"].l2_h1)
        u_h1.append(result.errors["u"].l2_h1)
    rate_p_linf = extract_rates(hs, p_linf)[-1]
    rate_p_l2h1 = extract_rates(hs, p_l2h1)[-1]
    rate_u_h1 = extract_rates(hs, u_h1)[-1]
    ok = (
        1.8 <= rate_p_linf <= 2.2
        and 0.85 <= rate_p_l2h1 <= 1.15
        and 1.7 <= rate_u_h1 <= 2.2
    )
    _record(
        1,
        ok,
        f"finest-pair rates p LinfL2={rate_p_linf:.3f} (window [1.8,2.2]), "
        f"p L2H1={rate_p_l2h1:.3f} ([0.85,1.15]), "
        f"u H1={rate_u_h1:.3f} ([1.7,2.2])",
    )
    assert ok


# Implicit Euler is first order in time for both schemes.  Each case halves
# dt three times on a mesh fine enough that the time error dominates; the
# finest-pair rates measured over thirteen draws of lam, mu and K from
# [0.9, 1.1] times their defaults (the benchmark's material band) were
# p 1.126-1.153 and u 1.032-1.035 for theta = 1, and p 1.008 and
# u 0.989-0.992 for theta = 0.  At nx = 16 the coupled p error stalls at
# the spatial floor, hence nx = 32 there.
@pytest.mark.parametrize(
    "theta, nx, T, dts",
    [(1, 32, 1.2, (0.4, 0.2, 0.1, 0.05)), (0, 16, 1.0, (0.2, 0.1, 0.05, 0.025))],
)
def test_time_convergence_order_of_both_schemes(theta, nx, T, dts):
    bench = get_benchmark("test1")
    disc = Discretization.build(build_rect_mesh(nx, nx), bench.params)
    p_linf, u_l2h1 = [], []
    for dt in dts:
        scheme = TimeScheme.from_final_time(T=T, dt=dt, theta=theta)
        if theta == 0:  # every dt here lies above the advisory gate c_stab * h^2
            with pytest.warns(UserWarning, match="advisory step-size gate"):
                result = run(bench, disc, scheme, compute_errors=True)
        else:
            result = run(bench, disc, scheme, compute_errors=True)
        p_linf.append(result.errors["p"].linf_l2)
        u_l2h1.append(result.errors["u"].l2_h1)
    rate_p = extract_rates(dts, p_linf)[-1]
    rate_u = extract_rates(dts, u_l2h1)[-1]
    assert 0.85 <= rate_p <= 1.25, f"p LinfL2 time rate {rate_p:.3f}"
    assert 0.85 <= rate_u <= 1.25, f"u L2H1 time rate {rate_u:.3f}"


# ---------------------------------------------------------------------------
# 2. discrete energy identity
# ---------------------------------------------------------------------------


def test_criterion_2_energy_identity():
    bench = get_benchmark("locking")
    disc = Discretization.build(build_rect_mesh(8, 8), bench.params)

    res1 = run(bench, disc, TimeScheme(dt=1e-4, n_steps=10, theta=1),
               compute_errors=False)
    J0 = res1.records[0].J
    worst1 = max(abs(rec.energy_residual) for rec in res1.records)
    bound1 = 1e-8 * max(1.0, abs(J0))

    res0 = run(bench, disc, TimeScheme(dt=1e-4, n_steps=10, theta=0),
               compute_errors=False)
    J0_dec = res0.records[0].J
    worst_slack = res0.max_hat_slack
    bound0 = 1e-8 * abs(J0_dec)

    ok = (
        worst1 <= bound1
        and res0.gate is not None
        and res0.gate.satisfied
        and worst_slack <= bound0
    )
    _record(
        2,
        ok,
        f"theta=1 max |J+S-J0|={worst1:.2e} <= {bound1:.1e}; theta=0 gated "
        f"(dt={res0.gate.dt:g} <= {res0.gate.threshold:g}) max hat-slack over steps 2-10="
        f"{worst_slack:.2e} <= {bound0:.1e}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 3. discrete conservation
# ---------------------------------------------------------------------------


def test_criterion_3_conservation():
    # pure-Neumann flow AND pure-traction mechanics: all identities apply
    bench = conservation_benchmark()
    result = run(bench, Discretization.build(build_rect_mesh(4, 4), bench.params),
                 TimeScheme(dt=0.02, n_steps=5, theta=1), compute_errors=False)
    eta_res = max(rec.C_eta_res for rec in result.records)
    xi_res = max(rec.C_xi_res for rec in result.records)
    flux_res = max(rec.flux_res for rec in result.records)

    # pure-Neumann flow only (clamped side): the eta identity still applies
    locking_bench = get_benchmark("locking")
    locking = run(locking_bench, Discretization.build(build_rect_mesh(4, 4), locking_bench.params),
                  TimeScheme(dt=1e-4, n_steps=5, theta=1), compute_errors=False)
    eta_res_neumann = max(rec.C_eta_res for rec in locking.records)
    not_applicable = all(
        rec.C_xi_res is None and rec.flux_res is None for rec in locking.records
    )

    ok = (
        eta_res <= 1e-10
        and xi_res <= 1e-10
        and flux_res <= 1e-10
        and eta_res_neumann <= 1e-10
        and not_applicable
    )
    _record(
        3,
        ok,
        f"per-step relative residuals: eta={eta_res:.2e}, xi={xi_res:.2e}, "
        f"boundary-flux={flux_res:.2e} (pure-traction fixture) and "
        f"eta={eta_res_neumann:.2e} (clamped fixture), all <= 1e-10",
    )
    assert ok


# ---------------------------------------------------------------------------
# 4. algebraic reformulation exactness
# ---------------------------------------------------------------------------


def test_criterion_4_reformulation_round_trip():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for i in range(1000):
        lam = 10.0 ** rng.uniform(-2, 2)
        alpha = 10.0 ** rng.uniform(-1, 1)
        c0 = 0.0 if i % 5 == 0 else 10.0 ** rng.uniform(-2, 2)
        k = derive_kappas(MaterialParams(lam=lam, mu=1.0, alpha=alpha, c0=c0))
        p, q = rng.uniform(-1, 1, size=2)
        eta = c0 * p + alpha * q
        xi = alpha * p - lam * q
        p_back = k.kappa1 * xi + k.kappa2 * eta
        q_back = k.kappa1 * eta - k.kappa3 * xi
        scale = max(1.0, abs(p), abs(q))
        worst = max(worst, abs(p_back - p) / scale, abs(q_back - q) / scale)

    # state consistency after every step, both schemes
    bench = get_benchmark("test1")
    disc = Discretization.build(build_rect_mesh(4, 4), bench.params)
    worst_state = 0.0
    for theta in (1, 0):
        result = run(bench, disc, TimeScheme(dt=1e-4, n_steps=5, theta=theta),
                     keep_steps=range(6), compute_errors=False)
        for state in result.states:
            worst_state = max(worst_state, *check_state_consistency(state, bench.coeffs))

    ok = worst <= 1e-13 and worst_state <= 1e-14
    _record(
        4,
        ok,
        f"round-trip worst residual {worst:.2e} <= 1e-13 over 1000 draws; "
        f"stepped-state p/q consistency {worst_state:.2e} <= 1e-14",
    )
    assert ok


# ---------------------------------------------------------------------------
# 5. no pressure locking
# ---------------------------------------------------------------------------


def test_criterion_5_no_locking():
    bench = get_benchmark("locking")
    mesh = build_rect_mesh(20, 20)
    disc = Discretization.build(mesh, bench.params)

    res1 = run(bench, disc, TimeScheme(dt=1e-4, n_steps=10, theta=1),
               keep_steps=range(11), compute_errors=False)
    ind1 = locking_scan(res1.states[-1], mesh, bench)

    res0 = run(bench, disc, TimeScheme(dt=1e-4, n_steps=10, theta=0),
               keep_steps=range(11), compute_errors=False)
    ind0 = locking_scan(res0.states[-1], mesh, bench)

    # degraded control: decoupled scheme far above its step-size gate
    degraded_params = MaterialParams(
        lam=bench.params.lam, mu=bench.params.mu, alpha=bench.params.alpha,
        c0=bench.params.c0, K=1.0,
    )
    degraded = get_benchmark("locking", degraded_params)
    degraded_disc = Discretization.build(mesh, degraded.params)
    with pytest.warns(UserWarning, match="gate"):
        res_bad = run(degraded, degraded_disc, TimeScheme(dt=2.5e-4, n_steps=4, theta=0),
                      keep_steps=range(5), compute_errors=False)
    ind_bad = locking_scan(res_bad.states[-1], mesh, degraded)

    ok = (
        ind1.extrema_count <= 2
        and ind1.undershoot <= 0.05
        and res0.gate.satisfied
        and ind0.extrema_count <= 2
        and ind0.undershoot <= 0.05
        and not res_bad.gate.satisfied
        and ind_bad.extrema_count > max(ind1.extrema_count, ind0.extrema_count)
    )
    _record(
        5,
        ok,
        f"centerline extrema/undershoot: theta=1 {ind1.extrema_count}/"
        f"{ind1.undershoot:.3f}, gated theta=0 {ind0.extrema_count}/"
        f"{ind0.undershoot:.3f} (bounds 2/0.05); degraded control "
        f"{ind_bad.extrema_count} extrema (strictly larger)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 6. vanishing-storage limit (expected red: see the decisions ledger)
# ---------------------------------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason="the pinned storage values 1e-2..1e-6 all sit above this "
    "benchmark's limit crossover c0* = alpha^2/(lam+mu) ~ 5.6e-6, where the "
    "trajectory distances measurably INCREASE (x14); the limit behavior the "
    "criterion is after holds below the crossover (supplementary test) — "
    "analysis in docs/decisions.md",
)
def test_criterion_6_vanishing_storage_distances_decrease_as_stated():
    bench = get_benchmark("locking")
    rows = biot_limit_sweep(bench, [1e-2, 1e-4, 1e-6], build_rect_mesh(8, 8),
                            TimeScheme(dt=1e-4, n_steps=10, theta=1))
    decreasing = all(
        b.dist_u < a.dist_u and b.dist_eta < a.dist_eta and b.dist_xi < a.dist_xi
        for a, b in zip(rows, rows[1:])
    )
    prm = bench.params
    crossover = prm.alpha**2 / (prm.lam + prm.mu)
    _record(
        6,
        decreasing,
        "pairwise distances at c0 = 1e-2,1e-4,1e-6: "
        + "; ".join(
            f"({r.c0_a:g}->{r.c0_b:g}) u={r.dist_u:.2e} eta={r.dist_eta:.2e} "
            f"xi={r.dist_xi:.2e}"
            for r in rows
        )
        + f" — NOT decreasing (all pinned c0 above the crossover "
        f"{crossover:.1e}); expected failure, see decisions ledger; the "
        "supplementary below-crossover sweep passes",
    )
    assert decreasing


def test_criterion_6_supplement_limit_holds_below_crossover():
    # Same mesh, step and benchmark, but continuing the sweep below the
    # crossover where the storage term is actually subdominant; and an
    # all-unit-material control whose crossover (0.5) lies far above the
    # criterion's pinned range, so the stated values themselves decrease.
    bench = get_benchmark("locking")
    scheme = TimeScheme(dt=1e-4, n_steps=10, theta=1)
    mesh = build_rect_mesh(8, 8)
    below = biot_limit_sweep(bench, [1e-6, 1e-8, 1e-10], mesh, scheme)
    assert len(below) == 2
    for a, b in zip(below, below[1:]):
        assert b.dist_u < a.dist_u
        assert b.dist_eta < a.dist_eta
        assert b.dist_xi < a.dist_xi

    unit = get_benchmark(
        "locking", MaterialParams(lam=1.0, mu=1.0, alpha=1.0, c0=1.0, K=1.0)
    )
    pinned = biot_limit_sweep(unit, [1e-2, 1e-4, 1e-6], build_rect_mesh(4, 4),
                              TimeScheme(dt=1e-4, n_steps=5, theta=1))
    for a, b in zip(pinned, pinned[1:]):
        assert b.dist_u < a.dist_u
        assert b.dist_eta < a.dist_eta
        assert b.dist_xi < a.dist_xi


# ---------------------------------------------------------------------------
# 7. inf-sup health
# ---------------------------------------------------------------------------


def test_criterion_7_infsup_health():
    betas = [taylor_hood_infsup(build_rect_mesh(n, n)) for n in (2, 4, 8)]
    drops = [1.0 - b / a for a, b in zip(betas, betas[1:])]
    ok = all(b > 0 for b in betas) and all(0 <= d < 0.10 for d in drops)
    _record(
        7,
        ok,
        "beta_h on nx=2/4/8 = "
        + "/".join(f"{b:.6f}" for b in betas)
        + "; per-refinement drops "
        + "/".join(f"{100 * d:.2f}%" for d in drops)
        + " (< 10%)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 8. Barry-Mercer smoke properties
# ---------------------------------------------------------------------------


def test_criterion_8_barry_mercer_smoke():
    bench = get_benchmark("barry_mercer")
    mesh = build_rect_mesh(32, 32)
    scheme = TimeScheme.from_final_time(T=bench.T, dt=0.01, theta=1)
    disc = Discretization.build(mesh, bench.params)
    result = run(bench, disc, scheme, keep_steps=range(scheme.n_steps + 1),
                 compute_errors=False)

    finite = all(
        np.all(np.isfinite(s.u)) and np.all(np.isfinite(s.p))
        and np.all(np.isfinite(s.xi)) and np.all(np.isfinite(s.eta))
        for s in result.states
    )
    # range of the prescribed boundary pressure over the whole run
    data_lo, data_hi = 0.0, 0.0
    for tag, bc in bench.bcs.flow.items():
        if bc.kind != "pressure":
            continue
        eids = mesh.edges_with_tag(tag)
        pts = mesh.vertices[np.unique(mesh.edges[eids].ravel())]
        for state in result.states:
            vals = bc.value(pts, state.t)
            data_lo = min(data_lo, float(np.min(vals)))
            data_hi = max(data_hi, float(np.max(vals)))
    p_min = min(float(s.p.min()) for s in result.states)
    p_max = max(float(s.p.max()) for s in result.states)
    allowance = 0.10 * max(abs(data_lo), abs(data_hi))
    undershoot = max(0.0, data_lo - p_min)
    overshoot = max(0.0, p_max - data_hi)

    ok = (
        result.max_solver_residual <= 1e-10
        and finite
        and undershoot <= allowance
        and overshoot <= allowance
    )
    _record(
        8,
        ok,
        f"{scheme.n_steps} steps completed; max solver residual "
        f"{result.max_solver_residual:.2e} <= 1e-10; fields finite; p in "
        f"[{p_min:.3g}, {p_max:.3g}] vs boundary data [{data_lo:.3g}, "
        f"{data_hi:.3g}], excursion {max(undershoot, overshoot):.2e} <= "
        f"{allowance:.3g}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 9. element and quadrature unit properties
# ---------------------------------------------------------------------------


def test_criterion_9_element_unit_properties():
    rng = np.random.default_rng(7)
    pts = rng.dirichlet(np.ones(3), size=50)
    partition_ok = True
    kron_ok = True
    for kind, nodes in (
        ("P1", np.eye(3)),
        (
            "P2",
            np.array(
                [
                    [1, 0, 0], [0, 1, 0], [0, 0, 1],
                    [0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0],
                ]
            ),
        ),
    ):
        vals, grads = eval_basis(kind, pts)
        partition_ok &= bool(np.max(np.abs(vals.sum(axis=1) - 1.0)) <= 1e-13)
        partition_ok &= bool(np.max(np.abs(grads.sum(axis=1))) <= 1e-12)
        node_vals, _ = eval_basis(kind, nodes)
        kron_ok &= bool(np.max(np.abs(node_vals - np.eye(len(nodes)))) <= 1e-13)

    def tri_monomial(a: int, b: int, c: int) -> float:
        from math import factorial

        return (
            factorial(a) * factorial(b) * factorial(c)
            / factorial(a + b + c + 2)
        )

    quad_ok = True
    for deg in range(1, 7):
        rule = triangle_quadrature(deg)
        for total in range(rule.exactness_degree + 1):
            for a in range(total + 1):
                for b in range(total - a + 1):
                    c = total - a - b
                    approx = float(
                        rule.weights
                        @ (rule.points[:, 0] ** a * rule.points[:, 1] ** b
                           * rule.points[:, 2] ** c)
                    )
                    quad_ok &= abs(approx - tri_monomial(a, b, c)) <= 1e-13
    for deg in range(1, 6):
        rule = edge_quadrature(deg)
        for k in range(rule.exactness_degree + 1):
            approx = float(rule.weights @ rule.points[:, 0] ** k)
            quad_ok &= abs(approx - 1.0 / (k + 1)) <= 1e-13

    mesh = build_rect_mesh(3, 3)
    dofmap = DofMap.from_mesh(mesh)
    A = assemble_elasticity(mesh, dofmap)
    coords = mesh.p2_node_coords()
    norm_a = float(np.sqrt((A.multiply(A)).sum()))
    kernel_ok = True
    for a1, a2, b in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)):
        r = _interleave(
            np.column_stack([a1 - b * coords[:, 1], a2 + b * coords[:, 0]])
        )
        kernel_ok &= bool(
            np.linalg.norm(A @ r) <= 1e-10 * norm_a * np.linalg.norm(r)
        )

    B = assemble_div(mesh, dofmap)
    div_pairing = float(np.ones(dofmap.n_scalar) @ (B @ _interleave(coords)))
    div_ok = abs(div_pairing - 2.0) <= 1e-12

    ok = partition_ok and kron_ok and quad_ok and kernel_ok and div_ok
    _record(
        9,
        ok,
        f"partition of unity {'ok' if partition_ok else 'BAD'}; Kronecker "
        f"nodes {'ok' if kron_ok else 'BAD'}; quadrature monomial exactness "
        f"{'ok' if quad_ok else 'BAD'}; rigid-motion kernel "
        f"{'ok' if kernel_ok else 'BAD'}; (div x, 1) = {div_pairing:.12f}",
    )
    assert ok
