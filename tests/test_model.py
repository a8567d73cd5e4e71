"""Material parameters, reformulation algebra, and benchmark data.

The manufactured benchmarks are certified by an independent symbolic
oracle: sympy recomputes the body force, mass source and traction from the
exact displacement/pressure via the strong equations, and the closures
shipped with each benchmark must agree at random space-time samples.
"""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest
import sympy as sym
from hypothesis import given, settings
from hypothesis import strategies as st

from porofem.mesh import BoundarySegment, build_rect_mesh
from porofem.model import (
    BENCHMARK_NAMES,
    FlowBC,
    MaterialParams,
    MechanicalBC,
    Separable,
    SourceFunctions,
    derive_kappas,
    get_benchmark,
    lame_from_young_poisson,
    pq_from_xieta,
    xieta_from_pq,
    zero_scalar,
    zero_vector,
)


# ---------------------------------------------------------------------------
# Derived coefficients and the (p, q) <-> (xi, eta) algebra
# ---------------------------------------------------------------------------


def test_kappas_trivial_case():
    coeffs = derive_kappas(MaterialParams(lam=1.0, mu=1.0, alpha=1.0, c0=0.0))
    assert coeffs.kappa1 == pytest.approx(1.0, abs=1e-15)
    assert coeffs.kappa2 == pytest.approx(1.0, abs=1e-15)
    assert coeffs.kappa3 == pytest.approx(0.0, abs=1e-15)


def test_kappas_hand_example():
    coeffs = derive_kappas(MaterialParams(lam=2.0, mu=1.0, alpha=1.0, c0=0.5))
    assert coeffs.kappa1 == pytest.approx(0.5, rel=1e-14)
    assert coeffs.kappa2 == pytest.approx(1.0, rel=1e-14)
    assert coeffs.kappa3 == pytest.approx(0.25, rel=1e-14)


def test_kappa_matrix_identity_random_draws():
    rng = np.random.default_rng(7)
    for _ in range(200):
        lam = rng.uniform(1e-6, 10.0)
        alpha = rng.uniform(1e-3, 10.0)
        c0 = rng.uniform(0.0, 1.0)
        k = derive_kappas(MaterialParams(lam=lam, mu=1.0, alpha=alpha, c0=c0))
        fwd = np.array([[c0, alpha], [alpha, -lam]])
        inv = np.array([[k.kappa2, k.kappa1], [k.kappa1, -k.kappa3]])
        assert np.allclose(inv @ fwd, np.eye(2), atol=1e-14 * max(1.0, lam, alpha))


def test_pq_trivial_and_hand_example():
    coeffs = derive_kappas(MaterialParams(lam=2.0, mu=1.0, alpha=1.0, c0=0.5))
    p, q = pq_from_xieta(0.0, 0.0, coeffs)
    assert p == 0.0 and q == 0.0
    p, q = pq_from_xieta(2.0, 1.0, coeffs)
    assert p == pytest.approx(2.0, rel=1e-14)
    assert q == pytest.approx(0.0, abs=1e-14)


def test_round_trip_1000_random_draws():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        prm = MaterialParams(
            lam=rng.uniform(1e-6, 10.0),
            mu=rng.uniform(1e-6, 10.0),
            alpha=rng.uniform(1e-3, 10.0),
            c0=rng.uniform(0.0, 1.0),
        )
        coeffs = derive_kappas(prm)
        p = rng.standard_normal()
        q = rng.standard_normal()
        xi, eta = xieta_from_pq(p, q, prm)
        p2, q2 = pq_from_xieta(xi, eta, coeffs)
        scale = max(1.0, abs(p), abs(q))
        worst = max(worst, abs(p2 - p) / scale, abs(q2 - q) / scale)
    assert worst <= 1e-13


@settings(max_examples=100, deadline=None)
@given(
    lam=st.floats(min_value=1e-6, max_value=10.0),
    alpha=st.floats(min_value=1e-3, max_value=10.0),
    c0=st.floats(min_value=0.0, max_value=1.0),
    p=st.floats(min_value=-100.0, max_value=100.0),
    q=st.floats(min_value=-100.0, max_value=100.0),
)
def test_round_trip_property(lam, alpha, c0, p, q):
    prm = MaterialParams(lam=lam, mu=1.0, alpha=alpha, c0=c0)
    k = derive_kappas(prm)
    xi, eta = xieta_from_pq(p, q, prm)
    p2, q2 = pq_from_xieta(xi, eta, k)
    # the recovery sums terms of magnitude |kappa_i * pseudo-pressure| that
    # may cancel (e.g. alpha << lam with p = 0), so the achievable accuracy
    # is relative to those intermediates, not to p and q alone
    p_scale = max(1.0, abs(p), abs(k.kappa1 * xi), abs(k.kappa2 * eta))
    q_scale = max(1.0, abs(q), abs(k.kappa1 * eta), abs(k.kappa3 * xi))
    assert abs(p2 - p) <= 1e-12 * p_scale
    assert abs(q2 - q) <= 1e-12 * q_scale


def test_material_params_validation():
    with pytest.raises(ValueError):
        MaterialParams(mu=0.0)
    with pytest.raises(ValueError):
        MaterialParams(alpha=0.0)
    with pytest.raises(ValueError):
        MaterialParams(c0=-0.1)
    with pytest.raises(ValueError):
        MaterialParams(lam=-1.0)
    with pytest.raises(ValueError):
        MaterialParams(K=0.0)
    # Every kappa divides by alpha^2 + lam*c0: overflow and underflow of
    # the sum are refused with the constants.
    for values in ({"alpha": 1e200}, {"lam": 1e308, "c0": 1e308}, {"alpha": 1e-200, "lam": 0.0}):
        with pytest.raises(ValueError, match=r"^alpha\*alpha \+ lam\*c0 must be finite and positive"):
            MaterialParams(**values)


@pytest.mark.parametrize(
    "values, named",
    [
        ({"c0": 1e308}, "kappa2 = lam/(alpha*alpha + lam*c0) is positive but below 2**-510"),
        ({"lam": 1e-300}, "kappa2 = lam/(alpha*alpha + lam*c0) is positive but below 2**-510"),
        ({"alpha": 1e-160, "c0": 0.0}, "kappa1 = alpha/(alpha*alpha + lam*c0) exceeds 2**510"),
        ({"lam": 1e160, "c0": 0.0}, "kappa2 = lam/(alpha*alpha + lam*c0) exceeds 2**510"),
        ({"lam": 0.0, "alpha": 1e-100, "c0": 1e100},
         "kappa3 = c0/(alpha*alpha + lam*c0) exceeds 2**510"),
        ({"K": 2.0**511}, "K exceeds 2**510"),
        ({"K": 1e300}, "K exceeds 2**510"),
        ({"lam": 1e300}, "lam exceeds 2**510"),
        ({"mu": 1e300}, "mu exceeds 2**510"),
        ({"mu": 1e-300}, "mu is positive but below 2**-510"),
    ],
)
def test_material_params_bound_the_derived_scales(values, named):
    with pytest.raises(ValueError, match="^" + re.escape(named)):
        MaterialParams(**values)


@pytest.mark.parametrize(
    "values",
    # Vanishing scales stay: zero kappa2 and kappa3, a tiny storage
    # coefficient, coupling or mobility.
    [{"lam": 0.0}, {"c0": 0.0}, {"c0": 5e-324}, {"alpha": 1e-300}, {"K": 1e-300}],
)
def test_material_params_keep_vanishing_scales(values):
    MaterialParams(**values)


@settings(max_examples=60, deadline=None)
@given(
    field=st.sampled_from(["lam", "mu", "alpha", "c0", "K"]),
    value=st.sampled_from([float("nan"), float("inf"), float("-inf")]),
)
def test_material_params_reject_non_finite(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be finite"):
        MaterialParams(**{field: value})


def test_lame_from_young_poisson():
    lam, mu = lame_from_young_poisson(1e5, 0.4)
    assert mu == pytest.approx(1e5 / 2.8, rel=1e-14)
    assert lam == pytest.approx(4e4 / 0.28, rel=1e-14)
    assert round(mu) == 35714
    lam0, mu0 = lame_from_young_poisson(1.0, 0.0)
    assert lam0 == pytest.approx(0.0, abs=1e-15)
    assert mu0 == pytest.approx(0.5, rel=1e-14)
    with pytest.raises(ValueError):
        lame_from_young_poisson(1.0, 0.5)
    with pytest.raises(ValueError):
        lame_from_young_poisson(0.0, 0.3)
    with pytest.raises(ValueError):
        lame_from_young_poisson(1.0, -1.0)


# ---------------------------------------------------------------------------
# Symbolic strong-form oracle for the manufactured benchmarks
# ---------------------------------------------------------------------------


def _strong_form_oracle(u_expr, p_expr, prm: MaterialParams):
    """Recompute f, phi and the traction (sigma - alpha p I) n from u, p."""
    x1, x2, t = sym.symbols("x1 x2 t")
    u = sym.Matrix(u_expr)
    div_u = sym.diff(u[0], x1) + sym.diff(u[1], x2)
    eps = sym.Matrix(
        [
            [sym.diff(u[0], x1), (sym.diff(u[0], x2) + sym.diff(u[1], x1)) / 2],
            [(sym.diff(u[0], x2) + sym.diff(u[1], x1)) / 2, sym.diff(u[1], x2)],
        ]
    )
    sigma = prm.mu * eps + prm.lam * div_u * sym.eye(2)
    f = sym.Matrix(
        [
            -sym.diff(sigma[0, 0], x1) - sym.diff(sigma[0, 1], x2)
            + prm.alpha * sym.diff(p_expr, x1),
            -sym.diff(sigma[1, 0], x1) - sym.diff(sigma[1, 1], x2)
            + prm.alpha * sym.diff(p_expr, x2),
        ]
    )
    k_darcy = prm.K
    phi = sym.diff(prm.c0 * p_expr + prm.alpha * div_u, t) - k_darcy * (
        sym.diff(p_expr, x1, 2) + sym.diff(p_expr, x2, 2)
    )
    total_stress = sigma - prm.alpha * p_expr * sym.eye(2)
    syms = (x1, x2, t)
    return (
        sym.lambdify(syms, f, "numpy"),
        sym.lambdify(syms, phi, "numpy"),
        sym.lambdify(syms, total_stress, "numpy"),
        sym.lambdify(syms, u, "numpy"),
        sym.lambdify(syms, p_expr, "numpy"),
    )


_NORMALS = {
    BoundarySegment.RIGHT: np.array([1.0, 0.0]),
    BoundarySegment.BOTTOM: np.array([0.0, -1.0]),
    BoundarySegment.LEFT: np.array([-1.0, 0.0]),
    BoundarySegment.TOP: np.array([0.0, 1.0]),
}

_SIDE_POINT = {
    BoundarySegment.RIGHT: lambda s: (1.0, s),
    BoundarySegment.BOTTOM: lambda s: (s, 0.0),
    BoundarySegment.LEFT: lambda s: (0.0, s),
    BoundarySegment.TOP: lambda s: (s, 1.0),
}


def _check_against_oracle(bench, u_expr, p_expr, check_traction):
    f_fn, phi_fn, stress_fn, _, _ = _strong_form_oracle(u_expr, p_expr, bench.params)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.random((1, 2))
        t = float(rng.uniform(0.0, 2e-3))
        f_ref = np.asarray(f_fn(x[0, 0], x[0, 1], t), dtype=float).ravel()
        f_got = bench.sources.f(x, t)[0]
        assert np.allclose(f_got, f_ref, atol=1e-10), (f_got, f_ref)
        phi_ref = float(phi_fn(x[0, 0], x[0, 1], t))
        phi_got = float(bench.sources.phi(x, t)[0])
        assert phi_got == pytest.approx(phi_ref, abs=1e-10)
    if not check_traction:
        return
    for seg, normal in _NORMALS.items():
        closure = bench.bcs.mechanical[seg].traction
        if closure is None:  # fully prescribed side: nothing to verify
            continue
        for s in (0.11, 0.5, 0.93):
            px, py = _SIDE_POINT[seg](s)
            for t in (0.0, 7e-4):
                stress = np.asarray(stress_fn(px, py, t), dtype=float)
                ref = stress @ normal
                got = closure(np.array([[px, py]]), t)[0]
                assert np.allclose(got, ref, atol=1e-10), (seg, got, ref)


def test_manufactured_benchmark_strong_form_oracle():
    bench = get_benchmark("test1")
    x1, x2, t = sym.symbols("x1 x2 t")
    u_expr = (t / 2 * x1**2, t / 2 * x2**2)
    p_expr = sym.sin(x1 + x2) * sym.exp(t)
    _check_against_oracle(bench, u_expr, p_expr, check_traction=True)


def test_polynomial_benchmark_strong_form_oracle():
    bench = get_benchmark("polynomial")
    x1, x2, t = sym.symbols("x1 x2 t")
    u_expr = ((1 + t) * x2**2, -(1 + t) * x1**2)
    p_expr = (1 + t) * (x1 - 2 * x2)
    _check_against_oracle(bench, u_expr, p_expr, check_traction=True)


def test_exact_closure_point_values():
    bench = get_benchmark("test1")
    x = np.array([[0.0, 0.0]])
    assert float(bench.exact_p(x, 0.0)[0]) == pytest.approx(0.0, abs=1e-15)
    x = np.array([[1.0, 1.0]])
    assert np.allclose(bench.exact_u(x, 1e-3)[0], [5e-4, 5e-4], atol=1e-15)


def test_initial_traces_match_exact_closures():
    mesh = build_rect_mesh(5, 4)
    nodes = mesh.p2_node_coords()
    for name in ("test1", "polynomial"):
        bench = get_benchmark(name)
        assert np.allclose(
            bench.exact_u(nodes, 0.0), bench.u0(nodes, 0.0), atol=1e-12
        )
        assert np.allclose(
            bench.exact_p(mesh.vertices, 0.0), bench.p0(mesh.vertices, 0.0), atol=1e-12
        )


def test_exact_gradients_match_finite_differences():
    bench = get_benchmark("test1")
    rng = np.random.default_rng(9)
    x = rng.random((8, 2)) * 0.8 + 0.1
    t = 6e-4
    h = 1e-6
    gu = bench.exact_grad_u(x, t)
    gp = bench.exact_grad_p(x, t)
    for axis in range(2):
        dx = np.zeros_like(x)
        dx[:, axis] = h
        du = (bench.exact_u(x + dx, t) - bench.exact_u(x - dx, t)) / (2 * h)
        assert np.allclose(gu[:, :, axis], du, atol=1e-8)
        dp = (bench.exact_p(x + dx, t) - bench.exact_p(x - dx, t)) / (2 * h)
        assert np.allclose(gp[:, axis], dp, atol=1e-8)


# ---------------------------------------------------------------------------
# Benchmark definitions
# ---------------------------------------------------------------------------


def test_registry_names_and_unknown():
    assert set(BENCHMARK_NAMES) == {"test1", "barry_mercer", "locking", "polynomial"}
    with pytest.raises(ValueError):
        get_benchmark("nonexistent")


def test_barry_mercer_boundary_pulse():
    bench = get_benchmark("barry_mercer")
    pulse = bench.bcs.flow[BoundarySegment.BOTTOM].value
    assert float(pulse(np.array([[0.5, 0.0]]), np.pi / 2)[0]) == pytest.approx(1.0)
    assert float(pulse(np.array([[0.9, 0.0]]), 1.23)[0]) == 0.0
    assert float(pulse(np.array([[0.19, 0.0]]), 1.23)[0]) == 0.0
    assert float(pulse(np.array([[0.2, 0.0]]), 1.0)[0]) == pytest.approx(np.sin(1.0))
    for seg in (BoundarySegment.RIGHT, BoundarySegment.LEFT, BoundarySegment.TOP):
        bc = bench.bcs.flow[seg]
        assert bc.kind == "pressure"
        assert np.all(bc.value(np.array([[0.0, 0.5]]), 2.0) == 0.0)


def test_barry_mercer_zero_sources_and_initial_data():
    bench = get_benchmark("barry_mercer")
    x = np.random.default_rng(0).random((6, 2))
    assert np.all(bench.sources.f(x, 0.7) == 0.0)
    assert np.all(bench.sources.phi(x, 0.7) == 0.0)
    assert np.all(bench.u0(x, 0.0) == 0.0)
    assert np.all(bench.p0(x, 0.0) == 0.0)
    assert bench.T == 1.0


def test_locking_benchmark_data():
    bench = get_benchmark("locking")
    lam, mu = lame_from_young_poisson(1e5, 0.4)
    assert bench.params.lam == pytest.approx(lam, rel=1e-14)
    assert bench.params.mu == pytest.approx(mu, rel=1e-14)
    assert bench.params.c0 == 0.0
    assert bench.coeffs.kappa3 == 0.0
    assert bench.T == 1e-3
    x_top = np.array([[0.3, 1.0]])
    f1_top = bench.bcs.mechanical[BoundarySegment.TOP].traction(x_top, 0.5)[0]
    assert np.allclose(f1_top, [0.0, -1.0], atol=1e-15)
    x_right = np.array([[1.0, 0.3]])
    f1_right = bench.bcs.mechanical[BoundarySegment.RIGHT].traction(x_right, 0.5)[0]
    assert np.allclose(f1_right, [0.0, 0.0], atol=1e-15)
    dir_left = bench.bcs.mechanical[BoundarySegment.LEFT].dirichlet
    assert dir_left[0] is not None and dir_left[1] is not None
    for seg in BoundarySegment:
        bc = bench.bcs.flow[seg]
        assert bc.kind == "flux"
        assert np.all(bc.value(np.array([[0.5, 0.5]]), 1.0) == 0.0)


def test_test1_boundary_condition_layout():
    bench = get_benchmark("test1")
    for seg in BoundarySegment:
        assert bench.bcs.flow[seg].kind == "pressure"
    for seg in (BoundarySegment.RIGHT, BoundarySegment.LEFT):
        d = bench.bcs.mechanical[seg].dirichlet
        assert d[0] is not None and d[1] is None
    for seg in (BoundarySegment.BOTTOM, BoundarySegment.TOP):
        d = bench.bcs.mechanical[seg].dirichlet
        assert d[0] is None and d[1] is not None


def _plain(x: np.ndarray, t: float) -> np.ndarray:
    return np.zeros(x.shape[0])


_PLAIN_CALLABLES = {
    "SourceFunctions.f": lambda: SourceFunctions(f=_plain, phi=zero_scalar),
    "SourceFunctions.phi": lambda: SourceFunctions(f=zero_vector, phi=_plain),
    "MechanicalBC.dirichlet[0]": lambda: MechanicalBC(dirichlet=(_plain, None), traction=zero_vector),
    "MechanicalBC.dirichlet[1]": lambda: MechanicalBC(dirichlet=(zero_scalar, _plain)),
    "MechanicalBC.traction": lambda: MechanicalBC(traction=_plain),
    "FlowBC.value": lambda: FlowBC(kind="flux", value=_plain),
    **{
        f"Benchmark.{field}": (lambda field=field: dataclasses.replace(
            get_benchmark("test1"), **{field: _plain}))
        for field in ("u0", "p0", "exact_u", "exact_p", "exact_grad_u", "exact_grad_p")
    },
}


@pytest.mark.parametrize("field", sorted(_PLAIN_CALLABLES))
def test_data_not_in_separable_form_are_refused(field):
    with pytest.raises(TypeError, match=re.escape(field) + " must be a .*Separable.*got function"):
        _PLAIN_CALLABLES[field]()


def test_data_of_the_wrong_value_shape_are_refused():
    with pytest.raises(TypeError, match=r"FlowBC.value must be a scalar Separable, got shape \(2,\)"):
        FlowBC(kind="pressure", value=zero_vector)
    with pytest.raises(TypeError, match="Benchmark.exact_grad_u must be a .2, 2. tensor Separable"):
        dataclasses.replace(get_benchmark("polynomial"), exact_grad_u=zero_vector)


def test_separable_sums_its_terms_and_components():
    # 3t * x1 + 1.0 * (1, 2) at two points; the zero data have no terms.
    datum = Separable((2,), (
        (lambda t: 3.0 * t, lambda x: np.column_stack([x[:, 0], x[:, 0]])),
        (1.0, lambda x: np.tile([1.0, 2.0], (x.shape[0], 1))),
    ))
    x = np.array([[0.5, 0.0], [2.0, 1.0]])
    assert np.array_equal(datum(x, 2.0), [[4.0, 5.0], [13.0, 14.0]])
    assert np.array_equal(datum.component(1)(x, 2.0), [5.0, 14.0])
    assert zero_vector.terms == () and zero_scalar.terms == ()
    assert np.array_equal(zero_vector(x, 1.0), np.zeros((2, 2)))


def test_material_override_threads_through():
    prm = MaterialParams(lam=3.0, mu=2.0, alpha=0.9, c0=0.1, K=0.25)
    bench = get_benchmark("test1", prm)
    assert bench.params == prm
    # data closures must be rebuilt for the new constants: check f against
    # the symbolic oracle once more
    x1, x2, t = sym.symbols("x1 x2 t")
    _check_against_oracle(
        bench, (t / 2 * x1**2, t / 2 * x2**2), sym.sin(x1 + x2) * sym.exp(t), True
    )
