"""Physical parameters, reformulation coefficients, and benchmark problems.

The solver works in reformulated unknowns: the volumetric strain q = div u
and the two pseudo-pressures

    eta = c0*p + alpha*q,      xi = alpha*p - lambda*q,

whose inverse map is p = kappa1*xi + kappa2*eta, q = kappa1*eta - kappa3*xi.
This module owns the physical constants, the derived kappa coefficients,
boundary-condition specifications in physical variables, and the benchmark
problem definitions.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Mapping, Optional, Union

import numpy as np

from .mesh import BoundarySegment

__all__ = [
    "MaterialParams",
    "DerivedCoeffs",
    "MechanicalBC",
    "FlowBC",
    "BoundaryConditionSpec",
    "SourceFunctions",
    "Benchmark",
    "Separable",
    "Tabulated",
    "zero_scalar",
    "zero_vector",
    "derive_kappas",
    "lame_from_young_poisson",
    "pq_from_xieta",
    "xieta_from_pq",
    "benchmark_test1",
    "benchmark_barry_mercer",
    "benchmark_locking",
    "benchmark_polynomial",
    "get_benchmark",
    "BENCHMARK_NAMES",
]

# A field maps points of shape (n, 2) to values of shape (n, *shape); a time
# factor maps t to a number, or is the number 1.0 for a term that does not
# vary in time.
Field = Callable[[np.ndarray], np.ndarray]
Factor = Union[float, Callable[[float], float]]


def _at(factor: Factor, t: float) -> float:
    return factor(t) if callable(factor) else factor


@dataclass(frozen=True, eq=False)
class Separable:
    """A datum in separable form, the finite sum of a_k(t) * g_k(x).

    Every benchmark datum is one: sources, boundary data, initial data and
    exact fields.  A consumer evaluates each g_k once, at its own points,
    and then only scales and sums on each step (Tabulated); calling the
    datum serves one-off evaluations.

    Attributes:
        shape: value shape at one point: () scalar, (2,) vector, (2, 2) the
            gradient of a vector, [i, j] = du_i/dx_j.
        terms: the (a_k, g_k) pairs; no terms is the zero datum.
    """

    shape: tuple[int, ...]
    terms: tuple[tuple[Factor, Field], ...] = ()

    def __call__(self, x: np.ndarray, t: float) -> np.ndarray:
        """Values at points x (n, 2) and time t: (n, *shape)."""
        out = np.zeros((x.shape[0], *self.shape))
        for factor, field in self.terms:
            out += _at(factor, t) * field(x)
        return out

    def component(self, k: int) -> "Separable":
        """Component k of a vector datum, as a scalar datum."""
        return Separable(self.shape[1:], tuple((a, _component(g, k)) for a, g in self.terms))

    def tabulate(self, space: Callable[[Field], np.ndarray]) -> tuple[tuple[Factor, np.ndarray], ...]:
        """The terms (a_k, space(g_k)): each space part worked out once."""
        return tuple((factor, np.asarray(space(field), dtype=float)) for factor, field in self.terms)


@dataclass(frozen=True, eq=False)
class Tabulated:
    """The sum of a_k(t) * T_k over tables T_k of one shape, each built once
    from a Separable's space part (Separable.tabulate)."""

    shape: tuple[int, ...]
    terms: tuple[tuple[Factor, np.ndarray], ...] = ()

    def __call__(self, t: float) -> np.ndarray:
        """The sum at time t, as a fresh array."""
        if not self.terms:
            return np.zeros(self.shape)
        (factor, table), *rest = self.terms
        out = _at(factor, t) * table
        out += 0.0  # as a sum started from +0.0: no -0.0 entries
        for factor, table in rest:
            out += _at(factor, t) * table
        return out

    @property
    def steady(self) -> bool:
        """Whether no term's factor is a function of t."""
        return not any(callable(factor) for factor, _ in self.terms)


def _component(field: Field, k: int) -> Field:
    def value(x: np.ndarray) -> np.ndarray:
        return field(x)[:, k]

    return value


zero_scalar = Separable(())
zero_vector = Separable((2,))

_KINDS = {(): "scalar", (2,): "vector", (2, 2): "(2, 2) tensor"}


def _check_datum(where: str, datum, shape: tuple[int, ...], optional: bool = False) -> None:
    """Refuse, with TypeError naming the field, a datum that is not a
    Separable of the given value shape."""
    if datum is None and optional:
        return
    if not isinstance(datum, Separable):
        raise TypeError(
            f"{where} must be a {_KINDS[shape]} Separable (a sum of a_k(t)*g_k(x)), "
            f"got {type(datum).__name__}"
        )
    if datum.shape != shape:
        raise TypeError(f"{where} must be a {_KINDS[shape]} Separable, got shape {datum.shape}")


@dataclass(frozen=True)
class MaterialParams:
    """Physical constants of the poroelastic medium.

    Attributes:
        lam: first Lame constant (Pa), nonnegative, at most 2**510.
        mu: shear modulus (Pa), in [2**-510, 2**510].
        alpha: pressure/volumetric-strain coupling constant, positive.
        c0: constrained specific storage coefficient (1/Pa), nonnegative;
            alpha^2 + lam*c0 must be finite and positive.
        K: Darcy mobility, permeability over solvent viscosity (K/mu_f in
            the paper), positive, at most 2**510; stands for the isotropic
            tensor K*I.

    A constant fluid body force in Darcy's law is flux data (FlowBC).
    """

    lam: float = 1.0
    mu: float = 1.0
    alpha: float = 1.0
    c0: float = 1.0
    K: float = 1.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not np.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.mu <= 0.0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.lam < 0.0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.c0 < 0.0:
            raise ValueError(f"c0 must be nonnegative, got {self.c0}")
        if self.K <= 0.0:
            raise ValueError(f"K must be positive, got {self.K}")
        # Every kappa divides by this; alpha**2 would raise on overflow.
        denom = self.alpha * self.alpha + self.lam * self.c0
        if not 0.0 < denom < np.inf:
            raise ValueError(
                f"alpha*alpha + lam*c0 must be finite and positive, got {denom} "
                f"(alpha = {self.alpha}, lam = {self.lam}, c0 = {self.c0})"
            )
        # The step systems multiply these scales with one another, the
        # elastic block scales with mu, the pressure-Dirichlet elimination
        # divides by kappa2, and lam scales the benchmarks' data: each stays
        # at most 2**510, and a positive kappa2 or mu at least 2**-510, so
        # that a product or a quotient of two is finite and nonzero.
        coeffs = derive_kappas(self)
        kappa = ("alpha", "lam", "c0")
        for name, value, inputs, floored in (
            ("kappa1 = alpha/(alpha*alpha + lam*c0)", coeffs.kappa1, kappa, False),
            ("kappa2 = lam/(alpha*alpha + lam*c0)", coeffs.kappa2, kappa, True),
            ("kappa3 = c0/(alpha*alpha + lam*c0)", coeffs.kappa3, kappa, False),
            ("K", self.K, ("K",), False),
            ("lam", self.lam, ("lam",), False),
            ("mu", self.mu, ("mu",), True),
        ):
            if value > 2.0**510:
                fault = "exceeds 2**510"
            elif floored and 0.0 < value < 2.0**-510:
                fault = "is positive but below 2**-510"
            else:
                continue
            raise ValueError(
                f"{name} {fault}, got {value:.6g} ("
                + ", ".join(f"{n} = {getattr(self, n)}" for n in inputs) + ")"
            )


@dataclass(frozen=True)
class DerivedCoeffs:
    """Reformulation coefficients kappa1, kappa2, kappa3."""

    kappa1: float
    kappa2: float
    kappa3: float


def derive_kappas(params: MaterialParams) -> DerivedCoeffs:
    """Compute the reformulation coefficients from material constants.

    kappa1 = alpha/(alpha^2 + lam*c0), kappa2 = lam/(...), kappa3 = c0/(...);
    MaterialParams holds the sum finite and positive.
    """
    denom = params.alpha * params.alpha + params.lam * params.c0
    return DerivedCoeffs(
        kappa1=params.alpha / denom,
        kappa2=params.lam / denom,
        kappa3=params.c0 / denom,
    )


def lame_from_young_poisson(E: float, nu: float) -> tuple[float, float]:
    """Lame constants (lam, mu) from Young's modulus and Poisson ratio.

    Raises:
        ValueError: unless E > 0 and -1 < nu < 0.5.
    """
    if E <= 0.0:
        raise ValueError(f"Young's modulus must be positive, got {E}")
    if not -1.0 < nu < 0.5:
        raise ValueError(f"Poisson ratio must lie in (-1, 0.5), got {nu}")
    lam = E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    mu = E / (2.0 * (1.0 + nu))
    return lam, mu


def pq_from_xieta(xi, eta, coeffs: DerivedCoeffs):
    """Recover (p, q) from the pseudo-pressures: p = k1*xi + k2*eta, q = k1*eta - k3*xi."""
    p = coeffs.kappa1 * xi + coeffs.kappa2 * eta
    q = coeffs.kappa1 * eta - coeffs.kappa3 * xi
    return p, q


def xieta_from_pq(p, q, params: MaterialParams):
    """Forward map to the pseudo-pressures: xi = alpha*p - lam*q, eta = c0*p + alpha*q."""
    xi = params.alpha * p - params.lam * q
    eta = params.c0 * p + params.alpha * q
    return xi, eta


@dataclass(frozen=True)
class MechanicalBC:
    """Mechanical condition on one boundary segment.

    Each displacement component is either Dirichlet (a scalar Separable) or
    free; free components receive the total-stress traction, a vector
    Separable.
    """

    dirichlet: tuple[Optional[Separable], Optional[Separable]] = (None, None)
    traction: Optional[Separable] = None

    def __post_init__(self) -> None:
        for k, datum in enumerate(self.dirichlet):
            _check_datum(f"MechanicalBC.dirichlet[{k}]", datum, (), optional=True)
        _check_datum("MechanicalBC.traction", self.traction, (2,), optional=True)
        has_free = any(d is None for d in self.dirichlet)
        if has_free and self.traction is None:
            raise ValueError("a free displacement component requires a traction")


@dataclass(frozen=True)
class FlowBC:
    """Flow condition on one boundary segment.

    kind "pressure" carries Dirichlet data on p; kind "flux" carries the
    prescribed value of K grad p . n, K the Darcy mobility.  A constant
    fluid body force b in Darcy's law, v = -K(grad p - b), is flux data:
    against P1 test functions (K b, grad psi) = <K b . n, psi> exactly, so
    K b . n is added to the Darcy flux datum (docs/decisions.md).
    """

    kind: str
    value: Separable

    def __post_init__(self) -> None:
        if self.kind not in ("pressure", "flux"):
            raise ValueError(f"unknown flow BC kind {self.kind!r}")
        _check_datum("FlowBC.value", self.value, ())


@dataclass(frozen=True)
class BoundaryConditionSpec:
    """Per-segment mechanical and flow boundary conditions.

    Every segment must carry exactly one mechanical condition per
    displacement component and exactly one flow condition.
    """

    mechanical: Mapping[BoundarySegment, MechanicalBC]
    flow: Mapping[BoundarySegment, FlowBC]

    def __post_init__(self) -> None:
        for seg in BoundarySegment:
            if seg not in self.mechanical:
                raise ValueError(f"missing mechanical condition on segment {seg.name}")
            if seg not in self.flow:
                raise ValueError(f"missing flow condition on segment {seg.name}")

    def is_pure_traction(self) -> bool:
        """True when no displacement component is Dirichlet anywhere."""
        return all(
            bc.dirichlet == (None, None) for bc in self.mechanical.values()
        )

    def is_pure_neumann_flow(self) -> bool:
        """True when every flow condition prescribes the flux."""
        return all(bc.kind == "flux" for bc in self.flow.values())


@dataclass(frozen=True)
class SourceFunctions:
    """Body force f(x, t) and mass source phi(x, t)."""

    f: Separable
    phi: Separable

    def __post_init__(self) -> None:
        _check_datum("SourceFunctions.f", self.f, (2,))
        _check_datum("SourceFunctions.phi", self.phi, ())


@dataclass(frozen=True)
class Benchmark:
    """A complete problem definition.

    Attributes:
        name: one of "test1", "barry_mercer", "locking", "polynomial".
            Every benchmark is posed on the unit square.
        T: final time.
        params: material constants.
        bcs: boundary conditions.
        sources: body force and mass source.
        u0, p0: initial data; u0 must be divergence-free (the initial q is
            zero).
        exact_u, exact_p: optional exact solution.
        exact_grad_u: optional exact displacement gradient, du_i/dx_j.
        exact_grad_p: optional exact pressure gradient.
        default_dt: time-step default for the CLI.

    Every datum is a Separable of its value shape; anything else raises
    TypeError naming the field.
    """

    name: str
    T: float
    params: MaterialParams
    bcs: BoundaryConditionSpec
    sources: SourceFunctions
    u0: Separable = zero_vector
    p0: Separable = zero_scalar
    exact_u: Optional[Separable] = None
    exact_p: Optional[Separable] = None
    exact_grad_u: Optional[Separable] = None
    exact_grad_p: Optional[Separable] = None
    default_dt: float = 1e-5

    def __post_init__(self) -> None:
        _check_datum("Benchmark.u0", self.u0, (2,))
        _check_datum("Benchmark.p0", self.p0, ())
        for name, shape in (("exact_u", (2,)), ("exact_p", ()),
                            ("exact_grad_u", (2, 2)), ("exact_grad_p", (2,))):
            _check_datum(f"Benchmark.{name}", getattr(self, name), shape, optional=True)

    @property
    def coeffs(self) -> DerivedCoeffs:
        return derive_kappas(self.params)

    @property
    def has_exact_solution(self) -> bool:
        """Whether both exact fields, u and p, are given."""
        return self.exact_u is not None and self.exact_p is not None


def _linear(t: float) -> float:
    return t


def _one_plus(t: float) -> float:
    return 1.0 + t


def benchmark_test1(params: Optional[MaterialParams] = None) -> Benchmark:
    """Manufactured smooth solution on the unit square, T = 0.001.

    Exact fields: u = (t/2)*(x1^2, x2^2), p = sin(x1 + x2)*e^t.  The data
    below (body force, mass source, traction) are consistent with these
    fields for any admissible material constants.  Pressure is Dirichlet
    on the whole boundary; u1 is Dirichlet on the vertical sides and u2 on
    the horizontal sides, with the traction driving the free components.
    Every datum is a term in t, a term in e^t, or one of each.
    """
    prm = params if params is not None else MaterialParams()
    lam, mu, alpha = prm.lam, prm.mu, prm.alpha
    c0, K = prm.c0, prm.K

    def s(x: np.ndarray) -> np.ndarray:
        return x[:, 0] + x[:, 1]

    def both(values: np.ndarray) -> np.ndarray:
        return np.column_stack([values, values])

    def grad_u(x: np.ndarray) -> np.ndarray:
        out = np.zeros((x.shape[0], 2, 2))
        out[:, 0, 0] = x[:, 0]
        out[:, 1, 1] = x[:, 1]
        return out

    exact_u = Separable((2,), ((_linear, lambda x: 0.5 * np.column_stack([x[:, 0] ** 2, x[:, 1] ** 2])),))
    exact_p = Separable((), ((np.exp, lambda x: np.sin(s(x))),))
    body_force = Separable((2,), (
        (_linear, lambda x: np.full((x.shape[0], 2), -(lam + mu))),
        (np.exp, lambda x: both(alpha * np.cos(s(x)))),
    ))
    mass_source = Separable((), (
        (np.exp, lambda x: (c0 + 2.0 * K) * np.sin(s(x))),
        (1.0, lambda x: alpha * s(x)),
    ))

    def traction_for(normal: tuple[float, float]) -> Separable:
        n1, n2 = normal

        def stress(x: np.ndarray) -> np.ndarray:
            return np.column_stack([
                mu * x[:, 0] * n1 + lam * s(x) * n1,
                mu * x[:, 1] * n2 + lam * s(x) * n2,
            ])

        def pressure(x: np.ndarray) -> np.ndarray:
            pn = alpha * np.sin(s(x))
            return np.column_stack([-pn * n1, -pn * n2])

        return Separable((2,), ((_linear, stress), (np.exp, pressure)))

    # The vertical sides are those whose normal lies along x1.
    u1, u2 = exact_u.component(0), exact_u.component(1)
    mechanical = {
        seg: MechanicalBC(
            dirichlet=(u1, None) if seg.normal[0] else (None, u2),
            traction=traction_for(seg.normal),
        )
        for seg in BoundarySegment
    }
    flow = {seg: FlowBC(kind="pressure", value=exact_p) for seg in BoundarySegment}

    return Benchmark(
        name="test1",
        T=1e-3,
        params=prm,
        bcs=BoundaryConditionSpec(mechanical=mechanical, flow=flow),
        sources=SourceFunctions(f=body_force, phi=mass_source),
        p0=exact_p,
        exact_u=exact_u,
        exact_p=exact_p,
        exact_grad_u=Separable((2, 2), ((_linear, grad_u),)),
        exact_grad_p=Separable((2,), ((np.exp, lambda x: both(np.cos(s(x)))),)),
        default_dt=1e-5,
    )


def benchmark_barry_mercer(params: Optional[MaterialParams] = None) -> Benchmark:
    """Pressure pulse driven through part of the bottom side, T = 1.

    Zero sources and initial data.  Pressure is held at zero on three
    sides and at p2(x1, t) = sin(t) for x1 in [0.2, 0.8) on the bottom.
    Normal displacement is fixed on every side; the tangential component
    is free with traction (0, alpha*p_D), which makes the effective
    stress vanish on the boundary.
    """
    prm = params if params is not None else MaterialParams()
    alpha = prm.alpha

    def window(x: np.ndarray) -> np.ndarray:
        inside = (x[:, 0] >= 0.2) & (x[:, 0] < 0.8)
        return np.where(inside, 1.0, 0.0)

    def lifted(x: np.ndarray) -> np.ndarray:
        vals = alpha * window(x)
        return np.column_stack([np.zeros_like(vals), vals])

    p2 = Separable((), ((np.sin, window),))
    traction_bottom = Separable((2,), ((np.sin, lifted),))
    mechanical = {
        BoundarySegment.RIGHT: MechanicalBC(dirichlet=(zero_scalar, None), traction=zero_vector),
        BoundarySegment.LEFT: MechanicalBC(dirichlet=(zero_scalar, None), traction=zero_vector),
        BoundarySegment.BOTTOM: MechanicalBC(dirichlet=(None, zero_scalar), traction=traction_bottom),
        BoundarySegment.TOP: MechanicalBC(dirichlet=(None, zero_scalar), traction=zero_vector),
    }
    flow = {
        BoundarySegment.RIGHT: FlowBC(kind="pressure", value=zero_scalar),
        BoundarySegment.LEFT: FlowBC(kind="pressure", value=zero_scalar),
        BoundarySegment.TOP: FlowBC(kind="pressure", value=zero_scalar),
        BoundarySegment.BOTTOM: FlowBC(kind="pressure", value=p2),
    }

    return Benchmark(
        name="barry_mercer",
        T=1.0,
        params=prm,
        bcs=BoundaryConditionSpec(mechanical=mechanical, flow=flow),
        sources=SourceFunctions(f=zero_vector, phi=zero_scalar),
        default_dt=0.01,
    )


def benchmark_locking(params: Optional[MaterialParams] = None) -> Benchmark:
    """Nearly incompressible footing-style problem, T = 0.001.

    c0 = 0 with Lame constants from E = 1e5, nu = 0.4.  Zero sources and
    initial data, zero Darcy flux on the whole boundary, clamped left
    side, downward unit traction on the top, traction-free right and
    bottom sides.  Small Darcy mobility K = 1e-6 by default: the regime
    where spurious pressure oscillations appear for non-robust
    discretizations.
    """
    if params is None:
        lam, mu = lame_from_young_poisson(1e5, 0.4)
        prm = MaterialParams(lam=lam, mu=mu, alpha=1.0, c0=0.0, K=1e-6)
    else:
        prm = params

    def downward(x: np.ndarray) -> np.ndarray:
        out = np.zeros((x.shape[0], 2))
        out[:, 1] = -1.0
        return out

    mechanical = {
        BoundarySegment.LEFT: MechanicalBC(dirichlet=(zero_scalar, zero_scalar)),
        BoundarySegment.RIGHT: MechanicalBC(traction=zero_vector),
        BoundarySegment.BOTTOM: MechanicalBC(traction=zero_vector),
        BoundarySegment.TOP: MechanicalBC(traction=Separable((2,), ((1.0, downward),))),
    }
    flow = {seg: FlowBC(kind="flux", value=zero_scalar) for seg in BoundarySegment}

    return Benchmark(
        name="locking",
        T=1e-3,
        params=prm,
        bcs=BoundaryConditionSpec(mechanical=mechanical, flow=flow),
        sources=SourceFunctions(f=zero_vector, phi=zero_scalar),
        default_dt=1e-4,
    )


def benchmark_polynomial(params: Optional[MaterialParams] = None) -> Benchmark:
    """Exactly representable solution: quadratic u, linear p.

    u = (1+t)*(x2^2, -x1^2) is divergence-free and p = (1+t)*(x1 - 2*x2)
    is linear, so the discrete solution must coincide with the nodal
    interpolant up to solver tolerance at every step (for both coupling
    weights when c0 = 0, since then eta vanishes identically).  Useful to
    certify that measured errors sit at solver tolerance and that a
    convergence study flags such runs as rate-free.

    The displacement is prescribed on the left, bottom and top sides and
    driven by the consistent total-stress traction on the right one; the
    free side keeps the decoupled scheme's Stokes block nonsingular when
    c0 = 0 (otherwise constant xi would be in its kernel).
    """
    prm = params if params is not None else MaterialParams(c0=0.0)
    mu, alpha, c0 = prm.mu, prm.alpha, prm.c0

    def grad_u(x: np.ndarray) -> np.ndarray:
        out = np.zeros((x.shape[0], 2, 2))
        out[:, 0, 1] = 2.0 * x[:, 1]
        out[:, 1, 0] = -2.0 * x[:, 0]
        return out

    def rows(first: float, second: float):
        return lambda x: np.tile([first, second], (x.shape[0], 1))

    def traction_right(x: np.ndarray) -> np.ndarray:
        # (sigma - alpha p I) n with sigma = mu eps(u) (div u = 0), n = e1.
        return np.column_stack([alpha * (2.0 * x[:, 1] - 1.0), mu * (x[:, 1] - 1.0)])

    exact_u = Separable((2,), ((_one_plus, lambda x: np.column_stack([x[:, 1] ** 2, -(x[:, 0] ** 2)])),))
    exact_p = Separable((), ((_one_plus, lambda x: x[:, 0] - 2.0 * x[:, 1]),))
    dirichlet = (exact_u.component(0), exact_u.component(1))
    mechanical = {seg: MechanicalBC(dirichlet=dirichlet) for seg in BoundarySegment}
    mechanical[BoundarySegment.RIGHT] = MechanicalBC(
        traction=Separable((2,), ((_one_plus, traction_right),))
    )
    flow = {seg: FlowBC(kind="pressure", value=exact_p) for seg in BoundarySegment}

    return Benchmark(
        name="polynomial",
        T=0.01,
        params=prm,
        bcs=BoundaryConditionSpec(mechanical=mechanical, flow=flow),
        sources=SourceFunctions(
            f=Separable((2,), ((_one_plus, rows(alpha - mu, mu - 2.0 * alpha)),)),
            phi=Separable((), ((1.0, lambda x: c0 * (x[:, 0] - 2.0 * x[:, 1])),)),
        ),
        u0=exact_u,
        p0=exact_p,
        exact_u=exact_u,
        exact_p=exact_p,
        exact_grad_u=Separable((2, 2), ((_one_plus, grad_u),)),
        exact_grad_p=Separable((2,), ((_one_plus, rows(1.0, -2.0)),)),
        default_dt=1e-3,
    )


_FACTORIES = {
    "test1": benchmark_test1,
    "barry_mercer": benchmark_barry_mercer,
    "locking": benchmark_locking,
    "polynomial": benchmark_polynomial,
}
BENCHMARK_NAMES = tuple(_FACTORIES)


def get_benchmark(name: str, params: Optional[MaterialParams] = None) -> Benchmark:
    """Look up a benchmark constructor by name."""
    if name not in _FACTORIES:
        raise ValueError(f"unknown benchmark {name!r}; expected one of {BENCHMARK_NAMES}")
    return _FACTORIES[name](params)
