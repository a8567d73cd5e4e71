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

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

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

# Closures take points of shape (n, 2) and a time, and return (n,) scalars
# or (n, 2) vectors.
ScalarClosure = Callable[[np.ndarray, float], np.ndarray]
VectorClosure = Callable[[np.ndarray, float], np.ndarray]


def zero_scalar(x: np.ndarray, t: float) -> np.ndarray:
    return np.zeros(x.shape[0])


def zero_vector(x: np.ndarray, t: float) -> np.ndarray:
    return np.zeros((x.shape[0], 2))


@dataclass(frozen=True)
class MaterialParams:
    """Physical constants of the poroelastic medium.

    Attributes:
        lam: first Lame constant (Pa), nonnegative.
        mu: shear modulus (Pa), positive.
        alpha: pressure/volumetric-strain coupling constant, positive.
        c0: constrained specific storage coefficient (1/Pa), nonnegative;
            alpha^2 + lam*c0 must be finite and positive.
        K: scalar permeability (m^2); stands for the isotropic tensor K*I.
        mu_f: solvent viscosity (Pa*s), positive.
        rho_f: fluid density.
        g: gravity vector (2,).
    """

    lam: float = 1.0
    mu: float = 1.0
    alpha: float = 1.0
    c0: float = 1.0
    K: float = 1.0
    mu_f: float = 1.0
    rho_f: float = 0.0
    g: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        for name in ("lam", "mu", "alpha", "c0", "K", "mu_f", "rho_f", "g"):
            value = getattr(self, name)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value}")
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
        if self.mu_f <= 0.0:
            raise ValueError(f"mu_f must be positive, got {self.mu_f}")
        # Every kappa divides by this; alpha**2 would raise on overflow.
        denom = self.alpha * self.alpha + self.lam * self.c0
        if not 0.0 < denom < np.inf:
            raise ValueError(
                f"alpha*alpha + lam*c0 must be finite and positive, got {denom} "
                f"(alpha = {self.alpha}, lam = {self.lam}, c0 = {self.c0})"
            )

    @property
    def rho_g(self) -> np.ndarray:
        """The product rho_f * g appearing in the Darcy flux."""
        return self.rho_f * np.asarray(self.g, dtype=float)


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

    Each displacement component is either Dirichlet (a value closure) or
    free; free components receive the total-stress traction closure.
    """

    dirichlet: tuple[Optional[ScalarClosure], Optional[ScalarClosure]] = (None, None)
    traction: Optional[VectorClosure] = None

    def __post_init__(self) -> None:
        has_free = any(d is None for d in self.dirichlet)
        if has_free and self.traction is None:
            raise ValueError("a free displacement component requires a traction closure")


@dataclass(frozen=True)
class FlowBC:
    """Flow condition on one boundary segment.

    kind "pressure" carries Dirichlet data on p; kind "flux" carries the
    prescribed value of (K/mu_f)*(grad p - rho_f g) . n.
    """

    kind: str
    value: ScalarClosure

    def __post_init__(self) -> None:
        if self.kind not in ("pressure", "flux"):
            raise ValueError(f"unknown flow BC kind {self.kind!r}")


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

    f: VectorClosure
    phi: ScalarClosure


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
        u0, p0: initial data closures; u0 must be divergence-free (the
            initial q is zero).
        exact_u, exact_p: optional exact solution closures.
        exact_grad_u: optional closure returning (n, 2, 2) arrays du_i/dx_j.
        exact_grad_p: optional closure returning (n, 2) arrays.
        default_dt: time-step default for the CLI.
    """

    name: str
    T: float
    params: MaterialParams
    bcs: BoundaryConditionSpec
    sources: SourceFunctions
    u0: VectorClosure = zero_vector
    p0: ScalarClosure = zero_scalar
    exact_u: Optional[VectorClosure] = None
    exact_p: Optional[ScalarClosure] = None
    exact_grad_u: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    exact_grad_p: Optional[VectorClosure] = None
    default_dt: float = 1e-5

    @property
    def coeffs(self) -> DerivedCoeffs:
        return derive_kappas(self.params)

    @property
    def has_exact_solution(self) -> bool:
        """Whether both exact closures, u and p, are given."""
        return self.exact_u is not None and self.exact_p is not None


def _component(closure: VectorClosure, k: int) -> ScalarClosure:
    """Component k of a vector closure, as a scalar closure."""

    def value(x: np.ndarray, t: float) -> np.ndarray:
        return closure(x, t)[:, k]

    return value


def benchmark_test1(params: Optional[MaterialParams] = None) -> Benchmark:
    """Manufactured smooth solution on the unit square, T = 0.001.

    Exact fields: u = (t/2)*(x1^2, x2^2), p = sin(x1 + x2)*e^t.  The data
    below (body force, mass source, traction) are consistent with these
    fields for any admissible material constants.  Pressure is Dirichlet
    on the whole boundary; u1 is Dirichlet on the vertical sides and u2 on
    the horizontal sides, with the traction driving the free components.
    """
    prm = params if params is not None else MaterialParams()
    lam, mu, alpha = prm.lam, prm.mu, prm.alpha
    c0, K, mu_f = prm.c0, prm.K, prm.mu_f

    def exact_u(x: np.ndarray, t: float) -> np.ndarray:
        return 0.5 * t * np.column_stack([x[:, 0] ** 2, x[:, 1] ** 2])

    def exact_p(x: np.ndarray, t: float) -> np.ndarray:
        return np.sin(x[:, 0] + x[:, 1]) * np.exp(t)

    def exact_grad_u(x: np.ndarray, t: float) -> np.ndarray:
        out = np.zeros((x.shape[0], 2, 2))
        out[:, 0, 0] = t * x[:, 0]
        out[:, 1, 1] = t * x[:, 1]
        return out

    def exact_grad_p(x: np.ndarray, t: float) -> np.ndarray:
        c = np.cos(x[:, 0] + x[:, 1]) * np.exp(t)
        return np.column_stack([c, c])

    def body_force(x: np.ndarray, t: float) -> np.ndarray:
        ones = np.ones(x.shape[0])
        base = -(lam + mu) * t
        grad_p = alpha * np.cos(x[:, 0] + x[:, 1]) * np.exp(t)
        return np.column_stack([base + grad_p, base * ones + grad_p])

    def mass_source(x: np.ndarray, t: float) -> np.ndarray:
        s = x[:, 0] + x[:, 1]
        return (c0 + 2.0 * K / mu_f) * np.sin(s) * np.exp(t) + alpha * s

    def traction_for(normal: tuple[float, float]) -> VectorClosure:
        n1, n2 = normal

        def f1(x: np.ndarray, t: float) -> np.ndarray:
            s = x[:, 0] + x[:, 1]
            sig_n1 = mu * t * x[:, 0] * n1 + lam * t * s * n1
            sig_n2 = mu * t * x[:, 1] * n2 + lam * t * s * n2
            pn = alpha * np.sin(s) * np.exp(t)
            return np.column_stack([sig_n1 - pn * n1, sig_n2 - pn * n2])

        return f1

    # The vertical sides are those whose normal lies along x1.
    u1, u2 = _component(exact_u, 0), _component(exact_u, 1)
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
        exact_grad_u=exact_grad_u,
        exact_grad_p=exact_grad_p,
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

    def p2(x: np.ndarray, t: float) -> np.ndarray:
        inside = (x[:, 0] >= 0.2) & (x[:, 0] < 0.8)
        return np.where(inside, np.sin(t), 0.0)

    def traction_bottom(x: np.ndarray, t: float) -> np.ndarray:
        vals = alpha * p2(x, t)
        return np.column_stack([np.zeros_like(vals), vals])

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
    bottom sides.  Small permeability K/mu_f = 1e-6 by default: the
    regime where spurious pressure oscillations appear for non-robust
    discretizations.
    """
    if params is None:
        lam, mu = lame_from_young_poisson(1e5, 0.4)
        prm = MaterialParams(lam=lam, mu=mu, alpha=1.0, c0=0.0, K=1e-6, mu_f=1.0)
    else:
        prm = params

    def traction_top(x: np.ndarray, t: float) -> np.ndarray:
        out = np.zeros((x.shape[0], 2))
        out[:, 1] = -1.0
        return out

    mechanical = {
        BoundarySegment.LEFT: MechanicalBC(dirichlet=(zero_scalar, zero_scalar)),
        BoundarySegment.RIGHT: MechanicalBC(traction=zero_vector),
        BoundarySegment.BOTTOM: MechanicalBC(traction=zero_vector),
        BoundarySegment.TOP: MechanicalBC(traction=traction_top),
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

    def exact_u(x: np.ndarray, t: float) -> np.ndarray:
        return (1.0 + t) * np.column_stack([x[:, 1] ** 2, -(x[:, 0] ** 2)])

    def exact_p(x: np.ndarray, t: float) -> np.ndarray:
        return (1.0 + t) * (x[:, 0] - 2.0 * x[:, 1])

    def exact_grad_u(x: np.ndarray, t: float) -> np.ndarray:
        out = np.zeros((x.shape[0], 2, 2))
        out[:, 0, 1] = 2.0 * (1.0 + t) * x[:, 1]
        out[:, 1, 0] = -2.0 * (1.0 + t) * x[:, 0]
        return out

    def exact_grad_p(x: np.ndarray, t: float) -> np.ndarray:
        out = np.empty((x.shape[0], 2))
        out[:, 0] = 1.0 + t
        out[:, 1] = -2.0 * (1.0 + t)
        return out

    def body_force(x: np.ndarray, t: float) -> np.ndarray:
        out = np.empty((x.shape[0], 2))
        out[:, 0] = (1.0 + t) * (alpha - mu)
        out[:, 1] = (1.0 + t) * (mu - 2.0 * alpha)
        return out

    def mass_source(x: np.ndarray, t: float) -> np.ndarray:
        return c0 * (x[:, 0] - 2.0 * x[:, 1])

    def traction_right(x: np.ndarray, t: float) -> np.ndarray:
        # (sigma - alpha p I) n with sigma = mu eps(u) (div u = 0), n = e1.
        out = np.empty((x.shape[0], 2))
        out[:, 0] = (1.0 + t) * alpha * (2.0 * x[:, 1] - 1.0)
        out[:, 1] = (1.0 + t) * mu * (x[:, 1] - 1.0)
        return out

    dirichlet = (_component(exact_u, 0), _component(exact_u, 1))
    mechanical = {seg: MechanicalBC(dirichlet=dirichlet) for seg in BoundarySegment}
    mechanical[BoundarySegment.RIGHT] = MechanicalBC(traction=traction_right)
    flow = {seg: FlowBC(kind="pressure", value=exact_p) for seg in BoundarySegment}

    return Benchmark(
        name="polynomial",
        T=0.01,
        params=prm,
        bcs=BoundaryConditionSpec(mechanical=mechanical, flow=flow),
        sources=SourceFunctions(f=body_force, phi=mass_source),
        u0=exact_u,
        p0=exact_p,
        exact_u=exact_u,
        exact_p=exact_p,
        exact_grad_u=exact_grad_u,
        exact_grad_p=exact_grad_p,
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
