"""Reusable benchmark fixtures for the test suite.

These are small, hand-checkable problem definitions used across the
stepper, diagnostics and acceptance tests.  Reference values quoted in the
tests that use them are derived by hand from the conserved-quantity
recursions.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from porofem.mesh import BoundarySegment, Mesh, build_rect_mesh
from porofem.model import (
    Benchmark,
    BoundaryConditionSpec,
    FlowBC,
    MaterialParams,
    MechanicalBC,
    SourceFunctions,
)
from porofem.stepper import Discretization, FieldState, StepSystems, TimeScheme, init_state

def jittered_mesh(nx: int, ny: int, rect=(0.0, 0.0, 1.0, 1.0), seed: int = 0) -> Mesh:
    """A structured mesh with every vertex moved by up to 0.2 cell widths,
    boundary vertices along their side and corners not at all, so that
    triangle areas and boundary edge lengths all differ."""
    mesh = build_rect_mesh(nx, ny, rect)
    x0, y0, x1, y1 = rect
    hx, hy = (x1 - x0) / nx, (y1 - y0) / ny
    rng = np.random.default_rng(seed)
    moved = mesh.vertices + rng.uniform(-0.2, 0.2, mesh.vertices.shape) * (hx, hy)
    on_x_side = np.isclose(mesh.vertices[:, 0], x0) | np.isclose(mesh.vertices[:, 0], x1)
    on_y_side = np.isclose(mesh.vertices[:, 1], y0) | np.isclose(mesh.vertices[:, 1], y1)
    moved[on_x_side, 0] = mesh.vertices[on_x_side, 0]
    moved[on_y_side, 1] = mesh.vertices[on_y_side, 1]
    return dataclasses.replace(mesh, vertices=moved)


def initial_state(benchmark: Benchmark, mesh: Mesh) -> FieldState:
    """The initial state of a one-step coupled run of benchmark on mesh."""
    disc = Discretization.build(mesh, benchmark.params)
    return init_state(StepSystems(benchmark, disc, TimeScheme(dt=1e-3, n_steps=1, theta=1)))


def zero_vector(x: np.ndarray, t: float) -> np.ndarray:
    return np.zeros((x.shape[0], 2))


def zero_scalar(x: np.ndarray, t: float) -> np.ndarray:
    return np.zeros(x.shape[0])


def normal_traction(tag: BoundarySegment, scale: float = 1.0):
    """Traction f1 = scale * n on one side; globally self-equilibrated."""
    n1, n2 = tag.normal

    def closure(x: np.ndarray, t: float) -> np.ndarray:
        out = np.empty((x.shape[0], 2))
        out[:, 0] = scale * n1
        out[:, 1] = scale * n2
        return out

    return closure


def conservation_benchmark(
    lam: float = 2.0,
    mu: float = 1.0,
    alpha: float = 1.0,
    c0: float = 0.5,
    phi_const: float = 1.0,
    flux_bottom: float = 0.3,
    T: float = 0.1,
) -> Benchmark:
    """Pure-traction mechanics + pure-Neumann flow on the unit square.

    Data: f = 0, f1 = n (compatible with rigid motions), phi = phi_const,
    boundary flux flux_bottom on the bottom side and zero elsewhere.  All
    five conserved-quantity identities are applicable, and the reference
    recursions can be evaluated by hand:
    integral-of-eta grows by dt*(phi_const*|domain| + flux_bottom*|bottom|)
    per step.
    """

    def phi(x: np.ndarray, t: float) -> np.ndarray:
        return np.full(x.shape[0], phi_const)

    def flux_b(x: np.ndarray, t: float) -> np.ndarray:
        return np.full(x.shape[0], flux_bottom)

    mechanical = {
        tag: MechanicalBC(traction=normal_traction(tag)) for tag in BoundarySegment
    }
    flow = {tag: FlowBC(kind="flux", value=zero_scalar) for tag in BoundarySegment}
    flow[BoundarySegment.BOTTOM] = FlowBC(kind="flux", value=flux_b)
    return Benchmark(
        name="conservation_fixture",
        T=T,
        params=MaterialParams(lam=lam, mu=mu, alpha=alpha, c0=c0, K=1.0, mu_f=1.0),
        bcs=BoundaryConditionSpec(mechanical=mechanical, flow=flow),
        sources=SourceFunctions(f=zero_vector, phi=phi),
    )


def zero_benchmark() -> Benchmark:
    """Zero data everywhere: clamped left side, zero flux, zero sources."""
    mechanical = {tag: MechanicalBC(traction=zero_vector) for tag in BoundarySegment}
    mechanical[BoundarySegment.LEFT] = MechanicalBC(
        dirichlet=(zero_scalar, zero_scalar)
    )
    flow = {tag: FlowBC(kind="flux", value=zero_scalar) for tag in BoundarySegment}
    return Benchmark(
        name="zero_fixture",
        T=1e-2,
        params=MaterialParams(lam=1.0, mu=1.0, alpha=1.0, c0=0.5, K=1.0, mu_f=1.0),
        bcs=BoundaryConditionSpec(mechanical=mechanical, flow=flow),
        sources=SourceFunctions(f=zero_vector, phi=zero_scalar),
    )
