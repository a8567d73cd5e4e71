"""Finite-element solver for quasi-static linear poroelasticity.

The displacement/pressure system is reformulated in terms of the
volumetric strain q = div u and two pseudo-pressures (eta = c0*p + alpha*q,
xi = alpha*p - lambda*q), turning each implicit time step into a
generalized Stokes solve plus a diffusion solve.  The two solves run
either monolithically (theta = 1) or sequentially (theta = 0).  Built-in
diagnostics verify the discrete energy law, conserved integrals,
convergence rates against manufactured solutions, and robustness in the
vanishing-storage limit.
"""

from .mesh import BoundarySegment, Mesh, build_rect_mesh
from .model import (
    BENCHMARK_NAMES,
    Benchmark,
    MaterialParams,
    derive_kappas,
    get_benchmark,
    lame_from_young_poisson,
    pq_from_xieta,
    xieta_from_pq,
)
from .stepper import FieldState, TimeScheme, init_state, run

__version__ = "1.0.0"

__all__ = [
    "BoundarySegment",
    "Mesh",
    "build_rect_mesh",
    "BENCHMARK_NAMES",
    "Benchmark",
    "MaterialParams",
    "derive_kappas",
    "get_benchmark",
    "lame_from_young_poisson",
    "pq_from_xieta",
    "xieta_from_pq",
    "FieldState",
    "TimeScheme",
    "init_state",
    "run",
    "__version__",
]
