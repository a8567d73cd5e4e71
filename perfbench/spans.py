"""Spans recorded around porofem's public functions, from outside the package.

A `Tracer` replaces functions and methods of the imported `porofem` modules
with wrappers that record a span (name, start, end, parent) each time they
are called, keeps the spans in memory, and puts every original back on
`restore()`.  Nothing under `src/` knows about it.

Functions are patched at the name they are looked up under: the stepper and
the CLI import by name (`from .solver import factorize`), so wrapping
`porofem.solver.factorize` alone would miss every call the stepper makes.
"""

from __future__ import annotations

import functools
import inspect
import time
from typing import Callable

# Stepping markers only: what the untraced run records.
STEP_TARGETS: list[tuple[str, str, str]] = [
    ("porofem.cli", "run", "stepper.run"),
    ("porofem.stepper", "run", "stepper.run"),
    ("porofem.stepper", "step_coupled", "stepper.step"),
    ("porofem.stepper", "step_decoupled", "stepper.step"),
]

# (owner, attribute, span name) for the traced run.  An owner is a module
# path, or a module path and a class name joined by ':'.
LAYER_TARGETS: list[tuple[str, str, str]] = STEP_TARGETS + [
    ("porofem.cli", "build_rect_mesh", "mesh.build"),
    ("porofem.cli", "write_vtk", "cli.vtk"),
    ("porofem.cli", "biot_limit_sweep", "diagnostics.sweep"),
    ("porofem.assembly:DofMap", "from_mesh", "assembly.dofmap"),
    ("porofem.stepper", "assemble_elasticity", "assembly.operators"),
    ("porofem.stepper", "assemble_div", "assembly.operators"),
    ("porofem.stepper", "assemble_scalar_mass", "assembly.operators"),
    ("porofem.stepper", "assemble_scalar_stiffness", "assembly.operators"),
    ("porofem.assembly", "assemble_vector_mass", "assembly.operators"),
    ("porofem.diagnostics", "assemble_vector_mass", "assembly.operators"),
    ("porofem.diagnostics", "assemble_scalar_mass", "assembly.operators"),
    ("porofem.stepper", "build_constraints", "assembly.constraints"),
    ("porofem.assembly:ReducedSystem", "__init__", "assembly.reduce"),
    ("porofem.stepper", "apply_constraints", "assembly.reduce"),
    ("porofem.assembly:ReducedSystem", "reduce_rhs", "assembly.rhs_map"),
    ("porofem.assembly:ReducedSystem", "expand", "assembly.rhs_map"),
    ("porofem.stepper", "assemble_load", "assembly.load"),
    ("porofem.stepper", "assemble_domain_load", "assembly.load"),
    ("porofem.diagnostics", "assemble_load", "assembly.load"),
    ("porofem.assembly", "physical_points", "elements.points"),
    ("porofem.diagnostics", "physical_points", "elements.points"),
    ("porofem.solver", "factorize", "solver.factorize"),
    ("porofem.stepper", "factorize", "solver.factorize"),
    ("porofem.solver", "solve", "solver.solve"),
    ("porofem.stepper", "solve", "solver.solve"),
    ("porofem.stepper:StepSystems", "__init__", "stepper.systems"),
    ("porofem.stepper:StepSystems", "boundary_values", "stepper.boundary_values"),
    ("porofem.stepper:StepSystems", "estimate_decoupled_amplification", "stepper.amplification"),
    ("porofem.stepper", "init_state", "stepper.init_state"),
    ("porofem.diagnostics:EnergyAuditor", "ingest", "diagnostics.energy"),
    ("porofem.diagnostics:ConservationTracker", "__init__", "diagnostics.conservation"),
    ("porofem.diagnostics:ConservationTracker", "start", "diagnostics.conservation"),
    ("porofem.diagnostics:ConservationTracker", "advance", "diagnostics.conservation"),
    ("porofem.stepper", "check_conservation", "diagnostics.conservation"),
    ("porofem.stepper", "check_state_consistency", "diagnostics.consistency"),
    ("porofem.diagnostics:ErrorEvaluator", "__init__", "diagnostics.errors"),
    ("porofem.diagnostics:ErrorEvaluator", "evaluate", "diagnostics.errors"),
    ("porofem.stepper", "summarize_error_history", "diagnostics.errors"),
]


def _owner(path: str):
    module_name, _, class_name = path.partition(":")
    module = __import__(module_name, fromlist=["_"])
    return getattr(module, class_name) if class_name else module


def _bound(owner, attr: str):
    # A class attribute is read from the class dict, so a classmethod is
    # saved (and later restored) as the descriptor itself.
    return owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)


class Tracer:
    """In-memory span recorder that patches and restores porofem names.

    Each span is [name, start, end, parent index or -1, attributes].
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def call(self, name: str, fn: Callable, *args, **kwargs):
        index = self.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self.spans[index][4] = {"raised": type(exc).__name__}
            raise
        finally:
            self.end(index)
        if name in _INSPECT:
            _INSPECT[name](self, index, result)
        return result

    # -- patching ----------------------------------------------------------

    def patch(self, targets: list[tuple[str, str, str]]) -> list[str]:
        """Wrap every target that exists; return the ones that do not.

        A refactored package may drop a name; its layer then reads zero and
        the missing name is reported instead of failing the whole run.
        """
        missing = []
        for owner_path, attr, name in targets:
            try:
                owner = _owner(owner_path)
                original = _bound(owner, attr)
            except (AttributeError, KeyError):
                missing.append(f"{owner_path}.{attr}")
                continue
            setattr(owner, attr, self._wrap(original, name))
            self._patches.append((owner, attr, original))
        return missing

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name: str):
        tracer = self
        if isinstance(original, classmethod):
            func = original.__func__

            @functools.wraps(func)
            def class_wrapper(cls, *args, **kwargs):
                return tracer.call(name, func, cls, *args, **kwargs)

            return classmethod(class_wrapper)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.call(name, original, *args, **kwargs)

        return wrapper

    # -- analysis ----------------------------------------------------------

    def durations(self) -> list[float]:
        return [span[2] - span[1] for span in self.spans]

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        durations = self.durations()
        own = list(durations)
        for span, duration in zip(self.spans, durations):
            if span[3] >= 0:
                own[span[3]] -= duration
        return own

    def outermost(self, name: str) -> list[int]:
        """Indices of spans called `name` with no ancestor of the same name."""
        found = []
        for index, span in enumerate(self.spans):
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                found.append(index)
        return found

    def total(self, name: str) -> float:
        durations = self.durations()
        return sum(durations[i] for i in self.outermost(name))

    def self_total(self, name: str) -> float:
        own = self.self_times()
        return sum(own[i] for i, span in enumerate(self.spans) if span[0] == name)

    def count(self, name: str) -> int:
        return len(self.outermost(name))

    def as_records(self) -> list[dict]:
        return [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], **({"attrs": s[4]} if s[4] else {})}
            for s in self.spans
        ]


def _inspect_factorization(tracer: Tracer, index: int, fact) -> None:
    """Size and fill of a returned Factorization, read without refactorizing.

    Reading L and U makes SciPy build them once; that time is recorded as a
    child span so it counts as tracing overhead, not as the caller's work.
    """
    probe = tracer.begin("trace.fill_probe")
    try:
        lu = fact._lu
        attrs = {
            "n": int(fact.shape[0]),
            "matrix_nnz": int(fact.matrix.nnz),
            "lu_nnz": int(lu.L.nnz + lu.U.nnz),
        }
    finally:
        tracer.end(probe)
    tracer.spans[index][4] = attrs


def _inspect_solve(tracer: Tracer, index: int, result) -> None:
    _, report = result
    tracer.spans[index][4] = {"residual": float(report.relative_residual)}


_INSPECT: dict[str, Callable[[Tracer, int, object], None]] = {
    "solver.factorize": _inspect_factorization,
    "solver.solve": _inspect_solve,
}


def snapshot(targets: list[tuple[str, str, str]]) -> dict:
    """The objects currently bound at each target name."""
    out = {}
    for owner_path, attr, _ in targets:
        out[(owner_path, attr)] = _bound(_owner(owner_path), attr)
    return out
