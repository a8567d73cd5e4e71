"""The benchmark tracer's targets (perfbench/spans.py) against the package.

The tracer wraps porofem names from outside; a name the package no longer
has is skipped and listed as unwrapped, so its layer silently reads zero.
These tests load spans.py by path, unchanged, and pin which names resolve.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# Layer targets whose names the package no longer defines, each with the
# change that removed it.  The next change to the benchmark drops them.
STALE_LAYER_TARGETS = [
    # Retired when the boundary constraints became one frozen BoundaryData
    # built once per run, which removed the per-step apply_constraints.
    "porofem.stepper.apply_constraints",
    # Retired when energy_audit, the only user of this import, was removed.
    "porofem.diagnostics.assemble_load",
    # Retired when the conservation residuals became ConservedQuantities
    # properties, which removed check_conservation.
    "porofem.stepper.check_conservation",
    # Retired when ConservationTracker began taking the initial state in its
    # constructor, which removed start().
    "porofem.diagnostics:ConservationTracker.start",
    # Retired when diagnostics dropped this import, which it kept unused for
    # the tracer alone; elements.points is still recorded through
    # porofem.assembly.physical_points.
    "porofem.diagnostics.physical_points",
]


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


def _unwrapped(targets) -> list[str]:
    """The names a traced run reports as unwrapped for these targets."""
    tracer = spans.Tracer()
    try:
        return tracer.patch(targets)
    finally:
        tracer.restore()


def test_step_targets_resolve():
    # These define setup_s and the step intervals of every benchmark run.
    assert _unwrapped(spans.STEP_TARGETS) == []


def test_unresolved_layer_targets_are_the_stated_stale_ones():
    assert sorted(_unwrapped(spans.LAYER_TARGETS)) == sorted(STALE_LAYER_TARGETS)
