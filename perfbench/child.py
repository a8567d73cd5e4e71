"""One porofem CLI invocation, measured inside a fresh process.

    python3 perfbench/child.py RECORD.json TRACE -- <porofem CLI arguments>

Imports `porofem` from the `src/` directory next to `perfbench/`, calls
`porofem.cli.main` in-process and writes a JSON record to RECORD.json:
exit code, wall time of the `main` call, peak resident memory, and for each
`run()` call its set-up time and step intervals.  With TRACE = 1 every layer
is traced (see `spans.py`) and the record also holds the spans and the
per-layer figures derived from them.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path

from spans import LAYER_TARGETS, STEP_TARGETS, Tracer

SRC = Path(__file__).resolve().parent.parent / "src"


def import_cli():
    """porofem.cli from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import porofem.cli

    if not Path(porofem.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"porofem was imported from {porofem.cli.__file__}, not {SRC}")
    return porofem.cli


def stepping(tracer: Tracer) -> list[dict]:
    """Set-up time and step intervals of every run() call.

    A step's interval runs from its start to the next step's start, so it
    includes that step's diagnostics; the last one ends when run() returns.
    """
    runs = []
    for index in tracer.outermost("stepper.run"):
        _, start, end, _, _ = tracer.spans[index]
        starts = [s[1] for s in tracer.spans if s[0] == "stepper.step" and s[3] == index]
        marks = starts + [end]
        runs.append(
            {
                "setup_s": marks[0] - start,
                "step_ms": [1e3 * (b - a) for a, b in zip(marks, marks[1:])],
            }
        )
    return runs


def layer_figures(tracer: Tracer) -> dict[str, float]:
    """Per-layer times (s), call counts and sizes from one traced invocation.

    Times are inclusive of nested layers unless named as self time.
    """
    # A factorization that raised carries no size attributes.
    facts = [a for a in (tracer.spans[i][4] for i in tracer.outermost("solver.factorize")) if a and "n" in a]
    solves = [tracer.spans[i][4] or {} for i in tracer.outermost("solver.solve")]
    matrix_nnz = sum(f["matrix_nnz"] for f in facts)
    lu_nnz = sum(f["lu_nnz"] for f in facts)
    t, n = tracer.total, tracer.count
    return {
        "solver.factorize_s": t("solver.factorize"),
        "solver.factorize_calls": n("solver.factorize"),
        "solver.factor_unknowns": sum(f["n"] for f in facts),
        "solver.matrix_nnz": matrix_nnz,
        "solver.lu_nnz": lu_nnz,
        "solver.fill_ratio": lu_nnz / matrix_nnz if matrix_nnz else 0.0,
        "solver.solve_s": t("solver.solve"),
        "solver.solve_calls": n("solver.solve"),
        "solver.residual_max": max((s["residual"] for s in solves if "residual" in s), default=0.0),
        "solver.gate_failures": sum(s.get("raised") == "SolverFailureError" for s in solves),
        "assembly.load_s": t("assembly.load"),
        "assembly.load_calls": n("assembly.load"),
        "elements.points_s": t("elements.points"),
        "elements.points_calls": n("elements.points"),
        "assembly.constraints_s": t("assembly.constraints"),
        "assembly.constraints_calls": n("assembly.constraints"),
        "stepper.boundary_values_s": t("stepper.boundary_values"),
        "assembly.rhs_map_s": t("assembly.rhs_map"),
        "mesh.build_s": t("mesh.build"),
        "assembly.dofmap_s": t("assembly.dofmap"),
        "assembly.operators_s": t("assembly.operators"),
        "assembly.operators_calls": n("assembly.operators"),
        "assembly.reduce_s": t("assembly.reduce"),
        "stepper.systems_s": tracer.self_total("stepper.systems"),
        "stepper.init_state_s": t("stepper.init_state"),
        "stepper.amplification_s": t("stepper.amplification"),
        "stepper.amplification_calls": n("stepper.amplification"),
        "stepper.step_s": t("stepper.step"),
        "stepper.step_calls": n("stepper.step"),
        "diagnostics.errors_s": t("diagnostics.errors"),
        "diagnostics.errors_calls": n("diagnostics.errors"),
        "diagnostics.energy_s": t("diagnostics.energy"),
        "diagnostics.conservation_s": t("diagnostics.conservation"),
        "diagnostics.consistency_s": t("diagnostics.consistency"),
        "diagnostics.sweep_s": tracer.self_total("diagnostics.sweep"),
        "cli.vtk_s": t("cli.vtk"),
        "cli.output_s": tracer.self_total("cli.main") + t("cli.vtk"),
        "trace.probe_s": t("trace.fill_probe"),
    }


def invoke(argv: list[str], trace: bool) -> dict:
    """Call porofem.cli.main(argv) once under the stepping or layer wrappers."""
    cli = import_cli()
    tracer = Tracer()
    missing = tracer.patch(LAYER_TARGETS if trace else STEP_TARGETS)
    error = None
    root = tracer.begin("cli.main")
    try:
        code = cli.main(argv)
    except Exception:  # an escaped exception is a failed run, reported with its traceback
        code, error = 1, traceback.format_exc()
    finally:
        tracer.end(root)
        tracer.restore()
    record = {
        "exit_code": code,
        "error": error,
        "wall_s": tracer.spans[root][2] - tracer.spans[root][1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "runs": stepping(tracer),
        "unwrapped": missing,
    }
    if trace:
        record["layers"] = layer_figures(tracer)
        record["spans"] = tracer.as_records()
    return record


def main() -> int:
    record_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1"):
        print(__doc__, file=sys.stderr)
        return 2
    record = invoke(argv, trace == "1")
    Path(record_path).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
