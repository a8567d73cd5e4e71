"""porofem benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a porofem checkout and uses the package in its
`src/`.  Each repetition calls the CLI entry point `porofem.cli.main`
in-process, in a fresh child process with BLAS and OpenMP pinned to one
thread, then checks the outputs the command wrote.  Repetitions continue
until S seconds have passed.

With --trace 0 the result holds the end-to-end metrics (medians over the
repetitions); with --trace 1 it alternates untraced and traced repetitions
and reports the per-layer metrics of the traced ones.  Human-readable lines
come first; the last line of standard output is the JSON result.  Work
files go to `.perfbench_work/` in the checkout.  See README.md here for the
metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
THREAD_VARS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
# Every child is killed by this many seconds after the run started, so a
# run always ends within the 180 s a benchmark run is allowed.
DEADLINE_S = 165.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
# Per-layer metrics reported in the JSON result; every one is measured on
# every workload.  Layer times that are zero by construction on some
# workloads (amplification, error evaluation, sweep, VTK) are printed in
# the table and kept in the spans file, with their call counts in the JSON.
PER_LAYER = {
    "solver.factorize_s": "s",
    "solver.factorize_calls": "count",
    "solver.factor_unknowns": "count",
    "solver.matrix_nnz": "count",
    "solver.lu_nnz": "count",
    "solver.fill_ratio": "ratio",
    "solver.solve_s": "s",
    "solver.solve_calls": "count",
    "solver.residual_max": "1",
    "solver.gate_failures": "count",
    "assembly.load_s": "s",
    "assembly.load_calls": "count",
    "elements.points_s": "s",
    "elements.points_calls": "count",
    "assembly.constraints_s": "s",
    "assembly.constraints_calls": "count",
    "stepper.boundary_values_s": "s",
    "assembly.rhs_map_s": "s",
    "mesh.build_s": "s",
    "assembly.dofmap_s": "s",
    "assembly.operators_s": "s",
    "assembly.operators_calls": "count",
    "assembly.reduce_s": "s",
    "stepper.systems_s": "s",
    "stepper.init_state_s": "s",
    "stepper.amplification_calls": "count",
    "stepper.step_s": "s",
    "stepper.step_calls": "count",
    "diagnostics.errors_calls": "count",
    "diagnostics.energy_s": "s",
    "diagnostics.conservation_s": "s",
    "diagnostics.consistency_s": "s",
    "cli.output_s": "s",
    "cli.vtk_files": "count",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}
TABLE_ONLY = {
    "stepper.amplification_s": "s",
    "diagnostics.errors_s": "s",
    "diagnostics.sweep_s": "s",
    "cli.vtk_s": "s",
    "trace.probe_s": "s",
}
# Counts that must repeat exactly for a given seed.
EXACT = (
    "solver.factorize_calls",
    "solver.factor_unknowns",
    "solver.matrix_nnz",
    "solver.lu_nnz",
    "solver.solve_calls",
    "assembly.load_calls",
    "elements.points_calls",
    "assembly.constraints_calls",
    "assembly.operators_calls",
    "stepper.step_calls",
    "cli.vtk_files",
    "cli.output_bytes",
)


def environment(seed: int, workload: str, argv: list[str]) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "argv": argv,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": THREAD_VARS,
    }


def repetition(workload, argv: list[str], tag: str, trace: bool, timeout: float) -> dict:
    """Run the CLI once in a child process and check what it wrote."""
    out = WORK / tag
    record_path = WORK / f"{tag}.json"
    shutil.rmtree(out, ignore_errors=True)
    record_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(record_path), "1" if trace else "0", "--"]
    cmd += argv + ["--out", str(out)]
    env = {**os.environ, **THREAD_VARS, "PYTHONWARNINGS": "ignore"}
    proc = None
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
        record = json.loads(record_path.read_text(encoding="utf-8"))
        if proc.returncode != 0 or record["exit_code"] != 0:
            raise CheckFailed(
                f"exit code {record['exit_code']}: {record['error'] or proc.stderr.strip()[-2000:]}"
            )
        if len(record["runs"]) != workload.n_runs:
            raise CheckFailed(f"{len(record['runs'])} run() calls, expected {workload.n_runs}")
        if any(len(r["step_ms"]) != workload.n_steps for r in record["runs"]):
            raise CheckFailed(f"step count differs from {workload.n_steps}")
        record["output"] = workload.check(out)
        if trace:
            record["layers"]["cli.vtk_files"] = record["output"]["vtk_files"]
            record["layers"]["cli.output_bytes"] = record["output"]["output_bytes"]
        record["ok"] = True
    except subprocess.TimeoutExpired:
        record = {"ok": False, "problem": f"killed after {timeout:.0f} s"}
    except (OSError, ValueError, KeyError) as exc:
        stderr = proc.stderr.strip()[-2000:] if proc else ""
        record = {"ok": False, "problem": f"no usable record: {exc!r}; stderr: {stderr}"}
    except CheckFailed as exc:
        record["ok"], record["problem"] = False, str(exc)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        record_path.unlink(missing_ok=True)
    record["traced"] = trace
    return record


def end_to_end(reps: list[dict]) -> dict[str, float]:
    steps = [ms for rep in reps for run in rep["runs"] for ms in run["step_ms"]]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(sum(run["setup_s"] for run in r["runs"]) for r in reps),
        "step_ms_p50": statistics.median(steps),
        "step_ms_p90": statistics.quantiles(steps, n=10)[8],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    figures = {}
    for key in list(PER_LAYER) + list(TABLE_ONLY):
        if key == "trace.overhead_s":
            figures[key] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
                r["wall_s"] for r in untraced
            )
        elif (PER_LAYER.get(key) or TABLE_ONLY[key]) in ("count", "bytes"):
            figures[key] = traced[0]["layers"][key]
        else:
            figures[key] = statistics.median(r["layers"][key] for r in traced)
    return figures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "porofem" / "cli.py").is_file():
        print(f"perfbench: no porofem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    cli_argv = workload.argv(args.seed)
    WORK.mkdir(exist_ok=True)

    reps: list[dict] = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < args.seconds:
        pair = (False, True) if args.trace else (False,)
        for traced in pair:
            # One output path for every repetition: run.log echoes it, and
            # the logs of one seed must match byte for byte.
            timeout = max(1.0, DEADLINE_S - (time.perf_counter() - start))
            reps.append(repetition(workload, cli_argv, f"{workload.name}-seed{args.seed}", traced, timeout))
    elapsed = time.perf_counter() - start

    good = [r for r in reps if r["ok"]]
    problems = [r["problem"] for r in reps if not r["ok"]]
    digests = {r["output"]["digest"] for r in good}
    if len(digests) > 1:
        problems.append("repetitions of one seed wrote different diagnostics or logs")
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    env = environment(args.seed, workload.name, cli_argv)
    env["repetitions"] = len(reps)
    env["elapsed_s"] = elapsed
    env["rep_wall_s"] = [[r.get("wall_s"), r["traced"]] for r in reps]
    env["unwrapped"] = sorted({name for r in good for name in r["unwrapped"]})

    metrics: dict[str, float] = {}
    units = PER_LAYER if args.trace else END_TO_END
    if untraced and (traced or not args.trace):
        if args.trace:
            figures = per_layer(traced, untraced)
            exact = [{k: r["layers"][k] for k in EXACT} for r in traced]
            if any(e != exact[0] for e in exact):
                problems.append("exact per-layer counts differ between repetitions of one seed")
            env["exact_counts"] = exact[0]
            env["factorizations"] = [s["attrs"] for s in traced[0]["spans"] if s["name"] == "solver.factorize"]
            (WORK / f"spans-{workload.name}-seed{args.seed}.json").write_text(
                json.dumps(traced[0]["spans"]), encoding="utf-8"
            )
        else:
            figures = end_to_end(untraced)
            env["steps_per_run"] = workload.n_steps
            env["step_samples"] = sum(len(run["step_ms"]) for r in untraced for run in r["runs"])
        metrics = {k: figures[k] for k in units}
        print(f"{workload.name} seed {args.seed}: {len(reps)} repetitions in {elapsed:.1f} s")
        for key, value in figures.items():
            unit = units.get(key) or TABLE_ONLY.get(key, "")
            print(f"  {key:30s} {value:>16.6g} {unit}")
    failed = len(reps) - len(good)
    print(f"  {'runs_failed':30s} {failed / len(reps):>16.6g} share ({failed} of {len(reps)})")
    for problem in problems:
        print(f"  problem: {problem}")
    print("environment: " + json.dumps(env))
    correct = not problems and len(metrics) == len(units)
    result = {
        "correct": correct,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
