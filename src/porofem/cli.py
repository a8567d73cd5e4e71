"""Command-line drivers and file serialization.

Subcommands:
    run          integrate one benchmark; writes diagnostics.csv, run.log,
                 and legacy-VTK field snapshots.
    convergence  mesh-refinement study against exact fields; writes
                 rates.csv and run.log.
    sweep        vanishing-storage (c0) sweep; writes sweep.csv and run.log.

Configuration is plain ``key = value`` text ('#' starts a comment); every
value can also be supplied as ``--set key=value``.  Each command reads its
own keys (``_COMMANDS``) and refuses the others.  All numeric output is
serialized with 17 significant digits and LF line endings, so identical
configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .diagnostics import DiagnosticsRecord, extract_rates
from .mesh import Mesh, build_rect_mesh
from .model import BENCHMARK_NAMES, Benchmark, MaterialParams, get_benchmark
from .solver import SingularMatrixError, SolverFailureError
from .stepper import (
    Discretization, FieldState, RunResult, SweepRow, TimeScheme,
    biot_limit_sweep, check_scheme, run, sweep_members,
)

__all__ = [
    "ConfigError",
    "RunConfig",
    "cmd_run",
    "cmd_convergence",
    "cmd_sweep",
    "vtk_grid",
    "write_vtk",
    "main",
]

# Errors at or below this size are considered pinned at solver tolerance;
# convergence rates computed from them are meaningless and get flagged.
_RATE_FLOOR = 1e-9


class ConfigError(ValueError):
    """A configuration line or override that cannot be applied."""


def _number(kind: type, low: int, strict: bool = False) -> Callable[[str], object]:
    """Parser of kind(text) in [low, inf), or in (low, inf) when strict."""

    def parse(text: str):
        value = kind(text)
        if not low <= value < math.inf or (strict and value == low):
            raise ValueError(f"must be in {'(' if strict else '['}{low}, inf)")
        return value

    return parse


def _list_of(parse: Callable[[str], object], least: int = 1) -> Callable[[str], tuple]:
    """Parser of a comma-separated list of at least `least` entries, each
    entry by parse."""

    def parse_list(text: str) -> tuple:
        values = tuple(parse(s.strip()) for s in text.split(",") if s.strip())
        if len(values) < least:
            raise ValueError(f"expected at least {least} values" if values else "empty list")
        return values

    return parse_list


def _choice(*options: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"expected one of {', '.join(options)}")
        return text

    return parse


def _parse_theta(text: str) -> int:
    value = int(text)
    if value not in (0, 1):
        raise ValueError("must be 0 or 1")
    return value


def _parse_path(text: str) -> str:
    # An empty path would put the outputs in the working directory.
    if not text:
        raise ValueError("must not be empty")
    return text


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("on", "true", "1", "yes"):
        return True
    if lowered in ("off", "false", "0", "no"):
        return False
    raise ValueError("must be on/off")


_COUNT = _number(int, 1)
_POSITIVE = _number(float, 0, strict=True)
_NONNEGATIVE = _number(float, 0)


def _key(default, parse: Callable[[str], object]):
    """A RunConfig field settable as a config key, read by parse."""
    return field(default=default, metadata={"parse": parse})


@dataclass(frozen=True)
class RunConfig:
    """Typed run configuration; None means 'use the benchmark's default'.

    Each field is a config key and carries the parser of its text.
    """

    benchmark: str = _key("test1", _choice(*BENCHMARK_NAMES))
    nx: int = _key(8, _COUNT)
    dt: Optional[float] = _key(None, _POSITIVE)
    T: Optional[float] = _key(None, _NONNEGATIVE)
    theta: Optional[int] = _key(None, _parse_theta)
    lam: Optional[float] = _key(None, _NONNEGATIVE)
    mu: Optional[float] = _key(None, _POSITIVE)
    alpha: Optional[float] = _key(None, _POSITIVE)
    c0: Optional[float] = _key(None, _NONNEGATIVE)
    K: Optional[float] = _key(None, _POSITIVE)
    out: str = _key("out", _parse_path)
    vtk: bool = _key(True, _parse_bool)
    nx_list: tuple[int, ...] = _key((8, 16, 32, 64), _list_of(_COUNT))
    # A sweep compares consecutive c0 values; one value compares nothing.
    c0_list: tuple[float, ...] = _key((1e-2, 1e-4, 1e-6), _list_of(_NONNEGATIVE, least=2))


_PARSERS: dict[str, Callable[[str], object]] = {
    f.name: f.metadata["parse"] for f in fields(RunConfig)
}


def _apply_setting(values: dict, key: str, text: str, where: str) -> None:
    if key not in _PARSERS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    try:
        values[key] = _PARSERS[key](text)
    except ValueError as exc:
        raise ConfigError(f"{where}: invalid value for {key}: {text!r} ({exc})") from exc


@dataclass(frozen=True)
class ResolvedRun:
    """A RunConfig with benchmark defaults filled in; no mesh for a command
    that does not read nx (a convergence study builds its nx_list squares)."""

    config: RunConfig
    benchmark: Benchmark
    mesh: Optional[Mesh]
    scheme: TimeScheme


def _resolve(config: RunConfig, command: str = "run") -> ResolvedRun:
    base = get_benchmark(config.benchmark)
    overrides = {
        f.name: getattr(config, f.name)
        for f in fields(MaterialParams)
        if getattr(config, f.name) is not None
    }
    params = replace(base.params, **overrides) if overrides else base.params
    try:
        benchmark = get_benchmark(config.benchmark, params)
        mesh = build_rect_mesh(config.nx, config.nx) if "nx" in _COMMANDS[command].keys else None
        scheme = TimeScheme.from_final_time(
            T=config.T if config.T is not None else benchmark.T,
            dt=config.dt if config.dt is not None else benchmark.default_dt,
            theta=config.theta if config.theta is not None else 1,
        )
        # Each benchmark the command steps (a sweep's members, not its base)
        # is checked here, before any output: material bounds and scheme.
        sweep = "c0_list" in _COMMANDS[command].keys
        for member in sweep_members(benchmark, config.c0_list) if sweep else [benchmark]:
            check_scheme(member, scheme.theta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if command == "convergence" and not benchmark.has_exact_solution:
        raise ConfigError(
            f"benchmark {config.benchmark!r} has no exact solution; "
            "a convergence study needs one"
        )
    if command == "convergence" and scheme.n_steps == 0:
        raise ConfigError(
            f"T = {_fmt(scheme.T)} gives no time step; a convergence study needs "
            "at least one for its L2-in-time H1 errors"
        )
    return ResolvedRun(config, benchmark, mesh, scheme)


# --------------------------------------------------------------------------
# serialization helpers
# --------------------------------------------------------------------------


def _fmt(value) -> str:
    """A CSV cell or run.log value: empty for None, on/off for a bool, the
    entries of a tuple joined by commas, 17 significant digits for a float."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, tuple):
        return ",".join(map(_fmt, value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def vtk_grid(mesh: Mesh) -> str:
    """The header and mesh block (POINTS, CELLS, CELL_TYPES) that every
    snapshot of one mesh begins with; cell type 5 is the linear triangle."""
    n_v = mesh.n_vertices
    n_f = mesh.n_triangles
    lines = [
        "# vtk DataFile Version 2.0",
        "poroelastic fields",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {n_v} double",
        *map("{:.17g} {:.17g} 0".format, *mesh.vertices.T.tolist()),
        f"CELLS {n_f} {4 * n_f}",
        *map("3 {} {} {}".format, *mesh.triangles.T.tolist()),
        f"CELL_TYPES {n_f}",
        *["5"] * n_f,
    ]
    return "\n".join(lines) + "\n"


def write_vtk(path: Path, grid: str, state: FieldState) -> None:
    """Write one snapshot as legacy ASCII VTK 2.0 unstructured grid: the
    mesh's vtk_grid, formatted once for all its snapshots, then the fields.

    Quadratic displacements are downsampled to vertex values; all point
    data lives on the vertices, one per pressure value.
    """
    n_v = state.xi.size
    u = state.u[: 2 * n_v]
    lines = [
        f"POINT_DATA {n_v}",
        "VECTORS displacement double",
        *map("{:.17g} {:.17g} 0".format, u[0::2].tolist(), u[1::2].tolist()),
    ]
    for name, vec in zip(("pressure", "xi", "eta", "q"), (state.p, state.xi, state.eta, state.q)):
        lines += [f"SCALARS {name} double", "LOOKUP_TABLE default"]
        lines += map("{:.17g}".format, vec[:n_v].tolist())
    _write_text(path, grid + "\n".join(lines) + "\n")


def _snapshot_steps(n_steps: int) -> list[int]:
    """Steps 0 and n_steps, and every ceil(n_steps/10)-th step between them."""
    every = max(1, math.ceil(n_steps / 10))
    steps = {0, n_steps}
    steps.update(range(every, n_steps, every))
    return sorted(steps)


def _echo_config(resolved: ResolvedRun, command: str) -> list[str]:
    """The run.log lines of the command's keys and what they resolved to."""
    cfg = resolved.config
    bench = resolved.benchmark
    prm = bench.params
    coeffs = bench.coeffs
    keys = _COMMANDS[command].keys
    lines = [f"command = {command}"]
    for f in fields(cfg):
        if f.name not in keys:
            continue
        value = getattr(cfg, f.name)
        lines.append(f"{f.name} = {_fmt(value) if value is not None else '(default)'}")
    mesh = resolved.mesh
    lines.append(f"resolved benchmark = {bench.name}")
    lines.append(f"resolved dt = {_fmt(resolved.scheme.dt)}")
    lines.append(f"resolved T = {_fmt(resolved.scheme.T)}")
    lines.append(f"resolved theta = {resolved.scheme.theta}")
    lines.append(f"resolved n_steps = {resolved.scheme.n_steps}")
    # A command that does not read c0 (the sweep sets it per member) runs
    # with neither the base benchmark's c0 nor the kappas that follow from it.
    material = [f.name for f in fields(MaterialParams) if f.name in keys]
    lines.append(
        f"material {'/'.join(material)} = "
        + "/".join(_fmt(getattr(prm, n)) for n in material)
    )
    if "c0" in keys:
        lines.append(
            "kappa1/kappa2/kappa3 = "
            + "/".join(map(_fmt, (coeffs.kappa1, coeffs.kappa2, coeffs.kappa3)))
        )
    if mesh is not None:
        lines.append(f"mesh h = {_fmt(mesh.h)}")
        lines.append(
            f"mesh sizes = {mesh.n_vertices} vertices, "
            f"{mesh.n_triangles} triangles, {mesh.n_edges} edges"
        )
    return lines


def _solver_log(result: RunResult) -> list[str]:
    """The run.log lines of a run's factorizations and of all its solves."""
    return [
        f"factorization = {fact.label}: {fact.unknowns} unknowns, {fact.lu_nnz} L+U nonzeros"
        for fact in result.factorizations
    ] + [
        f"solves = {result.solve_count}",
        f"max solver residual = {_fmt(result.max_solver_residual)}",
    ]


def cmd_run(resolved: ResolvedRun, out_dir: Path) -> list[str]:
    """Integrate one benchmark; write its diagnostics and field snapshots."""
    snapshots = _snapshot_steps(resolved.scheme.n_steps) if resolved.config.vtk else []
    result = run(
        resolved.benchmark,
        Discretization.build(resolved.mesh, resolved.benchmark.params),
        resolved.scheme,
        keep_steps=snapshots,
    )

    _write_csv(
        out_dir / "diagnostics.csv",
        [f.name for f in fields(DiagnosticsRecord)],
        [astuple(rec) for rec in result.records],
    )

    snapshot_files = []
    grid = vtk_grid(resolved.mesh) if snapshots else ""
    for step, state in zip(snapshots, result.states):
        name = f"fields_{step}.vtk"
        write_vtk(out_dir / name, grid, state)
        snapshot_files.append(name)

    log = []
    if result.gate is not None:
        log.append(f"gate = {result.gate.describe()}")
    else:
        log.append("gate = not applicable (theta = 1)")
    if result.amplification is not None:
        est = result.amplification
        log.append(
            f"decoupled boundary-elimination amplification = {est.rho:.6g} -> {est.verdict}"
        )
        log.append(
            f"decoupled amplification residual = {est.residual:.1e} "
            f"after {est.applications} applications"
        )
    log.append(f"time-independent loads = {'yes' if result.time_independent_loads else 'no'}")
    if not result.time_independent_loads:
        log.append("note: energy identity columns are informational "
                   "(loads or boundary data vary in time)")
    log += _solver_log(result)
    if result.records:
        # np.max, unlike max, keeps a NaN residual from any step.
        worst = np.max(np.abs([r.energy_residual for r in result.records]))
        log.append(f"max |energy residual| = {_fmt(worst)}")
    if result.max_hat_slack is not None:
        log.append(f"max hat slack = {_fmt(result.max_hat_slack)}")
    if snapshot_files:
        log.append("snapshots = " + ", ".join(snapshot_files))
    return log


# rates.csv columns after h: (column, variable, norm of VariableNorms).
_RATE_COLUMNS = (
    ("err_p_LinfL2", "p", "linf_l2"),
    ("err_p_L2H1", "p", "l2_h1"),
    ("err_u_LinfL2", "u", "linf_l2"),
    ("err_u_L2H1", "u", "l2_h1"),
)


def cmd_convergence(resolved: ResolvedRun, out_dir: Path) -> list[str]:
    """Refinement study writing per-mesh errors and log2 rates; run.log
    lists each mesh's factorizations and solves."""
    config = resolved.config
    hs: list[float] = []
    reports = []
    solver_lines = []
    for nx in config.nx_list:
        mesh = build_rect_mesh(nx, nx)
        result = run(
            resolved.benchmark,
            Discretization.build(mesh, resolved.benchmark.params),
            resolved.scheme,
            keep_steps=(),
        )
        hs.append(mesh.h)
        reports.append(result.errors)
        solver_lines += [f"mesh nx = {nx}", *_solver_log(result)]

    header, columns = ["h"], [hs]
    at_tolerance = False
    for column, variable, norm in _RATE_COLUMNS:
        errs = [getattr(report[variable], norm) for report in reports]
        rates = extract_rates(hs, errs)
        for i in range(1, len(errs)):
            if errs[i] <= _RATE_FLOOR or errs[i - 1] <= _RATE_FLOOR:
                rates[i] = None
                at_tolerance = True
        header += [column, "rate"]
        columns += [errs, rates]
    _write_csv(out_dir / "rates.csv", header, list(zip(*columns)))

    log = ["meshes = " + ",".join(str(nx) for nx in config.nx_list), *solver_lines]
    if at_tolerance:
        log.append(
            "note: errors at solver tolerance; affected rates are meaningless "
            "and left blank"
        )
    return log


def cmd_sweep(resolved: ResolvedRun, out_dir: Path) -> list[str]:
    """Vanishing-storage sweep writing pairwise trajectory distances."""
    c0_list = resolved.config.c0_list
    rows = biot_limit_sweep(resolved.benchmark, list(c0_list), resolved.mesh, resolved.scheme)
    _write_csv(
        out_dir / "sweep.csv",
        [f.name for f in fields(SweepRow)],
        [astuple(row) for row in rows],
    )
    log = ["c0 values = " + _fmt(c0_list)]
    for c0, result in rows.members:
        log.append(f"member c0 = {_fmt(c0)}")
        log += _solver_log(result)
    return log


@dataclass(frozen=True)
class _Command:
    """A subcommand: what it does, its help text and the keys it reads."""

    function: Callable[[ResolvedRun, Path], list[str]]
    help: str
    keys: frozenset[str]


_KEYS = frozenset(_PARSERS)

# Every key a command is given is one it reads; _load_config refuses the
# rest, and _echo_config echoes only these.
_COMMANDS = {
    "run": _Command(
        cmd_run,
        "integrate one benchmark and write fields + diagnostics",
        _KEYS - {"nx_list", "c0_list"},
    ),
    "convergence": _Command(
        cmd_convergence,
        "mesh-refinement error study on the nx_list squares",
        _KEYS - {"nx", "c0_list", "vtk"},
    ),
    "sweep": _Command(
        cmd_sweep,
        "storage-coefficient limit sweep over c0_list",
        _KEYS - {"c0", "nx_list", "vtk"},
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="porofem",
        description="Finite-element solver for linear poroelasticity "
        "(displacement/pseudo-pressure reformulation).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", type=str, default=None, help="path to key=value config file")
        p.add_argument("--out", type=str, default=None, help="output directory (overrides config)")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config value (applied after the file)",
        )
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    """The file's lines, then each --set, then --out, refusing any key the
    command does not read."""
    command = _COMMANDS[args.command]
    values: dict = {}

    def apply(key: str, text: str, where: str) -> None:
        _apply_setting(values, key, text, where)
        if key not in command.keys:
            raise ConfigError(
                f"{where}: {args.command} ({command.help}) does not read {key!r}"
            )

    if args.config is not None:
        lines = Path(args.config).read_text(encoding="utf-8").splitlines()
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key = value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            apply(key.strip(), value.strip(), f"line {lineno}")
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected KEY=VALUE")
        key, _, value = item.partition("=")
        apply(key.strip(), value.strip(), f"--set {item}")
    if args.out is not None:
        apply("out", args.out, "--out")
    return RunConfig(**values)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit status.

    Every command resolves its configuration, creates the output directory,
    writes its own files and returns its log lines; run.log is the echoed
    configuration, those lines and a ``warning = <message>`` line for each
    warning, which prints as ``warning: <message>`` when raised.  Each call
    has warning filters of its own, so it prints every advisory its runs
    raise, and each numpy floating-point warning (RuntimeWarning) once.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    shown: list[str] = []

    def show(message, category, *_) -> None:
        if not (issubclass(category, RuntimeWarning) and str(message) in shown):
            shown.append(str(message))
            print(f"warning: {message}", file=sys.stderr)

    with warnings.catch_warnings():
        warnings.simplefilter("always", UserWarning)
        warnings.simplefilter("always", RuntimeWarning)
        warnings.showwarning = show
        try:
            resolved = _resolve(_load_config(args), args.command)
            out_dir = Path(resolved.config.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            log = _echo_config(resolved, args.command)
            log += _COMMANDS[args.command].function(resolved, out_dir)
            log += [f"warning = {text}" for text in shown]
            _write_text(out_dir / "run.log", "\n".join(log) + "\n")
            return 0
        except ValueError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return 2
        except (SolverFailureError, SingularMatrixError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return 1
