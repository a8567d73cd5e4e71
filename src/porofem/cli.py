"""Command-line drivers and file serialization.

Subcommands:
    run          integrate one benchmark; writes diagnostics.csv, run.log,
                 and legacy-VTK field snapshots.
    convergence  mesh-refinement study against exact closures; writes
                 rates.csv and run.log.
    sweep        vanishing-storage (c0) sweep; writes sweep.csv and run.log.

Configuration is plain ``key = value`` text ('#' starts a comment); every
value can also be supplied as ``--set key=value``.  All numeric output is
serialized with 17 significant digits and LF line endings, so identical
configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .assembly import SingularConstraintsError
from .diagnostics import DiagnosticsRecord, biot_limit_sweep, extract_rates
from .mesh import Mesh, MeshError, build_rect_mesh
from .model import BENCHMARK_NAMES, Benchmark, get_benchmark
from .solver import SingularMatrixError, SolverFailureError
from .stepper import Discretization, FieldState, TimeScheme, run

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config",
    "config_text",
    "cmd_run",
    "cmd_convergence",
    "cmd_sweep",
    "write_vtk",
    "main",
]

# Errors at or below this size are considered pinned at solver tolerance;
# convergence rates computed from them are meaningless and get flagged.
_RATE_FLOOR = 1e-9


class ConfigError(ValueError):
    """A configuration line or override that cannot be applied."""


@dataclass(frozen=True)
class RunConfig:
    """Typed run configuration; None means 'use the benchmark's default'."""

    benchmark: str = "test1"
    nx: int = 8
    ny: Optional[int] = None
    dt: Optional[float] = None
    T: Optional[float] = None
    theta: Optional[int] = None
    lam: Optional[float] = None
    mu: Optional[float] = None
    alpha: Optional[float] = None
    c0: Optional[float] = None
    K: Optional[float] = None
    mu_f: Optional[float] = None
    out: str = "out"
    snapshot_every: Optional[int] = None
    c_stab: Optional[float] = None
    tolerance: float = 1e-10
    errors: str = "auto"
    vtk: bool = True
    nx_list: tuple[int, ...] = (8, 16, 32, 64)
    c0_list: tuple[float, ...] = (1e-2, 1e-4, 1e-6)


def _parse_benchmark(text: str) -> str:
    if text not in BENCHMARK_NAMES:
        raise ValueError(f"expected one of {', '.join(BENCHMARK_NAMES)}")
    return text


def _parse_int(minimum: Optional[int] = None) -> Callable[[str], int]:
    def parse(text: str) -> int:
        value = int(text)
        if minimum is not None and value < minimum:
            raise ValueError(f"must be >= {minimum}")
        return value

    return parse


def _parse_float(positive: bool = False) -> Callable[[str], float]:
    def parse(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise ValueError("must be finite")
        if positive and value <= 0.0:
            raise ValueError("must be positive")
        return value

    return parse


def _parse_nonneg_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value) or value < 0.0:
        raise ValueError("must be finite and nonnegative")
    return value


def _parse_theta(text: str) -> int:
    value = int(text)
    if value not in (0, 1):
        raise ValueError("must be 0 or 1")
    return value


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("on", "true", "1", "yes"):
        return True
    if lowered in ("off", "false", "0", "no"):
        return False
    raise ValueError("must be on/off")


def _parse_errors_mode(text: str) -> str:
    if text not in ("auto", "on", "off"):
        raise ValueError("must be auto, on or off")
    return text


def _parse_int_list(text: str) -> tuple[int, ...]:
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise ValueError("empty list")
    values = tuple(int(s) for s in items)
    if any(v < 1 for v in values):
        raise ValueError("entries must be >= 1")
    return values


def _parse_float_list(text: str) -> tuple[float, ...]:
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise ValueError("empty list")
    values = tuple(float(s) for s in items)
    if any(not math.isfinite(v) or v < 0.0 for v in values):
        raise ValueError("entries must be finite and nonnegative")
    return values


_PARSERS: dict[str, Callable[[str], object]] = {
    "benchmark": _parse_benchmark,
    "nx": _parse_int(1),
    "ny": _parse_int(1),
    "dt": _parse_float(positive=True),
    "T": _parse_nonneg_float,
    "theta": _parse_theta,
    "lam": _parse_nonneg_float,
    "mu": _parse_float(positive=True),
    "alpha": _parse_float(positive=True),
    "c0": _parse_nonneg_float,
    "K": _parse_float(positive=True),
    "mu_f": _parse_float(positive=True),
    "out": str,
    "snapshot_every": _parse_int(1),
    "c_stab": _parse_float(positive=True),
    "tolerance": _parse_float(positive=True),
    "errors": _parse_errors_mode,
    "vtk": _parse_bool,
    "nx_list": _parse_int_list,
    "c0_list": _parse_float_list,
}


def _apply_setting(values: dict, key: str, text: str, where: str) -> None:
    if key not in _PARSERS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    try:
        values[key] = _PARSERS[key](text)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}: invalid value for {key}: {text!r} ({exc})") from exc


def parse_config(text: str) -> RunConfig:
    """Parse key=value configuration text into a RunConfig.

    Raises:
        ConfigError: naming the offending line for unknown keys, malformed
            lines, or out-of-domain values.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        _apply_setting(values, key.strip(), value.strip(), f"line {lineno}")
    return RunConfig(**values)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def config_text(config: RunConfig) -> str:
    """Canonical serialization; parse_config round-trips it losslessly."""
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        if value is None:
            continue
        lines.append(f"{f.name} = {_format_value(value)}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ResolvedRun:
    """A RunConfig with benchmark defaults filled in."""

    config: RunConfig
    benchmark: Benchmark
    mesh: Mesh
    scheme: TimeScheme
    snapshot_every: int
    compute_errors: object  # True / False / "auto"


def _resolve(config: RunConfig) -> ResolvedRun:
    base = get_benchmark(config.benchmark)
    overrides = {
        key: getattr(config, key)
        for key in ("lam", "mu", "alpha", "c0", "K", "mu_f")
        if getattr(config, key) is not None
    }
    params = replace(base.params, **overrides) if overrides else base.params
    try:
        benchmark = get_benchmark(config.benchmark, params)
        ny = config.ny if config.ny is not None else config.nx
        mesh = build_rect_mesh(config.nx, ny, benchmark.rect)
        scheme = TimeScheme.from_final_time(
            T=config.T if config.T is not None else benchmark.T,
            dt=config.dt if config.dt is not None else benchmark.default_dt,
            theta=config.theta if config.theta is not None else benchmark.default_theta,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if config.errors == "on" and (benchmark.exact_u is None or benchmark.exact_p is None):
        raise ConfigError(
            f"errors = on: benchmark {config.benchmark!r} has no exact solution "
            "to measure errors against"
        )
    snapshot = config.snapshot_every
    if snapshot is None:
        snapshot = max(1, math.ceil(scheme.n_steps / 10))
    modes = {"auto": "auto", "on": True, "off": False}
    return ResolvedRun(
        config=config,
        benchmark=benchmark,
        mesh=mesh,
        scheme=scheme,
        snapshot_every=snapshot,
        compute_errors=modes[config.errors],
    )


# --------------------------------------------------------------------------
# serialization helpers
# --------------------------------------------------------------------------


def _fmt(value) -> str:
    """CSV cell: empty for None, 17 significant digits for floats."""
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def write_vtk(path: Path, mesh: Mesh, state: FieldState) -> None:
    """Write one snapshot as legacy ASCII VTK 2.0 unstructured grid.

    Quadratic displacements are downsampled to vertex values; all point
    data lives on the vertices (cell type 5 = linear triangle).
    """
    n_v = mesh.n_vertices
    n_f = mesh.n_triangles
    lines = [
        "# vtk DataFile Version 2.0",
        "poroelastic fields",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {n_v} double",
    ]
    for x, y in mesh.vertices:
        lines.append(f"{x:.17g} {y:.17g} 0")
    lines.append(f"CELLS {n_f} {4 * n_f}")
    for a, b, c in mesh.triangles:
        lines.append(f"3 {a} {b} {c}")
    lines.append(f"CELL_TYPES {n_f}")
    lines.extend(["5"] * n_f)
    lines.append(f"POINT_DATA {n_v}")
    lines.append("VECTORS displacement double")
    ux = state.u[0 : 2 * n_v : 2]
    uy = state.u[1 : 2 * n_v : 2]
    for vx, vy in zip(ux, uy):
        lines.append(f"{vx:.17g} {vy:.17g} 0")
    for name, vec in (
        ("pressure", state.p),
        ("xi", state.xi),
        ("eta", state.eta),
        ("q", state.q),
    ):
        lines.append(f"SCALARS {name} double")
        lines.append("LOOKUP_TABLE default")
        lines.extend(f"{v:.17g}" for v in vec[:n_v])
    _write_text(path, "\n".join(lines) + "\n")


def _snapshot_steps(n_steps: int, every: int) -> list[int]:
    steps = {0, n_steps}
    steps.update(range(every, n_steps, every))
    return sorted(steps)


def _echo_config(resolved: ResolvedRun, command: str) -> list[str]:
    cfg = resolved.config
    bench = resolved.benchmark
    prm = bench.params
    coeffs = bench.coeffs
    lines = [f"command = {command}"]
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        lines.append(f"{f.name} = {_format_value(value) if value is not None else '(default)'}")
    lines.append(f"resolved benchmark = {bench.name}")
    lines.append(f"resolved ny = {resolved.mesh.ny}")
    lines.append(f"resolved dt = {resolved.scheme.dt:.17g}")
    lines.append(f"resolved T = {resolved.scheme.T:.17g}")
    lines.append(f"resolved theta = {resolved.scheme.theta}")
    lines.append(f"resolved n_steps = {resolved.scheme.n_steps}")
    lines.append(f"resolved snapshot_every = {resolved.snapshot_every}")
    lines.append(
        "material lam/mu/alpha/c0/K/mu_f = "
        + "/".join(
            f"{v:.17g}" for v in (prm.lam, prm.mu, prm.alpha, prm.c0, prm.K, prm.mu_f)
        )
    )
    lines.append(
        "kappa1/kappa2/kappa3 = "
        + "/".join(f"{v:.17g}" for v in (coeffs.kappa1, coeffs.kappa2, coeffs.kappa3))
    )
    lines.append(f"mesh h = {resolved.mesh.h:.17g}")
    lines.append(
        f"mesh sizes = {resolved.mesh.n_vertices} vertices, "
        f"{resolved.mesh.n_triangles} triangles, {resolved.mesh.n_edges} edges"
    )
    return lines


def cmd_run(config: RunConfig) -> int:
    """Integrate one benchmark and serialize its diagnostics and fields."""
    resolved = _resolve(config)
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    result = run(
        resolved.benchmark,
        Discretization.build(resolved.mesh, resolved.benchmark.params),
        resolved.scheme,
        keep_states=config.vtk,
        compute_errors=resolved.compute_errors,
        c_stab=config.c_stab,
        tolerance=config.tolerance,
    )

    _write_csv(
        out_dir / "diagnostics.csv",
        [f.name for f in fields(DiagnosticsRecord)],
        [astuple(rec) for rec in result.records],
    )

    snapshot_files = []
    if config.vtk:
        for step in _snapshot_steps(resolved.scheme.n_steps, resolved.snapshot_every):
            name = f"fields_{step}.vtk"
            write_vtk(out_dir / name, resolved.mesh, result.states[step])
            snapshot_files.append(name)

    log = _echo_config(resolved, "run")
    if result.gate is not None:
        log.append(f"gate = {result.gate.describe()}")
    else:
        log.append("gate = not applicable (theta = 1)")
    if result.decoupled_amplification is not None:
        rho = result.decoupled_amplification
        verdict = "UNSTABLE (use theta=1)" if rho > 1.000001 else "stable"
        log.append(
            f"decoupled boundary-elimination amplification = {rho:.6g} -> {verdict}"
        )
    log.append(f"time-independent loads = {'yes' if result.time_independent_loads else 'no'}")
    if not result.time_independent_loads:
        log.append("note: energy identity columns are informational (loads vary in time)")
    for fact in result.factorizations:
        log.append(
            f"factorization = {fact.label}: {fact.unknowns} unknowns, "
            f"{fact.lu_nnz} L+U nonzeros"
        )
    log.append(f"solves = {result.solve_count}")
    log.append(f"max solver residual = {result.max_solver_residual:.17g}")
    if result.records:
        worst = max(abs(r.energy_residual) for r in result.records)
        log.append(f"max |energy residual| = {worst:.17g}")
    if snapshot_files:
        log.append("snapshots = " + ", ".join(snapshot_files))
    _write_text(out_dir / "run.log", "\n".join(log) + "\n")
    return 0


def cmd_convergence(config: RunConfig) -> int:
    """Refinement study writing per-mesh errors and log2 rates."""
    resolved = _resolve(config)
    if resolved.benchmark.exact_u is None or resolved.benchmark.exact_p is None:
        raise ConfigError(
            f"benchmark {config.benchmark!r} has no exact solution; "
            "a convergence study needs one"
        )
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    hs: list[float] = []
    err_p_linf: list[float] = []
    err_p_l2h1: list[float] = []
    err_u_linf: list[float] = []
    err_u_l2h1: list[float] = []
    for nx in config.nx_list:
        mesh = build_rect_mesh(nx, nx, resolved.benchmark.rect)
        result = run(
            resolved.benchmark,
            Discretization.build(mesh, resolved.benchmark.params),
            resolved.scheme,
            keep_states=False,
            compute_errors=True,
            c_stab=config.c_stab,
            tolerance=config.tolerance,
        )
        report = result.errors
        hs.append(mesh.h)
        err_p_linf.append(report.variables["p"].linf_l2)
        err_p_l2h1.append(report.variables["p"].l2_h1)
        err_u_linf.append(report.variables["u"].linf_l2)
        err_u_l2h1.append(report.variables["u"].l2_h1)

    def rates_for(errs: list[float]) -> tuple[list[Optional[float]], bool]:
        rates = extract_rates(hs, errs)
        flagged = False
        for i in range(1, len(errs)):
            if errs[i] <= _RATE_FLOOR or errs[i - 1] <= _RATE_FLOOR:
                rates[i] = None
                flagged = True
        return rates, flagged

    rp_linf, f1 = rates_for(err_p_linf)
    rp_l2h1, f2 = rates_for(err_p_l2h1)
    ru_linf, f3 = rates_for(err_u_linf)
    ru_l2h1, f4 = rates_for(err_u_l2h1)
    at_tolerance = f1 or f2 or f3 or f4

    header = (
        "h",
        "err_p_LinfL2",
        "rate",
        "err_p_L2H1",
        "rate",
        "err_u_LinfL2",
        "rate",
        "err_u_L2H1",
        "rate",
    )
    rows = []
    for i in range(len(hs)):
        rows.append(
            [
                hs[i],
                err_p_linf[i],
                rp_linf[i],
                err_p_l2h1[i],
                rp_l2h1[i],
                err_u_linf[i],
                ru_linf[i],
                err_u_l2h1[i],
                ru_l2h1[i],
            ]
        )
    _write_csv(out_dir / "rates.csv", header, rows)

    log = _echo_config(resolved, "convergence")
    log.append("meshes = " + ",".join(str(nx) for nx in config.nx_list))
    if at_tolerance:
        log.append(
            "note: errors at solver tolerance; affected rates are meaningless "
            "and left blank"
        )
    _write_text(out_dir / "run.log", "\n".join(log) + "\n")
    return 0


def cmd_sweep(config: RunConfig) -> int:
    """Vanishing-storage sweep writing pairwise trajectory distances."""
    resolved = _resolve(config)
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = biot_limit_sweep(
        resolved.benchmark, list(config.c0_list), resolved.mesh, resolved.scheme
    )
    _write_csv(
        out_dir / "sweep.csv",
        ("c0_a", "c0_b", "dist_u", "dist_eta", "dist_xi"),
        [[r.c0_a, r.c0_b, r.dist_u, r.dist_eta, r.dist_xi] for r in rows],
    )

    log = _echo_config(resolved, "sweep")
    log.append("c0 values = " + ",".join(f"{c:.17g}" for c in config.c0_list))
    _write_text(out_dir / "run.log", "\n".join(log) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="porofem",
        description="Finite-element solver for linear poroelasticity "
        "(displacement/pseudo-pressure reformulation).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("run", "integrate one benchmark and write fields + diagnostics"),
        ("convergence", "mesh-refinement error study"),
        ("sweep", "storage-coefficient (c0) limit sweep"),
    ):
        p = sub.add_parser(name, help=doc)
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
    values: dict = {}
    if args.config is not None:
        text = Path(args.config).read_text(encoding="utf-8")
        base = parse_config(text)
        values = {
            f.name: getattr(base, f.name)
            for f in fields(base)
        }
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected KEY=VALUE")
        key, _, value = item.partition("=")
        _apply_setting(values, key.strip(), value.strip(), f"--set {item}")
    config = RunConfig(**values)
    if args.out is not None:
        config = replace(config, out=args.out)
    return config


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit status."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    commands = {"run": cmd_run, "convergence": cmd_convergence, "sweep": cmd_sweep}
    try:
        config = _load_config(args)
        return commands[args.command](config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (SolverFailureError, SingularMatrixError, SingularConstraintsError, MeshError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
