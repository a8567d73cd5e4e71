"""Command-line interface: configuration parsing, output files, exit codes."""

from __future__ import annotations

import importlib.util
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import porofem
from porofem import cli
from porofem.cli import (
    ConfigError,
    RunConfig,
    _build_parser,
    _load_config,
    _resolve,
    main,
    vtk_grid,
    write_vtk,
)
from porofem.model import DerivedCoeffs, MaterialParams
from porofem.stepper import Discretization, FieldState

from helpers import jittered_mesh


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _argv(command: str, settings=(), config=None) -> list[str]:
    """A command line of a --config file and a --set of each setting."""
    argv = [command] + (["--config", str(config)] if config is not None else [])
    for item in settings:
        argv += ["--set", item]
    return argv


def _cli(command: str, out, *settings: str) -> int:
    """main() on a command line of a --set of each setting, then --out."""
    return main(_argv(command, settings) + ["--out", str(out)])


def _load(command: str, settings=(), config=None) -> RunConfig:
    return _load_config(_build_parser().parse_args(_argv(command, settings, config)))


def _load_file(tmp_path: Path, command: str, text: str) -> RunConfig:
    config = tmp_path / "case.cfg"
    config.write_text(text)
    return _load(command, config=config)


def test_parse_config_reads_comments_and_blanks(tmp_path):
    # One file per command, since no command reads both nx and nx_list.
    cfg = _load_file(
        tmp_path,
        "run",
        """
        # a comment
        benchmark = locking
        nx = 5   # trailing comment
        dt = 2.5e-4

        vtk = off
        """,
    )
    assert cfg.benchmark == "locking"
    assert cfg.nx == 5
    assert cfg.dt == pytest.approx(2.5e-4)
    assert cfg.vtk is False
    cfg = _load_file(
        tmp_path,
        "convergence",
        """
        # a comment

        nx_list = 2, 4,8   # trailing comment
        """,
    )
    assert cfg.nx_list == (2, 4, 8)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("stuff\n", "line 1: expected key = value"),
        ("nx = 4\nwhat is this\n", "line 2: expected key = value"),
        ("foo = 3\n", "line 1: unknown key 'foo'"),
        ("nx = 0\n", "invalid value for nx"),
        ("dt = -1\n", "invalid value for dt"),
        ("dt = inf\n", "invalid value for dt"),
        ("theta = 2\n", "invalid value for theta"),
        ("benchmark = nope\n", "invalid value for benchmark"),
        ("c_stab = 1\n", "line 1: unknown key 'c_stab'"),
        ("snapshot_every = 1\n", "line 1: unknown key 'snapshot_every'"),
        ("errors = on\n", "line 1: unknown key 'errors'"),
        ("vtk = maybe\n", "invalid value for vtk"),
        ("nx_list = \n", "invalid value for nx_list"),
        ("c0_list = 1e-2,-3\n", "invalid value for c0_list"),
        # a sweep compares consecutive c0 values; one value compares nothing
        ("c0_list = 1e-2\n", "invalid value for c0_list: '1e-2' (expected at least 2 values)"),
        ("nx = 4\nnx = x\n", "line 2: invalid value for nx"),
        ("T = -1\n", "invalid value for T"),
        ("ny = 0\n", "line 1: unknown key 'ny'"),
        ("mu = 0\n", "invalid value for mu"),
        ("tolerance = 0\n", "line 1: unknown key 'tolerance'"),
        ("c0 = nan\n", "invalid value for c0"),
        ("nx_list = 2,0\n", "invalid value for nx_list"),
    ],
)
def test_parse_config_reports_offending_line(tmp_path, text, fragment):
    # Each file goes to a command that reads its keys.
    command = "sweep" if "c0_list" in text else "convergence" if "nx_list" in text else "run"
    with pytest.raises(ConfigError) as info:
        _load_file(tmp_path, command, text)
    assert fragment in str(info.value)


# A value for every key run reads, floats among them that need all 17
# significant digits to come back bit-exact.
RUN_SETTINGS = {
    "benchmark": "barry_mercer", "nx": "3", "dt": repr(1.0 / 3.0),
    "T": repr(2.0 / 3.0), "theta": "1", "lam": "1.2345678901234567e5", "mu": "3",
    "alpha": "0.9", "c0": "1e-6", "K": repr(2.0 / 1.5), "out": "o", "vtk": "on",
}


def _echoed_settings(log_lines: list[str]) -> list[str]:
    """KEY=VALUE of each run.log line that echoes a key run reads."""
    keys = cli._COMMANDS["run"].keys
    pairs = (line.partition(" = ") for line in log_lines)
    return [f"{key}={value}" for key, _, value in pairs if key in keys]


def test_run_log_round_trip_is_lossless(tmp_path, monkeypatch):
    # Every key the echo writes reads back through _load_config unchanged.
    monkeypatch.chdir(tmp_path)
    assert set(RUN_SETTINGS) == cli._COMMANDS["run"].keys
    settings = [f"{key}={value}" for key, value in RUN_SETTINGS.items()]
    config = _load("run", settings)
    assert config.dt == 1.0 / 3.0 and config.lam == 1.2345678901234567e5
    assert main(_argv("run", settings)) == 0
    echoed = _echoed_settings((tmp_path / "o" / "run.log").read_text().splitlines())
    assert len(echoed) == len(RUN_SETTINGS)
    assert _load("run", echoed) == config


@settings(max_examples=50, deadline=None)
@given(
    dt=st.floats(min_value=1e-12, max_value=1e6, allow_nan=False),
    c0=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    nx=st.integers(min_value=1, max_value=10**6),
)
def test_run_log_round_trip_property(dt, c0, nx):
    resolved = _resolve(_load("run", [f"{k}={v}" for k, v in RUN_SETTINGS.items()]))
    config = replace(resolved.config, dt=dt, c0=c0, nx=nx)
    lines = cli._echo_config(replace(resolved, config=config), "run")
    back = _load("run", _echoed_settings(lines))
    assert back.dt == dt  # 17 significant digits: bit-exact
    assert back.c0 == c0
    assert back.nx == nx
    assert back == config


def test_readme_python_example_runs():
    # README's one python block runs as printed: a field it reads that the
    # package no longer has raises here.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_readme_key_list_is_the_config_fields():
    # The backticked names of README's "Keys:" paragraph, values in
    # parentheses left out, are the keys RunConfig accepts.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    paragraph = readme[readme.index("\nKeys: "):].split("\n\n", 1)[0]
    named = set(re.findall(r"`([^`]+)`", re.sub(r"\([^()]*\)", "", paragraph)))
    assert named == {f.name for f in fields(RunConfig)}
    assert len(named) == 14


def test_resolve_fills_benchmark_defaults():
    resolved = _resolve(RunConfig(benchmark="test1", nx=4))
    bench = resolved.benchmark
    assert resolved.mesh.nx == 4 and resolved.mesh.ny == 4
    assert resolved.scheme.dt == pytest.approx(bench.default_dt)
    assert resolved.scheme.theta == 1
    assert resolved.scheme.T == pytest.approx(bench.T)


def test_resolve_applies_material_overrides():
    resolved = _resolve(RunConfig(benchmark="locking", nx=2, c0=0.125))
    assert resolved.benchmark.params.c0 == pytest.approx(0.125)
    assert resolved.mesh.nx == resolved.mesh.ny == 2


def test_resolve_rejects_inconsistent_scheme():
    with pytest.raises(ConfigError):
        _resolve(RunConfig(benchmark="test1", dt=3.0, T=1.0))


# ---------------------------------------------------------------------------
# run subcommand
# ---------------------------------------------------------------------------


@pytest.fixture()
def small_run_args():
    return [
        "run",
        "--set", "benchmark=locking",
        "--set", "nx=2",
        "--set", "dt=1e-4",
        "--set", "T=1e-3",
        "--set", "theta=1",
    ]


def test_run_writes_expected_files(tmp_path, small_run_args):
    out = tmp_path / "out"
    assert main(small_run_args + ["--out", str(out)]) == 0
    header, rows = _read_csv(out / "diagnostics.csv")
    assert header == [
        "step", "t", "J", "S_cum", "energy_residual",
        "C_eta_res", "C_xi_res", "flux_res",
        "err_u_L2", "err_u_H1", "err_p_L2", "err_p_H1",
    ]
    assert len(rows) == 10
    assert [r[0] for r in rows] == [str(i) for i in range(1, 11)]
    # locking run: energy and eta-conservation columns populated; the
    # traction-pairing identities and error columns are not applicable
    assert all(r[4] != "" and r[5] != "" for r in rows)
    assert all(r[6] == "" and r[7] == "" and r[8] == "" for r in rows)
    log = (out / "run.log").read_text()
    assert "gate = not applicable (theta = 1)" in log
    assert "solves = 10" in log
    assert "time-independent loads = yes" in log
    facts = re.findall(r"^factorization = (.+): (\d+) unknowns, (\d+) L\+U nonzeros$", log, re.M)
    # locking's p0 is zero: no mass matrix is factorized to project it.
    assert [f[0] for f in facts] == ["coupled system"]
    assert all(int(nnz) >= int(n) > 0 for _, n, nnz in facts)
    snapshots = {p.name for p in out.glob("fields_*.vtk")}
    assert snapshots == {f"fields_{i}.vtk" for i in range(11)}


def test_run_hundred_rows_without_snapshots(tmp_path):
    out = tmp_path / "o"
    code = _cli("run", out, "benchmark=locking", "nx=2", "dt=1e-4", "T=1e-2", "vtk=off")
    assert code == 0
    _, rows = _read_csv(out / "diagnostics.csv")
    assert len(rows) == 100
    assert not list(out.glob("*.vtk"))
    assert "snapshots = " not in (out / "run.log").read_text()
    times = [float(r[1]) for r in rows]
    assert times[0] == pytest.approx(1e-4)
    assert times[-1] == pytest.approx(1e-2)


def test_run_zero_steps_writes_header_only(tmp_path):
    out = tmp_path / "o"
    code = _cli("run", out, "benchmark=locking", "nx=2", "T=0")
    assert code == 0
    header, rows = _read_csv(out / "diagnostics.csv")
    assert rows == []
    assert (out / "fields_0.vtk").exists()
    log = (out / "run.log").read_text()
    assert "solves = 0" in log
    assert "max |energy residual|" not in log


def test_run_log_energy_residual_keeps_a_nan(tmp_path, monkeypatch):
    # One step's residual is NaN among finite ones: run.log's maximum reads
    # nan rather than the largest finite value, and the run exits 0.
    real_run = cli.run

    def run_with_a_nan(*args, **kwargs):
        result = real_run(*args, **kwargs)
        records = list(result.records)
        records[1] = replace(records[1], energy_residual=float("nan"))
        return replace(result, records=records)

    monkeypatch.setattr(cli, "run", run_with_a_nan)
    out = tmp_path / "o"
    assert _cli("run", out, "nx=2", "T=2e-4", "vtk=off") == 0
    header, rows = _read_csv(out / "diagnostics.csv")
    residuals = [row[header.index("energy_residual")] for row in rows]
    assert len(rows) == 20 and residuals[1] == "nan"
    assert all(float(r) != 0.0 for r in residuals[2:])  # finite, and not all zero
    assert "max |energy residual| = nan\n" in (out / "run.log").read_text()


def test_numpy_warnings_print_once_and_are_echoed(tmp_path, capsys, monkeypatch):
    raised = []
    show = warnings._showwarnmsg

    def count(msg):
        raised.append(str(msg.message))
        show(msg)

    monkeypatch.setattr(warnings, "_showwarnmsg", count)
    # Overflowing data: the norm of the first step's right-hand side
    # overflows, which leaves the residual gate nothing to measure against;
    # the solve fails and names its step, after numpy's warning.
    out = tmp_path / "o"
    code = _cli("run", out, "nx=2", "T=2e-4", "lam=3.3e153", "alpha=1e153", "mu=3e153", "vtk=off")
    assert code == 1
    assert raised == ["overflow encountered in dot"]
    assert capsys.readouterr().err.splitlines() == [
        "warning: overflow encountered in dot",
        "error: coupled step to t=1e-05: right-hand side norm inf is not finite; "
        "the residual gate cannot measure the solve",
    ]
    assert not (out / "run.log").exists()

    # A run whose numpy warning is raised 20 times prints it once and echoes
    # it at the end of run.log.
    real_run = cli.run

    def run_overflowing(*args, **kwargs):
        for _ in range(20):
            np.dot(np.array([1e200]), np.array([1e200]))
        return real_run(*args, **kwargs)

    monkeypatch.setattr(cli, "run", run_overflowing)
    raised.clear()
    out = tmp_path / "p"
    assert _cli("run", out, "nx=2", "T=2e-4", "vtk=off") == 0
    assert raised == ["overflow encountered in dot"] * 20
    assert capsys.readouterr().err.splitlines() == ["warning: overflow encountered in dot"]
    assert (out / "run.log").read_text().endswith("warning = overflow encountered in dot\n")


def test_run_log_reports_decoupled_amplification(tmp_path, capsys):
    out = tmp_path / "o"
    code = _cli("run", out, "benchmark=polynomial", "nx=2", "dt=1e-3", "T=2e-3", "theta=0",
                "vtk=off")
    assert code == 0
    log = (out / "run.log").read_text()
    assert "decoupled boundary-elimination amplification" in log
    assert "UNSTABLE (use theta=1)" in log
    [warned] = capsys.readouterr().err.splitlines()
    assert warned.startswith("warning: decoupled scheme amplifies errors by a factor of ")
    assert log.endswith(f"warning = {warned[9:]}\n")


@pytest.mark.parametrize("alpha", ["1e-20", "5e-324"])
def test_steady_verdict_covers_small_loads_and_boundary_data(tmp_path, alpha):
    # barry_mercer's traction scales with alpha: 1e-20 * sin(t) varies
    # however little, and at alpha = 5e-324 it is zero on every step, which
    # leaves the sin(t) pressure data to vary alone.  Either way the energy
    # identity does not close, and run.log must say so.
    out = tmp_path / "o"
    code = _cli("run", out, "benchmark=barry_mercer", f"alpha={alpha}", "nx=4", "T=0.1",
                "vtk=off")
    assert code == 0
    log = (out / "run.log").read_text()
    assert "time-independent loads = no\n" in log
    assert (
        "note: energy identity columns are informational "
        "(loads or boundary data vary in time)\n"
    ) in log


def test_steady_verdict_of_a_run_without_steps_reads_the_data(tmp_path):
    # test1's data vary in time, whether or not a step samples them.
    out = tmp_path / "o"
    assert _cli("run", out, "benchmark=test1", "nx=2", "T=0") == 0
    assert "time-independent loads = no\n" in (out / "run.log").read_text()


@pytest.mark.filterwarnings("ignore:decoupled scheme")
@pytest.mark.parametrize("theta", [0, 1])
def test_run_log_reports_max_hat_slack_for_theta_0_only(tmp_path, theta):
    settings = {"benchmark": "barry_mercer", "nx": 4, "T": 0.06, "theta": theta}
    out = tmp_path / "o"
    assert _cli("run", out, *(f"{k}={v}" for k, v in settings.items()), "vtk=off") == 0
    log = (out / "run.log").read_text()
    if theta == 1:
        assert "hat slack" not in log
        return
    resolved = _resolve(RunConfig(**settings))
    disc = Discretization.build(resolved.mesh, resolved.benchmark.params)
    result = porofem.run(resolved.benchmark, disc, resolved.scheme)
    assert result.max_hat_slack > 0.0
    lines = log.splitlines()
    at = lines.index(f"max hat slack = {result.max_hat_slack:.17g}")
    assert lines[at - 1].startswith("max |energy residual| = ")


def test_run_log_prints_no_hat_slack_for_a_single_step(tmp_path):
    out = tmp_path / "o"
    assert _cli("run", out, "benchmark=barry_mercer", "nx=4", "T=0.01", "theta=0", "vtk=off") == 0
    log = (out / "run.log").read_text()
    assert "max |energy residual| = " in log and "hat slack" not in log


def _reference_vtk_text(mesh, state) -> str:
    """write_vtk's text as an element-by-element f-string formatter writes it."""
    n_v, n_f = mesh.n_vertices, mesh.n_triangles
    lines = ["# vtk DataFile Version 2.0", "poroelastic fields", "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {n_v} double"]
    for x, y in mesh.vertices:
        lines.append(f"{x:.17g} {y:.17g} 0")
    lines.append(f"CELLS {n_f} {4 * n_f}")
    for a, b, c in mesh.triangles:
        lines.append(f"3 {a} {b} {c}")
    lines.append(f"CELL_TYPES {n_f}")
    lines.extend(["5"] * n_f)
    lines.append(f"POINT_DATA {n_v}")
    lines.append("VECTORS displacement double")
    for vx, vy in zip(state.u[0 : 2 * n_v : 2], state.u[1 : 2 * n_v : 2]):
        lines.append(f"{vx:.17g} {vy:.17g} 0")
    for name, vec in (("pressure", state.p), ("xi", state.xi), ("eta", state.eta), ("q", state.q)):
        lines.append(f"SCALARS {name} double")
        lines.append("LOOKUP_TABLE default")
        lines.extend(f"{v:.17g}" for v in vec[:n_v])
    return "\n".join(lines) + "\n"


def test_write_vtk_matches_elementwise_formatting(tmp_path):
    mesh = jittered_mesh(5, 3, rect=(-1.0, 0.0, 2.0, 1.0 / 3.0))
    rng = np.random.default_rng(7)
    extremes = np.array([-0.0, 1e-300, 1e300, -1e300, 5e-324, 1.0 / 3.0])

    def field(n: int) -> np.ndarray:
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
        values[: extremes.size] = extremes
        return rng.permutation(values)

    n_v, n_nodes = mesh.n_vertices, mesh.n_vertices + mesh.n_edges
    # kappa = (0, 1, 0) makes the pressure eta_theta and q zero.
    p = field(n_v)
    state = FieldState(t=0.5, u=field(2 * n_nodes), xi=field(n_v), eta=field(n_v),
                       eta_theta=p, coeffs=DerivedCoeffs(0.0, 1.0, 0.0))
    assert np.array_equal(state.p, p) and not np.any(state.q)
    write_vtk(tmp_path / "f.vtk", vtk_grid(mesh), state)
    assert (tmp_path / "f.vtk").read_bytes() == _reference_vtk_text(mesh, state).encode()


def test_vtk_grammar(tmp_path, small_run_args):
    out = tmp_path / "out"
    main(small_run_args + ["--out", str(out)])
    lines = (out / "fields_0.vtk").read_text().splitlines()
    it = iter(lines)
    assert next(it) == "# vtk DataFile Version 2.0"
    next(it)  # free-form title
    assert next(it) == "ASCII"
    assert next(it) == "DATASET UNSTRUCTURED_GRID"
    tag, n_pts, dtype = next(it).split()
    assert (tag, dtype) == ("POINTS", "double")
    n_pts = int(n_pts)
    assert n_pts == 9  # 3x3 vertices on a 2x2 mesh
    for _ in range(n_pts):
        x, y, z = (float(v) for v in next(it).split())
        assert z == 0.0
        assert 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0
    tag, n_cells, total = next(it).split()
    assert tag == "CELLS"
    n_cells = int(n_cells)
    assert n_cells == 8 and int(total) == 4 * n_cells
    for _ in range(n_cells):
        parts = [int(v) for v in next(it).split()]
        assert parts[0] == 3 and len(parts) == 4
        assert all(0 <= v < n_pts for v in parts[1:])
        assert len(set(parts[1:])) == 3
    assert next(it) == f"CELL_TYPES {n_cells}"
    for _ in range(n_cells):
        assert next(it) == "5"
    assert next(it) == f"POINT_DATA {n_pts}"
    assert next(it) == "VECTORS displacement double"
    for _ in range(n_pts):
        assert len(next(it).split()) == 3
    for name in ("pressure", "xi", "eta", "q"):
        assert next(it) == f"SCALARS {name} double"
        assert next(it) == "LOOKUP_TABLE default"
        for _ in range(n_pts):
            float(next(it))
    assert next(it, None) is None  # fully consumed


def test_byte_identical_reruns(tmp_path, small_run_args, monkeypatch):
    # The sweep folds each member run into its rows as the run ends, so a
    # rerun must reproduce sweep.csv byte for byte too.
    sweep_args = [
        "sweep",
        "--set", "benchmark=locking",
        "--set", "nx=2",
        "--set", "dt=1e-4",
        "--set", "T=3e-4",
        "--set", "c0_list=1e-2,1e-4,0",
    ]
    for args in (small_run_args, sweep_args):
        dirs = []
        for name in ("a", "b"):
            workdir = tmp_path / args[0] / name
            workdir.mkdir(parents=True)
            monkeypatch.chdir(workdir)
            assert main(args) == 0  # default out directory "out"
            dirs.append(workdir / "out")
        first = sorted(p.name for p in dirs[0].iterdir())
        assert first == sorted(p.name for p in dirs[1].iterdir())
        for name in first:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_config_file_and_set_precedence(tmp_path):
    config = tmp_path / "case.cfg"
    config.write_text(
        "benchmark = locking\nnx = 3\ndt = 1e-4\nT = 2e-4\nvtk = off\n"
    )
    out = tmp_path / "o"
    code = main([
        "run", "--config", str(config), "--set", "nx=2", "--out", str(out),
    ])
    assert code == 0
    log = (out / "run.log").read_text()
    assert "nx = 2" in log.splitlines()
    assert "benchmark = locking" in log
    assert f"out = {out}" in log


# A valid value for every key, and the keys each command does not read.
VALID = {
    "benchmark": "test1", "nx": "4", "dt": "1e-5", "T": "2e-5", "theta": "0",
    "lam": "1", "mu": "1", "alpha": "1", "c0": "0.5", "K": "1",
    "out": "o", "vtk": "on", "nx_list": "2,4", "c0_list": "1,0.1",
}
UNREAD = {
    "run": {"nx_list", "c0_list"},
    "convergence": {"nx", "c0_list", "vtk"},
    "sweep": {"c0", "nx_list", "vtk"},
}


def test_key_table_has_fourteen_keys_and_thirty_four_pairs():
    assert set(VALID) == {f.name for f in fields(RunConfig)} and len(VALID) == 14
    assert sum(len(command.keys) for command in cli._COMMANDS.values()) == 34
    for command, unread in UNREAD.items():
        assert cli._COMMANDS[command].keys == set(VALID) - unread


def test_every_material_constant_is_a_key():
    # The overrides and the material line of run.log read the names off
    # MaterialParams; each one is a key, and each command that steps one
    # material reads all of them (the sweep sets c0 per member).
    material = {f.name for f in fields(MaterialParams)}
    assert material == {"lam", "mu", "alpha", "c0", "K"}
    assert material <= cli._COMMANDS["run"].keys
    assert material <= cli._COMMANDS["convergence"].keys
    assert material & cli._COMMANDS["sweep"].keys == material - {"c0"}


@pytest.mark.parametrize("via", ["set", "config"])
@pytest.mark.parametrize(
    "command, key", [(c, k) for c, keys in UNREAD.items() for k in sorted(keys)]
)
def test_command_refuses_keys_it_does_not_read(tmp_path, capsys, command, key, via):
    out = tmp_path / "o"
    args = [command, "--set", "benchmark=test1", "--out", str(out)]
    if via == "set":
        args += ["--set", f"{key}={VALID[key]}"]
    else:
        config = tmp_path / "case.cfg"
        config.write_text(f"{key} = {VALID[key]}\n")
        args += ["--config", str(config)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert f"{command} (" in err and f"does not read {key!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("via", ["set", "config"])
@pytest.mark.parametrize("key, value", [("ny", "4"), ("tolerance", "1e-10"), ("mu_f", "1")])
def test_removed_keys_exit_2_as_unknown(tmp_path, capsys, key, value, via):
    # The mesh is the nx by nx square, the residual gate a solver constant
    # and K the whole Darcy mobility, the paper's K/mu_f; ny, tolerance and
    # mu_f are not keys.
    out = tmp_path / "o"
    args = ["run", "--set", "benchmark=test1", "--out", str(out)]
    if via == "set":
        args += ["--set", f"{key}={value}"]
        where = f"--set {key}={value}"
    else:
        config = tmp_path / "case.cfg"
        config.write_text(f"{key} = {value}\n")
        args += ["--config", str(config)]
        where = "line 1"
    assert main(args) == 2
    assert capsys.readouterr().err == f"configuration error: {where}: unknown key {key!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(UNREAD))
def test_config_file_of_read_keys_runs_and_is_echoed(tmp_path, monkeypatch, command):
    # Every key the command reads is accepted from a file, and run.log echoes
    # exactly those keys; the kappas are echoed only where c0 is read.
    monkeypatch.chdir(tmp_path)
    read = [key for key in VALID if key not in UNREAD[command]]
    config = tmp_path / "case.cfg"
    config.write_text("".join(f"{key} = {VALID[key]}\n" for key in read))
    assert _load(command, config=config) == _load(command, [f"{key}={VALID[key]}" for key in read])
    assert main([command, "--config", str(config)]) == 0
    lines = (tmp_path / "o" / "run.log").read_text().splitlines()
    echoed = lines[1 : lines.index("resolved benchmark = test1")]
    assert [line.partition(" = ")[0] for line in echoed] == read
    kappas = [line for line in lines if line.startswith("kappa1/kappa2/kappa3 = ")]
    assert len(kappas) == (command != "sweep")


def test_kappa_line_follows_the_key_table(tmp_path, monkeypatch):
    # The sweep's log has no kappas (it sets c0 per member) because its table
    # entry leaves out c0, not because of its name.
    sweep = cli._COMMANDS["sweep"]
    monkeypatch.setitem(cli._COMMANDS, "sweep", replace(sweep, keys=sweep.keys | {"c0"}))
    out = tmp_path / "o"
    assert _cli("sweep", out, "benchmark=locking", "nx=2", "T=2e-4", "c0_list=1,0.1") == 0
    log = (out / "run.log").read_text()
    assert "kappa1/kappa2/kappa3 = " in log
    assert "material lam/mu/alpha/c0/K = " in log


def test_sweep_log_echoes_no_base_c0(tmp_path):
    # Each member runs with one value of c0_list, none with the base
    # benchmark's c0, so the material line leaves c0 out.
    out = tmp_path / "o"
    assert _cli("sweep", out, "benchmark=locking", "nx=2", "T=2e-4", "c0_list=1,0.1") == 0
    lines = (out / "run.log").read_text().splitlines()
    [material] = [line for line in lines if line.startswith("material ")]
    names, _, values = material.partition(" = ")
    assert names == "material lam/mu/alpha/K"
    assert len(values.split("/")) == 4


# ---------------------------------------------------------------------------
# exit codes and error channels
# ---------------------------------------------------------------------------


def test_bad_set_value_exits_2(tmp_path, capsys):
    assert main(["run", "--set", "benchmark=nope", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "--set benchmark=nope" in err
    assert not (tmp_path / "o").exists()


def test_malformed_set_exits_2(capsys):
    assert main(["run", "--set", "nx"]) == 2
    assert "expected KEY=VALUE" in capsys.readouterr().err


def test_unknown_set_key_names_the_override(capsys):
    assert main(["run", "--set", "notakey=3"]) == 2
    err = capsys.readouterr().err
    assert "--set notakey=3" in err and "unknown key" in err


def test_bad_config_file_line_exits_2(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("nx = 4\ndt = -2\n")
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "dt" in err


@pytest.mark.parametrize(
    "settings, cause",
    [
        (["c0=0", "theta=0"], "decoupled scheme is singular"),
        (["lam=0"], "requires kappa2 > 0"),
    ],
)
def test_impossible_scheme_exits_2_naming_the_cause(tmp_path, capsys, settings, cause):
    out = tmp_path / "o"
    assert _cli("run", out, "benchmark=barry_mercer", "nx=2", *settings) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and cause in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, settings, cause",
    [
        ("run", ["benchmark=barry_mercer", "nx=2", "theta=0", "lam=0"], "requires kappa2 > 0"),
        ("run", ["benchmark=barry_mercer", "nx=2", "theta=0", "c0=0", "T=0.02"],
         "decoupled scheme is singular"),
        ("convergence", ["benchmark=test1", "lam=0", "nx_list=1,2"], "requires kappa2 > 0"),
        # The c0 = 1 member could run; the c0 = 0 member is refused up front.
        ("sweep", ["benchmark=barry_mercer", "nx=2", "theta=0", "T=0.02", "c0_list=1,0"],
         "decoupled scheme is singular"),
        # kappa1 = 1e-300 squares to zero in the decoupled step-size gate.
        ("run", ["benchmark=barry_mercer", "nx=2", "theta=0", "alpha=1e-300", "T=0.02",
                 "dt=0.01"], "mu*K*kappa1**2 underflows"),
    ],
    ids=["run-lam-zero", "run-zero-storage", "convergence-lam-zero", "sweep-member",
         "run-vanishing-coupling"],
)
def test_impossible_scheme_of_any_command_exits_2_before_any_output(
    tmp_path, capsys, command, settings, cause
):
    out = tmp_path / "o"
    assert _cli(command, out, *settings) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and cause in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, settings, named",
    [
        # alpha*alpha overflows, and lam*c0 overflows: no kappa is defined.
        ("run", ["alpha=1e200"], ["alpha*alpha + lam*c0", "alpha = 1e+200"]),
        ("run", ["benchmark=locking", "lam=1e308", "c0=1e308", "T=2e-4"],
         ["alpha*alpha + lam*c0", "lam = 1e+308", "c0 = 1e+308"]),
        # alpha*alpha underflows to zero with lam = 0.
        ("run", ["benchmark=locking", "alpha=1e-200", "lam=0", "T=2e-4"],
         ["alpha*alpha + lam*c0", "alpha = 1e-200", "lam = 0.0"]),
        # T / dt = 1e297 steps, past any integer step counter.
        ("run", ["dt=1e-300", "T=1e-3"], ["n_steps", "2**63 - 1"]),
        # T / dt overflows to inf: still a step count, not a span of zero.
        ("run", ["dt=1e-300", "T=1e300"], ["n_steps", "got inf"]),
        # The base c0 = 0 passes; the member with c0 = 1e300 overflows lam*c0.
        ("sweep", ["benchmark=locking", "lam=1e150", "c0_list=1,1e300", "T=2e-4"],
         ["alpha*alpha + lam*c0", "c0 = 1e+300"]),
        # Finite constants whose kappa2 or K no solve can use.
        ("run", ["T=2e-4", "c0=1e308"], ["kappa2 = ", "c0 = 1e+308"]),
        ("run", ["T=2e-4", "K=1e300"], ["K exceeds 2**510", "K = 1e+300"]),
        # A Lame constant out of scale: test1's data scale with lam and mu,
        # and the elastic block with mu.
        ("run", ["T=2e-4", "lam=1e300"], ["lam exceeds 2**510", "lam = 1e+300"]),
        ("run", ["T=2e-4", "mu=1e300"], ["mu exceeds 2**510", "mu = 1e+300"]),
        ("run", ["T=2e-4", "mu=1e-300"], ["mu is positive but below 2**-510", "mu = 1e-300"]),
    ],
    ids=[
        "alpha-overflow", "lam-c0-overflow", "alpha-underflow", "step-count",
        "step-count-overflow", "sweep-member", "kappa2-underflow", "mobility-overflow",
        "lam-overflow", "mu-overflow", "mu-underflow",
    ],
)
def test_bad_numbers_exit_2_before_any_output(tmp_path, capsys, command, settings, named):
    out = tmp_path / "o"
    assert _cli(command, out, "nx=2", *settings) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "Traceback" not in err
    for fragment in named:
        assert fragment in err
    assert not out.exists()


@pytest.mark.parametrize("args", [["--set", "out="], ["--out", ""]], ids=["set", "out"])
def test_empty_out_exits_2_writing_nothing(tmp_path, monkeypatch, capsys, args):
    # An empty path would put the outputs in the working directory.
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--set", "benchmark=locking", "--set", "nx=2", "--set", "T=0", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "invalid value for out" in err
    assert not list(tmp_path.iterdir())


def test_out_directory_collision_exits_1(tmp_path, capsys):
    blocker = tmp_path / "occupied"
    blocker.write_text("a file, not a directory\n")
    code = _cli("run", blocker, "benchmark=locking", "nx=2", "T=0")
    assert code == 1
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize("settings, projection, solves", [
    (["benchmark=test1", "theta=1", "T=3e-5"], True, 1 + 3),
    (["benchmark=test1", "theta=0", "T=3e-5"], True, 1 + 2 * 4 + 2 * 3),
    (["benchmark=barry_mercer", "theta=0", "T=0.03"], False, 2 * 3 + 2 * 3),
], ids=["test1", "test1-decoupled", "barry_mercer-decoupled"])
def test_run_log_counts_every_solve(tmp_path, settings, projection, solves):
    # solves = n_steps + 1 for test1, whose p0 is projected; a decoupled
    # run with pressure data adds two solves for each step-map application
    # of its amplification estimate: 4 for test1 and 3 for barry_mercer,
    # where their Ritz residuals settle the verdict.
    out = tmp_path / "o"
    assert _cli("run", out, "nx=2", "vtk=off", *settings) == 0
    lines = (out / "run.log").read_text().splitlines()
    assert f"solves = {solves}" in lines
    labels = [line.split(": ")[0] for line in lines if line.startswith("factorization = ")]
    assert ("factorization = initial mass projection" in labels) == projection


def test_unreachable_tolerance_exits_1_naming_the_solve(tmp_path, capsys, monkeypatch):
    # No solve meets a relative residual of 1e-18; the first one of a
    # decoupled run, in the amplification estimate, fails and says so.
    monkeypatch.setattr(porofem.solver, "RESIDUAL_GATE", 1e-18)
    code = _cli("run", tmp_path / "o", "benchmark=barry_mercer", "theta=0", "nx=4")
    assert code == 1
    err = capsys.readouterr().err
    assert "error: decoupled Stokes solve of the amplification estimate: linear solve residual" in err


def test_unreachable_tolerance_names_the_initial_projection(tmp_path, capsys, monkeypatch):
    # test1's initial displacement is zero, so its projection passes with a
    # zero residual; the pressure projection is the first to fail.
    monkeypatch.setattr(porofem.solver, "RESIDUAL_GATE", 1e-18)
    code = _cli("run", tmp_path / "o", "benchmark=test1", "nx=4")
    assert code == 1
    err = capsys.readouterr().err
    assert "error: initial pressure projection: linear solve residual" in err


def test_singular_factorization_exits_1_naming_the_system(tmp_path, capsys):
    # With zero storage, locking's kappa2 is lam; at lam = 3e153 the flow
    # block M/dt + kappa2*S rounds to kappa2*S, whose kernel (the constants,
    # for locking's all-Neumann flow boundary) makes the coupled system, the
    # first step system the run factorizes, exactly singular.
    code = _cli("run", tmp_path / "o", "benchmark=locking", "nx=2", "T=2e-4", "lam=3e153")
    assert code == 1
    err = capsys.readouterr().err
    assert "error: coupled system: matrix is numerically singular" in err


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


# ---------------------------------------------------------------------------
# convergence subcommand
# ---------------------------------------------------------------------------


def test_convergence_rejects_benchmark_without_exact_solution(tmp_path, capsys):
    code = _cli("convergence", tmp_path / "o", "benchmark=locking")
    assert code == 2
    assert "no exact solution" in capsys.readouterr().err


def test_convergence_rejects_zero_steps(tmp_path, capsys):
    # T = 0 leaves no stepped level for the L2-in-time H1 norm to sum over.
    code = _cli("convergence", tmp_path / "o", "benchmark=test1", "nx_list=2,4", "T=0")
    assert code == 2
    assert "no time step" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_convergence_rejects_ny(tmp_path, capsys):
    # The study's meshes are the nx_list squares, and no command reads ny.
    code = _cli("convergence", tmp_path / "o", "benchmark=test1", "nx_list=2,4", "ny=3", "T=2e-5")
    assert code == 2
    assert "unknown key 'ny'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_convergence_log_describes_no_single_mesh(tmp_path):
    # nx = 8 is in the echoed configuration, but no 8 by 8 mesh is built:
    # the log names only the nx_list meshes.
    out = tmp_path / "o"
    code = _cli("convergence", out, "benchmark=test1", "nx_list=2,4", "T=2e-5")
    assert code == 0
    lines = (out / "run.log").read_text().splitlines()
    assert "meshes = 2,4" in lines
    for prefix in ("resolved ny =", "mesh h =", "mesh sizes ="):
        assert not any(line.startswith(prefix) for line in lines), prefix


def test_convergence_flags_solver_tolerance_errors(tmp_path):
    # the in-space-exact benchmark yields errors at solver tolerance on any
    # mesh, so every rate must be blanked and the log must say why
    out = tmp_path / "o"
    code = _cli("convergence", out, "benchmark=polynomial", "nx_list=2,4", "dt=1e-3", "T=2e-3",
                "theta=1")
    assert code == 0
    header, rows = _read_csv(out / "rates.csv")
    assert header[0] == "h" and header.count("rate") == 4
    assert len(rows) == 2
    for row in rows:
        for cell in row[2::2]:
            assert cell == ""  # every rate column blank
        for cell in row[1::2]:
            assert float(cell) < 1e-9  # errors pinned at solver tolerance
    assert float(rows[0][0]) == pytest.approx(2 * float(rows[1][0]))
    log = (out / "run.log").read_text()
    assert "errors at solver tolerance" in log


def test_convergence_produces_rates_for_genuine_errors(tmp_path):
    out = tmp_path / "o"
    code = _cli("convergence", out, "benchmark=test1", "nx_list=2,4", "dt=1e-5", "T=2e-5",
                "theta=1")
    assert code == 0
    _, rows = _read_csv(out / "rates.csv")
    assert rows[0][2] == ""  # first mesh has no rate
    assert float(rows[1][2]) > 1.0  # p LinfL2 rate present and sensible
    assert float(rows[1][1]) < float(rows[0][1])  # errors decrease
    assert "errors at solver tolerance" not in (out / "run.log").read_text()
    log = (out / "run.log").read_text().splitlines()
    # Each mesh's factorizations and solves, in the lines of a run's log:
    # test1's pressure projection, then one coupled solve per step.
    tail = log[log.index("meshes = 2,4") + 1:]
    assert [line.partition(" = ")[0] for line in tail] == [
        "mesh nx", "factorization", "factorization", "solves", "max solver residual",
    ] * 2
    assert tail[0] == "mesh nx = 2" and tail[5] == "mesh nx = 4"
    assert tail[1].startswith("factorization = initial mass projection: 9 unknowns, ")
    assert tail[6].startswith("factorization = initial mass projection: 25 unknowns, ")
    assert tail[2].startswith("factorization = coupled system: ")
    assert tail[3] == tail[8] == "solves = 3"
    assert all(float(tail[i].partition(" = ")[2]) <= 1e-10 for i in (4, 9))


# ---------------------------------------------------------------------------
# sweep subcommand
# ---------------------------------------------------------------------------


def test_sweep_writes_pairwise_distances(tmp_path):
    out = tmp_path / "o"
    code = _cli("sweep", out, "benchmark=locking", "nx=2", "dt=1e-4", "T=2e-4",
                "c0_list=1e-2,1e-4")
    assert code == 0
    header, rows = _read_csv(out / "sweep.csv")
    assert header == ["c0_a", "c0_b", "dist_u", "dist_eta", "dist_xi"]
    assert len(rows) == 1
    assert float(rows[0][0]) == pytest.approx(1e-2)
    assert float(rows[0][1]) == pytest.approx(1e-4)
    assert all(float(c) > 0 for c in rows[0][2:])
    log = (out / "run.log").read_text()
    assert "c0 values = 0.01,0.0001" in log
    # Each member's own factorization, solves and residuals, in the lines
    # of a run's log; locking's zero p0 is not projected.
    tail = log.splitlines()[log.splitlines().index("c0 values = 0.01,0.0001") + 1:]
    assert [line.partition(" = ")[0] for line in tail] == [
        "member c0", "factorization", "solves", "max solver residual",
        "member c0", "factorization", "solves", "max solver residual",
    ]
    assert tail[0] == "member c0 = 0.01" and tail[4] == "member c0 = 0.0001"
    assert tail[1].startswith("factorization = coupled system: ")
    assert tail[2] == tail[6] == "solves = 2"


def test_sweep_tolerance_bounds_every_member_solve(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(porofem.solver, "RESIDUAL_GATE", 1e-18)
    code = _cli("sweep", tmp_path / "o", "benchmark=locking", "nx=2", "c0_list=1,0.1", "T=2e-4")
    assert code == 1
    err = capsys.readouterr().err
    assert "error: coupled step to t=0.0001: linear solve residual" in err


# ---------------------------------------------------------------------------
# benchmark workloads
# ---------------------------------------------------------------------------


def _load_workloads():
    """perfbench/workloads.py, loaded by path and unchanged."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


PERFBENCH_WORKLOADS = _load_workloads()
WORKLOADS = PERFBENCH_WORKLOADS.WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_arguments_are_read_by_their_command(tmp_path, name):
    # A key table edit that refused a workload's key would fail that
    # benchmark run with exit 2; this resolves each seed's arguments, as
    # the benchmark passes them, without solving or writing anything.  The
    # workload's expected snapshot files follow from its step count.
    workload = WORKLOADS[name]
    for seed in (1, 2, 3):
        args = _build_parser().parse_args(workload.argv(seed) + ["--out", str(tmp_path / "o")])
        assert _resolve(_load_config(args), args.command).scheme.n_steps == workload.n_steps
    assert not list(tmp_path.iterdir())


def test_decoupled_pulse_check_reads_the_amplification_line(tmp_path):
    # The benchmark's decoupled-pulse check parses the first token of the
    # amplification line; the estimate's residual has a line of its own.
    out = tmp_path / "o"
    assert _cli("run", out, "benchmark=barry_mercer", "nx=4", "theta=0", "T=0.03",
                "vtk=off") == 0
    log = PERFBENCH_WORKLOADS._read_log(out / "run.log")
    WORKLOADS["decoupled-pulse"].physics({"log": log})
    assert re.fullmatch(r"\d\.\de[-+]\d\d after \d+ applications",
                        log["decoupled amplification residual"])


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    """The environment of a child that imports porofem from the same place
    this process did."""
    src = str(Path(porofem.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}


def test_module_entry_point(tmp_path):
    out = tmp_path / "o"
    proc = subprocess.run(
        [
            sys.executable, "-m", "porofem", "run",
            "--set", "benchmark=locking",
            "--set", "nx=2",
            "--set", "T=0",
            "--out", str(out),
        ],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "run.log").exists()


def test_warnings_print_as_one_line_without_source(tmp_path):
    proc = subprocess.run(
        [
            sys.executable, "-m", "porofem", "run",
            "--set", "benchmark=polynomial",
            "--set", "nx=2",
            "--set", "dt=1e-3",
            "--set", "T=2e-3",
            "--set", "theta=0",
            "--set", "vtk=off",
            "--out", str(tmp_path / "o"),
        ],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert lines and all(line.startswith("warning: ") for line in lines)
    assert any("amplifies errors" in line for line in lines)


def test_every_call_of_main_prints_its_warnings(tmp_path):
    # In one fresh process: a second call of main prints what the first did,
    # and each member of a sweep prints its own advisory.
    script = """
import sys
from porofem.cli import main
run = ["run", "--set", "benchmark=polynomial", "--set", "nx=4", "--set", "theta=0"]
for out in ("a", "b"):
    assert main(run + ["--out", out]) == 0
    print("--", file=sys.stderr)
assert main(["sweep", "--set", "benchmark=polynomial", "--set", "theta=0", "--set", "nx=2",
             "--set", "T=2e-3", "--set", "c0_list=0,0", "--out", "s"]) == 0
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    first, second, sweep = proc.stderr.split("--\n")
    assert first == second
    assert first.startswith("warning: decoupled scheme amplifies errors") and first.count("\n") == 1
    warned = sweep.splitlines()
    assert len(warned) == 2 and all("amplifies errors" in line for line in warned)
    logs = [(tmp_path / out / "run.log").read_text().splitlines() for out in ("a", "b")]
    assert logs[0].index("out = a") == logs[1].index("out = b")
    assert [line for line in logs[0] if line != "out = a"] == [
        line for line in logs[1] if line != "out = b"
    ]
    assert logs[0][-1] == "warning = " + first[len("warning: "):-1]
