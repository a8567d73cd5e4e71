"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Checks that tracing does not change porofem's outputs, that the tracer
puts every patched name back, that self times are computed as span minus
children, and that a seed never used to tune the benchmark still
passes every workload's output check.  Exits non-zero on the first failure.
About a minute on two cores.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import child
from spans import LAYER_TARGETS, Tracer, snapshot
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".perfbench_work" / "selftest"
UNSEEN_SEED = 90417
SMALL_CASE = ["run", "--set", "benchmark=barry_mercer", "--set", "nx=4", "--set", "theta=0", "--set", "T=0.05"]


def test_tracing_keeps_outputs_identical() -> None:
    out = WORK / "small"
    outputs = []
    for trace in (False, True):
        shutil.rmtree(out, ignore_errors=True)
        record = child.invoke(SMALL_CASE + ["--out", str(out)], trace)
        assert record["exit_code"] == 0, record["error"]
        outputs.append({name: (out / name).read_bytes() for name in ("diagnostics.csv", "run.log")})
    assert outputs[0] == outputs[1], "traced run wrote different diagnostics.csv or run.log"
    assert record["layers"]["solver.solve_calls"] > 0
    shutil.rmtree(out, ignore_errors=True)


def test_wrappers_are_restored() -> None:
    child.import_cli()
    before = snapshot(LAYER_TARGETS)
    tracer = Tracer()
    tracer.patch(LAYER_TARGETS)
    assert any(before[key] is not now for key, now in snapshot(LAYER_TARGETS).items())
    import numpy as np
    import porofem.stepper

    try:
        porofem.stepper.factorize(np.zeros((2, 3)))
    except ValueError:
        pass
    else:
        raise AssertionError("factorize accepted a non-square matrix")
    tracer.restore()
    assert tracer.spans[-1][4] == {"raised": "ValueError"}
    after = snapshot(LAYER_TARGETS)
    assert all(before[key] is after[key] for key in before), "a wrapped name was not restored"

    child.invoke(SMALL_CASE + ["--out", str(WORK / "restore")], True)
    after = snapshot(LAYER_TARGETS)
    assert all(before[key] is after[key] for key in before), "invoke() left porofem patched"
    shutil.rmtree(WORK / "restore", ignore_errors=True)


def test_self_time_is_span_minus_children() -> None:
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.begin("a")  # t = 0
    inner = tracer.begin("b")  # t = 1
    tracer.end(inner)  # t = 2
    again = tracer.begin("a")  # t = 3, nested under the outer "a"
    tracer.end(again)  # t = 4
    tracer.end(outer)  # t = 5
    assert tracer.durations() == [5.0, 1.0, 1.0]
    assert tracer.self_times() == [3.0, 1.0, 1.0]
    assert tracer.total("a") == 5.0 and tracer.count("a") == 1
    assert tracer.self_total("a") == 4.0


def test_unseen_seed_passes_every_check() -> None:
    runs = [(name, "0") for name in WORKLOADS] + [("sweep-storage", "1")]
    for name, trace in runs:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(UNSEEN_SEED)]
        cmd += ["--seconds", "1", "--trace", trace]
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, f"{name} trace={trace}: {proc.stdout}"


def main() -> int:
    os.chdir(HERE.parent)
    WORK.mkdir(parents=True, exist_ok=True)
    tests = [
        test_self_time_is_span_minus_children,
        test_wrappers_are_restored,
        test_tracing_keeps_outputs_identical,
        test_unseen_seed_passes_every_check,
    ]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
