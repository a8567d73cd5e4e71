"""Every layer the benchmark tracer (perfbench/spans.py) names is reached,
unless the package retired all of its targets, and every step is timed
where the benchmark reads it.

A traced benchmark run reports a layer that no call reaches as zero, which
reads as "free" rather than "not measured".  This test takes spans.py as
test_tracer_targets loads it (by path, unchanged), wraps its layer targets
and runs three small CLI commands that between them take every path the
benchmark workloads take: a coupled run with exact errors, a decoupled run
with pressure data, and a c0 sweep.
"""

from __future__ import annotations

import porofem.cli

from test_tracer_targets import STALE_LAYER_TARGETS, spans


def test_every_layer_span_is_recorded(tmp_path):
    commands = [
        ["run", "--set", "benchmark=test1", "--set", "nx=2", "--set", "T=2e-5"],
        ["run", "--set", "benchmark=barry_mercer", "--set", "theta=0", "--set", "nx=2"],
        ["sweep", "--set", "benchmark=locking", "--set", "nx=2", "--set", "c0_list=1e-2,1e-4"],
    ]
    tracer = spans.Tracer()
    try:
        tracer.patch(spans.LAYER_TARGETS)
        for i, argv in enumerate(commands):
            assert porofem.cli.main(argv + ["--out", str(tmp_path / str(i))]) == 0
    finally:
        tracer.restore()
    # A layer all of whose targets are retired (STALE_LAYER_TARGETS, pinned
    # by test_tracer_targets) reads zero by design; every other is reached.
    expected = {
        name for owner, attr, name in spans.LAYER_TARGETS
        if f"{owner}.{attr}" not in STALE_LAYER_TARGETS
    }
    recorded = {span[0] for span in tracer.spans}
    assert sorted(expected - recorded) == []


def test_each_step_is_a_direct_child_of_its_run(tmp_path):
    # perfbench/child.py measures setup_s and step_ms from the stepper.step
    # spans that are direct children of each outermost stepper.run span; a
    # step called through a helper would drop its interval without failing
    # the benchmark.
    commands = [
        ["run", "--set", "benchmark=test1", "--set", "nx=2", "--set", "T=3e-5"],
        ["sweep", "--set", "benchmark=locking", "--set", "nx=2", "--set", "c0_list=1e-2,1e-4"],
    ]
    tracer = spans.Tracer()
    try:
        assert tracer.patch(spans.STEP_TARGETS) == []
        for i, argv in enumerate(commands):
            assert porofem.cli.main(argv + ["--out", str(tmp_path / str(i))]) == 0
    finally:
        tracer.restore()
    steps = [
        sum(span[0] == "stepper.step" and span[3] == index for span in tracer.spans)
        for index in tracer.outermost("stepper.run")
    ]
    assert steps == [3, 10, 10]
    assert sum(span[0] == "stepper.step" for span in tracer.spans) == 23
