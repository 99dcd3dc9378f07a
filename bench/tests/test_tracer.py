"""The tracer's self times partition the traced time exactly.

Run with:  python3 -m pytest bench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import bicyclic as bc  # noqa: E402
import bicyclic.families  # noqa: E402

import run as bench_run  # noqa: E402
from tracer import LAYERS, Tracer, install, round_figures, uninstall  # noqa: E402
from workloads import Context  # noqa: E402
from workloads import families as families_workload  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_children_on_a_fake_clock():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.active = True

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        wrapped_leaf()
        wrapped_leaf()
        clock.now += 3.0

    def outer():
        clock.now += 5.0
        wrapped_middle()

    wrapped_leaf = tracer.wrap("element.invert", leaf)
    wrapped_middle = tracer.wrap("symset.transpose", middle)
    wrapped_outer = tracer.wrap("continuity.apply_shift", outer)
    wrapped_outer()
    assert tracer.self_time["element.invert"] == 4.0
    assert tracer.self_time["symset.transpose"] == 4.0
    assert tracer.self_time["continuity.apply_shift"] == 5.0
    assert tracer.covered == 13.0
    assert tracer.calls["element.invert"] == 2
    # hot leaf calls are folded under their parent span, other calls kept as spans
    assert [span[0] for span in tracer.spans] == ["continuity.apply_shift", "symset.transpose"]
    assert dict(tracer.folded) == {(1, "element.invert"): [2, 4.0]}


def test_install_rebinds_imported_names_and_uninstall_restores_them():
    original = bc.multiply
    tracer = Tracer()
    wrappers = install(tracer)
    try:
        assert bicyclic.families.multiply is not original
        assert bicyclic.families.multiply is bc.multiply is bc.element.multiply
        assert bicyclic.families.multiply.__wrapped__ is original
    finally:
        uninstall(wrappers)
    assert bicyclic.families.multiply is original and bc.multiply is original


def test_layer_self_times_and_bench_time_account_for_traced_wall():
    tracer = Tracer()
    wrappers = install(tracer)
    try:
        ops = [op for op in families_workload.build(3, 0, Context(root=BENCH.parent)) if op.kind != "verify_prop1"]
        ops = [op for op in ops if op.kind in ("closure", "census", "membership")][:30] + [
            op for op in ops if op.kind == "discrete_cell"
        ][1:2]
        module = SimpleNamespace(build=lambda seed, index, ctx: ops)
        run = bench_run.Run(module, 3, Context(root=BENCH.parent), tracer)
        run.rounds(seconds=0)
    finally:
        uninstall(wrappers)
    assert not run.check_failures and run.failed == 0
    figures = run.round_figures[0]
    wall = figures["trace.wall_s"]
    layer_self = sum(figures[f"{layer}.self_s"] for layer in LAYERS)
    assert abs(layer_self + figures["bench.self_s"] - wall) < 1e-9 * max(1.0, wall)
    assert 0.0 <= figures["bench.self_s"] < 0.2 * wall
    assert figures["families.closure.calls"] > 0 and figures["element.multiply.calls"] > 0
    assert figures["continuity.cells"] == 1


def test_round_figures_report_every_per_layer_metric():
    tracer = Tracer()
    before = tracer.snapshot()
    figures = round_figures(before, tracer.snapshot(), 0.0)
    for layer in LAYERS:
        assert f"{layer}.calls" in figures and f"{layer}.self_s" in figures
    assert figures["families.closure.distinct_ratio"] == 0.0
