"""Tests of the benchmark's own arithmetic and tracing bookkeeping.

    python3 -m pytest perfbench

They need neither numpy nor the vanvleck package.
"""

from __future__ import annotations

import dataclasses
import json
import math
import statistics
import time
import types
from pathlib import Path
from typing import Callable

import pytest

from measure import (DIGITS_CAP, covered_length, digits, percentile,
                     self_times, stratified, tail_percentile,
                     timing_summary)
from speed import REFERENCE_KERNEL_S, SpeedProbe, reference_seconds
from tracing import LAYER_MOVES, METRIC_SOURCES, Tracer


def test_digits_caps_exact_and_tiny_errors():
    assert digits(0.0) == DIGITS_CAP
    assert digits(1e-20) == DIGITS_CAP
    assert digits(1e-3) == pytest.approx(3.0)
    assert digits(2.5e-9) == pytest.approx(-math.log10(2.5e-9))
    # roundoff-level changes stay within a tenth of a digit's share
    assert abs(digits(3e-15) - digits(5e-15)) < 0.25
    with pytest.raises(ValueError):
        digits(float("nan"))


def test_stratified_statistics_average_over_kinds():
    # three kinds of item with different costs; the run reached one more
    # item of the first kind, which must not shift the figures
    pairs = [(0, 1.0), (0, 1.2), (0, 1.1), (0, 1.5), (1, 2.0), (1, 2.2),
             (1, 2.1), (2, 9.0), (2, 9.4), (2, 9.2)]
    assert stratified(pairs) == pytest.approx((1.15 + 2.1 + 9.2) / 3)
    assert stratified(pairs, statistics.fmean) == pytest.approx(
        (1.2 + 2.1 + 9.2) / 3)


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length((0.0, 10.0), []) == 0.0
    assert covered_length((0.0, 10.0), [(1.0, 4.0), (3.0, 6.0)]) == 5.0
    assert covered_length((0.0, 10.0), [(-2.0, 1.0), (9.0, 12.0)]) == 2.0
    assert covered_length((0.0, 10.0), [(11.0, 12.0)]) == 0.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0.0, 10.0, None),   # root
        (1.0, 4.0, 0),       # child
        (2.0, 3.0, 1),       # grandchild: covered by the child already
        (5.0, 7.0, 0),       # second child
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50.0
    assert tail_percentile(40) == 75.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(1000) == 99.0


def test_timing_summary_reports_count_and_supported_tail():
    small = timing_summary([3.0, 1.0, 2.0])
    assert small == {"p50": 2.0, "samples": 3}
    values = [float(i) for i in range(1, 101)]
    summary = timing_summary(values)
    assert summary["samples"] == 100
    assert summary["p50"] == 50.5
    assert summary["p90"] == percentile(values, 90.0) == 90.0


def test_reference_seconds_removes_the_probe_and_scales_by_speed():
    # a 10 s section on a CPU at half the reference speed, whose probe
    # took 0.1 s of it, would have taken 4.95 s at the reference speed
    slow = 2.0 * REFERENCE_KERNEL_S
    assert reference_seconds(10.0, [slow] * 50, [slow, slow]) == pytest.approx(4.95)
    # with no sample inside, the kernels before and after set the speed
    assert reference_seconds(0.03, [], [REFERENCE_KERNEL_S] * 2) == pytest.approx(0.03)


def test_speed_probe_samples_inside_and_around_the_block():
    with SpeedProbe() as probe:
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    assert len(probe.outside) == 2
    assert len(probe.inside) >= 2
    assert probe.wall >= 0.35
    assert probe.seconds() > 0.0


class _Clock:
    """A clock that advances one unit per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


@dataclasses.dataclass(frozen=True)
class _Model:
    potential_grad: Callable
    potential_hess: Callable
    label: str = "fake"


def test_stages_and_runs_counted_at_the_callback_boundary():
    tracer = Tracer(clock=_Clock())
    model = tracer.instrument_model(_Model(lambda x, t: 0.0, lambda x, t: 0.0))
    assert tracer.instrument_model(model) is model
    index = tracer.open("dynamics.solve_bvp")
    # two RK4 runs over [0, 1]; the second step starts 1 ulp before the
    # first step's end, as linspace and t_k + h may disagree
    for _ in range(2):
        for t in (0.0, 0.5, 0.5, 1.0, 1.0 - 1e-16, 1.5, 1.5, 2.0):
            model.potential_hess(None, t)
            model.potential_grad(None, t)
    tracer.close(index)
    gy = tracer.open("gelfand_yaglom.direct")
    model.potential_hess(None, 0.0)    # an Omega^2 evaluation, not a stage
    tracer.close(gy)
    span = tracer.spans[index]
    assert (span.stages, span.var_stages, span.runs) == (16, 16, 2)
    assert tracer.spans[gy].var_stages == 0
    assert tracer.spans[gy].callback_calls == 1


def test_layer_self_time_excludes_children_and_callbacks():
    tracer = Tracer(clock=_Clock())
    model = tracer.instrument_model(_Model(lambda x, t: 0.0, lambda x, t: 0.0))
    root = tracer.open("item")                  # t = 1
    bvp = tracer.open("dynamics.solve_bvp")     # t = 2
    model.potential_grad(None, 0.0)             # reads 3, 4: 1 unit callback
    inner = tracer.open("hessian.jacobi")       # t = 5
    tracer.close(inner)                         # t = 6
    tracer.close(bvp)                           # t = 7
    tracer.close(root)                          # t = 8
    values = tracer.layer_metrics(1, {name: 0.0 for name in (
        "cli.report_bytes", "trace.overhead_s", "trace.overhead_frac")})
    # solve_bvp lasts 5 units, of which 1 in a callback and 1 in a child
    assert values["dynamics.self_s"] == 3.0
    assert values["hessian.jacobi_s"] == 1.0
    assert values["models.callback_s"] == 1.0
    assert values["dynamics.rk4_stages"] == 1.0


def _fake_package():
    def solve_bvp(*args, **kwargs):
        return "path"

    dynamics = types.SimpleNamespace(solve_bvp=solve_bvp)
    hessian = types.SimpleNamespace(solve_bvp=solve_bvp)   # from .dynamics import
    gelfand_yaglom = types.SimpleNamespace()               # no expm any more
    return {"vanvleck.dynamics": dynamics, "vanvleck.hessian": hessian,
            "vanvleck.gelfand_yaglom": gelfand_yaglom}


def test_missing_names_become_absent_metrics_with_notes():
    modules = _fake_package()
    tracer = Tracer(clock=_Clock())
    tracer.install(modules)
    assert "gelfand_yaglom.expm_calls" in tracer.absent
    assert "dynamics.bvp_solves" not in tracer.absent
    assert any("vanvleck.gelfand_yaglom.expm" in note for note in tracer.notes)
    # every use site is wrapped, not only the defining module
    assert modules["vanvleck.hessian"].solve_bvp is modules["vanvleck.dynamics"].solve_bvp
    root = tracer.open("item")
    assert modules["vanvleck.hessian"].solve_bvp() == "path"
    tracer.close(root)
    values = tracer.layer_metrics(1, {"cli.report_bytes": 0.0,
                                      "trace.overhead_s": 0.0,
                                      "trace.overhead_frac": 0.0})
    assert values["dynamics.bvp_solves"] == 1.0
    assert values["gelfand_yaglom.expm_calls"] == 0.0
    assert set(values) == set(LAYER_MOVES)


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(LAYER_MOVES)
    assert set(METRIC_SOURCES) <= set(LAYER_MOVES)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "items_per_s", "item_s_p50", "ok_frac", "accuracy_digits",
        "agreement_digits", "peak_rss_mb"}
