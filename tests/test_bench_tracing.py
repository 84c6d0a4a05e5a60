"""The benchmark's tracer still covers the package it wraps.

`bench/tracing.py` wraps raysep's public functions by name, so renaming one
breaks the benchmark.  This runs the tracer, unedited, around the benchmark's
`smoke` scenario and, with the benchmark's own self-check, around the seed-0
scenarios of each measured workload.
"""

from pathlib import Path

import pytest

import raysep.separation
import raysep.serialize
import raysep.structure

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import workloads
    return tracing, workloads


def test_tracer_covers_the_smoke_scenario(bench):
    tracing, workloads = bench
    (scenario,) = workloads.WORKLOADS["smoke"]
    spec = scenario.spec()
    tracer = tracing.Tracer()
    with tracer.installed():
        setup = raysep.structure.structural_setup(
            spec, raysep.structure.Rect(*scenario.box), scenario.resolution)
        report = raysep.separation.separation_report(
            spec, setup, scenario.period, resolution=scenario.region_resolution)
        raysep.serialize.dumps(raysep.serialize.report_to_json(report))
    assert tracer.calls("rays.trace_ray") > 0
    metrics = tracer.metrics()
    assert metrics["structure.validate_calls"] > 0
    # the p1-family workload's tracer self-check needs both
    assert metrics["structure.choose_delta_s"] > 0
    assert metrics["curves.argument_principle_calls"] > 0
    # the smoke entry of the benchmark's self-check needs landing_point calls,
    # and the tracer reads each one's status: every ray lands
    assert metrics["rays.landing_point_calls"] > 0
    assert metrics["rays.landed_share"] == 1.0
    assert workloads.check(scenario, setup, report, []) == []


@pytest.mark.parametrize("workload", ["p1-family", "p4-rays", "p2-regions"])
def test_tracer_self_check_of_each_workload(bench, workload):
    # every layer is called, every metric the workload exercises is nonzero,
    # and every scenario passes the benchmark's checks
    tracing, workloads = bench
    import harness
    tracer = tracing.Tracer()
    outcomes = harness.run_pass(workloads.scenarios(workload, 0), tracer)
    assert [o.problems for o in outcomes] == [[] for _ in outcomes]
    metrics = tracer.metrics()
    assert [m for m in harness.EXERCISED[workload] if not metrics[m]] == []
    assert [layer for layer, n in tracer.layer_calls().items() if n == 0] == []
