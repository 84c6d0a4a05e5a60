"""The benchmark's tracer still covers the package it wraps.

`bench/tracing.py` wraps raysep's public functions by name, so renaming one
breaks the benchmark.  This runs the tracer, unedited, around the benchmark's
`smoke` scenario.
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
    assert workloads.check(scenario, setup, report, []) == []
