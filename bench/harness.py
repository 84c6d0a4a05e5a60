"""Measurement loop, metrics and environment facts of the benchmark.

A run is a closed loop in one process, single-threaded: one untimed
warm-up scenario, then passes over the workload's scenarios, one after
another, until `--seconds` have elapsed.  Each end-to-end value is one pass
summed over the scenarios; the reported figure is the median over passes.
With `--trace 1` untraced and traced passes alternate, the traced ones give
the per-layer metrics, and the two must produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import raysep.separation
import raysep.serialize
import raysep.structure
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = {"verify_s": "s", "setup_s": "s", "report_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"_s": "s", "_share": "ratio", "_bytes": "B"}

# Stages of separation_report, ranked to name the workload's dominant layer.
# curves.argument_principle_s overlaps the two stages that call it.
REPORT_STAGES = ("rays.fixed_rays_s", "rays.inferred_s",
                 "fixedpoints.find_periodic_points_s", "fixedpoints.virtual_probe_s",
                 "curves.argument_principle_s", "separation.basic_regions_s",
                 "separation.build_ray_graph_s", "separation.counting_contour_s",
                 "separation.global_count_check_s", "separation.self_s")

# Metrics that must be nonzero in a traced run of each workload; a zero
# means a binding the workload's calls go through was not traced.
EXERCISED = {
    "p1-family": ("structure.extract_tracts_s", "structure.choose_delta_s",
                  "curves.argument_principle_calls", "curves.refined_samples",
                  "separation.counting_contour_s", "separation.global_count_check_s",
                  "fixedpoints.virtual_probe_s", "rays.inferred_calls"),
    "p4-rays": ("rays.fixed_rays_s", "rays.trace_ray_calls", "rays.landing_point_calls",
                "maps.pull_back_calls", "maps.pull_back_lanes", "fixedpoints.records",
                "separation.build_ray_graph_s"),
    "p2-regions": ("separation.basic_regions_s", "separation.probe_signatures",
                   "rays.inferred_calls", "rays.landing_point_calls"),
    "smoke": ("structure.extract_tracts_s", "rays.landing_point_calls",
              "separation.global_count_check_s"),
}


@dataclass
class Outcome:
    """One scenario of one pass."""

    scenario: workloads.Scenario
    setup_s: float = 0.0
    report_s: float = 0.0
    verify_s: float = 0.0
    digest: str = ""
    facts: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def run_scenario(sc: workloads.Scenario, tracer: tracing.Tracer | None = None) -> Outcome:
    """Set up, report and serialize one scenario, then check the output."""
    out = Outcome(sc)
    spec = sc.spec()
    traced = tracer.installed() if tracer is not None else contextlib.nullcontext()
    try:
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            with traced:
                t0 = time.perf_counter()
                setup = raysep.structure.structural_setup(
                    spec, raysep.structure.Rect(*sc.box), sc.resolution)
                t1 = time.perf_counter()
                report = raysep.separation.separation_report(
                    spec, setup, sc.period, resolution=sc.region_resolution)
                t2 = time.perf_counter()
                text = raysep.serialize.dumps(raysep.serialize.report_to_json(report))
                t3 = time.perf_counter()
        out.setup_s, out.report_s, out.verify_s = t1 - t0, t2 - t1, t3 - t0
        out.digest = hashlib.sha256(text.encode()).hexdigest()
        out.facts = {"period": sc.period, "domains": len(setup.domains),
                     "rays": len(report.graph.rays), "records": len(report.records),
                     "regions": len(report.regions)}
        out.problems = workloads.check(sc, setup, report, warned)
    except tracing.TracingError:
        raise
    except Exception as exc:   # a failed scenario must not abort the run
        out.problems = ["".join(traceback.format_exception_only(exc)).strip()]
    return out


def run_pass(scenarios, tracer=None) -> list[Outcome]:
    return [run_scenario(sc, tracer) for sc in scenarios]


def _median(values) -> float:
    return float(statistics.median(values))


def _summed(outcomes: list[Outcome], attr: str) -> float:
    return sum(getattr(o, attr) for o in outcomes)


def per_layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def environment() -> dict:
    """Machine and software facts recorded with every result."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError) as exc:    # the layout varies across numpy versions
        blas = {"error": repr(exc)}
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError) as exc:
            commit = f"unknown ({exc})"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": commit,
    }


def measure(workload: str, seed: int, seconds: float, traced: bool,
            out=print) -> dict:
    """Run the workload for `seconds` and return the result object."""
    out("env " + json.dumps(environment(), sort_keys=True))
    run_pass(workloads.scenarios("smoke", 0))          # untimed warm-up

    # Untraced runs draw fresh inputs per pass to average over the seed's
    # neighbourhood; traced runs repeat one input so that counts and
    # reports can be compared pass by pass.
    plain: list[list[Outcome]] = []
    layered: list[tuple[list[Outcome], tracing.Tracer]] = []
    start = time.perf_counter()
    while True:
        scenarios = workloads.scenarios(workload, seed, 0 if traced else len(plain))
        plain.append(run_pass(scenarios))
        if traced:
            tracer = tracing.Tracer()
            layered.append((run_pass(scenarios, tracer), tracer))
        if time.perf_counter() - start >= seconds:
            break

    passes = plain + [outcomes for outcomes, _ in layered]
    attempted = sum(len(p) for p in passes)
    failed = 0
    first: dict[workloads.Scenario, str] = {}    # inputs -> report digest
    for p in passes:
        for o in p:
            name = o.scenario.name
            expected = first.setdefault(o.scenario, o.digest)
            if o.problems:
                failed += 1
                out(f"FAIL {name}: " + "; ".join(o.problems[:5]))
            elif o.digest != expected:
                failed += 1
                out(f"FAIL {name}: report digest {o.digest[:16]} differs from "
                    f"{expected[:16]} of an earlier pass on the same inputs")
    for o in passes[0]:
        out("scenario " + json.dumps({"name": o.scenario.name, **o.facts,
                                      "digest": o.digest}))

    verify = [_summed(p, "verify_s") for p in plain]
    if not traced:
        metrics = {
            "verify_s": _median(verify),
            "setup_s": _median(_summed(p, "setup_s") for p in plain),
            "report_s": _median(_summed(p, "report_s") for p in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        units = END_TO_END
    else:
        metrics, failed_counts = _layer_metrics(workload, layered, out)
        failed += failed_counts
        traced_verify = _median(_summed(p, "verify_s") for p, _ in layered)
        metrics["trace.overhead_s"] = traced_verify - _median(verify)
        units = {name: per_layer_unit(name) for name in metrics}

    out(f"passes {len(plain)} untraced, {len(layered)} traced; verify_s per untraced "
        f"pass {[round(v, 4) for v in verify]}")
    out(f"failed_share {failed / attempted:.4f} ({failed} of {attempted} scenarios)")
    for name, value in metrics.items():
        out(f"metric {name} {value:.6g} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def _layer_metrics(workload: str, layered, out) -> tuple[dict, int]:
    """Medians of the traced passes' per-layer metrics, and failed scenarios.

    Counts must repeat exactly from pass to pass; a pass whose counts differ
    fails all its scenarios.
    """
    per_pass = [tracer.metrics() for _, tracer in layered]
    counts0 = {k: v for k, v in per_pass[0].items() if not k.endswith("_s")}
    failed = 0
    for (outcomes, _), m in zip(layered[1:], per_pass[1:]):
        diff = {k for k, v in counts0.items() if m[k] != v}
        if diff:
            out(f"FAIL traced pass counts differ from the first pass: {sorted(diff)}")
            failed += len(outcomes)

    calls = layered[0][1].layer_calls()
    silent = [f"layer {layer}" for layer, n in calls.items() if n == 0]
    silent += [name for name in EXERCISED[workload] if not per_pass[0][name]]
    if silent:
        raise tracing.TracingError(f"tracer self-check: no calls recorded for {silent}")

    metrics = {name: _median(m[name] for m in per_pass) if name.endswith("_s") else v
               for name, v in per_pass[0].items()}
    report_s = _median(_summed(p, "report_s") for p, _ in layered)
    top = sorted(REPORT_STAGES, key=metrics.get, reverse=True)[:3]
    out(f"dominant of report_s {report_s:.4g} s (traced median): " + ", ".join(
        f"{k} {metrics[k]:.4g} s ({metrics[k] / report_s:.0%})" for k in top))
    return metrics, failed


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except tracing.TracingError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0
