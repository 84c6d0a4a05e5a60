"""Per-layer spans and counters, recorded from outside the package.

A `Tracer` wraps the public functions of each raysep module while it is
installed.  A module that imported a function by name holds its own binding
(`separation.trace_ray` is not `rays.trace_ray`), so every binding of a
wrapped function in every loaded raysep module is replaced, and all are put
back on exit.  Spans record name, start, end and parent; a layer's time is
the summed duration of its outermost spans, and self time is a span's
duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

import numpy as np

import raysep.curves
import raysep.fixedpoints
import raysep.maps
import raysep.rays
import raysep.separation
import raysep.serialize
import raysep.structure

LAYERS = ("structure", "rays", "maps", "fixedpoints", "curves", "separation",
          "serialize")

# (module, function) -> span name.  One name may cover several functions.
SPANS = {
    ("structure", "extract_tracts"): "structure.extract_tracts",
    ("structure", "choose_delta"): "structure.choose_delta",
    ("structure", "select_expansion_radius"): "structure.expansion_radius",
    ("structure", "validate_expansion_radius"): "structure.expansion_radius",
    ("rays", "fixed_rays"): "rays.fixed_rays",
    ("rays", "trace_ray"): "rays.trace_ray",
    ("rays", "landing_point"): "rays.landing_point",
    ("fixedpoints", "find_periodic_points"): "fixedpoints.find_periodic_points",
    ("fixedpoints", "petal_directions"): "fixedpoints.virtual_probe",
    ("fixedpoints", "probe_virtual_points"): "fixedpoints.virtual_probe",
    ("curves", "argument_principle_count"): "curves.argument_principle",
    ("separation", "separation_report"): "separation.separation_report",
    ("separation", "basic_regions"): "separation.basic_regions",
    ("separation", "build_ray_graph"): "separation.build_ray_graph",
    ("separation", "counting_contour"): "separation.counting_contour",
    ("separation", "global_count_check"): "separation.global_count_check",
    ("serialize", "report_to_json"): "serialize.report_to_json",
}

# Bindings whose calls get a span name of their own: the rays that
# separation traces one address at a time (inferred rays, and the
# adjacent-band rays of the completeness check).
BINDING_SPANS = {
    ("separation", "trace_ray"): "rays.inferred",
    ("separation", "landing_point"): "rays.inferred",
}


class TracingError(RuntimeError):
    """The tracer could not cover the calls it is meant to record."""


def _module(short: str):
    return sys.modules[f"raysep.{short}"]


def _lookup(owner, attr: str):
    try:
        return getattr(owner, attr)
    except AttributeError:
        raise TracingError(f"{owner.__name__}.{attr} to trace does not exist") from None


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "raysep" or name.startswith("raysep."))]


class Tracer:
    """Spans and counters of one traced pass; install with `installed()`."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    # -- recording ----------------------------------------------------------

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _span(self, fn, name: str, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def _counter(self, fn, on_call=None, on_result=None):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result
        return counted

    def _result_hooks(self) -> dict:
        def landed(ray):
            self._count("rays.landing_attempts")
            if ray.status.kind == "lands_at":
                self._count("rays.landed")
        return {
            ("structure", "validate_expansion_radius"):
                lambda _r: self._count("structure.validate_calls"),
            ("rays", "landing_point"): landed,
            ("fixedpoints", "find_periodic_points"):
                lambda recs: self._count("fixedpoints.records", len(recs)),
        }

    # -- installation ---------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every binding of the traced functions; restore them on exit."""
        restore: list[tuple[object, str, object]] = []
        try:
            self._install_functions(restore)
            self._install_counters(restore)
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def _install_functions(self, restore) -> None:
        hooks = self._result_hooks()
        modules = _package_modules()
        for (short, attr), name in SPANS.items():
            original = _lookup(_module(short), attr)
            patched = 0
            for mod in modules:
                binding = mod.__name__.rpartition(".")[2]
                for key, value in list(vars(mod).items()):
                    if value is not original:
                        continue
                    span_name = BINDING_SPANS.get((binding, key), name)
                    hook = hooks.get((short, attr)) if span_name == name else None
                    restore.append((mod, key, original))
                    setattr(mod, key, self._span(original, span_name, hook))
                    patched += 1
            if not patched:
                raise TracingError(f"raysep.{short}.{attr} has no binding to trace")
        for (binding, attr) in BINDING_SPANS:
            if not hasattr(getattr(_module(binding), attr), "__wrapped__"):
                raise TracingError(f"raysep.{binding}.{attr} was not traced")

    def _install_counters(self, restore) -> None:
        def pull_back(_ctx, w, *_a, **_k):
            self._count("maps.pull_back_calls")
            self._count("maps.pull_back_lanes", int(np.size(w)))

        def samples(curve):
            self._count("curves.refined_samples", len(curve))

        def report_bytes(text):
            self._count("serialize.report_bytes", len(text.encode()))

        counted = [
            (raysep.maps.BranchContext, "pull_back", pull_back, None),
            (raysep.maps.MapSpec, "evaluate",
             lambda *_a, **_k: self._count("maps.evaluate_calls"), None),
            (raysep.separation.RegionGeometry, "signature",
             lambda *_a, **_k: self._count("separation.probe_signatures"), None),
            (raysep.curves, "refine_for_argument", None, samples),
            (raysep.serialize, "dumps", None, report_bytes),
        ]
        for owner, attr, on_call, on_result in counted:
            original = _lookup(owner, attr)
            restore.append((owner, attr, original))
            setattr(owner, attr, self._counter(original, on_call, on_result))

    # -- derived metrics ------------------------------------------------------

    def _outermost_time(self, name: str) -> float:
        spans = self.spans
        total = 0.0
        for name_, start, end, parent in spans:
            if name_ != name:
                continue
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                total += end - start
        return total

    def _self_time(self, name: str) -> float:
        spans = self.spans
        total = 0.0
        for idx, (name_, start, end, _parent) in enumerate(spans):
            if name_ == name:
                children = sum(e - s for _n, s, e, p in spans if p == idx)
                total += (end - start) - children
        return total

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def layer_calls(self) -> dict[str, int]:
        """Spans plus counted calls per layer, for the zero-call self-check."""
        out = {layer: 0 for layer in LAYERS}
        for s in self.spans:
            out[s[0].partition(".")[0]] += 1
        for key, n in self.counts.items():
            out[key.partition(".")[0]] += n
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since construction."""
        c = self.counts.get
        t = self._outermost_time
        attempts = c("rays.landing_attempts", 0)
        return {
            "structure.extract_tracts_s": t("structure.extract_tracts"),
            "structure.choose_delta_s": t("structure.choose_delta"),
            "structure.expansion_radius_s": t("structure.expansion_radius"),
            "structure.validate_calls": c("structure.validate_calls", 0),
            "rays.fixed_rays_s": t("rays.fixed_rays"),
            "rays.trace_ray_calls": self.calls("rays.trace_ray"),
            "rays.trace_ray_s": t("rays.trace_ray"),
            "rays.landing_point_calls": self.calls("rays.landing_point"),
            "rays.landing_point_s": t("rays.landing_point"),
            "rays.landed_share": c("rays.landed", 0) / attempts if attempts else 0.0,
            "rays.inferred_calls": self.calls("rays.inferred"),
            "rays.inferred_s": t("rays.inferred"),
            "maps.pull_back_calls": c("maps.pull_back_calls", 0),
            "maps.pull_back_lanes": c("maps.pull_back_lanes", 0),
            "maps.evaluate_calls": c("maps.evaluate_calls", 0),
            "fixedpoints.find_periodic_points_s": t("fixedpoints.find_periodic_points"),
            "fixedpoints.records": c("fixedpoints.records", 0),
            "fixedpoints.virtual_probe_s": t("fixedpoints.virtual_probe"),
            "curves.argument_principle_calls": self.calls("curves.argument_principle"),
            "curves.argument_principle_s": t("curves.argument_principle"),
            "curves.refined_samples": c("curves.refined_samples", 0),
            "separation.basic_regions_s": t("separation.basic_regions"),
            "separation.probe_signatures": c("separation.probe_signatures", 0),
            "separation.counting_contour_s": t("separation.counting_contour"),
            "separation.global_count_check_s": t("separation.global_count_check"),
            "separation.build_ray_graph_s": t("separation.build_ray_graph"),
            "separation.self_s": self._self_time("separation.separation_report"),
            "serialize.report_to_json_s": t("serialize.report_to_json"),
            "serialize.report_bytes": c("serialize.report_bytes", 0),
        }
