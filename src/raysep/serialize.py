"""JSON/CSV serialization and the SVG overlay writer.

All emitters are deterministic: sorted keys, fixed iteration orders, no
wall-clock content, floats via repr (shortest round-trip form).  Every JSON
document the CLI writes, to a file, stdout or stderr, goes through `dumps`:
one line of sorted-key JSON.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from .curves import ParamCurve
from .fixedpoints import FixedPointRecord
from .rays import Ray
from .separation import CountingContour, SeparationReport
from .structure import StructuralSetup


def _c(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def curve_to_json(curve: ParamCurve) -> dict:
    return {
        "closed": curve.closed,
        "samples": [[float(t), float(z.real), float(z.imag)]
                    for t, z in zip(curve.t, curve.z)],
    }


def curve_to_csv(curve: ParamCurve) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "re", "im"])
    for t, z in zip(curve.t, curve.z):
        writer.writerow([repr(float(t)), repr(float(z.real)), repr(float(z.imag))])
    return buf.getvalue()


def ray_to_json(ray: Ray) -> dict:
    status: dict = {"kind": ray.status.kind}
    if ray.status.point is not None:
        status["point"] = _c(ray.status.point)
    if ray.status.first_bad_t is not None:
        status["first_bad_t"] = float(ray.status.first_bad_t)
    if ray.status.approach_direction is not None:
        status["approach_direction"] = _c(ray.status.approach_direction)
    return {
        "address": str(ray.address),
        "period": ray.period,
        "status": status,
        "samples": [[float(t), float(z.real), float(z.imag)]
                    for t, z in zip(ray.t, ray.z)],
    }


def ray_to_csv(ray: Ray) -> str:
    return curve_to_csv(ParamCurve(ray.t[::-1], ray.z[::-1]))


def record_to_json(rec: FixedPointRecord) -> dict:
    return {
        "location": _c(rec.location),
        "period": rec.period,
        "multiplier": _c(rec.multiplier),
        "classification": rec.classification,
        "multiplicity": rec.multiplicity,
        "incident_ray_addresses": sorted(str(a) for a in rec.incident_ray_addresses),
    }


def records_to_csv(records: list[FixedPointRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["re", "im", "period", "abs_multiplier", "class", "multiplicity"])
    for rec in records:
        writer.writerow([repr(float(rec.location.real)),
                         repr(float(rec.location.imag)),
                         rec.period,
                         repr(float(abs(rec.multiplier))),
                         rec.classification,
                         rec.multiplicity])
    return buf.getvalue()


def setup_to_json(setup: StructuralSetup) -> dict:
    # the disk's "center", "touches_box", a domain's "alpha" and "tract", and
    # "order_key" are constants of the construction, written to keep the format stable
    return {
        "map": setup.spec.to_json(),
        "disk": {"center": [0.0, 0.0], "radius": setup.disk.radius},
        "delta": curve_to_json(setup.delta),
        "bbox": list(setup.bbox.as_tuple()),
        "resolution": setup.resolution,
        "expansion_radius": setup.expansion_radius,
        "tracts": [
            {"alpha": t.alpha, "touches_box": True,
             "anchor": _c(t.anchor), "boundary": curve_to_json(t.boundary)}
            for t in setup.tracts
        ],
        "domains": [
            {"band": d.label.j, "alpha": 0, "tract": 0,
             "order_key": d.label.j, "anchor": _c(d.anchor)}
            for d in sorted(setup.domains, key=lambda d: d.label.j)
        ],
    }


def contour_to_json(contour: CountingContour, measured: int) -> dict:
    return {
        "domains": [lb.j for lb in contour.domains],
        "radius": contour.radius,
        "expected_count": contour.expected_count,
        "pieces": [{"tag": tag, "curve": curve_to_json(c)}
                   for tag, c in contour.pieces],
        "measured_count": measured,
        "match": measured == contour.expected_count,
    }


def report_to_json(report: SeparationReport) -> dict:
    return {
        "period": report.period,
        "incomplete": sorted(report.incomplete),
        "has_violation": report.has_violation,
        "global_counts": (list(report.global_counts)
                          if report.global_counts is not None else None),
        "n_rays": len(report.graph.rays),
        "n_pairs": len(report.graph.pairs),
        "landing_points": [_c(z) for z in report.graph.landing_points],
        "regions": [
            {
                "id": v.region_id,
                "verdict": v.verdict,
                "interior_points": [_c(z) for z in v.interior],
                "virtual_points": [_c(z) for z in v.virtual],
                "boundary_landing_points": [_c(z) for z in sorted(
                    v.boundary_landings, key=lambda z: (z.real, z.imag))],
            }
            for v in sorted(report.verdicts, key=lambda v: v.region_id)
        ],
        "records": [record_to_json(r) for r in sorted(
            report.records, key=lambda r: (r.location.real, r.location.imag))],
    }


def dumps(data: dict) -> str:
    """`data` as one line of sorted-key JSON, ending in a newline.

    Without `indent`, CPython's `json` writes through its C encoder, about
    three times faster than the pure-Python one that any indent selects.
    `python -m json.tool --indent 1 --sort-keys` reprints the output with
    one key or list item per line.
    """
    return json.dumps(data, sort_keys=True) + "\n"


# -- SVG ---------------------------------------------------------------------------


_CLASS_GLYPHS = {"attracting": "circle", "repelling": "cross",
                 "parabolic": "diamond", "irrationally_indifferent": "square"}
_PIECE_COLORS = {"r_alpha": "#2a9d2a", "Gamma_alpha:delta_plus": "#d62728",
                 "Gamma_alpha:delta_minus": "#d62728",
                 "Gamma_alpha:gamma": "#1f77b4"}
_REGION_COLORS = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
                  "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]


class SvgCanvas:
    """1200x1200 viewBox mapped onto the bounding box, curves as polylines."""

    def __init__(self, bbox):
        self.bbox = bbox
        self.elements: list[str] = []
        self.size = 1200.0

    def _xy(self, z: complex) -> tuple[float, float]:
        b = self.bbox
        x = (z.real - b.x0) / (b.x1 - b.x0) * self.size
        y = (b.y1 - z.imag) / (b.y1 - b.y0) * self.size
        return x, y

    def polyline(self, zs, color: str, width: float = 1.5, dash: str = ""):
        pts = []
        for z in zs:
            x, y = self._xy(complex(z))
            if -2e4 < x < 2e4 and -2e4 < y < 2e4:
                pts.append(f"{x:.2f},{y:.2f}")
        if len(pts) < 2:
            return
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        self.elements.append(
            f'<polyline points="{" ".join(pts)}" fill="none" '
            f'stroke="{color}" stroke-width="{width}"{extra}/>')

    def glyph(self, z: complex, kind: str, color: str = "#000000", r: float = 7.0):
        x, y = self._xy(z)
        if kind == "circle":
            self.elements.append(
                f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r:.1f}" fill="{color}"/>')
        elif kind == "cross":
            self.elements.append(
                f'<path d="M {x-r:.2f} {y-r:.2f} L {x+r:.2f} {y+r:.2f} '
                f'M {x-r:.2f} {y+r:.2f} L {x+r:.2f} {y-r:.2f}" '
                f'stroke="{color}" stroke-width="2.5" fill="none"/>')
        elif kind == "diamond":
            self.elements.append(
                f'<path d="M {x:.2f} {y-r:.2f} L {x+r:.2f} {y:.2f} '
                f'L {x:.2f} {y+r:.2f} L {x-r:.2f} {y:.2f} Z" fill="{color}"/>')
        else:
            self.elements.append(
                f'<rect x="{x-r:.2f}" y="{y-r:.2f}" width="{2*r:.1f}" '
                f'height="{2*r:.1f}" fill="{color}"/>')

    def circle_outline(self, radius: float, color: str):
        zs = radius * np.exp(1j * np.linspace(0, 2 * np.pi, 181))
        self.polyline(zs, color, width=1.0, dash="4 3")

    def render(self) -> str:
        body = "\n".join(self.elements)
        return (
            '<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="0 0 {self.size:.0f} {self.size:.0f}">\n'
            f'<rect width="{self.size:.0f}" height="{self.size:.0f}" fill="white"/>\n'
            f"{body}\n</svg>\n")


def svg_overlay(setup: StructuralSetup, report: SeparationReport | None = None,
                contour: CountingContour | None = None) -> str:
    canvas = SvgCanvas(setup.bbox)
    for tract in setup.tracts:
        canvas.polyline(tract.boundary.z, "#bbbbbb", 1.0)
    canvas.polyline(setup.delta.z, "#333333", 1.2, dash="6 4")
    canvas.circle_outline(setup.disk.radius, "#888888")
    if report is not None:
        region_of_ray = {}
        for reg in report.regions:
            for ray in reg.boundary_rays:
                region_of_ray[str(ray.address)] = reg.id
        for ray in report.graph.rays:
            idx = region_of_ray.get(str(ray.address), len(_REGION_COLORS) - 1)
            canvas.polyline(ray.z, _REGION_COLORS[idx % len(_REGION_COLORS)])
        for rec in report.records:
            canvas.glyph(rec.location, _CLASS_GLYPHS.get(rec.classification, "square"))
    if contour is not None:
        for tag, piece in contour.pieces:
            key = tag.split("(")[0]
            canvas.polyline(piece.z, _PIECE_COLORS.get(key, "#444444"), 2.0)
    return canvas.render()
