"""Open defects of ROADMAP.md, one row each, as strict expected failures.

Each row gives the input, what it gives today (`today`) and what the
theorem or the README exit-code contract requires.  A row that reproduces
its documented symptom raises `Reproduces`, the one exception its xfail
marker accepts.  When the program is fixed the row passes, and the strict
marker turns that into a failure until the marker is removed.  When the
symptom changes to anything else, the row fails with an AssertionError,
so a changed defect does not go unseen.  A row must never be loosened to
pass: fix the program instead.
"""

import math

import numpy as np
import pytest

from raysep.cli import EXIT_INCOMPLETE, main
from raysep.curves import ParamCurve, argument_principle_count, min_segment_distance
from raysep.maps import exp_map, parse_map
from raysep.rays import LANDING_TOL, Address, landing_point, trace_ray
from raysep.separation import pair_polyline, separation_report
from raysep.structure import Rect, structural_setup


class Reproduces(Exception):
    """The row gave its documented symptom."""


def known_defect(item: int):
    return pytest.mark.xfail(strict=True, raises=Reproduces, reason=f"ROADMAP item {item}")


def check(got, today, fixed: bool) -> None:
    """Pass when fixed; else raise Reproduces if `got` is today's symptom."""
    if fixed:
        return
    assert got == today, f"the symptom changed: got {got!r}, documented {today!r}"
    raise Reproduces(repr(got))


@pytest.mark.parametrize("text, today", [
    ("exp(0.6,0.5)", EXIT_INCOMPLETE),
    ("exp(0.8)", EXIT_INCOMPLETE),
    ("exp(0.375)", EXIT_INCOMPLETE),
    ("exp(0.45,0.1)", EXIT_INCOMPLETE),
    ("exp(0.5,0.2)", EXIT_INCOMPLETE),
    ("exp(0.3679)", EXIT_INCOMPLETE),
    pytest.param("exp(1.5625,1.5)", 0, marks=known_defect(1)),
])
def test_ray_through_the_singular_value_is_incomplete(text, today, capsys):
    # 1 + ln a + b > 0: b escapes along the real axis, on the fixed ray
    # there, which is then broken, not landed.  exp(1.5625,1.5)'s cut leaves
    # the disk at angle pi + 0.105, so that ray's anchor sits 0.105 above the
    # real axis, and its walk passes b 1.7e-3 away
    code = main(["verify", "--map", text, "--period", "1", "--bbox=-4,10,-12,12"])
    capsys.readouterr()
    check(code, today, code == EXIT_INCOMPLETE)


@pytest.mark.parametrize("n_per_side, today", [
    pytest.param(64, 69, marks=known_defect(2)),
    pytest.param(256, 113, marks=known_defect(2)),
    (1024, 129),
])
def test_count_does_not_depend_on_the_starting_density(n_per_side, today):
    # a dense winding count gives 129 zeros of f^2(z) - z in the box
    contour = ParamCurve.rectangle(-9, 3, -13, 13, n_per_side=n_per_side)
    count = argument_principle_count(exp_map(-5), contour, "fixed_points", 2)
    check(count, today, count == 129)


@known_defect(3)
def test_period_three_without_a_census_is_incomplete():
    # f^3(z) = z has of the order of e^9000 solutions in the box, so no
    # census of the records can exist there
    spec = exp_map(-5)
    report = separation_report(spec, structural_setup(spec, Rect(-9, 7.5, -13, 13), 0.12), 3)
    got = ([v.verdict for v in report.verdicts], len(report.records), report.incomplete)
    check(got, (["exactly_one_interior"], 161, []), bool(report.incomplete))


@known_defect(6)
def test_pair_curve_follows_its_rays():
    # the |0,1 / |1,0 polyline runs a straight chord from its far anchor to
    # the landing point; each ray, as one pullback s0 of the horizontal line
    # at the height of band s1, strays from it inside the box
    spec = exp_map(-5)
    setup = structural_setup(spec, Rect(-9, 7.5, -13, 13), 0.12)
    report = separation_report(spec, setup, 2, resolution=0.25)
    (pair,) = [p for p in report.graph.pairs
               if sorted(str(r.address) for r in p.rays) == ["|0,1", "|1,0"]]
    box = setup.bbox
    polyline = pair_polyline(pair, box.x1 + 3.0 * box.diagonal)
    x = np.geomspace(10.0, 1e6, 2001)
    gap = 0.0
    for ray in pair.rays:
        s0, s1 = (s.j for s in ray.address.period)
        w = x + 1j * (setup.branch_context.cut.phi_inf + 2.0 * math.pi * s1 - math.pi)
        z = setup.branch_context.pull_back(w, s0)
        z = z[(z.real >= box.x0) & (z.real <= box.x1) & (z.imag >= box.y0) & (z.imag <= box.y1)]
        gap = max(gap, float(min_segment_distance(z, polyline[:-1], polyline[1:]).max()))
    check(f"{gap:.2f}", "0.88", gap <= 0.25)


@known_defect(10)
def test_period_doubling_parabolic_cycle():
    # -1 is a fixed point of f^2 with multiplier 1, multiplicity 3 and two
    # petals; each of the two regions of the pair |0,1 / |1,0 holds one
    # virtual point
    spec = parse_map("exp(-e)")
    report = separation_report(spec, structural_setup(spec, Rect(-6, 6, -10, 10), 0.1), 2)
    verdicts = [v.verdict for v in report.verdicts]
    at_minus_one = [r for r in report.records if abs(r.location + 1.0) < 1.5e-3]
    got = (verdicts, len(at_minus_one), sorted(report.incomplete))
    today = (["INCOMPLETE(interior=0, virtual=8)"], 7,
             ["ray |0,1 unresolved", "ray |1,0 unresolved"])
    fixed = (verdicts == ["exactly_one_virtual"] * 2 and len(at_minus_one) == 1
             and at_minus_one[0].multiplicity == 3)
    check(got, today, fixed)


def test_parabolic_ray_lands_on_its_point():
    spec = parse_map("exp(1/e)")
    setup = structural_setup(spec, Rect(-4, 8, -12, 12), 0.1)
    ray = landing_point(trace_ray(setup, [Address.constant(0)])[0])
    gap = abs(ray.landing - 1.0)
    check(f"{gap:.2e}", "6.59e-09", gap < LANDING_TOL)
