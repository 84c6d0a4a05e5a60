"""Offset maps (b != 0): curved cut geometry, honest hypothesis failures and
the theorem's invariants over the (a, b) family."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from raysep.errors import NotFullComplete
from raysep.maps import exp_map
from raysep.rays import Address, fixed_rays, landing_point, trace_ray
from raysep.separation import counting_contour, global_count_check, separation_report
from raysep.serialize import dumps, report_to_json
from raysep.structure import Rect, structural_setup, auto_disk

FAMILY_BOX = Rect(-4, 10, -12, 12)


@pytest.fixture(scope="module")
def setup_offset():
    # 0.5 e^z - 0.5: attracting fixed point at 0, repelling at about 1.2564
    return structural_setup(exp_map(0.5, -0.5), Rect(-4, 9, -12, 12), 0.1)


@pytest.fixture(scope="module")
def setup_broken():
    # 0.5 e^z + 0.2: no real fixed points; the escaping real axis passes
    # through the asymptotic value, so the band-0 fixed ray is broken
    return structural_setup(exp_map(0.5, 0.2), Rect(-4, 9, -12, 12), 0.1)


class TestOffsetMap:
    def test_disk_contains_singular_values_with_margin(self, setup_offset):
        spec = setup_offset.spec
        disk = auto_disk(spec)
        for s in spec.singular_values():
            assert abs(s) <= 0.9 * disk.radius

    def test_round_trips_through_curved_cut_geometry(self, setup_offset):
        rng = np.random.default_rng(8)
        spec = setup_offset.spec
        worst = 0.0
        checked = 0
        while checked < 200:
            w = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
            if abs(w) < setup_offset.disk.radius * 1.2:
                continue
            if setup_offset.delta.distance_to_point(w) < 1e-2:
                continue
            for j in (-1, 0, 1):
                z = setup_offset.branch_context.pull_back(w, setup_offset.domain_by_band(j).label.j)
                value, _ = spec.evaluate(complex(z), 1)
                worst = max(worst, abs(value - w))
            checked += 1
        assert worst < 1e-9

    def test_boundary_is_two_sided_level_set(self, setup_offset):
        # stepping across the refined boundary flips tract membership
        tract = setup_offset.tracts[0]
        radius = setup_offset.disk.radius
        two_sided = 0
        samples = tract.boundary.z[5:-5:11]
        for z in samples:
            probes = [abs(setup_offset.spec.evaluate(complex(z) + h, 1)[0]) - radius
                      for h in (1e-3, -1e-3, 1e-3j, -1e-3j)]
            if max(probes) > 0 and min(probes) < 0:
                two_sided += 1
        assert two_sided >= 0.9 * len(samples)

    def test_band_zero_ray_lands_at_real_repeller(self, setup_offset):
        ray = landing_point(trace_ray(setup_offset, Address.constant(0)))
        target = brentq(lambda x: 0.5 * np.exp(x) - 0.5 - x, 0.5, 2, xtol=1e-13)
        assert ray.status.kind == "lands_at"
        assert abs(ray.landing - target) < 1e-9

    def test_counting_and_report(self, setup_offset):
        spec = setup_offset.spec
        labels = [setup_offset.domain_by_band(j).label for j in (-1, 0, 1)]
        contour = counting_contour(setup_offset, labels)
        expected, measured, match = global_count_check(contour)
        assert (expected, measured, match) == (4, 4, True)
        report = separation_report(spec, setup_offset, 1)
        assert [v.verdict for v in report.verdicts] == ["exactly_one_interior"]
        assert abs(report.verdicts[0].interior[0]) < 1e-8   # the origin
        assert not report.is_incomplete


class TestBrokenRayMap:
    def test_band_zero_ray_is_broken(self, setup_broken):
        ray = landing_point(trace_ray(setup_broken, Address.constant(0)))
        assert ray.status.kind == "broken"

    def test_other_rays_still_land(self, setup_broken):
        rays = fixed_rays(setup_broken,
                          [setup_broken.domain_by_band(j) for j in (-1, 1)], 1)
        assert all(r.status.kind == "lands_at" for r in rays)
        assert rays[0].landing == pytest.approx(np.conj(rays[1].landing), abs=1e-9)

    def test_counting_contour_refuses_broken_evidence(self, setup_broken):
        labels = [setup_broken.domain_by_band(j).label for j in (-1, 0, 1)]
        with pytest.raises(NotFullComplete):
            counting_contour(setup_broken, labels)

    def test_report_records_missing_global_count(self, setup_broken):
        # the broken band-0 ray makes the collection not full and complete
        report = separation_report(setup_broken.spec, setup_broken, 1)
        assert report.global_counts is None
        assert any(note.startswith("global count: NotFullComplete: ")
                   for note in report.incomplete)

    def test_report_carries_incomplete_flag(self, setup_broken):
        report = separation_report(setup_broken.spec, setup_broken, 1)
        assert report.is_incomplete
        assert any("|0" in note for note in report.incomplete)


def _complex_in(re_lo, re_hi, im_lo, im_hi):
    return st.builds(complex, st.floats(re_lo, re_hi), st.floats(im_lo, im_hi))


class TestFamilyInvariants:
    """The separation theorem's claims at period 1 over a e^z + b.

    The theorem assumes a bounded postsingular set, so maps whose singular
    value b escapes (such as real a e^b > 1/e with real b, where the band-0
    ray runs through b) are outside it and are not drawn.
    """

    @settings(max_examples=12, deadline=None)
    @given(a=_complex_in(0.05, 0.6, -0.2, 0.2), b=_complex_in(-0.5, 0.5, -0.3, 0.3))
    # rays landing at weakly repelling points (|multiplier| 1.07, 1.07 and
    # 1.02), whose walks settle only more than 640 cycles deep
    @example(a=0.40625 + 0j, b=0.015625j)
    @example(a=0.25 + 0.00390625j, b=0.4375 + 0j)
    @example(a=0.375 + 0.078125j, b=-0.203125j)
    def test_report_invariants(self, a, b):
        spec = exp_map(a, b)
        assume(np.isfinite(spec.evaluate_array(np.array([b]), 200)[0]))
        setup = structural_setup(spec, FAMILY_BOX, 0.1)
        report = separation_report(spec, setup, 1)
        N = len(setup.domains)
        assert not report.is_incomplete, report.incomplete
        assert report.verdicts
        assert all(v.verdict == "exactly_one_interior" for v in report.verdicts)
        assert report.global_counts == (N + 1, N + 1, True)
        fixed = [r for r in report.graph.rays
                 if r.address.period_length == 1 and not r.address.preperiod]
        assert len(fixed) == N
        for ray in fixed:
            image = spec.evaluate_array(ray.z[1:], 1)
            assert np.all(np.abs(image - ray.z[:-1]) <= 1e-9 * np.abs(ray.z[:-1]))
        again = separation_report(spec, structural_setup(spec, FAMILY_BOX, 0.1), 1)
        assert dumps(report_to_json(report)) == dumps(report_to_json(again))
