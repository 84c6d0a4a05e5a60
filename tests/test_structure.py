"""Structural decomposition: disk, delta, tracts, domains, lift, expansion."""

import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import raysep.structure
from raysep.curves import ParamCurve
from raysep.errors import (DeltaBlocked, ExpansionNotValidated, OrbitLeftTracts, OutsideTract,
                           UnsupportedMap)
from raysep.maps import BranchLabel, exp_map, parse_map
from raysep.structure import (
    Rect,
    Tract,
    address_of_orbit,
    auto_disk,
    choose_delta,
    extract_tracts,
    lift_evaluate,
    select_expansion_radius,
    structural_setup,
    validate_expansion_radius,
)


@pytest.fixture(scope="module")
def setup03():
    return structural_setup(exp_map(0.3), Rect(-4, 10, -17, 17), 0.1)


@pytest.fixture(scope="module")
def setup03_disk1():
    return structural_setup(exp_map(0.3), Rect(-4, 10, -12, 12), 0.1,
                            disk_radius=1.0)


class TestDiskAndDelta:
    def test_auto_disk_contains_required_points(self):
        spec = exp_map(0.3)
        disk = auto_disk(spec)
        margin = 0.1 * disk.radius
        for p in spec.singular_values() + [0.0, spec.evaluate(0.0, 1)[0]]:
            assert abs(p) <= disk.radius - margin

    def test_disk_override(self, setup03_disk1):
        assert setup03_disk1.disk.radius == 1.0

    @pytest.mark.parametrize("a, b, radius", [
        (0.5, 2.0, 1.0),   # excludes the singular value b = 2
        (0.5, 0.5, 0.9),   # excludes f(0) = 1
    ])
    def test_disk_override_must_contain_required_points(self, a, b, radius):
        with pytest.raises(ValueError, match="disk_radius"):
            structural_setup(exp_map(a, b), Rect(-4, 10, -12, 12), 0.1,
                             disk_radius=radius)

    def test_delta_starts_on_disk_and_leaves_box(self, setup03):
        delta = setup03.delta
        assert abs(delta.z[0]) == pytest.approx(setup03.disk.radius)
        z_end = delta.z[-1]
        box = setup03.bbox
        on_edge = (abs(z_end.real - box.x0) < 1e-6 or abs(z_end.real - box.x1) < 1e-6
                   or abs(z_end.imag - box.y0) < 1e-6 or abs(z_end.imag - box.y1) < 1e-6)
        assert on_edge

    def test_delta_prefers_negative_reals_for_the_family(self, setup03):
        tip = setup03.delta.z[-1]
        assert math.isclose(abs(math.atan2(tip.imag, tip.real)), math.pi,
                            abs_tol=0.2)

    def test_delta_avoids_tract(self, setup03):
        spec = setup03.spec
        for z in setup03.delta.z:
            assert abs(spec.evaluate(z, 1)[0]) <= setup03.disk.radius


def choose_delta_reference(spec, bbox, resolution, radius, tracts):
    """The per-angle scan: every ray evaluated and probed on its own."""

    def exit_radius(theta):
        dx, dy = math.cos(theta), math.sin(theta)
        hits = []
        for bound, d, other0, other1, od in (
            (bbox.x0, dx, bbox.y0, bbox.y1, dy), (bbox.x1, dx, bbox.y0, bbox.y1, dy),
            (bbox.y0, dy, bbox.x0, bbox.x1, dx), (bbox.y1, dy, bbox.x0, bbox.x1, dx),
        ):
            if abs(d) > 1e-15:
                s = bound / d
                if s > 0 and other0 - 1e-12 <= s * od <= other1 + 1e-12:
                    hits.append(s)
        return min(hits)

    def ray(theta):
        reach = exit_radius(theta)
        s = np.linspace(radius, reach, max(int((reach - radius) / (resolution / 2)), 16))
        return s, s * np.exp(1j * (theta % (2 * np.pi)))

    offsets = np.arange(360) * (2.0 * np.pi / 360)
    thetas = sorted((math.pi + o for o in offsets),
                    key=lambda th: abs(math.remainder(th - math.pi, 2.0 * math.pi)))
    best_theta, best_clear = None, -1.0
    for theta in thetas:
        if exit_radius(theta) <= radius * 1.05:
            continue
        pts = ray(theta)[1]
        if np.any(np.abs(spec.evaluate_array(pts, 1)) > radius):
            clear = 0.0
        elif not tracts:
            clear = math.inf
        else:
            probes = pts[:: max(len(pts) // 64, 1)]
            clear = min(t.boundary.distance_to_point(probes) for t in tracts)
        if clear > best_clear + 1e-12:
            best_clear, best_theta = clear, theta
    if best_theta is None or best_clear < resolution:
        raise DeltaBlocked(f"best clearance {best_clear:.3g} below resolution {resolution}")
    return ParamCurve(*ray(best_theta))


def assert_same_delta(spec, box, resolution, radius=None, tracts=None):
    """choose_delta gives the reference's delta bit for bit, or its DeltaBlocked.

    Returns the delta, or None when both raised.  The tracts default to the
    map's own.
    """
    bbox = Rect(*box)
    if radius is None:
        radius = auto_disk(spec).radius
    if tracts is None:
        tracts = extract_tracts(spec, bbox, resolution, radius)
    try:
        expected = choose_delta_reference(spec, bbox, resolution, radius, tracts)
    except DeltaBlocked as exc:
        with pytest.raises(DeltaBlocked, match=re.escape(str(exc))):
            choose_delta(spec, bbox, resolution, radius, tracts)
        return None
    delta = choose_delta(spec, bbox, resolution, radius, tracts)
    assert np.array_equal(delta.t, expected.t)
    assert np.array_equal(delta.z, expected.z)
    return delta


class TestChooseDelta:
    @settings(max_examples=25, deadline=None)
    @given(a=st.builds(cmath.rect,
                       st.floats(math.log(0.05), math.log(5)).map(math.exp),
                       st.floats(-math.pi, math.pi)),
           b=st.builds(cmath.rect, st.floats(0, 2), st.floats(-math.pi, math.pi)),
           box=st.tuples(st.floats(-9, -4), st.floats(4, 10), st.floats(-16, -6),
                         st.floats(6, 16)),
           resolution=st.floats(0.08, 0.3))
    # the boxes of the benchmark's workloads
    @example(a=0.3, b=0.0, box=(-4, 10, -12, 12), resolution=0.1)
    @example(a=0.3, b=0.0, box=(-4, 10, -40, 40), resolution=0.1)
    @example(a=-5.0, b=0.0, box=(-9, 7.5, -13, 13), resolution=0.12)
    def test_matches_per_angle_scan(self, a, b, box, resolution):
        assert_same_delta(exp_map(a, b), box, resolution)

    @pytest.mark.parametrize("resolution, radius", [
        (3.0, None),    # every clearance is below the resolution
        (0.1, 20.0),    # no ray reaches 1.05 times the radius inside the box
    ])
    def test_blocked_like_per_angle_scan(self, resolution, radius):
        assert assert_same_delta(exp_map(0.3), (-4, 10, -12, 12), resolution, radius) is None

    # Obstacles in place of the tract boundaries, so that a ray's clearance is
    # not always that of its first sample and rays that leave the disk free
    # meet the tract set later: the probes and the blocked test both matter.
    @settings(max_examples=30, deadline=None)
    @given(walls=st.lists(st.tuples(st.complex_numbers(max_magnitude=6),
                                    st.complex_numbers(max_magnitude=2)),
                          min_size=1, max_size=4))
    @example(walls=[(-1 - 6j, 12j)])        # a wall left of the disk
    @example(walls=[(-3 + 0.5j, 6j)])       # a wall above the middle of the left ray
    def test_matches_per_angle_scan_around_obstacles(self, walls):
        tracts = [Tract(alpha=k, boundary=ParamCurve.segment(z, z + d, 4), anchor=z,
                        touches_box=False)
                  for k, (z, d) in enumerate(walls) if abs(d) > 0]
        assert_same_delta(exp_map(0.3), (-4, 10, -12, 12), 0.1, tracts=tracts)

    def test_without_tracts(self):
        # a box left of the tract: every admissible ray has infinite clearance
        delta = assert_same_delta(exp_map(0.3), (-4, 0.2, -3, 3), 0.1)
        assert delta.z[-1] == pytest.approx(-4.0)


class TestTracts:
    def test_single_tract_half_plane(self, setup03_disk1):
        assert len(setup03_disk1.tracts) == 1
        tract = setup03_disk1.tracts[0]
        assert tract.touches_box
        edge = math.log(10.0 / 3.0)
        boundary = tract.boundary.z
        assert np.max(np.abs(boundary.real - edge)) < 1e-6

    def test_boundary_refined_to_level_set(self, setup03):
        spec = setup03.spec
        boundary = setup03.tracts[0].boundary.z
        mods = np.array([abs(spec.evaluate(z, 1)[0]) for z in boundary[::7]])
        assert np.max(np.abs(mods - setup03.disk.radius)) < 1e-6

    def test_anchor_maps_outside_disk(self, setup03):
        tract = setup03.tracts[0]
        assert setup03.image_modulus(tract.anchor) > setup03.disk.radius

    @settings(max_examples=80, deadline=None)
    @given(a=st.builds(cmath.rect,
                       st.floats(math.log(0.05), math.log(5)).map(math.exp),
                       st.floats(-math.pi, math.pi)),
           b=st.builds(cmath.rect, st.floats(0, 2), st.floats(-math.pi, math.pi)),
           x1=st.sampled_from([3.0, 5.0]))
    @example(a=0.01, b=1.0, x1=5.0)  # five tracts split by the offset
    @example(a=0.01, b=1.0, x1=3.27)  # tracts one sample height wide
    def test_closed_form_tracts(self, a, b, x1):
        spec = exp_map(a, b)
        radius = auto_disk(spec).radius
        bbox = Rect(-4, x1, -12, 12)
        tracts = extract_tracts(spec, bbox, 0.1, radius)

        def modulus(z):
            return np.abs(spec.evaluate_array(z, 1))

        for tract in tracts:
            z = tract.boundary.z
            assert np.all(np.abs(modulus(z) - radius) <= 1e-9 * radius)
            assert np.all(modulus(z + 1e-3) > radius)
            assert np.all(modulus(z - 1e-3) <= radius)
            assert np.all(modulus(x1 + 1j * z.imag) > radius)
        edge = modulus(x1 + 1j * np.linspace(-12, 12, 241)) > radius
        runs = int(np.count_nonzero(np.diff(edge.astype(int)) == 1)) + int(edge[0])
        assert len(tracts) == runs
        assert [t.alpha for t in tracts] == list(range(runs))

    def test_composition_rejected(self):
        with pytest.raises(UnsupportedMap):
            structural_setup(parse_map("exp(1,1)*exp(1,0)"), Rect(-4, 6, -6, 6), 0.1)


class TestFundamentalDomains:
    def test_domain_count_in_box(self):
        # bands ((2j-1)pi, (2j+1)pi) meeting |Im| <= 20 are j = -3..3
        setup = structural_setup(exp_map(0.3), Rect(-2, 20, -20, 20), 0.2)
        bands = sorted(d.label.j for d in setup.domains)
        assert bands == list(range(-3, 4))

    def test_boundaries_on_odd_pi_lines(self, setup03_disk1):
        dom = setup03_disk1.domain_by_band(0)
        lower, upper = dom.side_curves
        assert np.allclose(lower.z.imag, -np.pi, atol=1e-12)
        assert np.allclose(upper.z.imag, np.pi, atol=1e-12)
        # side curves are preimages of the cut: f maps them into negative reals
        spec = setup03_disk1.spec
        for z in upper.z[::9]:
            w = spec.evaluate(z, 1)[0]
            assert abs(w.imag) < 1e-9 and w.real < 0

    def test_order_keys_increase_with_band(self, setup03):
        doms = sorted(setup03.domains, key=lambda d: d.order_key)
        bands = [d.label.j for d in doms]
        assert bands == sorted(bands)

    def test_anchor_in_domain(self, setup03):
        for dom in setup03.domains:
            assert setup03.in_domain(dom.anchor, dom.label)

    def test_domain_partition_of_pullbacks(self, setup03):
        rng = np.random.default_rng(31)
        labels = [d.label for d in setup03.domains]
        for _ in range(100):
            w = complex(rng.uniform(1, 9), rng.uniform(-9, 9))
            if abs(w) <= setup03.disk.radius + 0.1:
                continue
            images = [complex(setup03.pull_back(w, lb)) for lb in labels]
            for i, (lb, z) in enumerate(zip(labels, images)):
                assert setup03.in_domain(z, lb)
                for k in range(i + 1, len(images)):
                    assert abs(z - images[k]) > 1e-6


class TestLift:
    def test_commutation(self, setup03):
        spec = setup03.spec
        zeta = 3.0 + 0.2j
        lifted = lift_evaluate(spec, zeta, setup03.domains[0].label, setup03)
        w = spec.evaluate(np.exp(zeta), 1)[0]
        assert abs(np.exp(lifted) - w) < 1e-9 * max(1.0, abs(w))

    def test_periodicity(self, setup03):
        spec = setup03.spec
        zeta = 3.0 + 0.2j
        a = lift_evaluate(spec, zeta, setup03.domains[0].label, setup03)
        b = lift_evaluate(spec, zeta + 2j * np.pi, setup03.domains[0].label, setup03)
        assert a == pytest.approx(b, abs=1e-12)

    def test_commutation_sweep(self, setup03):
        rng = np.random.default_rng(37)
        spec = setup03.spec
        label = setup03.domains[0].label
        checked = 0
        while checked < 100:
            zeta = complex(rng.uniform(0.5, 2.5), rng.uniform(-3, 3))
            z = np.exp(zeta)
            if setup03.image_modulus(z) <= setup03.disk.radius:
                continue
            lifted = lift_evaluate(spec, zeta, label, setup03)
            w = spec.evaluate(z, 1)[0]
            assert abs(np.exp(lifted) - w) < 1e-9 * max(1.0, abs(w))
            checked += 1

    def test_outside_tract_rejected(self, setup03_disk1):
        # exp(zeta) with very negative real part maps into the disk
        with pytest.raises(OutsideTract):
            lift_evaluate(setup03_disk1.spec, -3.0 + 0.1j,
                          setup03_disk1.domains[0].label, setup03_disk1)


class TestAddresses:
    def test_real_orbit_constant_address(self, setup03):
        labels = address_of_orbit(setup03.spec, setup03, 2.0, 5)
        assert [lb.j for lb in labels] == [0] * 5
        # deep in the tract the image modulus overflows but the band is known
        labels = address_of_orbit(setup03.spec, setup03, 5.0, 3)
        assert [lb.j for lb in labels] == [0] * 3

    def test_orbit_leaving_tracts(self, setup03_disk1):
        # z maps into the disk after one step: f(z) in D
        spec = setup03_disk1.spec
        z = 1.21 + 0.0j   # in the tract, f(z) = 0.3 e^1.21 = 1.006 inside? no, pick better
        z = complex(np.log(0.5 / 0.3), 0.0)  # f(z) = 0.5 < 1 = disk radius
        with pytest.raises(OrbitLeftTracts) as err:
            address_of_orbit(spec, setup03_disk1, z, 3)
        assert err.value.iterate == 1

    def test_shift_property(self, setup03):
        spec = setup03.spec
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 25:
            z = complex(rng.uniform(1.5, 2.5), rng.uniform(-2, 2))
            try:
                a = address_of_orbit(spec, setup03, z, 4)
                b = address_of_orbit(spec, setup03, spec.evaluate(z, 1)[0], 3)
            except (OrbitLeftTracts, Exception):
                continue
            assert a[1:] == b
            checked += 1


class TestExpansionRadius:
    def test_known_failure_at_ten(self, setup03):
        labels = [setup03.domain_by_band(j).label for j in (-1, 0, 1)]
        report = validate_expansion_radius(setup03.spec, setup03, labels, 10.0)
        assert not report.ok
        # preimages live on Re = ln(R/0.3); the worst reaches just past R
        worst = math.hypot(math.log(10.0 / 0.3), 3 * math.pi)
        assert report.margin == pytest.approx(10.0 - worst, abs=1e-3)
        # each label's own result is kept, the failure too
        checks = setup03.expansion_checks
        assert checks[(labels[1], 10.0)]
        assert not checks[(setup03.domain_by_band(report.worst_band).label, 10.0)]

    def test_passes_at_twenty_with_expected_margin(self, setup03):
        labels = [setup03.domain_by_band(j).label for j in (-1, 0, 1)]
        report = validate_expansion_radius(setup03.spec, setup03, labels, 20.0)
        assert report.ok
        worst = math.hypot(math.log(20.0 / 0.3), 3 * math.pi)
        assert report.margin == pytest.approx(20.0 - worst, abs=1e-3)

    def test_vacuous_for_empty_collection(self, setup03):
        report = validate_expansion_radius(setup03.spec, setup03, [], 5.0)
        assert report.ok

    def test_monotone_under_doubling(self, setup03):
        labels = [setup03.domain_by_band(j).label for j in (-1, 0, 1)]
        for R in (20.0, 40.0, 80.0):
            assert validate_expansion_radius(setup03.spec, setup03, labels, R).ok

    def test_select_again_validates_nothing(self, setup03, monkeypatch):
        labels = [setup03.domain_by_band(j).label for j in (-1, 0, 1)]
        R = select_expansion_radius(setup03.spec, setup03, labels)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return validate_expansion_radius(*args, **kwargs)

        monkeypatch.setattr(raysep.structure, "validate_expansion_radius", counted)
        assert select_expansion_radius(setup03.spec, setup03, labels) == R
        assert calls == []

    def test_select_validates_only_unchecked_labels(self, setup03, monkeypatch):
        near = setup03.domain_by_band(0).label
        far = BranchLabel(0, 40)
        select_expansion_radius(setup03.spec, setup03, [near])
        calls = []

        def counted(spec, setup, domains, R):
            calls.append((list(domains), R))
            return validate_expansion_radius(spec, setup, domains, R)

        monkeypatch.setattr(raysep.structure, "validate_expansion_radius", counted)
        R = select_expansion_radius(setup03.spec, setup03, [near, far])
        assert R > setup03.expansion_radius
        assert calls[0] == ([far], setup03.expansion_radius)
        assert all(len(domains) == 2 for domains, _ in calls[1:])
        assert calls[-1][1] == R

    def test_no_radius_up_to_the_cap(self, monkeypatch):
        monkeypatch.setattr(raysep.structure, "EXPANSION_CAP", 1.0)
        with pytest.raises(ExpansionNotValidated, match=r"up to 1 valid for bands \[-1, 0, 1\]"):
            structural_setup(exp_map(0.3), Rect(-4, 6, -8, 8), 0.25)

    def test_setup_auto_radius_is_validated(self, setup03):
        report = validate_expansion_radius(
            setup03.spec, setup03, setup03.domain_labels(),
            setup03.expansion_radius)
        assert report.ok
