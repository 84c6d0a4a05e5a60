"""Structural decomposition: disk, delta, tracts, domains, expansion."""

import cmath
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import raysep.structure
from raysep.curves import ParamCurve, min_segment_distance
from raysep.errors import DeltaBlocked, ExpansionNotValidated
from raysep.maps import BranchContext, BranchLabel, CutGeometry, exp_map, parse_map
from raysep.structure import (
    Rect,
    StructuralSetup,
    Tract,
    auto_disk,
    choose_delta,
    extract_tracts,
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


def in_domain(setup, z: complex, label: BranchLabel) -> bool:
    """Whether f maps z outside the disk and z lies in the band of `label`."""
    return (abs(setup.spec.evaluate(z, 1)[0]) > setup.disk.radius
            and setup.band_index(z) == label.j)


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

    @pytest.mark.parametrize("resolution", [0.0, -0.1, math.nan])
    def test_bad_resolution_raises_before_tracts(self, monkeypatch, resolution):
        def no_tracts(*_args, **_kwargs):
            raise AssertionError("tracts extracted before the resolution was checked")
        monkeypatch.setattr(raysep.structure, "extract_tracts", no_tracts)
        with pytest.raises(ValueError, match="resolution"):
            structural_setup(exp_map(0.3), Rect(-4, 10, -12, 12), resolution)

    def test_overflowing_f0_raises_before_tracts(self, monkeypatch):
        def no_tracts(*_args, **_kwargs):
            raise AssertionError("tracts extracted before f(0) was checked")
        monkeypatch.setattr(raysep.structure, "extract_tracts", no_tracts)
        with pytest.raises(ValueError, match=r"^f\(0\) = a \+ b overflows for a = \(1e\+301\+0j\), "
                                             r"b = 0j$"):
            structural_setup(exp_map(1e301), Rect(-4, 10, -12, 12), 0.1)

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


def choose_delta_chunked_reference(spec, bbox, resolution, radius, tracts):
    """The chunked scan: every ray sampled, evaluated and bounded before ranking.

    Rays are evaluated in chunks of about 4,096 samples; the distance of a
    ray's first sample to the tract boundaries bounds its clearance, so only
    an unblocked ray whose bound beats the best is probed.
    """
    offsets = np.arange(360) * (2.0 * np.pi / 360)
    thetas = [th for th in sorted((math.pi + o for o in offsets),
                                  key=lambda th: abs(math.remainder(th - math.pi, 2.0 * math.pi)))
              if raysep.structure._box_exit_radius(bbox, th) > radius * 1.05]
    a = np.concatenate([t.boundary.z[:-1] for t in tracts] or [np.empty(0, complex)])
    b = np.concatenate([t.boundary.z[1:] for t in tracts] or [np.empty(0, complex)])
    rows = max(1, int(4096 * resolution / (2.0 * bbox.corner_radius())))
    blocked, first = np.zeros(len(thetas), dtype=bool), np.zeros(len(thetas), dtype=complex)
    for lo in range(0, len(thetas), rows):
        rays = [raysep.structure._delta_ray(bbox, resolution, radius, th)[1]
                for th in thetas[lo:lo + rows]]
        mods = np.abs(spec.evaluate_array(np.concatenate(rays), 1))
        starts = np.cumsum([0] + [len(z) for z in rays[:-1]])
        blocked[lo:lo + rows] = np.maximum.reduceat(mods, starts) > radius
        first[lo:lo + rows] = [z[0] for z in rays]
    bound = np.zeros(len(thetas))
    bound[~blocked] = min_segment_distance(first[~blocked], a, b)
    best_theta, best_clear = None, -1.0
    for theta, clear, hit in zip(thetas, bound, blocked):
        if clear > best_clear + 1e-12 and not hit:
            pts = raysep.structure._delta_ray(bbox, resolution, radius, theta)[1]
            clear = min_segment_distance(pts[:: max(len(pts) // 64, 1)], a, b).min()
        if clear > best_clear + 1e-12:
            best_clear, best_theta = clear, theta
    if best_theta is None or best_clear < resolution:
        raise DeltaBlocked(f"best clearance {best_clear:.3g} below resolution {resolution}")
    return ParamCurve(*raysep.structure._delta_ray(bbox, resolution, radius, best_theta))


def sampled_angles(spec, bbox, resolution, radius, tracts, window=True):
    """The angles of the rays choose_delta samples, delta's last.

    Without the window every bound and probe is measured to all segments.
    """
    angles, ray = [], raysep.structure._delta_ray

    def sample(*args):
        angles.append(args[-1])
        return ray(*args)
    with mock.patch.object(raysep.structure, "_delta_ray", sample):
        if window:
            choose_delta(spec, bbox, resolution, radius, tracts)
        else:
            with mock.patch.object(raysep.structure, "_segments_near",
                                   lambda points, a, b, reach: (a, b)):
                choose_delta(spec, bbox, resolution, radius, tracts)
    return angles


def assert_same_delta(spec, box, resolution, radius=None, tracts=None):
    """choose_delta gives the references' delta bit for bit, or their DeltaBlocked.

    The references are the per-angle scan and the chunked scan.  It also
    checks that choose_delta samples the rays it samples when it measures
    to all segments.

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
        for scan in (choose_delta_chunked_reference, choose_delta):
            with pytest.raises(DeltaBlocked, match=re.escape(str(exc))):
                scan(spec, bbox, resolution, radius, tracts)
        return None
    for scan in (choose_delta_chunked_reference, choose_delta):
        delta = scan(spec, bbox, resolution, radius, tracts)
        assert np.array_equal(delta.t, expected.t)
        assert np.array_equal(delta.z, expected.z)
    assert sampled_angles(spec, bbox, resolution, radius, tracts) == \
        sampled_angles(spec, bbox, resolution, radius, tracts, window=False)
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
    # a curved cut: delta lands at theta ~ -2.83 after 19 probes, each rise
    # of the best clearance widening the segments the later bounds are read on
    @example(a=0.5, b=0.3 + 0.4j, box=(-4, 9, -12, 12), resolution=0.1)
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
    @example(walls=[(8 + 10j, 1j)])         # a wall far from the disk: 52 probes
    def test_matches_per_angle_scan_around_obstacles(self, walls):
        tracts = [Tract(alpha=k, boundary=ParamCurve.segment(z, z + d, 4), anchor=z)
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
        assert abs(setup03.spec.evaluate(tract.anchor, 1)[0]) > setup03.disk.radius

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
        with pytest.raises(ValueError, match=re.escape("exp(1,1)*exp(1,0)")):
            parse_map("exp(1,1)*exp(1,0)")


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

    def test_anchor_in_domain(self, setup03):
        for dom in setup03.domains:
            assert in_domain(setup03, dom.anchor, dom.label)

    def test_domain_partition_of_pullbacks(self, setup03):
        rng = np.random.default_rng(31)
        labels = [d.label for d in setup03.domains]
        for _ in range(100):
            w = complex(rng.uniform(1, 9), rng.uniform(-9, 9))
            if abs(w) <= setup03.disk.radius + 0.1:
                continue
            images = [complex(setup03.branch_context.pull_back(w, lb.j)) for lb in labels]
            for i, (lb, z) in enumerate(zip(labels, images)):
                assert in_domain(setup03, z, lb)
                for k in range(i + 1, len(images)):
                    assert abs(z - images[k]) > 1e-6


# -- the closed-form cut against the sampled cut ---------------------------------


def sampled_cut_angle(spec, cut):
    """The cut's argument by sampling, as the sampled cut geometry computed it.

    Samples v = (w - b)/a at 4,096 points w = s e^(i theta) of the cut out
    to s = 1e6 and unwraps np.angle(v) along them.  The tail goes onto the
    2 pi branch of phi_inf, not into (-pi, pi]: at phi_inf = pi a tail just
    above pi would wrap to the branch below.  Returns the moduli |v| and the
    arguments.
    """
    s = np.geomspace(cut.r, 1e6, 4096)
    v = (s * cmath.exp(1j * cut.theta) - spec.b) / spec.a
    args = np.unwrap(np.angle(v))
    return np.abs(v), args - 2.0 * np.pi * round((args[-1] - cut.phi_inf) / (2.0 * np.pi))


angles = st.floats(-math.pi, math.pi)


class TestCutGeometry:
    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.1, 2.0), angles, st.floats(0.0, 2.0), angles, angles)
    @example(0.5, 0.0, 0.5, math.atan2(0.4, 0.3), math.pi)   # b = 0.3 + 0.4i
    @example(1.0, 0.0, 0.0, 0.0, math.pi)                    # b = 0: phi is constant
    def test_closed_form_equals_the_sampled_cut(self, abs_a, arg_a, abs_b, arg_b, theta):
        # any radial cut from the disk will do: no box, so no cut is ever blocked
        spec = exp_map(cmath.rect(abs_a, arg_a), cmath.rect(abs_b, arg_b))
        cut = CutGeometry.radial(spec, theta, auto_disk(spec).radius)
        context = BranchContext(spec, cut)
        rho, args = sampled_cut_angle(spec, cut)
        assert np.max(np.abs(cut.phi(rho) - args)) <= 1e-12
        # lift(s, m) is the edge between bands m and m + 1: a cut point turned
        # by -eps pulls back into band m next to it, by +eps into band m + 1.
        # (A point on the cut itself rounds to either side.)
        s = np.geomspace(cut.r, 1e6, 256)
        eps = 1e-11
        for m in (-3, 0, 2):
            edge = cut.lift(s, m)
            for turn, band in ((-eps, m), (eps, m + 1)):
                w = s * cmath.exp(1j * (cut.theta + turn))
                z = context.pull_back(w, band)
                assert np.max(np.abs(z - edge)) <= 10 * eps


def scalar_band_index(setup, z: complex) -> int:
    """The per-point band formula that `band_index` replaced, as the reference."""
    rho = math.exp(min(z.real, 700.0))
    phi = float(setup.branch_context.cut.phi(rho))
    return math.ceil((z.imag - phi) / (2.0 * math.pi) - 1e-12)


def scalar_meets_disk(setup, dom) -> bool:
    """The per-domain disk test that `meets_disk` replaced, as the reference."""
    best = math.inf
    for side in dom.side_curves:
        best = min(best, float(np.min(np.abs(side.z))))
    u = setup.branch_context.cut.theta + np.linspace(1e-6, 2.0 * math.pi - 1e-6, 512)
    z = setup.branch_context.pull_back(setup.disk.radius * np.exp(1j * u), dom.label.j)
    return min(best, float(np.min(np.abs(z)))) <= setup.disk.radius + 1e-9


def cut_setup(spec, theta):
    """A setup holding only the map and a radial cut at angle theta from its disk."""
    disk = auto_disk(spec)
    context = BranchContext(spec, CutGeometry.radial(spec, theta, disk.radius))
    return StructuralSetup(spec, disk, None, [], [], 0.0, None, 0.0, context)


class TestBatchKernels:
    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.1, 2.0), angles, st.floats(0.0, 2.0), angles, angles,
           st.lists(st.tuples(st.floats(-10.0, 800.0), st.floats(-40.0, 40.0)),
                    min_size=1, max_size=20),
           st.lists(st.tuples(st.floats(-10.0, 30.0), st.integers(-6, 6)), max_size=10))
    @example(0.5, 0.0, 0.5, math.atan2(0.4, 0.3), math.pi, [(1.0, 0.0)], [(2.0, 0)])
    def test_band_index_equals_the_point_formula(self, abs_a, arg_a, abs_b, arg_b, theta,
                                                 points, edges):
        setup = cut_setup(exp_map(cmath.rect(abs_a, arg_a), cmath.rect(abs_b, arg_b)), theta)
        cut = setup.branch_context.cut
        # band edges: the cut's argument phi(e^x) + 2 pi k at real part x
        z = [complex(x, y) for x, y in points] + [
            complex(x, float(cut.phi(math.exp(x))) + 2.0 * math.pi * k) for x, k in edges]
        bands = setup.band_index(np.array(z))
        assert bands.dtype.kind == "i"
        assert bands.tolist() == [scalar_band_index(setup, w) for w in z]
        one = setup.band_index(z[0])
        assert np.ndim(one) == 0 and int(one) == bands[0]

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.1, 2.0), angles, st.floats(0.0, 1.0), angles)
    @example(0.3, 0.0, 0.0, 0.0)
    @example(0.5, 0.0, 0.5, math.atan2(0.4, 0.3))
    def test_meets_disk_equals_the_domain_loop(self, abs_a, arg_a, abs_b, arg_b):
        spec = exp_map(cmath.rect(abs_a, arg_a), cmath.rect(abs_b, arg_b))
        try:
            setup = structural_setup(spec, Rect(-5, 10, -15, 15), 0.1)
        except (DeltaBlocked, ExpansionNotValidated):
            assume(False)
        meets = setup.meets_disk(setup.domains)
        assert meets.dtype == bool
        assert meets.tolist() == [scalar_meets_disk(setup, d) for d in setup.domains]
        assert [bool(setup.meets_disk([d])[0]) for d in setup.domains] == meets.tolist()

    def test_meets_disk_on_a_mixed_collection(self, setup03):
        meets = setup03.meets_disk(setup03.domains)
        assert meets.any() and not meets.all()
        assert setup03.meets_disk([]).shape == (0,)


class TestExpansionRadius:
    def test_known_failure_at_ten(self, setup03):
        labels = [setup03.domain_by_band(j).label for j in (-1, 0, 1)]
        report = validate_expansion_radius(setup03, labels, 10.0)
        assert not report.ok
        # preimages live on Re = ln(R/0.3); the worst reaches just past R
        worst = math.hypot(math.log(10.0 / 0.3), 3 * math.pi)
        assert report.margin == pytest.approx(10.0 - worst, abs=1e-3)

    def test_passes_at_twenty_with_expected_margin(self, setup03):
        labels = [setup03.domain_by_band(j).label for j in (-1, 0, 1)]
        report = validate_expansion_radius(setup03, labels, 20.0)
        assert report.ok
        worst = math.hypot(math.log(20.0 / 0.3), 3 * math.pi)
        assert report.margin == pytest.approx(20.0 - worst, abs=1e-3)

    def test_vacuous_for_empty_collection(self, setup03):
        report = validate_expansion_radius(setup03, [], 5.0)
        assert report.ok

    def test_monotone_under_doubling(self, setup03):
        labels = [setup03.domain_by_band(j).label for j in (-1, 0, 1)]
        for R in (20.0, 40.0, 80.0):
            assert validate_expansion_radius(setup03, labels, R).ok

    def test_no_radius_up_to_the_cap(self, monkeypatch):
        monkeypatch.setattr(raysep.structure, "EXPANSION_CAP", 1.0)
        with pytest.raises(ExpansionNotValidated, match=r"up to 1 valid for bands \[-1, 0, 1\]"):
            structural_setup(exp_map(0.3), Rect(-4, 6, -8, 8), 0.25)

    def test_failing_explicit_radius_raises(self):
        with pytest.raises(ExpansionNotValidated, match=re.escape(
                "expansion radius 10.0 not valid for the domains (margin -0.056)")):
            structural_setup(exp_map(0.3), Rect(-4, 6, -8, 8), 0.25, expansion_radius=10.0)
        setup = structural_setup(exp_map(0.3), Rect(-4, 6, -8, 8), 0.25, expansion_radius=20.0)
        assert setup.expansion_radius == 20.0

    def test_radius_inside_the_disk_rejected(self, setup03):
        labels = [setup03.domain_by_band(0).label]
        with pytest.raises(ValueError, match="R must exceed the disk radius"):
            validate_expansion_radius(setup03, labels, setup03.disk.radius)

    def test_setup_auto_radius_is_validated(self, setup03):
        report = validate_expansion_radius(
            setup03, setup03.domain_labels(), setup03.expansion_radius)
        assert report.ok


# -- the expansion bound against a sampled per-label loop ---------------------------

# (a, b, box, resolution) of the maps the properties draw from
EXPANSION_MAPS = [
    (0.3, 0.0, (-4, 6, -8, 8), 0.25),
    (1 / math.e, 0.0, (-4, 6, -8, 8), 0.25),
    (0.5 + 0.5j, 0.0, (-4, 6, -8, 8), 0.25),
    (0.5, -0.5, (-4, 6, -8, 8), 0.25),
    (-5.0, 0.0, (-9, 7.5, -13, 13), 0.25),
    (0.5, 0.3 + 0.4j, (-4, 6, -8, 8), 0.25),     # Im c != 0: a curved cut
]
ZERO_B = [k for k, m in enumerate(EXPANSION_MAPS) if m[1] == 0]
REFERENCE_SAMPLES = 4096
_expansion_setups = {}


def fresh_setup(k: int):
    """Map k's setup, built once."""
    if k not in _expansion_setups:
        a, b, box, resolution = EXPANSION_MAPS[k]
        _expansion_setups[k] = structural_setup(exp_map(a, b), Rect(*box), resolution)
    return _expansion_setups[k]


def reference_validate(setup, labels, R):
    """Each label's largest sampled preimage modulus of the circle |w| = R.

    REFERENCE_SAMPLES samples, then five refinement rounds of 65 samples
    around the largest, each 32 times finer: the last spacing is ~5e-11 in
    angle, so the result is within about that of the supremum.
    """
    tops = []
    for label in labels:
        top = -math.inf
        u = np.linspace(0.0, 2.0 * np.pi, REFERENCE_SAMPLES, endpoint=False)
        for _ in range(6):
            mods = np.abs(setup.branch_context.pull_back(R * np.exp(1j * u), label.j))
            k = int(np.argmax(mods))
            top = max(top, float(mods[k]))
            du = u[1] - u[0]
            u = np.linspace(u[k] - du, u[k] + du, 65)
        tops.append(top)
    return np.array(tops)


def reference_radius(setup, labels):
    """Sequential doubling search for one label set; nan past the cap."""
    R = setup.expansion_radius
    while R <= raysep.structure.EXPANSION_CAP:
        if validate_expansion_radius(setup, labels, R).ok:
            return R
        R *= 2.0
    return math.nan


def padded_rows(sets):
    """The band matrix of ragged band sets, each padded with its first band."""
    width = max(map(len, sets))
    return np.array([js + js[:1] * (width - len(js)) for js in sets], dtype=int)


bands = st.lists(st.integers(-60, 60), min_size=1, max_size=6)


class TestExpansionRows:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, len(EXPANSION_MAPS) - 1), bands,
           st.floats(1.001, 5e4, allow_nan=False))
    @example(3, [0, 40, -1, 0], 32.0)
    @example(3, [0, -1], 1.001)     # |log lo| > log hi
    @example(5, [-3, 0, 1, 2], 4.0)  # a curved cut
    def test_bound_covers_the_per_label_loop(self, k, js, scale):
        setup = fresh_setup(k)
        R = setup.disk.radius * scale
        bound = raysep.structure._preimage_bounds(setup, js, R)
        sampled = reference_validate(setup, [BranchLabel(j) for j in js], R)
        assert np.all(bound >= sampled - 1e-9 * R)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(ZERO_B), bands, st.floats(1.001, 5e4, allow_nan=False))
    @example(0, [0, 40, -1, 0], 32.0)
    @example(4, [-2, 2, 15], 25.0)
    def test_equals_the_per_label_loop(self, k, js, scale):
        # at b = 0 the circle's preimage is one whole band edge to edge, so
        # the bound is the supremum the sampled loop converges to
        setup = fresh_setup(k)
        labels = [BranchLabel(j) for j in js]
        R = setup.disk.radius * scale
        bound = raysep.structure._preimage_bounds(setup, js, R)
        sampled = reference_validate(setup, labels, R)
        assert np.all(np.abs(bound - sampled) <= 1e-9 * R)
        report = validate_expansion_radius(setup, labels, R)
        i = int(np.argmax(bound))
        assert report.margin == R - bound[i] and report.worst_band == js[i]
        assert report.ok == bool(np.all(bound < R))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, len(EXPANSION_MAPS) - 1), st.lists(bands, min_size=1, max_size=4))
    def test_bulk_search_equals_sequential_search(self, k, sets):
        setup = fresh_setup(k)
        radii = raysep.structure._expansion_radii(setup, padded_rows(sets))
        expected = [reference_radius(setup, [BranchLabel(j) for j in js]) for js in sets]
        np.testing.assert_array_equal(radii, expected)     # nan matches nan

    def test_a_set_past_the_cap(self):
        # band 10^5 has preimages of modulus ~2 pi 10^5, beyond every R up to
        # the cap; the sets beside it settle as before
        setup = fresh_setup(0)
        sets = [[1], [0, 100000], [40]]
        radii = raysep.structure._expansion_radii(setup, padded_rows(sets))
        assert math.isnan(radii[1])
        np.testing.assert_array_equal(
            radii, [reference_radius(setup, [BranchLabel(j) for j in js]) for js in sets])
        with pytest.raises(ExpansionNotValidated,
                           match=re.escape("up to 1e+06 valid for bands [0, 100000]")):
            select_expansion_radius(setup, [BranchLabel(0), BranchLabel(100000), BranchLabel(0)])

    def test_preperiodic_rows_join_their_preperiod_bands(self):
        # a preperiodic lane's anchor radius is the search over its period's
        # and its preperiod's bands; a periodic lane beside it keeps its own
        from raysep.rays import DEFAULT_T_TOP, Address, PullbackWalk
        setup = fresh_setup(0)
        addresses = [Address.parse(text) for text in ("40|0,1", "|1,0", "-30,5|2,1")]
        expected = [reference_radius(setup, sorted(a.symbols(), key=lambda lb: lb.j))
                    + DEFAULT_T_TOP for a in addresses]
        assert PullbackWalk(setup, addresses).anchors(2).real.tolist() == expected
        addresses.append(Address.parse("100000|0,1"))
        with pytest.raises(ExpansionNotValidated,
                           match=re.escape("up to 1e+06 valid for bands [0, 1, 100000]")):
            PullbackWalk(setup, addresses).anchors(2)

    def test_explicit_radius_past_the_cap(self):
        # the search starts above EXPANSION_CAP, so it tests no radius and
        # every walk raises
        from raysep.rays import Address, trace_ray
        a, b, box, resolution = EXPANSION_MAPS[0]
        setup = structural_setup(exp_map(a, b), Rect(*box), resolution,
                                 expansion_radius=2.0 * raysep.structure.EXPANSION_CAP)
        radii = raysep.structure._expansion_radii(setup, padded_rows([[0], [1], [-1]]))
        assert np.isnan(radii).all()
        for address in (Address.constant(0), Address.cycle([1, -1])):
            with pytest.raises(ExpansionNotValidated):
                trace_ray(setup, address)

    def test_anchors_raise_for_the_first_failing_set(self):
        from raysep.rays import Address, trace_ray
        setup = fresh_setup(0)
        addresses = [Address.cycle([0, 0]), Address.cycle([1, 200000]),
                     Address.cycle([100000, 0]), Address.cycle([2, 2])]
        with pytest.raises(ExpansionNotValidated,
                           match=re.escape("up to 1e+06 valid for bands [1, 200000]")):
            trace_ray(setup, addresses)
