"""Ray graph, basic regions, counting contour, boundary modification, report."""

import dataclasses
import inspect
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import brentq

from raysep.curves import ParamCurve
from raysep.errors import (EpsTooLarge, ExpansionNotValidated, NotFullComplete, Overflow,
                           ResolutionTooCoarse, UnlandedRay)
from raysep.fixedpoints import FixedPointRecord, find_fixed_in_domain
from raysep.maps import BranchLabel, MapSpec, exp_map, parse_map
import raysep.separation
from raysep.rays import (PAIR_TOL, Address, PullbackWalk, Ray, RayPair, RayStatus,
                         fixed_rays, landing_groups, landing_point, pairs_from_groups,
                         trace_ray)
from raysep.separation import (
    CHUNK_ELEMENTS,
    PROBE_CLEARANCE,
    RegionGeometry,
    _augment_with_inferred_rays,
    _probe_points,
    basic_regions,
    build_ray_graph,
    check_full_complete,
    counting_contour,
    global_count_check,
    modify_boundary_near_fixed_point,
    separation_report,
)
import raysep.structure
from raysep.structure import Rect, structural_setup


@pytest.fixture(scope="module")
def setup03():
    return structural_setup(exp_map(0.3), Rect(-4, 10, -17, 17), 0.1)


@pytest.fixture(scope="module")
def setup_neg5():
    return structural_setup(exp_map(-5), Rect(-9, 7.5, -13, 13), 0.12)


def landed_rays(setup, bands, period=1):
    domains = [setup.domain_by_band(j) for j in bands]
    return fixed_rays(setup, domains, period)


class TestRayGraph:
    def test_five_rays_no_pairs(self, setup03):
        rays = landed_rays(setup03, (-2, -1, 0, 1, 2))
        graph = build_ray_graph(rays)
        assert len(graph.landing_points) == 5
        assert graph.pairs == []

    def test_synthetic_shared_landing_is_a_pair(self, setup03):
        base = landed_rays(setup03, (0,))[0]
        clone = dataclasses.replace(base, address=Address.constant(1))
        graph = build_ray_graph([base, clone])
        assert len(graph.pairs) == 1
        assert len(graph.landing_points) == 1

    def test_chain_of_landings_groups_greedily(self, setup03):
        # three landings 0.6 tol apart: the first two are one landing point,
        # the third is its own, and pairs only join rays of one landing point
        base = landed_rays(setup03, (0,))[0]
        rays = [dataclasses.replace(
                    base, address=Address.constant(k),
                    status=RayStatus.landed(base.landing + 0.6 * PAIR_TOL * k, None))
                for k in range(3)]
        graph = build_ray_graph(rays)
        assert len(graph.landing_points) == 2
        assert len(graph.pairs) == 1
        assert len(pairs_from_groups(rays, landing_groups(rays)[1])) == 1
        index = {id(r): i for r, i in zip(graph.rays, graph.landing_index)}
        for pair in graph.pairs:
            assert index[id(pair.rays[0])] == index[id(pair.rays[1])]
        for ray, i in zip(graph.rays, graph.landing_index):
            assert abs(graph.landing_points[i] - ray.landing) < PAIR_TOL

    def test_unlanded_rejected(self, setup03):
        ray = trace_ray(setup03, Address.constant(0))
        with pytest.raises(UnlandedRay):
            build_ray_graph([ray])

    def test_empty_graph_one_region(self, setup03):
        graph = build_ray_graph([])
        regions, _ = basic_regions(graph, setup03.bbox, 1.0)
        assert len(regions) == 1


class TestBasicRegions:
    def test_lone_rays_do_not_separate(self, setup03):
        rays = landed_rays(setup03, (-1, 0, 1))
        graph = build_ray_graph(rays)
        regions, geometry = basic_regions(graph, setup03.bbox, 0.5)
        assert len(regions) == 1

    def test_period_two_pair_splits_plane(self, setup_neg5):
        rays = [landing_point(trace_ray(setup_neg5, Address.cycle(b)))
                for b in ([0, 1], [1, 0])]
        graph = build_ray_graph(rays)
        assert len(graph.pairs) == 1
        regions, geometry = basic_regions(graph, setup_neg5.bbox, 0.4)
        assert len(regions) == 2
        # the two attracting period-2 points fall in different regions
        s1 = geometry.signature(-0.0412 + 0j)
        s2 = geometry.signature(-4.798 + 0j)
        assert s1 != s2
        # the pair curve separates points straddling it left of the repeller
        x_star = brentq(lambda x: -5 * np.exp(x) - x, -2, -1, xtol=1e-12)
        assert geometry.signature(complex(x_star + 0.3, 0.0)) == s1
        assert geometry.signature(complex(x_star - 0.3, 0.0)) == s2

    def test_region_membership_consistency(self, setup_neg5):
        rays = [landing_point(trace_ray(setup_neg5, Address.cycle(b)))
                for b in ([0, 1], [1, 0])]
        graph = build_ray_graph(rays)
        regions, geometry = basic_regions(graph, setup_neg5.bbox, 0.4)
        for reg in regions:
            assert geometry.signature(reg.sample_interior_point) == reg.signature

    def test_box_missing_a_region_is_too_coarse(self, pair_neg5):
        # the pair's curve runs right of x = -1.33, so this box holds samples
        # of the outer region only, and the graph needs 1 + (2 - 1) regions
        with pytest.raises(ResolutionTooCoarse, match="1 region signatures found"):
            basic_regions(pair_neg5, Rect(-9, -1.4, -13, 13), 0.4)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_rays_landing_together_bound_their_regions(self, k):
        # k rays leave 0 to the right at distinct heights, and a separate pair
        # lands at 2 + 7i; crossing one of the k rays flips k - 1 pair bits
        heights = np.linspace(-4.0, 4.0, k)
        fan = [hand_built_ray(j, 0j, h) for j, h in enumerate(heights)]
        pair = [hand_built_ray(k + j, 2 + 7j, h) for j, h in enumerate((6.0, 8.0))]
        regions, geometry = basic_regions(build_ray_graph(fan + pair),
                                          Rect(-10, 10, -10, 10), 0.5)
        assert len(regions) == 1 + (k - 1) + 1
        by_signature = {reg.signature: reg for reg in regions}
        # a point between each two neighbouring rays of the fan, one left of
        # it and one between the rays of the pair, with the rays bounding each
        expected = [(complex(5.0, 0.5 * (lo + hi)), fan[i:i + 2], [])
                    for i, (lo, hi) in enumerate(zip(heights[:-1], heights[1:]))]
        expected += [(-5.0 + 0j, [fan[0], fan[-1]], pair), (5.0 + 7j, [], pair)]
        for z, fan_rays, pair_rays in expected:
            bounds = by_signature[geometry.signature(z)].boundary_rays
            assert [id(r) for r in bounds] == [id(r) for r in fan_rays + pair_rays]


def hand_built_ray(band: int, landing: complex, height: float) -> Ray:
    """A landed fixed ray of `band` that runs left at `height` from x = 8 to
    one unit right of `landing`, then straight to it; samples far to near."""
    corner = complex(landing.real + 1.0, height)
    z = np.concatenate([np.linspace(8.0, corner.real, 8) + 1j * height,
                        landing + (corner - landing) * np.array([0.75, 0.5, 0.25])])
    return Ray(Address.constant(band), 8.0 * 0.5 ** np.arange(len(z)), z,
               RayStatus.landed(landing, None), np.empty(0, dtype=complex), landing)


# -- per-point references for the region kernels --------------------------------


def crossing_parity_reference(z, far, poly):
    """Proper crossings of [z, far] with the polyline; None when it grazes."""
    a, b = poly[:-1], poly[1:]
    d1 = far - z
    d2 = b - a
    denom = (d1 * d2.conjugate()).imag
    q = a - z
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (q * d2.conjugate()).imag / denom
        u = (q * d1.conjugate()).imag / denom
    scale = np.abs(d1) * np.abs(d2)
    parallel = np.abs(denom) < 1e-14 * np.maximum(scale, 1e-300)
    eps = 1e-9
    inside = (~parallel) & (s > eps) & (s < 1 - eps) & (u > eps) & (u < 1 - eps)
    grazing = (~parallel) & (
        ((np.abs(s) <= eps) | (np.abs(s - 1) <= eps)) & (u > -eps) & (u < 1 + eps)
        | ((np.abs(u) <= eps) | (np.abs(u - 1) <= eps)) & (s > -eps) & (s < 1 + eps)
    )
    if np.any(grazing):
        return None
    return int(np.count_nonzero(inside))


def far_point(bbox, attempt):
    d = bbox.diagonal
    far = complex(bbox.x0 - 3.71 * d, bbox.y0 - 2.39 * d)
    return far * (1.0 + 0.0173 * attempt) - 1j * attempt * 0.31


def signature_reference(geometry, z):
    for attempt in range(12):
        far = far_point(geometry.bbox, attempt)
        bits = []
        for poly in geometry.polylines:
            c = crossing_parity_reference(z, far, poly.z)
            if c is None:
                break
            bits.append(c & 1)
        else:
            return tuple(bits)
    raise ResolutionTooCoarse(f"cannot resolve the region of {z}")


def min_distance_reference(geometry, z):
    return min((poly.distance_to_point(z) for poly in geometry.polylines),
               default=math.inf)


def probe_points_reference(bbox, resolution, geometry):
    pts = []
    for poly in geometry.polylines:
        a, b = poly.segments()
        seg = b - a
        mids = 0.5 * (b + a)
        with np.errstate(invalid="ignore", divide="ignore"):
            normals = 1j * seg / np.abs(seg)
        for off in (0.35 * resolution, 0.05 * resolution):
            for m, nrm in zip(mids, normals):
                if np.isfinite(nrm):
                    for side in (+1, -1):
                        p = m + side * off * nrm
                        if bbox.contains(p):
                            pts.append(complex(p))
    return pts


def regions_reference(bbox, resolution, geometry):
    """(signature, sample, boundary rays) per region, one probe at a time."""
    best = {}
    for z in probe_points_reference(bbox, resolution, geometry):
        clearance = min_distance_reference(geometry, z)
        if clearance < max(PROBE_CLEARANCE, resolution * 1e-3):
            continue
        sig = signature_reference(geometry, z)
        cur = best.get(sig)
        if cur is None or clearance > cur[0]:
            best[sig] = (clearance, z)
    out = []
    for sig in sorted(best):
        boundary = []
        for k, pair in enumerate(geometry.pairs):
            neighbor = tuple(b ^ 1 if idx == k else b for idx, b in enumerate(sig))
            if neighbor in best:
                boundary.extend(pair.rays)
        out.append((sig, best[sig][1], boundary))
    return out


@pytest.fixture(scope="module")
def pair_neg5(setup_neg5):
    rays = [landing_point(trace_ray(setup_neg5, Address.cycle(b)))
            for b in ([0, 1], [1, 0])]
    return build_ray_graph(rays)


@pytest.fixture(scope="module")
def three_pairs(setup_neg5, pair_neg5):
    """The period-2 pair of exp(-5) and its copies shifted by +-2 pi i."""
    pair = pair_neg5.pairs[0]

    def shifted(k):
        w = 2j * np.pi * k
        r1, r2 = (dataclasses.replace(r, z=r.z + w) for r in pair.rays)
        return RayPair((r1, r2), pair.common_landing + w)
    return RegionGeometry([pair, shifted(1), shifted(-1)], setup_neg5.bbox)


class TestRegionKernels:
    def test_batch_matches_per_point_reference(self, three_pairs):
        geometry = three_pairs
        bbox = geometry.bbox
        rows = CHUNK_ELEMENTS // sum(len(p.z) - 1 for p in geometry.polylines)
        n = 7 * rows + 5
        assert n % rows
        rng = np.random.default_rng(7)
        z = rng.uniform(bbox.x0, bbox.x1, n) + 1j * rng.uniform(bbox.y0, bbox.y1, n)
        sigs = geometry.signature(z)
        assert sigs.shape == (n, 3)
        assert [tuple(s) for s in sigs] == [signature_reference(geometry, w) for w in z]
        assert len({tuple(s) for s in sigs}) > 1
        dist = geometry.min_distance(z)
        assert np.array_equal(dist, [min_distance_reference(geometry, w) for w in z])
        # a scalar is a batch of size 1
        assert geometry.signature(z[3]) == signature_reference(geometry, z[3])
        assert geometry.min_distance(z[3]) == dist[3]

    def test_grazing_point_retries(self, three_pairs):
        geometry = three_pairs
        poly = geometry.polylines[1]
        vertex = poly.z[20]
        far = far_point(geometry.bbox, 0)
        # [z, far] runs through a vertex of the polyline at the first attempt
        z = vertex + 0.3 * (vertex - far) / abs(vertex - far)
        assert crossing_parity_reference(z, far, poly.z) is None
        expected = signature_reference(geometry, z)
        assert geometry.signature(z) == expected
        batch = geometry.signature(np.array([-1.0 + 2.0j, z, 0.5 - 3.0j]))
        assert tuple(batch[1]) == expected
        assert tuple(batch[0]) == signature_reference(geometry, -1.0 + 2.0j)

    def test_point_on_curve_raises(self, three_pairs):
        geometry = three_pairs
        poly = geometry.polylines[2]
        on = complex(0.5 * (poly.z[30] + poly.z[31]))
        with pytest.raises(ResolutionTooCoarse):
            signature_reference(geometry, on)
        with pytest.raises(ResolutionTooCoarse, match=re.escape(str(on))):
            geometry.signature(on)
        with pytest.raises(ResolutionTooCoarse, match=re.escape(str(on))):
            geometry.signature(np.array([-1.0 + 2.0j, on, 0.5 - 3.0j]))
        assert geometry.min_distance(on) < 1e-12

    def test_empty_graph(self, setup03):
        geometry = RegionGeometry([], setup03.bbox)
        assert geometry.signature(1.0 + 1.0j) == ()
        assert geometry.min_distance(1.0 + 1.0j) == math.inf
        z = np.array([0.0, 1.0 + 1.0j, -2.0j])
        assert geometry.signature(z).shape == (3, 0)
        assert np.all(geometry.min_distance(z) == math.inf)


class TestProbeSet:
    @pytest.mark.parametrize("resolution", [0.4, 0.25])
    def test_probe_points_match_nested_loop(self, three_pairs, resolution):
        geometry = three_pairs
        probes = _probe_points(geometry, resolution)
        expected = probe_points_reference(geometry.bbox, resolution, geometry)
        assert probes.dtype == complex
        assert probes.tolist() == expected

    def test_regions_match_per_point_reference(self, setup_neg5, pair_neg5):
        regions, geometry = basic_regions(pair_neg5, setup_neg5.bbox, 0.4)
        expected = regions_reference(setup_neg5.bbox, 0.4, geometry)
        assert len(regions) == len(expected) == 2
        for reg, (sig, sample, boundary) in zip(regions, expected):
            assert reg.signature == sig
            assert reg.sample_interior_point == sample
            assert len(reg.boundary_rays) == len(boundary) == 2
            assert all(a is b for a, b in zip(reg.boundary_rays, boundary))


class TestResolutionPrecondition:
    @pytest.mark.parametrize("resolution", [0.0, -0.5, math.nan, math.inf])
    def test_basic_regions_rejects(self, setup03, resolution):
        with pytest.raises(ValueError, match="resolution"):
            basic_regions(build_ray_graph([]), setup03.bbox, resolution)

    @pytest.mark.parametrize("resolution", [0.0, math.nan])
    def test_report_rejects_before_ray_work(self, setup03, monkeypatch, resolution):
        def no_rays(*_args, **_kwargs):
            raise AssertionError("rays traced before the resolution was checked")
        monkeypatch.setattr(raysep.separation, "fixed_rays", no_rays)
        with pytest.raises(ValueError, match="resolution"):
            separation_report(setup03.spec, setup03, 1, resolution=resolution)


class TestCountingContour:
    @pytest.mark.parametrize("bands,expected", [((0,), 2), ((-1, 0, 1), 4)])
    def test_counts_match_collection_size(self, setup03, bands, expected):
        labels = [setup03.domain_by_band(j).label for j in bands]
        contour = counting_contour(setup03, labels)
        exp_count, measured, match = global_count_check(contour)
        assert exp_count == expected
        assert measured == expected
        assert match

    def test_contour_is_closed_and_ccw(self, setup03):
        labels = [setup03.domain_by_band(j).label for j in (-1, 0, 1)]
        contour = counting_contour(setup03, labels)
        assert contour.closed_curve.closed
        from raysep.curves import signed_area
        assert signed_area(contour.closed_curve) > 0

    def test_gap_rejected(self, setup03):
        labels = [setup03.domain_by_band(j).label for j in (-1, 1)]
        with pytest.raises(NotFullComplete):
            counting_contour(setup03, labels)

    def test_missing_disk_domain_rejected(self, setup03):
        # band 0 meets the auto disk for exp(0.3); collections omitting it fail
        labels = [setup03.domain_by_band(j).label for j in (1, 2)]
        with pytest.raises(NotFullComplete):
            counting_contour(setup03, labels)

    def test_completeness_rays_traced_by_one_walk(self, setup03, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return trace_ray(*args, **kwargs)

        monkeypatch.setattr(raysep.separation, "trace_ray", counted)
        labels = [setup03.domain_by_band(j).label for j in (-1, 0, 1)]
        counting_contour(setup03, labels)
        assert len(calls) == 1
        assert [a.period[0].j for a in calls[0]] == [-1, 0, 1, -2, 2]

    def test_report_traces_only_the_adjacent_bands(self, setup03, monkeypatch):
        # at p = 1 the completeness check reads the collection's fixed rays
        # from the report's own walk and traces just bands j_lo - 1, j_hi + 1
        calls = []

        def counted(*args, **kwargs):
            calls.append([str(a) for a in args[1]])
            return trace_ray(*args, **kwargs)

        monkeypatch.setattr(raysep.separation, "trace_ray", counted)
        report = separation_report(setup03.spec, setup03, 1)
        assert report.global_counts is not None and report.global_counts[2]
        js = sorted(setup03.domain_labels(), key=lambda lb: lb.j)
        assert calls == [[f"|{js[0].j - 1}", f"|{js[-1].j + 1}"]]

    def test_invalid_radius_names_the_margin(self, setup03):
        # the setup's radius fails for a band far outside the setup; a second
        # call decides the same and still reports the margin
        labels = [BranchLabel(10 ** 6)]
        radius = f"radius {setup03.expansion_radius} not valid .*margin -"
        for _ in range(2):
            with pytest.raises(ExpansionNotValidated, match=radius):
                counting_contour(setup03, labels)

    def test_piece_tags(self, setup03):
        labels = [setup03.domain_by_band(0).label]
        contour = counting_contour(setup03, labels)
        tags = [tag for tag, _ in contour.pieces]
        assert tags[0].startswith("r_alpha")
        assert sum(tag.startswith("Gamma_alpha") for tag in tags) == 3


def upper_half_plane_region(eps_reach: float = 4.0):
    rays = [ParamCurve.segment(eps_reach, 1e-9, n=257),
            ParamCurve.segment(-eps_reach, -1e-9, n=257)]
    return SimpleNamespace(contains=lambda z: z.imag > 0, boundary_rays=rays)


class TestBoundaryModification:
    def test_repelling_doubling_map(self):
        region = upper_half_plane_region()
        record = FixedPointRecord(0j, 1, 2.0 + 0j, "repelling")
        modified = modify_boundary_near_fixed_point(
            lambda z: 2 * z, region, record, 0.1)
        assert modified.kind == "repelling"
        assert modified.margin > 1e-9
        # zeta is the half of the eps-circle outside the region
        assert np.all(modified.zeta.z.imag < 1e-12)
        assert np.allclose(np.abs(modified.zeta.z), 0.1, atol=1e-12)
        # f(zeta) = circle of radius 0.2 on the same side
        assert np.allclose(np.abs(modified.f_zeta.z), 0.2, atol=1e-12)
        assert modified.contains(0j)
        assert modified.contains(0.05j)          # absorbed disk
        assert modified.contains(-0.05j)         # enlarged beyond the old edge
        assert not modified.contains(-0.5j)

    def test_parabolic_quadratic_map(self):
        region = upper_half_plane_region()
        record = FixedPointRecord(0j, 1, 1.0 + 0j, "parabolic", multiplicity=2)
        modified = modify_boundary_near_fixed_point(
            lambda z: z + z * z, region, record, 0.1)
        assert modified.kind == "parabolic"
        assert modified.margin > 1e-9
        assert modified.sector is not None
        direction, half = modified.sector
        assert direction == pytest.approx(1.0, abs=1e-8)   # repelling petal at +1
        assert half == pytest.approx(np.pi / 2)
        # the sector is carved out of the region
        assert not modified.contains(0.05 + 0.02j)
        assert modified.contains(-0.05 + 0.02j)
        # images of zeta samples stay in the closed shrunk region
        for w in modified.f_zeta.z:
            assert w.imag > -1e-12

    def test_eps_too_large_guard(self):
        region = upper_half_plane_region(eps_reach=20.0)
        record = FixedPointRecord(0j, 1, 2.0 + 0j, "repelling")
        with pytest.raises(EpsTooLarge):
            modify_boundary_near_fixed_point(
                lambda z: 2 * z, region, record, 10.0,
                other_fixed_points=[5.0 + 0j])


class TestSeparationReport:
    def test_attracting_case(self):
        spec = exp_map(0.3)
        setup = structural_setup(spec, Rect(-4, 10, -12, 12), 0.1)
        report = separation_report(spec, setup, 1)
        assert len(report.regions) == 1
        assert report.verdicts[0].verdict == "exactly_one_interior"
        att = brentq(lambda x: 0.3 * np.exp(x) - x, 0, 1, xtol=1e-14)
        assert abs(report.verdicts[0].interior[0] - att) < 1e-8
        assert not report.has_violation
        assert not report.is_incomplete
        assert report.global_counts is not None
        expected, measured, ok = report.global_counts
        assert expected == len(setup.domains) + 1 == measured and ok

    def test_parabolic_case(self):
        spec = parse_map("exp(1/e)")
        setup = structural_setup(spec, Rect(-4, 8, -12, 12), 0.1)
        report = separation_report(spec, setup, 1)
        assert len(report.regions) == 1
        assert report.verdicts[0].verdict == "exactly_one_virtual"
        assert abs(report.verdicts[0].virtual[0] - 1.0) < 1e-8
        assert not report.has_violation

    def test_period_two_case(self, setup_neg5):
        report = separation_report(setup_neg5.spec, setup_neg5, 2)
        assert not report.has_violation
        assert not report.is_incomplete
        assert len(report.regions) == 2
        interiors = sorted(z.real for v in report.verdicts for z in v.interior)
        cycle = sorted(r.location.real for r in report.records
                       if r.classification == "attracting")
        assert interiors == pytest.approx(cycle, abs=1e-9)

    def test_count_mismatch_is_violation(self, monkeypatch, capsys):
        import raysep.separation
        from raysep.cli import EXIT_VIOLATION, main
        from raysep.serialize import dumps, report_to_json
        monkeypatch.setattr(raysep.separation, "global_count_check",
                            lambda contour: (6, 5, False))
        spec = exp_map(0.3)
        setup = structural_setup(spec, Rect(-4, 10, -12, 12), 0.1)
        report = separation_report(spec, setup, 1)
        assert report.verdicts[0].verdict == "exactly_one_interior"
        assert report.has_violation
        assert '"has_violation": true' in dumps(report_to_json(report))
        code = main(["verify", "--map", "exp(0.3)", "--period", "1",
                     "--bbox=-4,10,-12,12"])
        err = capsys.readouterr().err
        assert code == EXIT_VIOLATION
        assert "expected 6" in err and "measured 5" in err

    def test_every_point_assigned_once(self, setup_neg5):
        report = separation_report(setup_neg5.spec, setup_neg5, 2)
        landing_pts = report.graph.landing_points
        assigned = [z for v in report.verdicts for z in v.interior]
        for rec in report.records:
            is_landing = any(abs(rec.location - p) < 1e-6 for p in landing_pts)
            in_regions = sum(1 for z in assigned if abs(z - rec.location) < 1e-9)
            assert (1 if not is_landing else 0) == in_regions


    def test_virtual_probe_on_curve_is_incomplete(self, monkeypatch):
        # every probe around the parabolic point reads as lying on a pair curve
        original = RegionGeometry.min_distance

        def blocked_near_one(self, z):
            d = original(self, z)
            return np.where(np.abs(np.asarray(z) - 1.0) < 0.2, 0.0, d)

        monkeypatch.setattr(RegionGeometry, "min_distance", blocked_near_one)
        spec = parse_map("exp(1/e)")
        setup = structural_setup(spec, Rect(-4, 8, -12, 12), 0.1)
        report = separation_report(spec, setup, 1)
        assert report.is_incomplete
        entries = [e for e in report.incomplete if e.startswith("virtual point of parabolic")]
        assert len(entries) == 1
        parabolic = [r.location for r in report.records if r.classification == "parabolic"]
        assert str(parabolic[0]) in entries[0]
        assert not any(v.virtual for v in report.verdicts)
        assert [v.verdict for v in report.verdicts] == ["INCOMPLETE(interior=0, virtual=0)"]
        assert not report.has_violation

    def test_two_points_in_a_region_with_all_rays_landed_is_violation(self, monkeypatch):
        original = raysep.separation.find_periodic_points

        def doubled(*args, **kwargs):
            records = original(*args, **kwargs)
            return records + [dataclasses.replace(r) for r in records if r.classification == "attracting"]

        monkeypatch.setattr(raysep.separation, "find_periodic_points", doubled)
        spec = exp_map(0.3)
        report = separation_report(spec, structural_setup(spec, Rect(-4, 10, -12, 12), 0.1), 1)
        assert not any(e.startswith("ray ") for e in report.incomplete)
        assert [v.verdict for v in report.verdicts] == ["VIOLATION(interior=2, virtual=0)"]
        assert report.has_violation

    def test_point_in_no_sampled_region_is_too_coarse(self, monkeypatch):
        # the region samples miss the region of the attracting fixed point
        original = raysep.separation.basic_regions
        att = brentq(lambda x: 0.3 * np.exp(x) - x, 0, 1, xtol=1e-14)

        def without_attracting_region(graph, bbox, resolution):
            regions, geometry = original(graph, bbox, resolution)
            sig = tuple(int(b) for b in geometry.signature(np.array([att]))[0])
            return [r for r in regions if r.signature != sig], geometry

        monkeypatch.setattr(raysep.separation, "basic_regions", without_attracting_region)
        spec = exp_map(0.3)
        setup = structural_setup(spec, Rect(-4, 10, -12, 12), 0.1)
        with pytest.raises(ResolutionTooCoarse, match=r"^\(0\.4894\d*[+-].* lies in no "):
            separation_report(spec, setup, 1)

    @pytest.mark.parametrize("text, box, res, period", [
        ("exp(0.3)", (-4, 10, -12, 12), 0.1, 1),
        ("exp(1/e)", (-4, 8, -12, 12), 0.1, 1),
        ("exp(-5)", (-9, 7.5, -13, 13), 0.12, 2),
    ])
    def test_regions_follow_the_ray_graph(self, text, box, res, period):
        # Euler's formula: landing point i with k_i rays gives 1 + sum(k_i - 1)
        # regions, and each landing bounds k_i of them
        spec = parse_map(text)
        report = separation_report(spec, structural_setup(spec, Rect(*box), res), period)
        rays_at = np.bincount(report.graph.landing_index)
        assert bool(np.any(rays_at > 1)) == (period == 2)
        assert len(report.regions) == 1 + np.sum(rays_at - 1)
        for z, k in zip(report.graph.landing_points, rays_at):
            assert sum(z in v.boundary_landings for v in report.verdicts) == k


class TestInferredRays:
    @staticmethod
    def _augment(setup, monkeypatch, orbit_step):
        """The inferred rays of one repelling record whose orbit takes `orbit_step`."""
        monkeypatch.setattr(MapSpec, "derivative_array", orbit_step)
        record = FixedPointRecord(-1.0 + 0.5j, 2, 4.0 + 0j, "repelling")
        incomplete = []
        landed, landings = _augment_with_inferred_rays(setup, 2, [record], [],
                                                       np.empty(0, dtype=complex), incomplete)
        assert len(landings) == len(landed)
        return landed, incomplete

    def test_unexpected_error_propagates(self, setup_neg5, monkeypatch):
        def boom(self, z, period=1):
            raise RuntimeError("boom")
        with pytest.raises(RuntimeError):
            self._augment(setup_neg5, monkeypatch, boom)

    @pytest.mark.parametrize("w, dw", [
        (complex("inf"), 1.0),
        (complex("nan"), 1.0),
        (2e300, 1.0),
        (1.0, 2e300),
    ], ids=["inf", "nan", "large-value", "large-derivative"])
    def test_overflowing_orbit_is_skipped(self, setup_neg5, monkeypatch, w, dw):
        def overflowing(self, z, period=1):
            shape = np.shape(z)
            return np.full(shape, w, dtype=complex), np.full(shape, dw, dtype=complex)
        fake = SimpleNamespace(derivative_array=lambda z, period: overflowing(None, z, period))
        with pytest.raises(Overflow):      # a step that `MapSpec.evaluate` rejects
            MapSpec.evaluate(fake, 0j)
        calls = self._traced_batches(monkeypatch)
        landed, incomplete = self._augment(setup_neg5, monkeypatch, overflowing)
        assert landed == [] and incomplete == [] and calls == []

    def test_landed_address_adds_no_ray(self, setup_neg5):
        # a record off every landing whose orbit bands spell a landed ray's
        # address: that ray lands where it did, not at the record
        landed = landed_rays(setup_neg5, [0, 1], period=2)
        ray = next(r for r in landed if str(r.address) == "|1,1")
        z = ray.landing + 1e-3
        bands = [int(setup_neg5.band_index(z)),
                 int(setup_neg5.band_index(setup_neg5.spec.evaluate(z, 1)[0]))]
        assert Address.cycle(bands) == ray.address
        landings = np.array([r.landing for r in landed], dtype=complex)
        incomplete = []
        out, out_landings = _augment_with_inferred_rays(
            setup_neg5, 2, [FixedPointRecord(z, 2, 4.0 + 0j, "repelling")], landed,
            landings, incomplete)
        assert out == landed and incomplete == []
        assert out_landings.tobytes() == landings.tobytes()

    def test_unvalidated_address_is_one_entry(self, setup_neg5, monkeypatch):
        z = landed_rays(setup_neg5, [1], period=2)[0].landing     # |1,1
        monkeypatch.setattr(raysep.structure, "EXPANSION_CAP", 0.0)   # no radius passes
        records = [FixedPointRecord(z + d, 2, 4.0 + 0j, "repelling") for d in (1e-3, 2e-3)]
        incomplete = []
        _augment_with_inferred_rays(setup_neg5, 2, records, [], np.empty(0, dtype=complex),
                                    incomplete)
        assert incomplete == ["inferred ray |1,1 not validated"]

    def test_record_matched_by_an_earlier_inferred_ray_is_skipped(self, setup_neg5,
                                                                  monkeypatch):
        # a twin 5e-7 from |1,1's landing whose bands are made to read |0,1:
        # the ray inferred for the first record already lands at the twin
        z = landed_rays(setup_neg5, [1], period=2)[0].landing
        twin = z + 5e-7
        band_index = raysep.structure.StructuralSetup.band_index

        def twin_in_band_zero(self, w):
            bands = np.where(np.asarray(w) == twin, 0, band_index(self, w))
            return int(bands) if bands.ndim == 0 else bands
        monkeypatch.setattr(raysep.structure.StructuralSetup, "band_index", twin_in_band_zero)
        reads = []

        def counted(ray):
            reads.append(ray.address)
            return landing_point(ray)
        monkeypatch.setattr(raysep.separation, "landing_point", counted)
        records = [FixedPointRecord(w, 2, 4.0 + 0j, "repelling") for w in (z, twin)]
        out, _ = _augment_with_inferred_rays(setup_neg5, 2, records, [],
                                             np.empty(0, dtype=complex), [])
        assert [str(r.address) for r in out] == ["|1,1"]
        assert [str(a) for a in reads] == ["|1,1"]

    @staticmethod
    def _traced_batches(monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(list(args[1]))
            return trace_ray(*args, **kwargs)

        monkeypatch.setattr(raysep.separation, "trace_ray", counted)
        return calls

    def test_one_walk_for_all_inferred_rays(self, setup_neg5, monkeypatch):
        calls = self._traced_batches(monkeypatch)
        report = separation_report(setup_neg5.spec, setup_neg5, 2)
        assert len(calls) == 1 and len(calls[0]) > 1
        assert not report.incomplete
        bands = {d.label.j for d in setup_neg5.domains}
        inferred = {r.address for r in report.graph.rays
                    if not {s.j for s in r.address.period} <= bands}
        assert inferred and inferred <= set(calls[0])

    def test_records_at_landings_are_not_traced(self, setup_neg5, monkeypatch):
        calls = self._traced_batches(monkeypatch)
        landed = landed_rays(setup_neg5, [0, 1], period=2)
        records = [FixedPointRecord(r.landing + 0.5 * PAIR_TOL, 2, 4.0 + 0j, "repelling")
                   for r in landed]
        landings = np.array([r.landing for r in landed], dtype=complex)
        out, out_landings = _augment_with_inferred_rays(setup_neg5, 2, records, landed,
                                                        landings, [])
        assert calls == [] and out == landed
        assert out_landings.tobytes() == landings.tobytes()

    def test_unvalidated_candidate_is_incomplete(self, setup_neg5, monkeypatch):
        calls = self._traced_batches(monkeypatch)
        monkeypatch.setattr(raysep.structure, "EXPANSION_CAP", 2.0 * setup_neg5.expansion_radius)
        report = separation_report(setup_neg5.spec, setup_neg5, 2)
        entries = [e for e in report.incomplete if e.startswith("inferred ray ")]
        assert entries and all(re.fullmatch(r"inferred ray \|-?\d+,-?\d+ not validated", e)
                               for e in entries)
        # the validated candidates are still traced, together
        assert len(calls) == 1 and calls[0]
        assert not {f"inferred ray {a} not validated" for a in calls[0]} & set(entries)


class TestPeriodTwoOnPeriodOneMaps:
    def test_attracting_map_clean_at_period_two(self):
        spec = exp_map(0.3)
        setup = structural_setup(spec, Rect(-4, 10, -12, 12), 0.1)
        report = separation_report(spec, setup, 2)
        assert not report.has_violation
        assert len(report.regions) == 1
        assert report.verdicts[0].verdict == "exactly_one_interior"
        att = brentq(lambda x: 0.3 * np.exp(x) - x, 0, 1, xtol=1e-14)
        assert abs(report.verdicts[0].interior[0] - att) < 1e-8

    def test_parabolic_map_single_virtual_at_period_two(self):
        # the double root of the second iterate must not shatter into
        # spurious attracting/repelling records around the parabolic point
        spec = parse_map("exp(1/e)")
        setup = structural_setup(spec, Rect(-4, 8, -12, 12), 0.1)
        report = separation_report(spec, setup, 2)
        assert not report.has_violation
        assert len(report.regions) == 1
        assert report.verdicts[0].verdict == "exactly_one_virtual"
        near_one = [r for r in report.records if abs(r.location - 1.0) < 1e-3]
        assert len(near_one) == 1
        assert near_one[0].classification == "parabolic"


class TestOneMap:
    """Every function that receives a setup, ray or contour reads the map from it."""

    def test_report_refuses_a_map_other_than_the_setups(self, setup03):
        with pytest.raises(ValueError) as err:
            separation_report(exp_map(0.32), setup03, 1)
        assert repr(exp_map(0.32)) in str(err.value)
        assert repr(setup03.spec) in str(err.value)

    def test_no_map_beside_the_setup_ray_or_contour(self):
        functions = [PullbackWalk, trace_ray, fixed_rays, landing_point, check_full_complete,
                     counting_contour, global_count_check, find_fixed_in_domain,
                     _augment_with_inferred_rays]
        for fn in functions:
            params = inspect.signature(fn).parameters.values()
            assert not [p.name for p in params
                        if p.name in ("spec", "mapobj") or p.annotation in (MapSpec, "MapSpec")]
        assert "setup" not in {f.name for f in dataclasses.fields(Ray)}
