"""Ray graph, basic regions, counting contour, boundary modification, report."""

import dataclasses

import numpy as np
import pytest
from scipy.optimize import brentq

from raysep.curves import ParamCurve
from raysep.errors import EpsTooLarge, NotFullComplete, Overflow, UnlandedRay
from raysep.fixedpoints import FixedPointRecord
from raysep.maps import MapSpec, exp_map, parse_map
import raysep.separation
from raysep.rays import PAIR_TOL, Address, RayStatus, detect_ray_pairs, landing_point, trace_ray
from raysep.separation import (
    SimpleRegion,
    _augment_with_inferred_rays,
    basic_regions,
    build_ray_graph,
    counting_contour,
    global_count_check,
    modify_boundary_near_fixed_point,
    separation_report,
)
from raysep.structure import Rect, structural_setup


@pytest.fixture(scope="module")
def setup03():
    return structural_setup(exp_map(0.3), Rect(-4, 10, -17, 17), 0.1)


@pytest.fixture(scope="module")
def setup_neg5():
    return structural_setup(exp_map(-5), Rect(-9, 7.5, -13, 13), 0.12)


def landed_rays(setup, bands, period=1):
    from raysep.rays import fixed_rays
    domains = [setup.domain_by_band(j) for j in bands]
    return fixed_rays(setup.spec, setup, domains, period)


class TestRayGraph:
    def test_five_rays_no_pairs(self, setup03):
        rays = landed_rays(setup03, (-2, -1, 0, 1, 2))
        graph = build_ray_graph(rays, 1)
        assert len(graph.landing_points) == 5
        assert graph.pairs == []

    def test_synthetic_shared_landing_is_a_pair(self, setup03):
        base = landed_rays(setup03, (0,))[0]
        clone = dataclasses.replace(base, address=Address.constant(1))
        graph = build_ray_graph([base, clone], 1)
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
        graph = build_ray_graph(rays, 1)
        assert len(graph.landing_points) == 2
        assert len(graph.pairs) == 1
        assert len(detect_ray_pairs(rays)) == 1
        index = {id(r): i for r, i in zip(graph.rays, graph.landing_index)}
        for pair in graph.pairs:
            assert index[id(pair.rays[0])] == index[id(pair.rays[1])]
        for ray, i in zip(graph.rays, graph.landing_index):
            assert abs(graph.landing_points[i] - ray.landing) < PAIR_TOL

    def test_unlanded_rejected(self, setup03):
        ray = trace_ray(setup03.spec, setup03, Address.constant(0))
        with pytest.raises(UnlandedRay):
            build_ray_graph([ray], 1)

    def test_empty_graph_one_region(self, setup03):
        graph = build_ray_graph([], 1)
        regions, _ = basic_regions(graph, setup03.bbox, 1.0)
        assert len(regions) == 1


class TestBasicRegions:
    def test_lone_rays_do_not_separate(self, setup03):
        rays = landed_rays(setup03, (-1, 0, 1))
        graph = build_ray_graph(rays, 1)
        regions, geometry = basic_regions(graph, setup03.bbox, 0.5)
        assert len(regions) == 1

    def test_period_two_pair_splits_plane(self, setup_neg5):
        spec = setup_neg5.spec
        rays = [landing_point(spec, trace_ray(spec, setup_neg5, Address.cycle(b)))
                for b in ([0, 1], [1, 0])]
        graph = build_ray_graph(rays, 2)
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
        spec = setup_neg5.spec
        rays = [landing_point(spec, trace_ray(spec, setup_neg5, Address.cycle(b)))
                for b in ([0, 1], [1, 0])]
        graph = build_ray_graph(rays, 2)
        regions, geometry = basic_regions(graph, setup_neg5.bbox, 0.4)
        for reg in regions:
            assert reg.contains(reg.sample_interior_point, geometry)


class TestCountingContour:
    @pytest.mark.parametrize("bands,expected", [((0,), 2), ((-1, 0, 1), 4)])
    def test_counts_match_collection_size(self, setup03, bands, expected):
        labels = [setup03.domain_by_band(j).label for j in bands]
        contour = counting_contour(setup03.spec, setup03, labels)
        exp_count, measured, match = global_count_check(setup03.spec, contour)
        assert exp_count == expected
        assert measured == expected
        assert match

    def test_contour_is_closed_and_ccw(self, setup03):
        labels = [setup03.domain_by_band(j).label for j in (-1, 0, 1)]
        contour = counting_contour(setup03.spec, setup03, labels)
        assert contour.closed_curve.closed
        from raysep.curves import signed_area
        assert signed_area(contour.closed_curve) > 0

    def test_gap_rejected(self, setup03):
        labels = [setup03.domain_by_band(j).label for j in (-1, 1)]
        with pytest.raises(NotFullComplete):
            counting_contour(setup03.spec, setup03, labels)

    def test_missing_disk_domain_rejected(self, setup03):
        # band 0 meets the auto disk for exp(0.3); collections omitting it fail
        labels = [setup03.domain_by_band(j).label for j in (1, 2)]
        with pytest.raises(NotFullComplete):
            counting_contour(setup03.spec, setup03, labels)

    def test_completeness_rays_traced_by_one_walk(self, setup03, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return trace_ray(*args, **kwargs)

        monkeypatch.setattr(raysep.separation, "trace_ray", counted)
        labels = [setup03.domain_by_band(j).label for j in (-1, 0, 1)]
        counting_contour(setup03.spec, setup03, labels)
        assert len(calls) == 1
        assert [a.period[0].j for a in calls[0]] == [-1, 0, 1, -2, 2]

    def test_piece_tags(self, setup03):
        labels = [setup03.domain_by_band(0).label]
        contour = counting_contour(setup03.spec, setup03, labels)
        tags = [tag for tag, _ in contour.pieces]
        assert tags[0].startswith("r_alpha")
        assert sum(tag.startswith("Gamma_alpha") for tag in tags) == 3


def upper_half_plane_region(eps_reach: float = 4.0):
    rays = [ParamCurve.segment(eps_reach, 1e-9, n=257),
            ParamCurve.segment(-eps_reach, -1e-9, n=257)]
    return SimpleRegion(lambda z: z.imag > 0, rays)


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
        assert modified.contains(0j) or True
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
                            lambda spec, contour: (6, 5, False))
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


class TestInferredRays:
    @staticmethod
    def _augment(setup, monkeypatch, exc):
        def evaluate(self, z, period=1):
            raise exc
        monkeypatch.setattr(MapSpec, "evaluate", evaluate)
        record = FixedPointRecord(-1.0 + 0.5j, 2, 4.0 + 0j, "repelling")
        incomplete = []
        landed = _augment_with_inferred_rays(setup.spec, setup, 2, [record], [],
                                             incomplete)
        return landed, incomplete

    def test_unexpected_error_propagates(self, setup_neg5, monkeypatch):
        with pytest.raises(RuntimeError):
            self._augment(setup_neg5, monkeypatch, RuntimeError("boom"))

    def test_overflowing_orbit_is_skipped(self, setup_neg5, monkeypatch):
        landed, incomplete = self._augment(setup_neg5, monkeypatch, Overflow())
        assert landed == [] and incomplete == []


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
