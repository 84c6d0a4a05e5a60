"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Each criterion carries a wall-clock budget that is part
of the assertion.
"""

import time
from types import SimpleNamespace

import numpy as np
from scipy.optimize import brentq

from raysep.cli import EXIT_OK, ScenarioConfig, run
from raysep.curves import ParamCurve, argument_principle_count, multiplicity_at, \
    subtraction_index, winding_number
from raysep.errors import CurveHitsPoint
from raysep.fixedpoints import FixedPointRecord, find_fixed_in_domain, \
    find_periodic_points
from raysep.maps import BranchLabel, exp_map, parse_map
from raysep.rays import Address, landing_point, trace_ray
from raysep.separation import counting_contour, global_count_check, \
    modify_boundary_near_fixed_point, separation_report
from raysep.structure import Rect, structural_setup


class _Criterion:
    def __init__(self, number: int, label: str, budget: float):
        self.number = number
        self.label = label
        self.budget = budget
        self.start = None

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(f"ACCEPTANCE {self.number}: {status} ({elapsed:.1f}s / "
              f"budget {self.budget:.0f}s) - {self.label}")
        if exc_type is None and elapsed >= self.budget:
            raise AssertionError(
                f"criterion {self.number} exceeded budget: {elapsed:.1f}s")
        return False


def crossing_count_winding(z: np.ndarray, p: complex) -> int:
    x = z.real - p.real
    y = z.imag - p.imag
    total = 0
    for i in range(1, len(x)):
        y0, y1 = y[i - 1], y[i]
        if (y0 >= 0) == (y1 >= 0):
            continue
        x_cross = x[i - 1] + (x[i] - x[i - 1]) * (0 - y0) / (y1 - y0)
        if x_cross > 0:
            total += 1 if y1 > y0 else -1
    return total


def test_criterion_1_index_integrality_and_oracle():
    with _Criterion(1, "winding integrality vs crossing-count oracle", 5.0):
        rng = np.random.default_rng(2024)
        done = 0
        while done < 1000:
            n = int(rng.integers(4, 32))
            turns = int(rng.integers(1, 4))
            radii = rng.uniform(0.3, 3.0, n)
            theta = np.sort(rng.uniform(0, 2 * np.pi, n))
            angles = np.concatenate([theta + 2 * np.pi * k for k in range(turns)])
            z = np.tile(radii, turns) * np.exp(1j * angles)
            center = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            z = center + np.concatenate([z, z[:1]])
            curve = ParamCurve(np.arange(len(z), dtype=float), z, closed=True)
            p = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            try:
                idx = winding_number(curve, p)
            except CurveHitsPoint:
                continue
            assert idx.integer_snap is not None
            assert idx.integer_snap == crossing_count_winding(curve.z, p)
            done += 1


def test_criterion_2_argument_principle_vs_planted_roots():
    with _Criterion(2, "argument principle vs planted polynomial roots", 10.0):
        rng = np.random.default_rng(77)
        done = 0
        while done < 1000:
            deg = int(rng.integers(1, 7))
            roots = rng.uniform(-2, 2, deg) + 1j * rng.uniform(-2, 2, deg)
            center = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            radius = rng.uniform(0.5, 2.5)
            if np.any(np.abs(np.abs(roots - center) - radius) < 2e-2):
                continue
            coeffs = np.poly(roots)
            circle = ParamCurve.circle(center, radius, n=128)
            count = argument_principle_count(
                lambda z, c=coeffs: np.polyval(c, z), circle, "zeros")
            assert count == int(np.sum(np.abs(roots - center) < radius))
            done += 1


def test_criterion_3_subtraction_index_against_loops():
    with _Criterion(3, "subtraction index against multiply-traversed loops", 5.0):
        rng = np.random.default_rng(4096)
        for N in (0, 1, 2, 3):
            done = 0
            while done < 100:
                c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                rho = rng.uniform(1.5, 2.5)
                t0 = rng.uniform(0, 2 * np.pi)
                if N == 0:
                    sigma = ParamCurve.circle(c, rho, n=64, turns=1, t0=t0)
                    base = c + rng.uniform(rho + 0.8, rho + 2.0) * \
                        np.exp(1j * rng.uniform(0, 2 * np.pi))
                    spread = 0.5
                else:
                    sigma = ParamCurve.circle(c, rho, n=64, turns=N, t0=t0)
                    base = c + rng.uniform(0, 0.3) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                    spread = 0.35 * rho
                p = complex(sigma.z[0])
                pts = base + rng.uniform(-spread, spread, 7) + \
                    1j * rng.uniform(-spread, spread, 7)
                gamma = ParamCurve(np.arange(7, dtype=float), pts)
                if sigma.distance_to_point(gamma.z) < 0.05 or \
                   gamma.distance_to_point(p) < 0.05:
                    continue
                lhs = subtraction_index(gamma, sigma).value
                rhs = winding_number(gamma, p).value + N
                assert abs(lhs - rhs) < 1e-9
                done += 1


def test_criterion_4_global_count_over_domain_collections():
    with _Criterion(4, "global counting: N domains give N+1 fixed points", 60.0):
        spec = exp_map(0.3)
        setup = structural_setup(spec, Rect(-4, 10, -17, 17), 0.1)
        for bands in ((0,), (-1, 0, 1), (-2, -1, 0, 1, 2)):
            labels = [setup.domain_by_band(j).label for j in bands]
            contour = counting_contour(setup, labels)
            expected, measured, match = global_count_check(contour)
            assert expected == len(bands) + 1
            assert measured == expected
            assert match


def test_criterion_5_forced_landing():
    with _Criterion(5, "forced landing: branch fixed point = ray landing", 30.0):
        spec = exp_map(0.3)
        setup = structural_setup(spec, Rect(-4, 10, -17, 17), 0.1)
        for j in (-2, -1, 1, 2):
            record = find_fixed_in_domain(setup, BranchLabel(j))
            ray = landing_point(trace_ray(setup, Address.constant(j)))
            assert ray.status.kind == "lands_at"
            assert abs(record.location - ray.landing) < 1e-6
            assert record.classification == "repelling"


def test_criterion_6_attracting_case_single_region():
    with _Criterion(6, "attracting case of 0.3 e^z: one region, one interior point", 30.0):
        spec = exp_map(0.3)
        setup = structural_setup(spec, Rect(-4, 10, -12, 12), 0.1)
        report = separation_report(spec, setup, 1)
        assert len(report.regions) == 1
        assert report.verdicts[0].verdict == "exactly_one_interior"
        oracle = brentq(lambda x: 0.3 * np.exp(x) - x, 0, 1, xtol=1e-14)
        assert abs(report.verdicts[0].interior[0] - oracle) < 1e-8
        config = ScenarioConfig(map="exp(0.3)", period=1,
                                bbox=(-4.0, 10.0, -12.0, 12.0))
        import contextlib
        import io
        with contextlib.redirect_stdout(io.StringIO()):
            code = run("verify", config)
        assert code == EXIT_OK


def test_criterion_7_parabolic_case_virtual_point():
    with _Criterion(7, "parabolic case of e^(z-1): one region, one virtual point", 60.0):
        spec = parse_map("exp(1/e)")
        records = find_periodic_points(spec, Rect(0, 2, -1, 1), 1)
        assert len(records) == 1
        rec = records[0]
        assert abs(rec.multiplier - 1.0) < 1e-9
        assert multiplicity_at(spec, rec.location, 0.2) == 2
        assert rec.multiplicity == 2

        setup = structural_setup(spec, Rect(-4, 8, -12, 12), 0.1)
        report = separation_report(spec, setup, 1)
        assert len(report.regions) == 1
        verdict = report.verdicts[0]
        assert verdict.verdict == "exactly_one_virtual"
        assert len(verdict.interior) == 0
        assert len(verdict.virtual) == 1

        ray = landing_point(trace_ray(setup, Address.constant(0)))
        assert ray.status.kind == "lands_at"
        assert abs(ray.landing - 1.0) < 1e-6
        direction = ray.status.approach_direction
        assert abs(np.angle(direction)) < 0.1


def test_criterion_8_period_two_separation():
    with _Criterion(8, "period-2 separation for -5 e^z", 300.0):
        spec = exp_map(-5)
        setup = structural_setup(spec, Rect(-9, 7.5, -13, 13), 0.12)
        report = separation_report(spec, setup, 2)
        assert not report.has_violation
        assert not report.is_incomplete
        for verdict in report.verdicts:
            assert verdict.verdict in ("exactly_one_interior",
                                       "exactly_one_virtual")
        # the attracting 2-cycle found by Newton is among the interior points
        cycle = [r for r in report.records if r.classification == "attracting"]
        assert len(cycle) == 2
        interior_all = [z for v in report.verdicts for z in v.interior]
        for rec in cycle:
            assert any(abs(z - rec.location) < 1e-9 for z in interior_all)
        # interior count equals the number of virtual-free regions
        virtual_free = sum(1 for v in report.verdicts if not v.virtual)
        assert len(interior_all) == virtual_free
        assert np.isfinite(len(interior_all))


def test_criterion_9_boundary_modification_side_checks():
    with _Criterion(9, "boundary modification side checks", 1.0):
        rays = [ParamCurve.segment(4.0, 1e-9, n=257),
                ParamCurve.segment(-4.0, -1e-9, n=257)]
        region = SimpleNamespace(contains=lambda z: z.imag > 0, boundary_rays=rays)

        repelling = FixedPointRecord(0j, 1, 2.0 + 0j, "repelling")
        modified = modify_boundary_near_fixed_point(
            lambda z: 2 * z, region, repelling, 0.1)
        assert modified.margin > 1e-9
        for w in modified.f_zeta.z:
            assert not modified.contains(complex(w))

        parabolic = FixedPointRecord(0j, 1, 1.0 + 0j, "parabolic", multiplicity=2)
        modified = modify_boundary_near_fixed_point(
            lambda z: z + z * z, region, parabolic, 0.1)
        assert modified.margin > 1e-9
        for w in modified.f_zeta.z:
            inside = modified.contains(complex(w))
            on_edge = any(
                modified.contains(complex(w) + h) !=
                modified.contains(complex(w) - h)
                for h in (1e-9, 1e-9j))
            assert inside or on_edge or w.imag >= -1e-12