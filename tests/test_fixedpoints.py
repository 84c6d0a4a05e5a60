"""Periodic point search, classification, forced landing, petals."""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import raysep.fixedpoints
from raysep.cli import main
from raysep.curves import map_arrays
from raysep.errors import (DegenerateExpansion, DomainMeetsDisk, InconsistentRadius, NotParabolic,
                           RaysepError)
from raysep.fixedpoints import (
    CountMismatchWarning,
    PetalFan,
    _auto_multiplicity,
    _newton_sweep,
    _polish_parabolic,
    _petal_jet,
    classify_multiplier,
    find_fixed_in_domain,
    find_periodic_points,
    petal_directions,
    probe_virtual_points,
)
from raysep.maps import BranchLabel, MapSpec, exp_map, parse_map
from raysep.rays import Address, fixed_rays, landing_point, trace_ray
from raysep.separation import period_points, separation_report
from raysep.structure import Rect, structural_setup


def landings(setup, period=1):
    """The landing points of the setup's landed period-`period` rays."""
    return [r.landing for r in fixed_rays(setup, setup.domains, period)
            if r.status.kind == "lands_at"]


@pytest.fixture(scope="module")
def setup03():
    return structural_setup(exp_map(0.3), Rect(-4, 10, -17, 17), 0.1)


class TestClassification:
    def test_bands(self):
        assert classify_multiplier(0.5 + 0j) == "attracting"
        assert classify_multiplier(2.0 + 0j) == "repelling"
        assert classify_multiplier(1.0 + 0j) == "parabolic"
        assert classify_multiplier(np.exp(2j * np.pi / 3)) == "parabolic"
        golden = (np.sqrt(5) - 1) / 2
        assert classify_multiplier(np.exp(2j * np.pi * golden)) == \
            "irrationally_indifferent"


class TestFindPeriodicPoints:
    def test_exponential_pair(self):
        spec = exp_map(0.3)
        records = find_periodic_points(spec, Rect(-1, 3, -2, 2), 1)
        assert len(records) == 2
        att = brentq(lambda x: 0.3 * np.exp(x) - x, 0, 1, xtol=1e-14)
        rep = brentq(lambda x: 0.3 * np.exp(x) - x, 1, 2, xtol=1e-14)
        by_class = {r.classification: r for r in records}
        assert abs(by_class["attracting"].location - att) < 1e-9
        assert abs(by_class["repelling"].location - rep) < 1e-9
        # the multiplier of lambda e^z at a fixed point is the point itself
        assert by_class["attracting"].multiplier == pytest.approx(att, abs=1e-9)

    def test_parabolic_point(self):
        spec = parse_map("exp(1/e)")
        records = find_periodic_points(spec, Rect(0, 2, -1, 1), 1)
        assert len(records) == 1
        rec = records[0]
        assert rec.classification == "parabolic"
        assert abs(rec.location - 1.0) < 1e-9
        assert abs(rec.multiplier - 1.0) < 1e-9
        assert rec.multiplicity == 2

    def test_attracting_two_cycle(self):
        spec = exp_map(-5)
        records = find_periodic_points(spec, Rect(-6, 1, -1, 1), 2)
        att = sorted((r for r in records if r.classification == "attracting"),
                     key=lambda r: r.location.real)
        assert len(att) == 2
        z1, z2 = att[0].location, att[1].location
        w, _ = spec.evaluate(z1, 1)
        assert abs(w - z2) < 1e-8
        # multiplier of the cycle equals the product of the two points
        assert att[0].multiplier == pytest.approx(z1 * z2, rel=1e-9)
        assert abs(att[0].multiplier) < 1

    def test_count_matches_argument_principle(self, setup03):
        from raysep.curves import ParamCurve, argument_principle_count
        region = Rect(-1, 5, -8, 8)
        records = find_periodic_points(setup03.spec, region, 1, extra_seeds=landings(setup03))
        contour = ParamCurve.rectangle(*region.as_tuple(), n_per_side=256)
        expected = argument_principle_count(setup03.spec, contour, "fixed_points", 1)
        assert sum(r.multiplicity for r in records) == expected

    def test_classification_stability_under_seed_jitter(self):
        spec = exp_map(0.3)
        base = find_periodic_points(spec, Rect(-1, 3, -2, 2), 1)
        jittered = find_periodic_points(
            spec, Rect(-1, 3, -2, 2), 1,
            extra_seeds=[r.location + 1e-4 for r in base])
        assert len(jittered) == len(base)
        for a, b in zip(base, jittered):
            assert abs(a.location - b.location) < 1e-7
            assert a.classification == b.classification

    def test_period_budget_guard(self):
        with pytest.raises(ValueError):
            find_periodic_points(exp_map(0.3), Rect(-1, 1, -1, 1), 5)

    @staticmethod
    def _multiplicity_raising(monkeypatch, exc):
        def raising(*_args, **_kwargs):
            raise exc
        monkeypatch.setattr(raysep.fixedpoints, "multiplicity_at", raising)
        return _auto_multiplicity(parse_map("exp(1/e)"), 1.0, 1, 0.1)

    def test_multiplicity_failure_falls_back_to_two(self, monkeypatch):
        assert self._multiplicity_raising(monkeypatch, InconsistentRadius(2, 3)) == 2
        assert self._multiplicity_raising(monkeypatch, ValueError("not fixed")) == 2

    def test_unexpected_multiplicity_error_propagates(self, monkeypatch):
        with pytest.raises(RuntimeError):
            self._multiplicity_raising(monkeypatch, RuntimeError("boom"))


class TestBatchedMultipliers:
    def test_multipliers_are_the_one_point_derivatives(self, monkeypatch):
        spec = exp_map(-5)
        box = Rect(-9, 7.5, -13, 13)
        seeds = landings(structural_setup(spec, box, 0.12))
        sizes = []
        derivative_array = MapSpec.derivative_array

        def counted(self, z, period=1):
            sizes.append(np.size(z))
            return derivative_array(self, z, period)
        monkeypatch.setattr(MapSpec, "derivative_array", counted)
        records = find_periodic_points(spec, box, 2, extra_seeds=seeds)
        monkeypatch.undo()
        # no near-parabolic point, so no point is evaluated on its own
        assert len(records) > 50 and 1 not in sizes
        for rec in records:
            m = spec.evaluate(rec.location, 2)[1]
            assert np.array([rec.multiplier]).tobytes() == np.array([m]).tobytes()


class TestFindFixedInDomain:
    def test_band_one(self, setup03):
        rec = find_fixed_in_domain(setup03, BranchLabel(1))
        assert rec.classification == "repelling"
        w, _ = setup03.spec.evaluate(rec.location, 1)
        assert abs(w - rec.location) < 1e-10
        assert np.pi < rec.location.imag < 3 * np.pi

    def test_band_zero_with_disk_one(self):
        setup = structural_setup(exp_map(0.3), Rect(-4, 10, -12, 12), 0.1,
                                 disk_radius=1.0)
        rec = find_fixed_in_domain(setup, BranchLabel(0))
        target = brentq(lambda x: 0.3 * np.exp(x) - x, 1, 2, xtol=1e-14)
        assert abs(rec.location - target) < 1e-10

    def test_conjugate_symmetry(self, setup03):
        up = find_fixed_in_domain(setup03, BranchLabel(1))
        down = find_fixed_in_domain(setup03, BranchLabel(-1))
        assert down.location == pytest.approx(np.conj(up.location), abs=1e-10)

    def test_domain_meeting_disk_rejected(self):
        # with the auto disk, the band-0 domain of exp(0.3) meets it
        setup = structural_setup(exp_map(0.3), Rect(-4, 10, -12, 12), 0.1)
        with pytest.raises(DomainMeetsDisk):
            find_fixed_in_domain(setup, BranchLabel(0))

    def test_domain_meeting_disk_past_the_cut_tip_rejected(self):
        # the band-1 lower edge passes i*pi, where f = -7.1 lies on the cut
        # beyond its box exit at 3.9, and |i*pi| < 3.6: the domain's least
        # |z| lies on the edge's stretch past delta's tip
        setup = structural_setup(exp_map(3.6, -3.5), Rect(-3.9, 10, -12, 12), 0.1,
                                 disk_radius=3.6)
        assert abs(setup.delta.z[-1]) < 7.1
        with pytest.raises(DomainMeetsDisk):
            find_fixed_in_domain(setup, BranchLabel(1))

    def test_forced_landing_agreement(self, setup03):
        for j in (-2, -1, 1, 2):
            rec = find_fixed_in_domain(setup03, BranchLabel(j))
            ray = landing_point(trace_ray(setup03, Address.constant(j)))
            assert abs(rec.location - ray.landing) < 1e-6
            assert rec.classification == "repelling"


class TestPetals:
    def test_exponential_parabolic(self):
        fan = petal_directions(parse_map("exp(1/e)"), 1.0)
        assert fan.m == 1
        assert fan.leading_coeff == pytest.approx(0.5, abs=1e-8)
        assert fan.attracting_dirs[0] == pytest.approx(-1.0, abs=1e-8)
        assert fan.repelling_dirs[0] == pytest.approx(1.0, abs=1e-8)

    def test_quadratic_polynomial(self):
        fan = petal_directions(lambda z: z + z * z, 0.0)
        assert fan.m == 1
        assert fan.leading_coeff == pytest.approx(1.0, abs=1e-8)
        assert fan.attracting_dirs[0] == pytest.approx(-1.0, abs=1e-9)
        assert fan.repelling_dirs[0] == pytest.approx(1.0, abs=1e-9)

    def test_cubic_two_petals(self):
        fan = petal_directions(lambda z: z + z ** 3, 0.0)
        assert fan.m == 2
        att = sorted(np.angle(fan.attracting_dirs))
        rep = sorted(np.angle(fan.repelling_dirs))
        assert att == pytest.approx([-np.pi / 2, np.pi / 2], abs=1e-9)
        assert rep == pytest.approx([-np.pi, 0.0], abs=1e-9) or \
            rep == pytest.approx([0.0, np.pi], abs=1e-9)

    def test_interleaving_gaps(self):
        fan = petal_directions(lambda z: z + z ** 4, 0.0)
        assert fan.m == 3
        angles = sorted(np.angle(list(fan.attracting_dirs) +
                                 list(fan.repelling_dirs)))
        gaps = np.diff(angles)
        assert np.allclose(gaps, np.pi / 3, atol=1e-9)

    def test_not_parabolic_rejected(self):
        with pytest.raises(NotParabolic):
            petal_directions(lambda z: 2 * z, 0.0)

    def test_degenerate_expansion(self):
        with pytest.raises(DegenerateExpansion):
            petal_directions(lambda z: z + z ** 12, 0.0)

    def test_virtual_probe_confirms_basin(self):
        spec = parse_map("exp(1/e)")
        fan = petal_directions(spec, 1.0)
        confirmed = probe_virtual_points(spec, fan)
        assert len(confirmed) == 1
        assert confirmed[0] == pytest.approx(-1.0, abs=1e-8)

    def test_virtual_probe_both_basins_of_cubic(self, monkeypatch):
        monkeypatch.setattr(raysep.fixedpoints, "PROBE_STEP", 0.05)
        fan = petal_directions(lambda z: z + z ** 3, 0.0)
        confirmed = probe_virtual_points(lambda z: z + z ** 3, fan)
        assert len(confirmed) == 2


def reference_probe(mapobj, fan, period=1, step=0.1, iters=4000):
    """The probe test walked in full, one direction and one point at a time."""
    fn = map_arrays(mapobj, period)
    confirmed = []
    for direction in fan.attracting_dirs:
        z = fan.at + step * direction
        d0 = abs(z - fan.at)
        ok, dist = True, d0
        for _ in range(iters):
            w, _ = fn(np.array([z]))
            z = complex(w[0])
            dist = abs(z - fan.at)
            if not math.isfinite(dist) or dist > 10.0 * d0:
                ok = False
                break
        if ok and dist < 0.5 * d0:
            confirmed.append(direction)
    return confirmed


def parabolic_map(b):
    """e^(-1-b) e^z + b: parabolic fixed point 1 + b with multiplier 1 and m = 1."""
    return exp_map(cmath.exp(-1.0 - b), b)


@pytest.fixture
def probe_calls(monkeypatch):
    """Counts MapSpec.derivative_array calls and records each certificate mask."""
    calls, masks = [0], []
    derivative_array = MapSpec.derivative_array
    captured = raysep.fixedpoints._captured

    def counted(self, z, period=1):
        calls[0] += 1
        return derivative_array(self, z, period)

    def recorded(*args):
        masks.append(captured(*args))
        return masks[-1]
    monkeypatch.setattr(MapSpec, "derivative_array", counted)
    monkeypatch.setattr(raysep.fixedpoints, "_captured", recorded)
    return calls, masks


class TestVirtualProbe:
    @settings(max_examples=12, deadline=None)
    @given(b=st.complex_numbers(max_magnitude=2.5), period=st.sampled_from([1, 2]))
    @example(b=0j, period=1)
    @example(b=0j, period=2)
    def test_certified_probe_equals_full_walk(self, b, period):
        spec, z0 = parabolic_map(b), 1.0 + b
        fan = petal_directions(spec, z0, period)
        expected = reference_probe(spec, fan, period)
        calls = []
        derivative_array = MapSpec.derivative_array

        def counted(self, z, p=1):
            calls.append(np.size(z))
            return derivative_array(self, z, p)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(MapSpec, "derivative_array", counted)
            confirmed = probe_virtual_points(spec, fan, period)
        assert confirmed == expected and len(expected) == 1
        assert len(calls) < 100

    @pytest.mark.parametrize("iters", [0, 1, 5, 15, 25, 100])
    def test_short_walks_equal_full_walk(self, iters, monkeypatch):
        # from d0 = 0.1 the probe comes within d0/2 after about 20 steps
        monkeypatch.setattr(raysep.fixedpoints, "PROBE_ITERS", iters)
        spec = parse_map("exp(1/e)")
        fan = petal_directions(spec, 1.0)
        expected = reference_probe(spec, fan, iters=iters)
        assert probe_virtual_points(spec, fan) == expected
        assert len(expected) == (iters >= 25)

    def test_repelling_direction_confirms_nothing(self, probe_calls):
        spec = parse_map("exp(1/e)")
        fan = PetalFan(1.0 + 0j, 1, (1.0 + 0j,), (-1.0 + 0j,), 0.5 + 0j)
        assert reference_probe(spec, fan) == []
        calls, masks = probe_calls
        calls[0] = 0
        assert probe_virtual_points(spec, fan) == []
        assert masks and not any(m.any() for m in masks)

    def test_near_parabolic_point_confirms_nothing(self, probe_calls):
        # lam e^(-lam) e^z has the repelling fixed point lam with multiplier
        # lam = 1.04; the probe settles at the attracting fixed point ~0.08 away
        lam = 1.04
        spec = exp_map(lam * math.exp(-lam))
        fan = PetalFan(lam + 0j, 1, (-1.0 + 0j,), (1.0 + 0j,), lam / 2 + 0j)
        assert reference_probe(spec, fan) == []
        calls, masks = probe_calls
        calls[0] = 0
        assert probe_virtual_points(spec, fan) == []
        assert calls[0] == 4000 and not any(m.any() for m in masks)

    def test_two_petals_walk_in_full(self, probe_calls):
        # a MapSpec point with m = 2 gets no certificate
        spec = parse_map("exp(1/e)")
        fan = PetalFan(1.0 + 0j, 2, (-1.0 + 0j, 1j), (1.0 + 0j, -1j), 0.5 + 0j)
        expected = reference_probe(spec, fan)
        calls, masks = probe_calls
        calls[0] = 0
        assert probe_virtual_points(spec, fan) == expected
        assert not masks and calls[0] == 4000

    @settings(max_examples=40, deadline=None)
    @given(a=st.builds(cmath.rect, st.floats(0.05, 3.0), st.floats(-math.pi, math.pi)),
           b=st.complex_numbers(max_magnitude=2),
           z0=st.complex_numbers(max_magnitude=2),
           period=st.sampled_from([1, 2]))
    @example(a=1 / math.e, b=0j, z0=1 + 0j, period=1)
    def test_cauchy_constant_covers_the_remainder(self, a, b, z0, period):
        spec = exp_map(a, b)
        jet = _petal_jet(spec, z0, period)
        assume(jet is not None)
        u = jet.rho * np.exp(2j * np.pi * np.arange(4096) / 4096)
        g = spec.evaluate_array(z0 + u, period) - z0
        remainder = g - jet.g0 - jet.lam * u - jet.A * u * u
        scale = np.max(np.abs(g)) + abs(jet.g0) + abs(jet.lam) * jet.rho
        assert np.max(np.abs(remainder)) <= jet.K * jet.rho ** 3 + 1e-12 * scale


def reference_newton_sweep(evaluator, seeds, iters=64, blowup=1e8):
    """Newton with every lane evaluated at every iteration, dead or alive."""
    z = seeds.astype(complex).copy()
    alive = np.ones(z.shape, dtype=bool)
    for _ in range(iters):
        if not np.any(alive):
            break
        w, dw = evaluator(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(np.abs(dw - 1.0) > 1e-14, (w - z) / (dw - 1.0), 0.0)
        bad = ~np.isfinite(step.real) | ~np.isfinite(step.imag) | (np.abs(z) > 1e8)
        alive &= ~bad
        z = np.where(alive, z - step, z)
        alive &= ~(np.abs(step) < 1e-13 * (1.0 + np.abs(z)))
    return z


def reference_domain_seeds(setup, region):
    """Each domain's branch iterated from its anchor on its own."""
    seeds = []
    for dom in setup.domains:
        z = dom.anchor
        for _ in range(200):
            nz = complex(setup.branch_context.pull_back(z, dom.label.j))
            if abs(nz - z) < 1e-12:
                break
            z = nz
        seeds.append(z)
    return np.array([s for s in seeds if region.contains(s)], dtype=complex)


class TestLiveLanes:
    @pytest.mark.parametrize("period", [1, 2])
    def test_newton_sweep_evaluates_only_live_lanes(self, period):
        spec = exp_map(-5)
        seeds = raysep.fixedpoints._seed_grid(Rect(-9, 7.5, -13, 13), 64)
        sizes = []

        def evaluator(z):
            sizes.append(len(z))
            return spec.derivative_array(z, period)
        roots = _newton_sweep(evaluator, seeds)
        expected = reference_newton_sweep(lambda z: spec.derivative_array(z, period), seeds)
        assert roots.tobytes() == expected.tobytes()
        assert sizes[0] == len(seeds) and sum(sizes) < len(seeds) * len(sizes) / 2


def reference_polish(evaluator, z0: complex, h: float = 1e-6) -> complex:
    """The per-point Newton loop on (f^p)'(z) - 1 that `_polish_parabolic` replaced."""
    z = complex(z0)
    for _ in range(50):
        _, d = evaluator(np.array([z, z + h, z - h]))
        g = complex(d[0]) - 1.0
        gprime = (complex(d[1]) - complex(d[2])) / (2.0 * h)
        if abs(gprime) < 1e-14:
            break
        step = g / gprime
        z = z - step
        if abs(step) < 1e-15 * (1.0 + abs(z)):
            break
    return complex(z0) if abs(z - z0) > 1e-4 * (1.0 + abs(z0)) else z


def lane_by_lane(polish):
    """`polish` called once per point, each a batch of one."""
    return lambda evaluator, z: np.array(
        [polish(evaluator, z[i:i + 1])[0] for i in range(len(z))], dtype=complex)


class TestParabolicPolish:
    @pytest.mark.parametrize("period", [1, 2])
    def test_lanes_match_the_point_loop(self, period):
        evaluator = map_arrays(parse_map("exp(1/e)"), period)
        rng = np.random.default_rng(7)
        z = 1.0 + 1e-3 * (rng.standard_normal(16) + 1j * rng.standard_normal(16))
        z = np.append(z, [1.0 + 0j, 5.0 + 0j])    # on the point; too far off, so kept
        polished = _polish_parabolic(evaluator, z)
        assert polished.tobytes() == lane_by_lane(_polish_parabolic)(evaluator, z).tobytes()
        # the sweep stops at steps below 1e-13, the loop ran on to 1e-15
        want = np.array([reference_polish(evaluator, w) for w in z])
        assert np.all(np.abs(polished - want) <= 1e-12 * (1.0 + np.abs(want)))
        assert polished[-2:].tolist() == [1.0 + 0j, 5.0 + 0j]

    @pytest.mark.filterwarnings("ignore::raysep.fixedpoints.CountMismatchWarning")
    @pytest.mark.parametrize("text, box, period", [
        ("exp(1/e)", (-4, 8, -12, 12), 1),
        ("exp(1/e)", (-4, 8, -12, 12), 2),
        ("exp(-e)", (-6, 6, -10, 10), 2),     # a cloud of candidates at the triple root
    ])
    def test_one_call_gives_the_records_of_lane_calls(self, text, box, period, monkeypatch):
        spec = parse_map(text)
        records = find_periodic_points(spec, Rect(*box), period)
        monkeypatch.setattr(raysep.fixedpoints, "_polish_parabolic",
                            lane_by_lane(_polish_parabolic))
        lanes = find_periodic_points(spec, Rect(*box), period)
        assert any(r.classification == "parabolic" for r in records)
        assert [(r.classification, r.multiplicity) for r in records] == \
            [(r.classification, r.multiplicity) for r in lanes]
        assert np.array([(r.location, r.multiplier) for r in records]).tobytes() == \
            np.array([(r.location, r.multiplier) for r in lanes]).tobytes()

    def test_parabolic_record_of_exp_inv_e_is_one(self):
        spec = parse_map("exp(1/e)")
        records = period_points(structural_setup(spec, Rect(-4, 8, -12, 12), 0.1), 1)[3]
        (rec,) = [r for r in records if r.classification == "parabolic"]
        assert np.array([rec.location, rec.multiplier]).tobytes() == \
            np.array([1 + 0j, 1 + 0j]).tobytes()


def assert_same_records(found, expected):
    assert len(found) == len(expected)
    for a, b in zip(found, expected):
        assert abs(a.location - b.location) < 1e-12
        assert (a.classification, a.multiplicity) == (b.classification, b.multiplicity)


@pytest.mark.filterwarnings("ignore::raysep.fixedpoints.CountMismatchWarning")
class TestLandingSeeds:
    """The rays' landings seed every record the domains' inverse-branch limits seeded."""

    @pytest.fixture(scope="class", params=[
        (exp_map(0.3), Rect(-4, 10, -12, 12), 0.1),
        (parse_map("exp(1/e)"), Rect(-4, 8, -12, 12), 0.1),
        (exp_map(0.5, -0.5), Rect(-4, 9, -12, 12), 0.1),
        (exp_map(-5), Rect(-9, 7.5, -13, 13), 0.12),
    ], ids=["exp(0.3)", "exp(1/e)", "exp(0.5,-0.5)", "exp(-5)"])
    def setup(self, request):
        return structural_setup(*request.param)

    @pytest.mark.parametrize("period", [1, 2, 3, 4])
    def test_landings_find_the_records_of_the_domain_limits(self, setup, period):
        spec, box = setup.spec, setup.bbox
        limits = reference_domain_seeds(setup, box)
        ray_landings = landings(setup, period)
        # separation_report and raysep fixedpoints: the period-p rays'
        # landings, once joined by the limits
        assert_same_records(
            find_periodic_points(spec, box, period, extra_seeds=ray_landings),
            find_periodic_points(spec, box, period,
                                 extra_seeds=np.concatenate([limits, ray_landings])))
        # the fixed rays' landings are the limits: they seed the same records
        assert_same_records(
            find_periodic_points(spec, box, period, extra_seeds=landings(setup)),
            find_periodic_points(spec, box, period, extra_seeds=limits))

    @pytest.mark.parametrize("period, count", [(3, 161), (4, 869)])
    def test_cli_keeps_the_records_the_grid_misses(self, capsys, period, count):
        # the seed grid alone finds 45 and 25 of these points, the fixed
        # rays' landings 49 and 29; the CLI lists the records `verify` reads
        code = main(["fixedpoints", "--map", "exp(-5)", "--bbox=-9,7.5,-13,13",
                     "--res", "0.12", "--period", str(period)])
        assert code == 0
        found = json.loads(capsys.readouterr().out)["records"]
        setup = structural_setup(exp_map(-5), Rect(-9, 7.5, -13, 13), 0.12)
        expected = separation_report(setup.spec, setup, period).records
        assert len(found) == len(expected) == count
        for rec, ref in zip(found, expected):
            assert abs(complex(*rec["location"]) - ref.location) < 1e-12
            assert (rec["classification"], rec["multiplicity"]) == \
                (ref.classification, ref.multiplicity)


P1_FAMILY = [   # the period-1 benchmark scenarios at seed 0
    (exp_map(0.3), Rect(-4, 10, -12, 12)),
    (parse_map("exp(1/e)"), Rect(-4, 8, -12, 12)),
    (exp_map(0.5, -0.5), Rect(-4, 9, -12, 12)),
    (exp_map(0.3), Rect(-4, 10, -40, 40)),
]
P1_IDS = ["exp(0.3)", "exp(1/e)", "exp(0.5,-0.5)", "exp(0.3)-13dom"]


@pytest.fixture
def grid_calls(monkeypatch):
    """The sizes n of the `_seed_grid` calls."""
    calls = []
    seed_grid = raysep.fixedpoints._seed_grid

    def spy(region, n):
        calls.append(n)
        return seed_grid(region, n)
    monkeypatch.setattr(raysep.fixedpoints, "_seed_grid", spy)
    return calls


@pytest.fixture
def newton_seeds(monkeypatch):
    """The seeds of every `_newton_sweep` call."""
    seeds = []
    sweep = raysep.fixedpoints._newton_sweep

    def spy(evaluator, z):
        seeds.append(np.array(z))
        return sweep(evaluator, z)
    monkeypatch.setattr(raysep.fixedpoints, "_newton_sweep", spy)
    return seeds


class TestFirstRung:
    """Newton from the landings and the singular orbit before any seed grid."""

    @pytest.mark.parametrize("spec, box", P1_FAMILY, ids=P1_IDS)
    def test_no_grid_on_the_benchmark(self, spec, box, grid_calls, monkeypatch):
        setup = structural_setup(spec, box, 0.1)
        records = separation_report(spec, setup, 1).records
        assert grid_calls == []

        def uncounted(*_args, **_kwargs):
            raise RaysepError("no count")
        # without a count the first grid rung is taken: the grid ladder
        monkeypatch.setattr(raysep.fixedpoints, "argument_principle_count", uncounted)
        gridded = period_points(setup, 1)[3]
        assert grid_calls == [64]
        assert len(records) == len(gridded)
        for ref in gridded:
            rec = min(records, key=lambda r: abs(r.location - ref.location))
            assert abs(rec.location - ref.location) <= 1e-15 * max(1.0, abs(ref.location))
            assert (rec.classification, rec.multiplicity) == \
                (ref.classification, ref.multiplicity)

    def test_short_rung_falls_back_to_the_grid(self, grid_calls, newton_seeds):
        # b = 0's orbit seeds only the attracting point; the count is 2
        records = find_periodic_points(exp_map(0.3), Rect(-1, 3, -2, 2), 1)
        assert len(newton_seeds[0]) == 1 and grid_calls == [64]
        assert sorted(r.classification for r in records) == ["attracting", "repelling"]

    @pytest.mark.filterwarnings("error")
    def test_escaping_singular_value_is_dropped(self, newton_seeds):
        spec = exp_map(0.6, 0.5)      # b escapes: f^64(b) overflows
        box = Rect(-4, 10, -12, 12)
        seeds = landings(structural_setup(spec, box, 0.1))
        find_periodic_points(spec, box, 1, extra_seeds=seeds)
        assert len(newton_seeds[0]) == len(seeds)
        assert all(np.isfinite(z).all() for z in newton_seeds)

    def test_every_rung_short_warns(self, monkeypatch, newton_seeds):
        # with empty grids only the first rung, b's orbit, seeds Newton: it finds
        # the attracting point alone, and each grid rung then finds nothing; the
        # count is 4, and the last rung's records are returned
        monkeypatch.setattr(raysep.fixedpoints, "_seed_grid",
                            lambda region, n: np.empty(0, dtype=complex))
        with pytest.warns(CountMismatchWarning) as warned:
            records = find_periodic_points(exp_map(0.3), Rect(-4, 10, -12, 12), 1)
        (warning,) = warned
        assert str(warning.message) == ("found 0 points (with multiplicity) but the argument "
                                        "principle counts 4 in the region")
        assert len(newton_seeds[0]) == 1 and not any(len(z) for z in newton_seeds[1:])
        assert records == []


def orbit_count(spec, records, period):
    """The distinct f-orbits among the non-repelling records."""
    reps = []
    for rec in records:
        if rec.classification == "repelling":
            continue
        orbit = [rec.location]
        for _ in range(period - 1):
            orbit.append(spec.evaluate(orbit[-1], 1)[0])
        if not any(abs(w - r) < 1e-8 * (1.0 + abs(r)) for w in orbit for r in reps):
            reps.append(rec.location)
    return len(reps)


P2_BOX = Rect(-9, 7.5, -13, 13)


class TestCycleBound:
    """a e^z + b has one singular value, so its non-repelling records lie on
    one f-orbit (Eremenko & Lyubich 1992, for maps of finite type)."""

    @pytest.mark.parametrize("spec, box, res, period", [
        *((spec, box, 0.1, 1) for spec, box in P1_FAMILY[:3]),
        (exp_map(-2), P2_BOX, 0.12, 2),
        (exp_map(-5), P2_BOX, 0.12, 2),
        pytest.param(parse_map("exp(-e)"), P2_BOX, 0.12, 2, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 10: a cluster of parabolic records at -1")),
    ], ids=P1_IDS[:3] + ["exp(-2)-p2", "exp(-5)-p2", "exp(-e)-p2"])
    def test_non_repelling_records_lie_on_one_orbit(self, spec, box, res, period):
        records = period_points(structural_setup(spec, box, res), period)[3]
        assert orbit_count(spec, records, period) == 1
