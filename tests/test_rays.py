"""Ray tracing, landing, pairs, and the ray-family invariants."""

import numpy as np
import pytest
from scipy.optimize import brentq

from raysep.errors import MixedPeriods, Overflow, UnlandedRay
from raysep.maps import BranchContext, BranchLabel, exp_map, parse_map
from raysep.rays import (
    DEFAULT_SCHEDULE,
    DEFAULT_T_TOP,
    Address,
    PullbackWalk,
    RayStatus,
    detect_ray_pairs,
    fixed_rays,
    landing_point,
    trace_ray,
)
from raysep.structure import Rect, structural_setup, validate_expansion_radius


@pytest.fixture(scope="module")
def setup03():
    return structural_setup(exp_map(0.3), Rect(-4, 10, -17, 17), 0.1)


@pytest.fixture(scope="module")
def setup_neg5():
    return structural_setup(exp_map(-5), Rect(-9, 7.5, -13, 13), 0.12)


class TestAddress:
    def test_parse_forms(self):
        a = Address.parse("0,0|")
        assert [s.j for s in a.preperiod] == [0]
        assert [s.j for s in a.period] == [0]
        b = Address.parse("|1,2")
        assert b.preperiod == ()
        assert [s.j for s in b.period] == [1, 2]
        c = Address.parse("3")
        assert c.preperiod == () and [s.j for s in c.period] == [3]

    def test_shift(self):
        a = Address.parse("1|0,2")
        assert str(a.shifted()) == "|0,2"
        assert str(a.shifted().shifted()) == "|2,0"

    def test_symbols_finite(self):
        a = Address.parse("1|0,2")
        assert {s.j for s in a.symbols()} == {0, 1, 2}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Address.parse("|")


class TestTraceRay:
    def test_real_axis_ray(self, setup03):
        ray = trace_ray(setup03.spec, setup03, Address.constant(0))
        assert np.max(np.abs(ray.z.imag)) < 1e-8
        assert np.all(np.diff(ray.t) < 0)

    def test_band_one_asymptotics(self, setup03):
        ray = trace_ray(setup03.spec, setup03, Address.constant(1))
        far_half = ray.z[: len(ray.z) // 2]
        assert np.all((far_half.imag > np.pi) & (far_half.imag < 3 * np.pi))

    def test_forward_escape_of_top_sample(self, setup03):
        ray = trace_ray(setup03.spec, setup03, Address.constant(1))
        w, _ = setup03.spec.evaluate(ray.z[0], 1)
        assert abs(w) > setup03.expansion_radius

    def test_monotone_escape_of_forward_orbit(self, setup03):
        ray = trace_ray(setup03.spec, setup03, Address.constant(0))
        z = complex(ray.z[0])
        prev = abs(z)
        for _ in range(5):
            try:
                z, _ = setup03.spec.evaluate(z, 1)
            except Overflow:
                break   # escaped beyond the representable range
            assert abs(z) > prev
            prev = abs(z)

    def test_shift_consistency(self, setup03):
        spec = setup03.spec
        ray = trace_ray(spec, setup03, Address.cycle([0, 1]))
        shifted = trace_ray(spec, setup03, Address.cycle([1, 0]))
        half = len(ray.z) // 2
        for k in range(half, len(ray.z) - 1):
            image, _ = spec.evaluate(ray.z[k], 1)
            expected = shifted.value_at(2.0 * ray.t[k])
            assert abs(image - expected) < 1e-6

    def test_asymptotic_containment(self, setup03):
        for bands in ([0], [1], [0, 1], [-1, 2]):
            address = Address.cycle(bands)
            ray = trace_ray(setup03.spec, setup03, address)
            far_half = ray.z[: len(ray.z) // 2]
            for z in far_half:
                assert setup03.in_domain(complex(z), address.period[0])

    def test_bad_t_grid_rejected(self, setup03):
        with pytest.raises(ValueError):
            trace_ray(setup03.spec, setup03, Address.constant(0),
                      t_grid=[1.0, 2.0])


class TestLanding:
    def test_real_repelling_landing(self, setup03):
        target = brentq(lambda x: 0.3 * np.exp(x) - x, 1, 2, xtol=1e-14)
        ray = landing_point(setup03.spec,
                            trace_ray(setup03.spec, setup03, Address.constant(0)))
        assert ray.status.kind == "lands_at"
        assert abs(ray.landing - target) < 1e-10

    def test_band_one_landing(self, setup03):
        # oracle: iterate z <- log(z/0.3) + 2 pi i to machine precision
        z = 3.0 + 0j
        for _ in range(300):
            z = np.log(z / 0.3) + 2j * np.pi
        ray = landing_point(setup03.spec,
                            trace_ray(setup03.spec, setup03, Address.constant(1)))
        assert abs(ray.landing - z) < 1e-10
        w, _ = setup03.spec.evaluate(ray.landing, 1)
        assert abs(w - ray.landing) < 1e-8

    def test_parabolic_landing_with_direction(self):
        spec = parse_map("exp(1/e)")
        setup = structural_setup(spec, Rect(-4, 8, -12, 12), 0.1)
        ray = landing_point(spec, trace_ray(spec, setup, Address.constant(0)))
        assert ray.status.kind == "lands_at"
        assert abs(ray.landing - 1.0) < 1e-6
        direction = ray.status.approach_direction
        assert direction is not None
        assert abs(np.angle(direction)) < 0.1   # repelling direction +1

    @staticmethod
    def _landing_pullbacks(monkeypatch, spec, setup, address):
        """Land `address`: pullback calls in all, and in landing_point alone."""
        calls = []
        pull_back = BranchContext.pull_back

        def counted(self, w, label, strict=False):
            calls.append(label)
            return pull_back(self, w, label, strict)
        monkeypatch.setattr(BranchContext, "pull_back", counted)
        ray = trace_ray(spec, setup, address)
        traced = len(calls)
        landed = landing_point(spec, ray)
        monkeypatch.undo()
        return landed, len(calls), len(calls) - traced

    def test_parabolic_landing_walks_once(self, monkeypatch):
        # never settles, so the one walk runs the whole schedule depth
        spec = parse_map("exp(1/e)")
        setup = structural_setup(spec, Rect(-4, 8, -12, 12), 0.1)
        landed, calls, landing_calls = self._landing_pullbacks(
            monkeypatch, spec, setup, Address.constant(0))
        assert landed.status.kind == "lands_at"
        assert calls == DEFAULT_SCHEDULE[-1] * 1
        assert landing_calls == 0

    def test_repelling_landing_stops_when_settled(self, setup03, monkeypatch):
        landed, calls, landing_calls = self._landing_pullbacks(
            monkeypatch, setup03.spec, setup03, Address.constant(1))
        assert landed.status.kind == "lands_at"
        assert calls < DEFAULT_SCHEDULE[-1]
        assert landing_calls == 0

    def test_periodic_landing_closes(self, setup_neg5):
        spec = setup_neg5.spec
        for bands in ([0, 1], [1, 0], [-1, 1], [2, 0]):
            ray = landing_point(spec, trace_ray(spec, setup_neg5,
                                                Address.cycle(bands)))
            assert ray.status.kind == "lands_at"
            w, _ = spec.evaluate(ray.landing, 2)
            assert abs(w - ray.landing) < 1e-8

    def test_preperiodic_landing(self, setup03):
        spec = setup03.spec
        ray = landing_point(spec, trace_ray(spec, setup03, Address.parse("1|0")))
        assert ray.status.kind == "lands_at"
        # the landing point maps to the fixed ray's landing point
        target = brentq(lambda x: 0.3 * np.exp(x) - x, 1, 2, xtol=1e-14)
        w, _ = spec.evaluate(ray.landing, 1)
        assert abs(w - target) < 1e-8
        assert abs(ray.landing - target) > 1e-3


def _same_rays(a, b):
    assert a.address == b.address and a.status == b.status
    for field in ("t", "z", "endpoints"):
        assert np.array_equal(getattr(a, field), getattr(b, field), equal_nan=True)


def _scalar_walk(spec, setup, address, levels):
    """Reference: one address walked one pullback at a time.

    Returns its states by level and the level at which it stopped at the
    cut or a singular value (-1 when clean); a settled walk repeats its last
    p states below.
    """
    walk = PullbackWalk(spec, setup, [address], DEFAULT_T_TOP)
    p = address.period_length
    states = np.full(levels + 1, np.nan, dtype=complex)
    z = states[levels] = complex(walk.anchors(levels)[0])
    for k in range(levels - 1, -1, -1):
        if walk._bad_input(np.array([z]))[0]:
            return states, k + 1
        z = states[k] = complex(setup.branch_context.pull_back(z, address.period[k % p]))
        if k + p <= levels and abs(z - states[k + p]) < 1e-15 * (1.0 + abs(z)):
            for kk in range(k - 1, -1, -1):
                states[kk] = states[kk + p]
            break
    return states, -1


class TestBatchedWalk:
    """A batch of addresses gives exactly the rays of one call per address."""

    @pytest.mark.parametrize("case", ["period_two", "broken", "parabolic"])
    def test_array_walk_matches_scalar_walk(self, case, setup_neg5):
        if case == "period_two":
            setup = setup_neg5
            addresses = [Address.cycle(b) for b in ([0, 1], [1, 0], [-1, 2], [2, 2])]
        else:
            spec = exp_map(0.5, 0.2) if case == "broken" else parse_map("exp(1/e)")
            setup = structural_setup(spec, Rect(-4, 9, -12, 12), 0.1)
            addresses = [Address.constant(j) for j in (-1, 0, 1)]
        levels = DEFAULT_SCHEDULE[-1] * addresses[0].period_length
        walk = PullbackWalk(setup.spec, setup, addresses)
        states, bad_at = walk.states(levels, np.arange(levels + 1))
        for row, bad, address in zip(states, bad_at, addresses):
            ref, ref_bad = _scalar_walk(setup.spec, setup, address, levels)
            assert bad == ref_bad
            assert np.array_equal(row, ref, equal_nan=True)
        assert (bad_at >= 0).any() == (case == "broken")

    @staticmethod
    def _check_batch(spec, setup, addresses, **kwargs):
        batch = trace_ray(spec, setup, addresses, **kwargs)
        singles = [trace_ray(spec, setup, a, **kwargs) for a in addresses]
        assert len(batch) == len(addresses)
        for b, s in zip(batch, singles):
            _same_rays(b, s)
            _same_rays(landing_point(spec, b), landing_point(spec, s))
        return [landing_point(spec, r) for r in batch]

    def test_all_period_two_addresses(self, setup_neg5):
        labels = setup_neg5.domain_labels()
        addresses = [Address(period=(x, y)) for x in labels for y in labels]
        assert len(addresses) == 36
        landed = self._check_batch(setup_neg5.spec, setup_neg5, addresses)
        assert all(r.status.kind == "lands_at" for r in landed)

    def test_breaking_and_clean_lanes(self):
        spec = exp_map(0.5, 0.2)
        setup = structural_setup(spec, Rect(-4, 9, -12, 12), 0.1)
        addresses = [Address.constant(j) for j in (-2, -1, 0, 1, 2)]
        landed = self._check_batch(spec, setup, addresses)
        kinds = [r.status.kind for r in landed]
        assert kinds == ["lands_at", "lands_at", "broken", "lands_at", "lands_at"]
        # three samples end above the cut hit: only the endpoints see it
        short = trace_ray(spec, setup, addresses, t_grid=[8.0, 4.0, 2.0])
        assert short[2].status.kind == "unresolved"
        assert np.isnan(short[2].endpoints[-1])
        landed = self._check_batch(spec, setup, addresses, t_grid=[8.0, 4.0, 2.0])
        assert landed[2].status == RayStatus("broken", first_bad_t=2.0)
        assert [r.status.kind for r in landed] == kinds

    def test_parabolic_lane_beside_settling_lanes(self):
        spec = parse_map("exp(1/e)")
        setup = structural_setup(spec, Rect(-4, 8, -12, 12), 0.1)
        addresses = [Address.constant(j) for j in (-1, 0, 1, 2)]
        landed = self._check_batch(spec, setup, addresses)
        assert all(r.status.kind == "lands_at" for r in landed)
        assert abs(landed[1].landing - 1.0) < 1e-6

    def test_mixed_periods_rejected(self, setup_neg5):
        with pytest.raises(MixedPeriods):
            trace_ray(setup_neg5.spec, setup_neg5,
                      [Address.constant(0), Address.cycle([0, 1])])


class TestAnchorRadius:
    def test_checks_of_other_sets_do_not_move_the_radius(self):
        spec = exp_map(-5)
        setup = structural_setup(spec, Rect(-9, 7.5, -13, 13), 0.12)
        E = setup.expansion_radius
        assert E == 25.0
        validate_expansion_radius(spec, setup, [BranchLabel(0, -1), BranchLabel(0, 0)], E)
        trace_ray(spec, setup, Address.parse("|2,15"))
        # band 2 passed at E when the setup was built; the far band 15 needs a
        # larger radius, which must not become band 2's
        ray = trace_ray(spec, setup, Address.constant(2))
        assert ray.z[0].real - DEFAULT_T_TOP == E


class TestFixedRays:
    def test_one_ray_per_domain_all_repelling(self, setup03):
        domains = [setup03.domain_by_band(j) for j in (-1, 0, 1)]
        rays = fixed_rays(setup03.spec, setup03, domains, period=1)
        assert len(rays) == 3
        landings = [r.landing for r in rays]
        for i in range(3):
            for k in range(i + 1, 3):
                assert abs(landings[i] - landings[k]) > 1
            _, deriv = setup03.spec.evaluate(landings[i], 1)
            assert abs(deriv) > 1

    def test_single_domain(self, setup03):
        rays = fixed_rays(setup03.spec, setup03, [setup03.domain_by_band(0)], 1)
        assert len(rays) == 1

    def test_period_two_family(self, setup_neg5):
        domains = [setup_neg5.domain_by_band(j) for j in (-1, 0, 1)]
        rays = fixed_rays(setup_neg5.spec, setup_neg5, domains, period=2)
        assert len(rays) == 9
        for ray in rays:
            assert ray.status.kind == "lands_at"
            w, _ = setup_neg5.spec.evaluate(ray.landing, 2)
            assert abs(w - ray.landing) < 1e-8

    def test_pairwise_disjoint_tails(self, setup03):
        domains = [setup03.domain_by_band(j) for j in (-1, 0, 1)]
        rays = fixed_rays(setup03.spec, setup03, domains, period=1)
        half = len(rays[0].z) // 2
        for i in range(len(rays)):
            for k in range(i + 1, len(rays)):
                for z in rays[i].z[:half]:
                    assert np.min(np.abs(rays[k].z - z)) > 1e-3


class TestRayPairs:
    def test_no_pairs_for_positive_coefficient(self, setup03):
        domains = [setup03.domain_by_band(j) for j in (-2, -1, 0, 1, 2)]
        rays = fixed_rays(setup03.spec, setup03, domains, period=1)
        assert detect_ray_pairs(rays) == []
        landings = [r.landing for r in rays]
        for i in range(len(landings)):
            for k in range(i + 1, len(landings)):
                assert abs(landings[i] - landings[k]) > 1

    def test_period_two_pair_at_real_repeller(self, setup_neg5):
        spec = setup_neg5.spec
        r01 = landing_point(spec, trace_ray(spec, setup_neg5, Address.cycle([0, 1])))
        r10 = landing_point(spec, trace_ray(spec, setup_neg5, Address.cycle([1, 0])))
        pairs = detect_ray_pairs([r01, r10])
        assert len(pairs) == 1
        x_star = brentq(lambda x: -5 * np.exp(x) - x, -2, -1, xtol=1e-14)
        assert abs(pairs[0].common_landing - x_star) < 1e-8

    def test_synthetic_identical_landings(self, setup03):
        spec = setup03.spec
        ray = landing_point(spec, trace_ray(spec, setup03, Address.constant(0)))
        import dataclasses
        clone = dataclasses.replace(ray, address=Address.constant(1))
        pairs = detect_ray_pairs([ray, clone])
        assert len(pairs) == 1

    def test_tolerance_sensitivity(self, setup03):
        spec = setup03.spec
        a = landing_point(spec, trace_ray(spec, setup03, Address.constant(0)))
        b = landing_point(spec, trace_ray(spec, setup03, Address.constant(1)))
        gap = abs(a.landing - b.landing)
        assert detect_ray_pairs([a, b], tol=gap * 0.5) == []
        assert len(detect_ray_pairs([a, b], tol=gap * 2.0)) == 1

    def test_mixed_periods_rejected(self, setup_neg5):
        spec = setup_neg5.spec
        one = landing_point(spec, trace_ray(spec, setup_neg5, Address.constant(0)))
        two = landing_point(spec, trace_ray(spec, setup_neg5, Address.cycle([0, 1])))
        with pytest.raises(MixedPeriods):
            detect_ray_pairs([one, two])

    def test_unlanded_rejected(self, setup03):
        ray = trace_ray(setup03.spec, setup03, Address.constant(0))
        with pytest.raises(UnlandedRay):
            detect_ray_pairs([ray, ray])
