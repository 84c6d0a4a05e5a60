"""Ray tracing, landing, pairs, and the ray-family invariants."""

import cmath
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import raysep.rays
from raysep.errors import ExpansionNotValidated, MixedPeriods, Overflow, RaysepError, UnlandedRay
from raysep.fixedpoints import _newton_sweep, _petal_jet, find_periodic_points
from raysep.maps import OVERFLOW_MAG, BranchContext, BranchLabel, MapSpec, exp_map, parse_map
from raysep.rays import (
    DEFAULT_SAMPLES,
    DEFAULT_T_TOP,
    LANDING_TOL,
    PAIR_TOL,
    SCHEDULE,
    WALK_BLOCK,
    Address,
    PullbackWalk,
    Ray,
    RayStatus,
    _directions,
    _limits,
    fixed_rays,
    landing_groups,
    landing_point,
    landings_at,
    pairs_from_groups,
    same_landing,
    trace_ray,
)
from raysep.structure import Rect, structural_setup, validate_expansion_radius

# the depth, in cycles, of the walk tests: every settle or petal stop they look for comes above
# it, and SHORT_ENDPOINTS endpoints of the SCHEDULE lie down to it
SHORT_WALK = 640
SHORT_ENDPOINTS = SCHEDULE.index(SHORT_WALK) + 1


@pytest.fixture(scope="module")
def setup03():
    return structural_setup(exp_map(0.3), Rect(-4, 10, -17, 17), 0.1)


@pytest.fixture(scope="module")
def setup_neg5():
    return structural_setup(exp_map(-5), Rect(-9, 7.5, -13, 13), 0.12)


@pytest.fixture(scope="module")
def setup_weak():
    """Its ray |0 lands at a weakly repelling fixed point, |multiplier| = 1.0265."""
    return structural_setup(exp_map(0.375, -1j / 256), Rect(-4, 10, -12, 12), 0.1)


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

    def test_symbols_finite(self):
        a = Address.parse("1|0,2")
        assert {s.j for s in a.symbols()} == {0, 1, 2}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Address.parse("|")


class TestTraceRay:
    def test_real_axis_ray(self, setup03):
        ray = trace_ray(setup03, Address.constant(0))
        assert np.max(np.abs(ray.z.imag)) < 1e-8
        assert np.all(np.diff(ray.t) < 0)

    def test_band_one_asymptotics(self, setup03):
        ray = trace_ray(setup03, Address.constant(1))
        far_half = ray.z[: len(ray.z) // 2]
        assert np.all((far_half.imag > np.pi) & (far_half.imag < 3 * np.pi))

    def test_forward_escape_of_top_sample(self, setup03):
        ray = trace_ray(setup03, Address.constant(1))
        w, _ = setup03.spec.evaluate(ray.z[0], 1)
        assert abs(w) > setup03.expansion_radius

    def test_monotone_escape_of_forward_orbit(self, setup03):
        ray = trace_ray(setup03, Address.constant(0))
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
        ray = trace_ray(setup03, Address.cycle([0, 1]))
        shifted = trace_ray(setup03, Address.cycle([1, 0]))
        # the shifted ray at potential t, interpolated in its increasing potentials
        t = shifted.t[::-1]
        half = len(ray.z) // 2
        for k in range(half, len(ray.z) - 1):
            image, _ = spec.evaluate(ray.z[k], 1)
            expected = complex(np.interp(2.0 * ray.t[k], t, shifted.z.real[::-1]),
                               np.interp(2.0 * ray.t[k], t, shifted.z.imag[::-1]))
            assert abs(image - expected) < 1e-6

    def test_asymptotic_containment(self, setup03):
        for bands in ([0], [1], [0, 1], [-1, 2]):
            address = Address.cycle(bands)
            ray = trace_ray(setup03, address)
            far_half = ray.z[: len(ray.z) // 2]
            for z in far_half:
                assert abs(setup03.spec.evaluate(complex(z), 1)[0]) > setup03.disk.radius
                assert setup03.band_index(complex(z)) == address.period[0].j


class TestLanding:
    def test_real_repelling_landing(self, setup03):
        target = brentq(lambda x: 0.3 * np.exp(x) - x, 1, 2, xtol=1e-14)
        ray = landing_point(trace_ray(setup03, Address.constant(0)))
        assert ray.status.kind == "lands_at"
        assert abs(ray.landing - target) < 1e-10

    def test_band_one_landing(self, setup03):
        # oracle: iterate z <- log(z/0.3) + 2 pi i to machine precision
        z = 3.0 + 0j
        for _ in range(300):
            z = np.log(z / 0.3) + 2j * np.pi
        ray = landing_point(trace_ray(setup03, Address.constant(1)))
        assert abs(ray.landing - z) < 1e-10
        w, _ = setup03.spec.evaluate(ray.landing, 1)
        assert abs(w - ray.landing) < 1e-8

    def test_parabolic_landing_with_direction(self):
        spec = parse_map("exp(1/e)")
        setup = structural_setup(spec, Rect(-4, 8, -12, 12), 0.1)
        ray = landing_point(trace_ray(setup, Address.constant(0)))
        assert ray.status.kind == "lands_at"
        assert abs(ray.landing - 1.0) < 1e-6
        direction = ray.status.approach_direction
        assert direction is not None
        assert abs(np.angle(direction)) < 0.1   # repelling direction +1

    @staticmethod
    def _landing_pullbacks(monkeypatch, setup, address):
        """Land `address`: pullback calls in all, and in landing_point alone."""
        calls = []
        pull_back = BranchContext.pull_back

        def counted(self, w, label):
            calls.append(label)
            return pull_back(self, w, label)
        monkeypatch.setattr(BranchContext, "pull_back", counted)
        ray = trace_ray(setup, address)
        traced = len(calls)
        landed = landing_point(ray)
        monkeypatch.undo()
        return landed, len(calls), len(calls) - traced

    def test_parabolic_landing_walks_once(self, monkeypatch):
        # never settles, but stops in the repelling petal within two blocks
        # past the samples, and lands on the parabolic record
        spec = parse_map("exp(1/e)")
        setup = structural_setup(spec, Rect(-4, 8, -12, 12), 0.1)
        landed, calls, landing_calls = self._landing_pullbacks(
            monkeypatch, setup, Address.constant(0))
        assert landed.status.kind == "lands_at"
        assert DEFAULT_SAMPLES - 1 < calls <= DEFAULT_SAMPLES - 1 + 2 * WALK_BLOCK
        assert landing_calls == 0
        (record,) = [r for r in find_periodic_points(spec, setup.bbox, 1)
                     if r.classification == "parabolic"]
        assert abs(landed.landing - record.location) < LANDING_TOL

    def test_repelling_landing_stops_when_settled(self, setup03, monkeypatch):
        landed, calls, landing_calls = self._landing_pullbacks(
            monkeypatch, setup03, Address.constant(1))
        assert landed.status.kind == "lands_at"
        assert calls < SHORT_WALK
        assert landing_calls == 0

    def test_weakly_repelling_landing_walks_deeper(self, setup_weak, monkeypatch):
        # the landing point's multiplier has modulus 1.0265: the endpoints
        # down to SHORT_WALK cycles resolve no limit, the deeper ones do
        spec = setup_weak.spec
        landed, calls, landing_calls = self._landing_pullbacks(
            monkeypatch, setup_weak, Address.constant(0))
        assert np.isnan(_limits(spec, landed.endpoints[None, :SHORT_ENDPOINTS], 1)[0])
        assert SHORT_WALK < calls <= SCHEDULE[-1]
        assert landed.status.kind == "lands_at" and landing_calls == 0
        assert _bits(landed.landing) == _bits(1.0069979695729254 + 0.19530804575017333j)
        w, dw = spec.evaluate(landed.landing, 1)
        assert abs(w - landed.landing) < 1e-8 * (1 + abs(landed.landing))
        assert 1.02 < abs(dw) < 1.03
        assert abs(landed.landing - landed.endpoints[-1]) < 1e-6

    def test_break_below_the_short_walk_is_broken(self, setup_weak, monkeypatch):
        # a bad disk of radius 1e-8 about the weakly repelling landing point,
        # which the walk enters about 673 cycles deep: the deeper endpoints
        # are nan, and the ray is broken at its least potential
        landing = 1.0069979695729254 + 0.19530804575017333j
        bad_input = PullbackWalk._bad_input
        monkeypatch.setattr(PullbackWalk, "_bad_input", lambda walk, z, above=None:
                            bad_input(walk, z, above) | (np.abs(z - landing) < 1e-8))
        ray = trace_ray(setup_weak, Address.constant(0))
        assert not np.isnan(ray.endpoints[:SHORT_ENDPOINTS]).any()
        assert np.isnan(ray.endpoints[SHORT_ENDPOINTS:]).all()
        assert landing_point(ray).status == RayStatus("broken", first_bad_t=float(np.min(ray.t)))

    def test_periodic_landing_closes(self, setup_neg5):
        spec = setup_neg5.spec
        for bands in ([0, 1], [1, 0], [-1, 1], [2, 0]):
            ray = landing_point(trace_ray(setup_neg5, Address.cycle(bands)))
            assert ray.status.kind == "lands_at"
            w, _ = spec.evaluate(ray.landing, 2)
            assert abs(w - ray.landing) < 1e-8

    def test_preperiodic_landing(self, setup03):
        spec = setup03.spec
        ray = landing_point(trace_ray(setup03, Address.parse("1|0")))
        assert ray.status.kind == "lands_at"
        # the landing point maps to the fixed ray's landing point
        target = brentq(lambda x: 0.3 * np.exp(x) - x, 1, 2, xtol=1e-14)
        w, _ = spec.evaluate(ray.landing, 1)
        assert abs(w - target) < 1e-8
        assert abs(ray.landing - target) > 1e-3

    @pytest.mark.parametrize("flagged", ["sample", "limit"])
    def test_break_in_the_preperiod_is_broken(self, flagged, monkeypatch):
        # `0,1|0` pulls its cycle ray |0 back through band 1, then band 0; the
        # second pullback of one sample, or of the limit, is flagged as starting
        # at the cut.  The ray is broken at its least potential after the
        # preperiod, and a break in the limit's pullbacks keeps the pulled-back
        # samples but leaves the limit where the cycle ray has it
        setup = structural_setup(exp_map(0.3), Rect(-4, 10, -12, 12), 0.1)
        cycle = trace_ray(setup, Address.parse("|0"))
        pull_back = setup.branch_context.pull_back
        point = complex(pull_back(np.array([cycle.z[5] if flagged == "sample"
                                            else cycle.limit]), 1)[0])
        bad_input = PullbackWalk._bad_input
        monkeypatch.setattr(PullbackWalk, "_bad_input", lambda walk, z, above=None:
                            bad_input(walk, z, above) | (np.abs(z - point) < 1e-9))
        ray = trace_ray(setup, Address.parse("0,1|0"))
        assert ray.status == RayStatus("broken", first_bad_t=DEFAULT_T_TOP * 2.0 ** -27)
        if flagged == "sample":
            assert ray.t[0] == DEFAULT_T_TOP
            assert np.array_equal(ray.z, cycle.z)
        else:
            assert ray.t[0] == DEFAULT_T_TOP / 4
            assert np.array_equal(ray.z, pull_back(pull_back(cycle.z, 1), 0))
            assert ray.limit == cycle.limit


def _bits(z):
    return None if z is None else np.array([z], dtype=complex).tobytes()


def _scalar_limit(spec, endpoints, period):
    """Reference: one ray's limit as the per-ray landing resolved it.

    The first settled endpoint, a one-lane Newton polish, and closure
    through `MapSpec.evaluate`; None when there is no limit.
    """
    if np.any(np.isnan(endpoints)):
        return None
    diffs = np.abs(np.diff(endpoints))
    settled = np.nonzero(diffs < LANDING_TOL * (1.0 + np.abs(endpoints[1:])))[0]
    if not len(settled):
        return None
    candidate = complex(endpoints[settled[0] + 1])
    point = candidate
    polished = complex(_newton_sweep(lambda z: spec.derivative_array(z, period),
                                     np.array([candidate]))[0])
    if abs(polished - candidate) < 1e-2 * (1.0 + abs(candidate)):
        point = polished
    try:
        w, _ = spec.evaluate(point, period)
    except Overflow:
        return None
    return point if abs(w - point) < 1e-8 * (1.0 + abs(point)) else None


def _same_rays(a, b):
    """The same ray, its limit and its status bitwise."""
    assert a.address == b.address and a.status.kind == b.status.kind
    assert a.status.first_bad_t == b.status.first_bad_t
    for field in ("t", "z", "endpoints"):
        assert np.array_equal(getattr(a, field), getattr(b, field), equal_nan=True)
    for x, y in ((a.limit, b.limit), (a.status.point, b.status.point),
                 (a.status.approach_direction, b.status.approach_direction)):
        assert _bits(x) == _bits(y)


angles = st.floats(-math.pi, math.pi)


def _scalar_walk(setup, address, levels, endpoint_stop=True):
    """Reference: one address walked one pullback at a time.

    Returns its states by level and the level at which it stopped at the
    cut or a singular value, or where its segment from the state p levels up
    passes b (-1 when clean).  The walk settles where a state
    repeats the one p levels up, or, with `endpoint_stop` and below the top
    DEFAULT_SAMPLES cycles, at a SCHEDULE depth whose state is within
    LANDING_TOL of the state at the depth above; a settled walk repeats its
    last p states below.
    """
    walk = PullbackWalk(setup, [address])
    p = address.period_length
    depths = [levels - p * d for d in SCHEDULE] if endpoint_stop else []
    states = np.full(levels + 1, np.nan, dtype=complex)
    z = states[levels] = complex(walk.anchors(levels)[0])
    for k in range(levels - 1, -1, -1):
        above = states[k + 1 + p] if k + 1 + p <= levels else np.nan
        if walk._bad_input(np.array([z]), np.array([above]))[0]:
            return states, k + 1
        z = states[k] = complex(setup.branch_context.pull_back(z, address.period[k % p].j))
        settled = k + p <= levels and abs(z - states[k + p]) < 1e-15 * (1.0 + abs(z))
        if k in depths[1:] and k <= levels - DEFAULT_SAMPLES * p:
            above = states[depths[depths.index(k) - 1]]
            settled = settled or abs(z - above) < LANDING_TOL * (1.0 + abs(z))
        if settled:
            for kk in range(k - 1, -1, -1):
                states[kk] = states[kk + p]
            break
    return states, -1


def _petal_stop(setup, address, row, ref):
    """The level at which the walk stopped `row` in a repelling petal; None when it did not.

    Above the stop `row` holds the reference walk `ref`, bit for bit.  Below
    it, it holds the parabolic cycle that `PullbackWalk._petal_orbits`
    certifies from the reference's states at the stop and p levels above.
    The full reference walk, which never stops in a petal, stays inside the
    bounds that the certificate claims: n cycles below level stop + p, its
    state z has Re V >= Re V+ + n/2 and |V| <= |V+| + 3n/2 for
    V = 1/(A (z - z0)), down to level 0, and lies within r_max = 1/(|A| Re V+)
    of z0.
    """
    same = (row == ref) | (np.isnan(row) & np.isnan(ref))
    if same.all():
        return None
    stop, p = int(np.flatnonzero(~same).max()) + 1, address.period_length
    assert row[stop:].tobytes() == ref[stop:].tobytes()
    walk = PullbackWalk(setup, [address])
    orbits = walk._petal_orbits(ref[[stop + p]], ref[[stop]], stop, walk.bands)[:, 0]
    assert not np.isnan(orbits).any()
    assert row[:stop].tobytes() == orbits[(np.arange(stop) - stop) % p].tobytes()
    z0 = orbits[0]
    jet = _petal_jet(setup.spec, z0, p)
    v = 1.0 / (jet.A * (ref[stop + p::-p] - z0))
    n = np.arange(len(v))
    assert (v.real >= v[0].real + n / 2).all() and (np.abs(v) <= abs(v[0]) + 1.5 * n).all()
    # within r_max, up to rounding: a real V+ puts the state at level stop + p on its circle
    assert (np.abs(ref[stop + p::-p] - z0) <= (1.0 + 1e-12) / (abs(jet.A) * v[0].real)).all()
    return stop


class TestPetalStop:
    """A parabolic lane leaves the walk where a petal certificate proves its landing."""

    @staticmethod
    def _fixed_rays_pullbacks(monkeypatch, setup):
        calls, pull_back = [], BranchContext.pull_back

        def counted(ctx, w, band):
            calls.append(None)
            return pull_back(ctx, w, band)
        monkeypatch.setattr(BranchContext, "pull_back", counted)
        rays = fixed_rays(setup, setup.domains)
        monkeypatch.undo()
        return rays, len(calls)

    @pytest.mark.parametrize("b", [0.3 + 0.2j, -0.4 + 0.5j, 0.1 - 0.7j, 1j, -0.5, 0.25])
    def test_simple_parabolic_family(self, b, monkeypatch):
        # a = e^-(1 + b): f(1 + b) = 1 + b with f' = 1 and f'' = 1, one petal
        spec = exp_map(cmath.exp(-(1.0 + b)), b)
        setup = structural_setup(spec, Rect(-4, 8, -12, 12), 0.1)
        rays, calls = self._fixed_rays_pullbacks(monkeypatch, setup)
        (record,) = [r for r in find_periodic_points(spec, setup.bbox, 1)
                     if r.classification == "parabolic"]
        assert abs(record.location - (1.0 + b)) < 1e-12
        (ray,) = [r for r in rays if r.status.kind == "lands_at"
                  and same_landing(r.landing, record.location)]
        assert abs(ray.landing - record.location) < LANDING_TOL
        # the lane stops within two blocks past its samples
        assert calls <= DEFAULT_SAMPLES - 1 + 2 * WALK_BLOCK
        levels = SHORT_WALK
        row = PullbackWalk(setup, [ray.address]).states(levels, np.arange(levels + 1))[0][0]
        ref, ref_bad = _scalar_walk(setup, ray.address, levels)
        assert ref_bad == -1
        assert _petal_stop(setup, ray.address, row, ref) > levels - DEFAULT_SAMPLES - 2 * WALK_BLOCK

    def test_parabolic_two_cycle(self):
        # a e^z + b has the 2-cycle 1/t + b, t + b with (f^2)' = 1 where
        # t^2 = e^(1/t - t) and a = t e^(-1/t - b); t has the branch 2 log t + 4 pi i
        t = complex(-4.55, -8.33)
        for _ in range(20):
            t -= (2 * cmath.log(t) + 4j * math.pi - 1 / t + t) / (2 / t + 1 / t ** 2 + 1)
        b = 2.3
        spec = exp_map(t * cmath.exp(-1 / t - b), b)
        setup = structural_setup(spec, Rect(-8, 8, -14, 14), 0.1)
        cycle = np.array([1 / t + b, t + b])
        assert abs(spec.derivative_array(cycle[:1], 2)[1][0] - 1) < 1e-14
        landed = {str(r.address): r.landing for r in fixed_rays(setup, setup.domains, 2)
                  if r.status.kind == "lands_at" and same_landing(cycle, r.landing).any()}
        assert sorted(landed) == ["|-1,1", "|1,-1"]
        assert np.abs(np.array([landed["|1,-1"], landed["|-1,1"]]) - cycle).max() < LANDING_TOL
        levels = 2 * SHORT_WALK
        addresses = [Address.cycle([1, -1]), Address.cycle([-1, 1])]
        states, _ = PullbackWalk(setup, addresses).states(levels, np.arange(levels + 1))
        for address, row in zip(addresses, states):
            stop = _petal_stop(setup, address, row, _scalar_walk(setup, address, levels)[0])
            assert levels - 2 * (DEFAULT_SAMPLES + WALK_BLOCK) <= stop

    @pytest.mark.parametrize("text, box", [("exp(1/e)", (-4, 8, -12, 12)),
                                           ("exp(0.5,-0.5)", (-4, 9, -12, 12)),
                                           ("exp(0.6,0.5+0.3i)", (-4, 9, -12, 12))])
    def test_cut_distance_is_where_the_branches_jump(self, text, box):
        setup = structural_setup(parse_map(text), Rect(*box), 0.1)
        walk, ctx = PullbackWalk(setup, [Address.constant(0)]), setup.branch_context
        b, end = ctx.spec.b, ctx.cut.r * cmath.exp(1j * ctx.cut.theta)
        # the locus: the segment from b to the cut's inner end, then the cut
        s = np.linspace(0.0, 1.0, 20001)
        locus = np.concatenate([b + s * (end - b), end * (1.0 + 40.0 * s)])
        z = np.random.default_rng(3).uniform(-8, 8, 300) + 1j * np.random.default_rng(4).uniform(
            -8, 8, 300)
        brute = np.abs(z[:, None] - locus[None, :]).min(axis=1)
        assert np.allclose(walk._cut_distance(z), brute, atol=2e-3)
        # each band's logarithm jumps by 2 pi across the locus, and nowhere else
        normal = 1j * (end - b) / abs(end - b)
        on = np.concatenate([b + s[1:-1:500] * (end - b), end * (1.0 + 40.0 * s[1:-1:500])])
        far = z[walk._cut_distance(z) > 1e-3]
        for band in (-1, 0, 2):
            left, right = (ctx.pull_back(on + side * 1e-9 * normal, band) for side in (1, -1))
            assert np.allclose(np.abs(left.imag - right.imag), 2.0 * math.pi, atol=1e-3)
            for step in (1e-7, 1e-7j, -1e-7, -1e-7j):
                assert (np.abs(ctx.pull_back(far + step, band) - ctx.pull_back(far, band))
                        < 1e-3).all()

    @pytest.mark.parametrize("text, box, cycles", [
        ("exp(0.375,-i/256)", (-4, 10, -12, 12), [(0,), (1,)]),
        # f^2 has a triple root at -1, two petals and A = 0
        ("exp(-e)", (-6, 6, -10, 10), [(0, 1), (1, 0)])])
    def test_no_certificate_no_stop(self, text, box, cycles, monkeypatch):
        spec = parse_map(text)
        setup = structural_setup(spec, Rect(*box), 0.1)
        petal_orbits, landed = PullbackWalk._petal_orbits, []

        def spy(walk, above, z, level, rows):
            orbits = petal_orbits(walk, above, z, level, rows)
            landed.append(not np.isnan(orbits).all())
            return orbits
        monkeypatch.setattr(PullbackWalk, "_petal_orbits", spy)
        addresses = [Address.cycle(c) for c in cycles]
        levels = SHORT_WALK * len(cycles[0])
        states, bad_at = PullbackWalk(setup, addresses).states(levels, np.arange(levels + 1))
        assert landed and not any(landed)
        assert (bad_at < 0).all()
        for row, address in zip(states, addresses):
            assert row.tobytes() == _scalar_walk(setup, address, levels)[0].tobytes()
        if text == "exp(-e)":
            assert _petal_jet(spec, -1.0, 2) is None

    def test_parabolic_box_pullback_count(self, monkeypatch):
        # the exp(1/e) benchmark box: |0 stops at level 608 and every other
        # lane settles above it, so the walk makes 32 pullback calls, not 640
        setup = structural_setup(parse_map("exp(1/e)"), Rect(-4, 8, -12, 12), 0.1)
        for _ in range(2):
            rays, calls = self._fixed_rays_pullbacks(monkeypatch, setup)
            assert calls == 32
            assert all(r.status.kind == "lands_at" for r in rays)


class TestBatchedWalk:
    """A batch of addresses gives exactly the rays of one call per address."""

    @pytest.mark.parametrize("case, block", [
        pytest.param(case, block, id=case if block is None else f"{case}-block{block}")
        for case in ("period_two", "broken", "parabolic", "slow", "cut_lanes")
        for block in (None, 1, 3, 64)])
    def test_array_walk_matches_scalar_walk(self, case, block, setup_neg5, monkeypatch):
        if block is not None:
            monkeypatch.setattr(raysep.rays, "WALK_BLOCK", block)
        if case == "period_two":
            setup = setup_neg5
            addresses = [Address.cycle(b) for b in ([0, 1], [1, 0], [-1, 2], [2, 2])]
        elif case == "cut_lanes":
            # they settle at their endpoints 40 cycles deep, whatever the block
            setup, addresses = setup_neg5, [Address.parse(a) for a in CUT_LANES]
        else:
            spec = {"broken": exp_map(0.5, 0.2), "parabolic": parse_map("exp(1/e)"),
                    "slow": exp_map(0.375, -1j / 256)}[case]
            setup = structural_setup(spec, Rect(-4, 9, -12, 12), 0.1)
            addresses = [Address.constant(j) for j in (-1, 0, 1)]
        levels = (SCHEDULE[-1] if case == "slow" else SHORT_WALK) * addresses[0].period_length
        walk = PullbackWalk(setup, addresses)
        states, bad_at = walk.states(levels, np.arange(levels + 1))
        stops = []
        for row, bad, address in zip(states, bad_at, addresses):
            ref, ref_bad = _scalar_walk(setup, address, levels)
            assert bad == ref_bad
            # the reference takes the same petal stop, and is the walk above it
            stops.append(_petal_stop(setup, address, row, ref))
        assert (bad_at >= 0).any() == (case == "broken")
        # only the parabolic |0 stops, once its samples are walked
        assert [s is not None for s in stops] == [case == "parabolic" and a == Address.constant(0)
                                                  for a in addresses]
        if case == "parabolic":
            assert stops[1] <= levels - DEFAULT_SAMPLES

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), abs_a=st.floats(0.1, 2.0), arg_a=angles, abs_b=st.floats(0.0, 1.0),
           arg_b=angles, period=st.integers(1, 2), block=st.integers(1, 32))
    def test_blocked_walk_is_the_level_walk(self, data, abs_a, arg_a, abs_b, arg_b, period,
                                            block):
        spec = exp_map(cmath.rect(abs_a, arg_a), cmath.rect(abs_b, arg_b))
        try:
            setup = structural_setup(spec, Rect(-4, 9, -12, 12), 0.25)
        except (RaysepError, ValueError):     # no setup on this box
            assume(False)
        bands = [d.label.j for d in setup.domains]
        cycles = data.draw(st.lists(st.tuples(*[st.sampled_from(bands)] * period),
                                    min_size=1, max_size=4, unique=True))
        addresses = [Address.cycle(c) for c in cycles]
        levels = SHORT_WALK * period
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(raysep.rays, "WALK_BLOCK", block)
            try:
                walk = PullbackWalk(setup, addresses)
                states, bad_at = walk.states(levels, np.arange(levels + 1))
            except ExpansionNotValidated:
                assume(False)
        for row, bad, address in zip(states, bad_at, addresses):
            ref, ref_bad = _scalar_walk(setup, address, levels)
            assert bad == ref_bad
            assert row.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 100])
    def test_state_on_b_is_broken_not_on_cut(self, n, monkeypatch):
        # a state exactly on b (the anchor for n = 0, else the n-th pullback's)
        # breaks its lane at that level; a block pulls it back before its bad
        # test, and that pullback is nan.  The lane is the weakly repelling |0
        # of exp(0.375,-i/256), which would walk all levels
        spec = exp_map(0.375, -1j / 256)
        setup = structural_setup(spec, Rect(-4, 10, -12, 12), 0.1)
        addresses = [Address.constant(j) for j in (-1, 0, 1)]
        levels = SHORT_WALK
        pull_back, calls = BranchContext.pull_back, []

        def onto_b(ctx, w, band):
            z = pull_back(ctx, w, band)
            calls.append(None)
            return np.where((band == 0) & (len(calls) == n), spec.b, z)
        monkeypatch.setattr(BranchContext, "pull_back", onto_b)
        if n == 0:
            anchors = PullbackWalk.anchors
            monkeypatch.setattr(PullbackWalk, "anchors", lambda walk, level: np.where(
                walk.bands[:, 0] == 0, spec.b, anchors(walk, level)))
        states, bad_at = PullbackWalk(setup, addresses).states(levels, np.arange(levels + 1))
        for row, bad, address in zip(states, bad_at, addresses):
            calls.clear()
            ref, ref_bad = _scalar_walk(setup, address, levels)
            assert bad == ref_bad
            assert row.tobytes() == ref.tobytes()
        assert bad_at[1] == levels - n

    def test_nan_pullback_off_b_is_unresolved(self, monkeypatch):
        # a pullback that is nan away from b, where no bad test breaks the lane:
        # the nan runs down the walk, and the ray has no limit (fail closed)
        setup = structural_setup(parse_map("exp(1/e)"), Rect(-4, 8, -12, 12), 0.1)
        pull_back, calls = BranchContext.pull_back, []

        def to_nan(ctx, w, label):
            calls.append(None)
            z = pull_back(ctx, w, label)
            return np.full_like(z, np.nan) if len(calls) == 20 else z
        monkeypatch.setattr(BranchContext, "pull_back", to_nan)
        ray = landing_point(trace_ray(setup, Address.constant(0)))
        assert ray.status == RayStatus("unresolved")
        assert np.isnan(ray.z[20:]).all() and np.isnan(ray.endpoints[1:]).all()
        assert len(calls) == SCHEDULE[-1]

    def test_one_bad_test_per_block(self, monkeypatch):
        # the weakly repelling ray |0 of exp(0.375,-i/256) never settles and
        # walks all 640 levels
        setup = structural_setup(exp_map(0.375, -1j / 256), Rect(-4, 10, -12, 12), 0.1)
        bad_input, calls = PullbackWalk._bad_input, []

        def counted(walk, z, above=None):
            calls.append(None)
            return bad_input(walk, z, above)
        monkeypatch.setattr(PullbackWalk, "_bad_input", counted)
        walk = PullbackWalk(setup, [Address.constant(d.label.j) for d in setup.domains])
        states, bad_at = walk.states(SHORT_WALK, [0])
        assert (bad_at < 0).all() and not np.isnan(states).any()
        assert len(calls) <= math.ceil(SHORT_WALK / WALK_BLOCK) + 8

    @staticmethod
    def _check_batch(spec, setup, addresses):
        batch = trace_ray(setup, addresses)
        singles = [trace_ray(setup, a) for a in addresses]
        assert len(batch) == len(addresses)
        for b, s in zip(batch, singles):
            _same_rays(b, s)
            _same_rays(landing_point(b), landing_point(s))
            ref = _scalar_limit(spec, s.endpoints, s.period)
            assert _bits(s.limit) == _bits(complex("nan") if ref is None else ref)
        return [landing_point(r) for r in batch]

    def test_all_period_two_addresses(self, setup_neg5):
        labels = setup_neg5.domain_labels()
        addresses = [Address(period=(x, y)) for x in labels for y in labels]
        assert len(addresses) == 36
        landed = self._check_batch(setup_neg5.spec, setup_neg5, addresses)
        assert all(r.status.kind == "lands_at" for r in landed)

    def test_period_four_lanes(self, setup_neg5):
        labels = setup_neg5.domain_labels()
        addresses = [Address(period=c) for c in itertools.product(labels, repeat=4)]
        assert len(addresses) == 1296
        batch = addresses[5::32]
        np.random.default_rng(0).shuffle(batch)
        landed = self._check_batch(setup_neg5.spec, setup_neg5, batch)
        assert len(landed) == 41 and all(r.status.kind == "lands_at" for r in landed)

    def test_one_newton_sweep_per_walk(self, setup_neg5, monkeypatch):
        calls = []

        def counted(evaluator, seeds, *args, **kwargs):
            calls.append(len(seeds))
            return _newton_sweep(evaluator, seeds, *args, **kwargs)
        monkeypatch.setattr(raysep.rays, "_newton_sweep", counted)
        rays = fixed_rays(setup_neg5, setup_neg5.domains, period=2)
        assert calls == [36]
        assert all(r.status.kind == "lands_at" for r in rays)

    def test_breaking_and_clean_lanes(self):
        spec = exp_map(0.5, 0.2)
        setup = structural_setup(spec, Rect(-4, 9, -12, 12), 0.1)
        addresses = [Address.constant(j) for j in (-2, -1, 0, 1, 2)]
        landed = self._check_batch(spec, setup, addresses)
        kinds = [r.status.kind for r in landed]
        assert kinds == ["lands_at", "lands_at", "broken", "lands_at", "lands_at"]

    def test_parabolic_lane_beside_settling_lanes(self):
        spec = parse_map("exp(1/e)")
        setup = structural_setup(spec, Rect(-4, 8, -12, 12), 0.1)
        addresses = [Address.constant(j) for j in (-1, 0, 1, 2)]
        landed = self._check_batch(spec, setup, addresses)
        assert all(r.status.kind == "lands_at" for r in landed)
        assert abs(landed[1].landing - 1.0) < 1e-6
        # the parabolic lane never settles; it stops in the petal, below which
        # its endpoints hold the certified z0, and that is its limit
        walk = PullbackWalk(setup, addresses)
        levels = SHORT_WALK
        row = walk.states(levels, np.arange(levels + 1))[0][1]
        stop = _petal_stop(setup, addresses[1], row, _scalar_walk(setup, addresses[1], levels)[0])
        z0 = row[stop - 1]
        e = landed[1].endpoints
        assert _bits(landed[1].limit) == _bits(z0) == _bits(e[-1])
        assert not np.any(np.abs(np.diff(e[:2])) < LANDING_TOL * (1.0 + np.abs(e[1])))

    def test_mixed_periods_rejected(self, setup_neg5):
        with pytest.raises(MixedPeriods):
            trace_ray(setup_neg5, [Address.constant(0), Address.cycle([0, 1])])


def _two_walk_rays(setup, addresses):
    """Reference: the landed rays of a SHORT_WALK-cycle walk and a second walk.

    The first walk gives the samples and the endpoints at the SCHEDULE
    depths down to SHORT_WALK cycles.  The rows whose endpoints are clean
    but give no limit take their limits from a second walk of their lanes,
    SCHEDULE[-1] cycles deep, at 16 times those depths.  The rays keep the
    first walk's endpoints, their status as the per-ray landing read gave it
    (a nan state breaks the ray, at its least potential below the samples)
    and the approach direction of `_scalar_direction`.  Returns the rays
    read by `landing_point`, and the indices of the lanes walked again.
    """
    p, depths = addresses[0].period_length, np.array(SCHEDULE[:SHORT_ENDPOINTS])
    top = SHORT_WALK * p
    states, _ = PullbackWalk(setup, addresses).states(
        top, np.concatenate([top - np.arange(DEFAULT_SAMPLES) * p, top - depths * p]))
    endpoints = states[:, DEFAULT_SAMPLES:]
    limits = _limits(setup.spec, endpoints, p)
    slow = np.flatnonzero(np.isnan(limits) & ~np.isnan(endpoints).any(axis=1))
    if len(slow):
        top = SCHEDULE[-1] * p
        deep, _ = PullbackWalk(setup, [addresses[i] for i in slow]).states(
            top, top - 16 * depths * p)
        limits[slow] = _limits(setup.spec, deep, p)
    t = DEFAULT_T_TOP * 0.5 ** (np.arange(DEFAULT_SAMPLES) * p)
    rays = []
    for address, row, limit in zip(addresses, states, limits.tolist()):
        clean = np.count_nonzero(~np.isnan(row[:DEFAULT_SAMPLES]))
        status = RayStatus("unresolved")
        if np.isnan(row).any():
            status = RayStatus("broken", first_bad_t=float(t[min(clean, DEFAULT_SAMPLES - 1)]))
        n = max(clean, 2)
        rays.append(landing_point(Ray(address, t[:n], row[:n], status, row[DEFAULT_SAMPLES:],
                                      limit, _scalar_direction(row[DEFAULT_SAMPLES:], limit))))
    return rays, slow


def _scalar_direction(endpoints, point):
    """Reference: the approach direction as the per-ray landing read took it.

    The deepest endpoint farther than 1e3 LANDING_TOL from the point, by a
    scalar loop, and the unit vector toward it in numpy scalar arithmetic;
    None when no endpoint is that far.
    """
    for e in reversed(endpoints.tolist()):
        if abs(e - point) > 1e3 * LANDING_TOL:
            gap = np.complex128(e) - point
            return gap / abs(gap)
    return None


class TestOneWalk:
    """One walk SCHEDULE[-1] cycles deep lands every ray as a SHORT_WALK-cycle
    walk and a second walk of its unresolved lanes did, bit for bit."""

    @pytest.mark.parametrize("text, box, period", [("exp(0.375,-i/256)", (-4, 10, -12, 12), 1),
                                                   ("exp(-e)", (-6, 6, -10, 10), 2)])
    def test_one_walk_is_the_two_walks(self, text, box, period):
        setup = structural_setup(parse_map(text), Rect(*box), 0.1)
        addresses = [Address(period=c)
                     for c in itertools.product(setup.domain_labels(), repeat=period)]
        refs, slow = _two_walk_rays(setup, addresses)
        assert len(slow)
        for ray, ref in zip(trace_ray(setup, addresses), refs):
            ray = landing_point(ray)
            assert len(ray.endpoints) == len(SCHEDULE)
            _same_rays(replace(ray, endpoints=ray.endpoints[:SHORT_ENDPOINTS]), ref)


# the two period-6 rays of exp(-5) that land at -1.3267 on the inner cut, and their landings
CUT_LANES = {"|0,1,0,1,0,1": -1.3267246652422002 + 4.985600920996795e-28j,
             "|1,0,1,0,1,0": -1.3267246652422005 + 8.772133266057651e-28j}


class TestEndpointStop:
    """Below the samples a lane settles at a SCHEDULE depth where its state
    is within LANDING_TOL of its state at the depth above."""

    @pytest.mark.parametrize("address", sorted(CUT_LANES))
    def test_cut_lane_stops_where_its_endpoints_settle(self, setup_neg5, address, monkeypatch):
        # the lane's endpoints settle, but its states never repeat bit for bit:
        # without the stop it walks all SCHEDULE[-1] cycles, 61,440 pullback calls
        landed, calls, _ = TestLanding._landing_pullbacks(monkeypatch, setup_neg5,
                                                          Address.parse(address))
        assert calls <= 512
        assert landed.status.kind == "lands_at"
        assert _bits(landed.landing) == _bits(CUT_LANES[address])
        # read off the 10-cycle endpoint: the deeper ones lie within 1e3 LANDING_TOL
        direction = landed.status.approach_direction
        assert abs(direction - (-0.01305 + 0.99991j * np.sign(direction.imag))) < 1e-4
        assert np.abs(landed.endpoints[1:] - landed.landing).max() < 1e3 * LANDING_TOL

    def test_rotation_number_lanes_stay_unresolved(self, monkeypatch):
        # a = mu e^-mu has the repelling fixed point mu; these three rays' endpoints
        # settle on a 6-cycle that f^3 does not close on
        mu = 1.2 * cmath.exp(2j * math.pi / 3)
        setup = structural_setup(exp_map(mu * cmath.exp(-mu)), Rect(-4, 8, -10, 10), 0.1)
        calls, pull_back = [], BranchContext.pull_back

        def counted(ctx, w, band):
            calls.append(None)
            return pull_back(ctx, w, band)
        monkeypatch.setattr(BranchContext, "pull_back", counted)
        rays = trace_ray(setup, [Address.parse(a) for a in ("|0,0,1", "|0,1,0", "|1,0,0")])
        assert [landing_point(r).status.kind for r in rays] == ["unresolved"] * 3
        assert len(calls) <= SCHEDULE[2] * 3 + WALK_BLOCK

    def test_break_below_the_stop_is_not_reached(self, setup_neg5, monkeypatch):
        # every input is bad once the walk has made 60 cycles of pullbacks: a walk
        # without the stop breaks there, but the lane settles 40 cycles deep, at
        # its endpoints, and lands
        address = Address.parse("|0,1,0,1,0,1")
        calls, pull_back, bad_input = [], BranchContext.pull_back, PullbackWalk._bad_input

        def counted(ctx, w, band):
            calls.append(None)
            return pull_back(ctx, w, band)
        monkeypatch.setattr(BranchContext, "pull_back", counted)
        monkeypatch.setattr(PullbackWalk, "_bad_input", lambda walk, z, above=None:
                            bad_input(walk, z, above) | (len(calls) > 60 * 6))
        levels = SHORT_WALK * 6
        assert _scalar_walk(setup_neg5, address, levels, endpoint_stop=False)[1] == levels - 361
        calls.clear()
        ray = landing_point(trace_ray(setup_neg5, address))
        assert len(calls) == SCHEDULE[2] * 6
        assert ray.status.kind == "lands_at"
        assert _bits(ray.landing) == _bits(CUT_LANES[str(address)])


class _ConstantDerivative:
    """Moves every point by `shift`, with derivative `dw` everywhere."""

    def __init__(self, dw, shift=0.0):
        self.dw, self.shift = complex(dw), complex(shift)

    def derivative_array(self, z, period=1):
        z = np.asarray(z, dtype=complex)
        return z + self.shift, np.full(z.shape, self.dw)


class _Doubling:
    """f(z) = 2z: Newton jumps from any point to the fixed point 0."""

    def derivative_array(self, z, period=1):
        z = np.asarray(z, dtype=complex)
        return 2.0 * z, np.full(z.shape, 2.0 + 0j)


class TestLimitClosure:
    """A limit is kept exactly when `MapSpec.evaluate` would not overflow."""

    @pytest.mark.parametrize("dw, shift, at", [
        (2.0, 0.0, 1.0 + 1j),
        (OVERFLOW_MAG, 0.0, 1.0),
        (2.0 * OVERFLOW_MAG, 0.0, 1.0),
        (complex("nan"), 0.0, 1.0),
        (2.0, complex("inf"), 1.0),
        (2.0, 0.0, OVERFLOW_MAG),
        (2.0, 0.0, -2.0 * OVERFLOW_MAG),
        (2.0, 1e-3, 1.0),       # Newton walks off by 0.064 and is not kept
    ])
    def test_matches_evaluate(self, dw, shift, at):
        fake = _ConstantDerivative(dw, shift)
        endpoints = np.full((1, len(SCHEDULE)), at, dtype=complex)
        limit = complex(_limits(fake, endpoints, 1)[0])
        try:
            w, _ = MapSpec.evaluate(fake, at, 1)
            closes = abs(w - at) < 1e-8 * (1.0 + abs(at))
        except Overflow:
            closes = False
        assert _bits(limit) == _bits(at if closes else complex("nan"))

    def test_first_settled_endpoint_is_the_candidate(self):
        row = np.array([5.0, 3.0, 2.0, 2.0 + 1e-12, 2.0 + 1e-12, 2.0 + 2e-12, 7.0])
        limit = _limits(_ConstantDerivative(2.0), row[None, :].astype(complex), 1)
        assert _bits(limit[0]) == _bits(row[3])

    @pytest.mark.parametrize("at, limit", [(1e-4, 0.0), (1.0, complex("nan"))])
    def test_far_newton_jump_is_not_kept(self, at, limit):
        # the jump to 0 is kept only when shorter than 1e-2 (1 + |candidate|)
        endpoints = np.full((1, len(SCHEDULE)), at, dtype=complex)
        assert _bits(_limits(_Doubling(), endpoints, 1)[0]) == _bits(limit)

    def test_algebraic_decay_has_no_limit(self):
        # every point is fixed, but a row that decays like 1 + 1/d at the
        # SCHEDULE depths d settles nowhere
        row = 1.0 + 1.0 / np.array(SCHEDULE, dtype=complex)
        assert np.isnan(_limits(_ConstantDerivative(2.0), row[None, :], 1)[0])

    def test_rows_without_a_candidate(self):
        # every point is fixed, so only the endpoints decide
        fixing = _ConstantDerivative(2.0)
        endpoints = np.array([[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
                              [1.0, np.nan, 1.0, 1.0, 1.0, 1.0, 1.0]], dtype=complex)
        assert np.isnan(_limits(fixing, endpoints, 1)).all()
        assert _limits(fixing, endpoints[:0], 1).shape == (0,)


class TestLandingsAt:
    @staticmethod
    def _check(landings, points):
        hits = landings_at(landings, points)
        assert len(hits) == len(points)
        for row, z in zip(hits, points):
            assert np.array_equal(row, np.flatnonzero(same_landing(landings, z)))
        return hits

    def test_rows_of_the_mask(self):
        rng = np.random.default_rng(3)
        landings = rng.uniform(-1, 1, 700) + 1j * rng.uniform(-1, 1, 700)
        # a cluster within PAIR_TOL of landing 0, and a column of equal real parts
        landings[100:120] = landings[0] + PAIR_TOL * rng.uniform(-1, 1, 20)
        landings[200:260] = 0.25 + 1j * np.linspace(-1, 1, 60)
        points = np.concatenate([landings[::20] + 0.5 * PAIR_TOL,
                                 landings[::25] + 2.0 * PAIR_TOL,
                                 landings[:1] + PAIR_TOL * np.exp(1j * np.linspace(0, 6, 40)),
                                 [0.25 + 0.5j, complex("nan"), 0.25 + 1j * (1 + PAIR_TOL)]])
        hits = self._check(landings, points)
        assert sum(len(row) for row in hits) > 60

    def test_empty_sides(self):
        assert landings_at([1.0, 2.0], []) == []
        (row,) = landings_at([], [1j])
        assert row.tolist() == []
        hits = self._check(np.array([1.0, 1.0 + 1e-8j, 2.0]), np.array([1.0 + 0j]))
        assert hits[0].tolist() == [0, 1]


def _hand_ray(endpoints, limit, address=None):
    """A ray as `trace_ray` leaves it: four samples, the given endpoints and limit."""
    t = DEFAULT_T_TOP * 0.5 ** np.arange(4.0)
    return Ray(address or Address.constant(0), t, np.linspace(9, 2, 4).astype(complex),
               RayStatus("unresolved"), np.asarray(endpoints, dtype=complex), complex(limit))


class TestLandingRead:
    """The landing read: `landing_point` on hand-built rays, and the
    approach direction and breaks that `trace_ray` decides."""

    def test_preperiodic_break_below_the_samples_is_broken(self, setup_weak, monkeypatch):
        # the cycle walk of `1|0` breaks below its samples, at a bad disk about its
        # landing point (test_break_below_the_short_walk_is_broken); the ray keeps
        # its pulled-back samples and is broken at the least of their potentials
        landing = 1.0069979695729254 + 0.19530804575017333j
        bad_input = PullbackWalk._bad_input
        monkeypatch.setattr(PullbackWalk, "_bad_input", lambda walk, z, above=None:
                            bad_input(walk, z, above) | (np.abs(z - landing) < 1e-8))
        ray = trace_ray(setup_weak, Address.parse("1|0"))
        cycle = trace_ray(setup_weak, Address.constant(0))
        assert ray.t[0] == DEFAULT_T_TOP / 2 and len(ray.t) == DEFAULT_SAMPLES
        assert np.array_equal(ray.z, setup_weak.branch_context.pull_back(cycle.z, 1))
        broken = RayStatus("broken", first_bad_t=DEFAULT_T_TOP * 2.0 ** -(DEFAULT_SAMPLES - 1) / 2)
        assert ray.status == broken and float(np.min(ray.t)) == broken.first_bad_t
        assert landing_point(ray) is ray and np.isnan(ray.limit) and ray.direction is None

    @pytest.mark.parametrize("limit", [complex("nan"), complex(np.inf, 0), complex(0, -np.inf)])
    def test_non_finite_limit_is_unresolved(self, limit):
        landed = landing_point(_hand_ray([3.0, 2.0, 1.0], limit))
        assert landed.status.kind == "unresolved"
        assert landed.status.point is None and landed.status.approach_direction is None

    def test_landing_reads_the_limit_and_direction(self):
        point, direction = 1.5 - 0.5j, np.complex128(0.6 - 0.8j)
        ray = replace(_hand_ray([9.0, 4.0, 3.0], point), direction=direction)
        landed = landing_point(ray)
        assert landed.status == RayStatus.landed(point, direction)
        assert landed.limit == point and landed.direction is direction
        broken = replace(ray, status=RayStatus("broken", first_bad_t=1.0))
        assert landing_point(broken) is broken

    def test_endpoints_at_the_point_give_no_direction(self):
        point = 1.5 - 0.5j
        near = point + 0.9e3 * LANDING_TOL * np.exp(1j * np.arange(7.0))
        assert _directions(near[None, :], np.array([point])) == [None]

    def test_preperiodic_ray_gives_no_direction(self, setup03):
        cycle, ray = (landing_point(trace_ray(setup03, Address.parse(a))) for a in ("|0", "1|0"))
        assert cycle.status.approach_direction is not None
        assert ray.status.kind == "lands_at" and ray.status.approach_direction is None
        assert ray.direction is None

    def test_direction_is_the_array_formula_bitwise(self):
        # reference: the direction from the deepest endpoint farther than
        # 1e3 LANDING_TOL from the point, picked in numpy array arithmetic,
        # and the unit vector in numpy scalar arithmetic; one row per case
        rng = np.random.default_rng(7)
        points = rng.normal(0.0, 3.0, 300) + 1j * rng.normal(0.0, 3.0, 300)
        scale = 10.0 ** rng.uniform(-9, 1, (300, 7))
        endpoints = points[:, None] + scale * np.exp(1j * rng.uniform(-np.pi, np.pi, (300, 7)))
        directions = _directions(endpoints, points)
        assert len(directions) == 300
        for point, row, direction in zip(points, endpoints, directions):
            away = np.nonzero(np.abs(row - point) > 1e3 * LANDING_TOL)[0]
            ref = None
            if len(away):
                e = row[away[-1]]
                ref = (e - complex(point)) / abs(e - complex(point))
            assert _bits(direction) == _bits(ref)


class TestAnchorRadius:
    def test_checks_of_other_sets_do_not_move_the_radius(self):
        spec = exp_map(-5)
        setup = structural_setup(spec, Rect(-9, 7.5, -13, 13), 0.12)
        E = setup.expansion_radius
        assert E == 25.0
        validate_expansion_radius(setup, [BranchLabel(-1), BranchLabel(0)], E)
        trace_ray(setup, Address.parse("|2,15"))
        # band 2 passed at E when the setup was built; the far band 15 needs a
        # larger radius, which must not become band 2's
        ray = trace_ray(setup, Address.constant(2))
        assert ray.z[0].real - DEFAULT_T_TOP == E


class TestFixedRays:
    def test_one_ray_per_domain_all_repelling(self, setup03):
        domains = [setup03.domain_by_band(j) for j in (-1, 0, 1)]
        rays = fixed_rays(setup03, domains, period=1)
        assert len(rays) == 3
        landings = [r.landing for r in rays]
        for i in range(3):
            for k in range(i + 1, 3):
                assert abs(landings[i] - landings[k]) > 1
            _, deriv = setup03.spec.evaluate(landings[i], 1)
            assert abs(deriv) > 1

    def test_single_domain(self, setup03):
        rays = fixed_rays(setup03, [setup03.domain_by_band(0)], 1)
        assert len(rays) == 1

    def test_period_two_family(self, setup_neg5):
        domains = [setup_neg5.domain_by_band(j) for j in (-1, 0, 1)]
        rays = fixed_rays(setup_neg5, domains, period=2)
        assert len(rays) == 9
        for ray in rays:
            assert ray.status.kind == "lands_at"
            w, _ = setup_neg5.spec.evaluate(ray.landing, 2)
            assert abs(w - ray.landing) < 1e-8

    def test_pairwise_disjoint_tails(self, setup03):
        domains = [setup03.domain_by_band(j) for j in (-1, 0, 1)]
        rays = fixed_rays(setup03, domains, period=1)
        half = len(rays[0].z) // 2
        for i in range(len(rays)):
            for k in range(i + 1, len(rays)):
                for z in rays[i].z[:half]:
                    assert np.min(np.abs(rays[k].z - z)) > 1e-3


def ray_pairs(rays):
    """One RayPair per two rays of a landing group (as the ray graph builds them)."""
    return pairs_from_groups(rays, landing_groups(rays)[1])


class TestRayPairs:
    def test_no_pairs_for_positive_coefficient(self, setup03):
        domains = [setup03.domain_by_band(j) for j in (-2, -1, 0, 1, 2)]
        rays = fixed_rays(setup03, domains, period=1)
        assert ray_pairs(rays) == []
        landings = [r.landing for r in rays]
        for i in range(len(landings)):
            for k in range(i + 1, len(landings)):
                assert abs(landings[i] - landings[k]) > 1

    def test_period_two_pair_at_real_repeller(self, setup_neg5):
        r01 = landing_point(trace_ray(setup_neg5, Address.cycle([0, 1])))
        r10 = landing_point(trace_ray(setup_neg5, Address.cycle([1, 0])))
        pairs = ray_pairs([r01, r10])
        assert len(pairs) == 1
        x_star = brentq(lambda x: -5 * np.exp(x) - x, -2, -1, xtol=1e-14)
        assert abs(pairs[0].common_landing - x_star) < 1e-8

    def test_synthetic_identical_landings(self, setup03):
        ray = landing_point(trace_ray(setup03, Address.constant(0)))
        import dataclasses
        clone = dataclasses.replace(ray, address=Address.constant(1))
        pairs = ray_pairs([ray, clone])
        assert len(pairs) == 1

    def test_tolerance_sensitivity(self, setup03):
        a = landing_point(trace_ray(setup03, Address.constant(0)))

        def landed_at(gap):
            return replace(a, address=Address.constant(1),
                           status=RayStatus.landed(a.landing + gap, None))
        assert len(ray_pairs([a, landed_at(0.5 * PAIR_TOL)])) == 1
        assert ray_pairs([a, landed_at(2.0 * PAIR_TOL)]) == []

    def test_mixed_periods_rejected(self, setup_neg5):
        one = landing_point(trace_ray(setup_neg5, Address.constant(0)))
        two = landing_point(trace_ray(setup_neg5, Address.cycle([0, 1])))
        with pytest.raises(MixedPeriods):
            ray_pairs([one, two])

    def test_unlanded_rejected(self, setup03):
        ray = trace_ray(setup03, Address.constant(0))
        with pytest.raises(UnlandedRay):
            ray_pairs([ray, ray])
