"""Index machinery: winding numbers, subtraction curves, root counting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import raysep.curves
from raysep.curves import (
    IndexValue,
    ParamCurve,
    _any_segments_intersect,
    argument_principle_count,
    concat,
    dedup_points,
    group_points,
    is_simple,
    multiplicity_at,
    refine_for_argument,
    subtraction_index,
    winding_number,
)
from raysep.errors import (
    CurveHitsPoint,
    CurvesCollide,
    InconsistentRadius,
    NonFiniteInput,
    NotClosed,
    NotCounterclockwise,
    NotSimple,
    ZeroOnContour,
)
from raysep.maps import exp_map, parse_map


# -- independent oracle: crossing counting along a horizontal ray ------------------


def crossing_count_winding(z: np.ndarray, p: complex) -> int:
    """Signed crossings of the ray from p to +infinity along the real axis."""
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


def random_closed_polyline(rng: np.random.Generator, n_max: int = 40) -> ParamCurve:
    n = int(rng.integers(4, n_max))
    radii = rng.uniform(0.3, 3.0, n)
    jitter = rng.uniform(-0.25, 0.25, n)
    theta = np.sort(rng.uniform(0, 2 * np.pi, n)) + jitter * 0
    turns = int(rng.integers(1, 4))
    angles = np.concatenate([theta + 2 * np.pi * k for k in range(turns)])
    z = radii.tolist() * turns * np.exp(1j * angles)
    center = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    z = center + np.concatenate([z, z[:1]])
    return ParamCurve(np.arange(len(z), dtype=float), z, closed=True)


class TestWindingNumber:
    def test_unit_circle(self):
        circle = ParamCurve.circle(0, 1.0, n=256)
        idx = winding_number(circle, 0)
        assert idx.integer_snap == 1

    def test_point_outside(self):
        circle = ParamCurve.circle(0, 1.0, n=256)
        assert winding_number(circle, 3 + 0j).integer_snap == 0

    def test_half_turn_open_arc(self):
        s = np.linspace(0, 1, 129)
        arc = ParamCurve(s, np.exp(1j * np.pi * s))
        idx = winding_number(arc, 0)
        assert idx.value == pytest.approx(0.5, abs=1e-12)

    def test_double_traversal(self):
        circle = ParamCurve.circle(0, 1.0, n=128, turns=2)
        assert winding_number(circle, 0).integer_snap == 2

    def test_point_on_curve_rejected(self):
        circle = ParamCurve.circle(0, 1.0, n=64)
        with pytest.raises(CurveHitsPoint):
            winding_number(circle, 1 + 0j)

    def test_non_finite_rejected(self):
        circle = ParamCurve.circle(0, 1.0, n=32)
        with pytest.raises(NonFiniteInput):
            winding_number(circle, complex(np.inf, 0))

    def test_crossing_oracle_agreement(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            curve = random_closed_polyline(rng)
            p = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            try:
                idx = winding_number(curve, p)
            except CurveHitsPoint:
                continue
            assert idx.integer_snap is not None
            assert idx.integer_snap == crossing_count_winding(curve.z, p)

    def test_concatenation_additivity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            pts = rng.uniform(-2, 2, 7) + 1j * rng.uniform(-2, 2, 7)
            first = ParamCurve.from_points(pts[:4])
            second = ParamCurve.from_points(pts[3:])
            p = complex(rng.uniform(3, 5), rng.uniform(3, 5))
            whole = concat(first, second)
            total = winding_number(whole, p).value
            parts = winding_number(first, p).value + winding_number(second, p).value
            assert total == pytest.approx(parts, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 3))
    def test_closed_curve_integrality(self, seed, turns):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 24))
        radii = rng.uniform(0.4, 2.5, n)
        theta = np.sort(rng.uniform(0, 2 * np.pi, n))
        z = np.tile(radii, turns) * np.exp(
            1j * np.concatenate([theta + 2 * np.pi * k for k in range(turns)]))
        z = np.concatenate([z, z[:1]])
        curve = ParamCurve(np.arange(len(z), dtype=float), z, closed=True)
        try:
            idx = winding_number(curve, 0.05 + 0.02j)
        except CurveHitsPoint:
            return
        assert idx.integer_snap is not None


class TestSubtractionIndex:
    def test_circle_minus_constant(self):
        sigma = ParamCurve.circle(0, 2.0, n=128)
        gamma = ParamCurve(np.linspace(0, 1, 128), np.zeros(128, dtype=complex) + 0.0)
        assert subtraction_index(gamma, sigma).integer_snap == 1

    def test_constant_two_minus_circle(self):
        sigma = ParamCurve(np.linspace(0, 1, 128), np.full(128, 2.0 + 0j))
        gamma = ParamCurve.circle(0, 1.0, n=128)
        assert subtraction_index(gamma, sigma).integer_snap == 0

    def test_double_circle_vs_segment_against_dense_oracle(self):
        # sigma traverses the circle of radius 3 (through P = 3) twice
        sigma = ParamCurve.circle(0, 3.0, n=256, turns=2)
        gamma = ParamCurve.segment(1.0, 1j, n=64)
        got = subtraction_index(gamma, sigma).value
        expect = winding_number(gamma, 3.0).value + 2
        assert got == pytest.approx(expect, abs=1e-9)
        # dense-sampling oracle on the difference curve
        s = np.linspace(0, 1, 100_001)
        diff = 3.0 * np.exp(4j * np.pi * s) - (1.0 + (1j - 1.0) * s)
        oracle = np.sum(np.angle(diff[1:] / diff[:-1])) / (2 * np.pi)
        assert got == pytest.approx(oracle, abs=1e-6)

    def test_collision_detected(self):
        sigma = ParamCurve.segment(-1, 1, n=33)
        gamma = ParamCurve.segment(1, -1, n=33)
        with pytest.raises(CurvesCollide):
            subtraction_index(gamma, sigma)

    def test_index_invariance_under_midpoint_perturbations(self):
        # deforming gamma without creating collisions keeps the integer part
        rng = np.random.default_rng(3)
        sigma = ParamCurve.circle(0, 2.0, n=256)
        base = np.linspace(-0.5 - 0.5j, 0.5 + 0.3j, 41)
        gamma = ParamCurve(np.arange(41, dtype=float), base)
        before = subtraction_index(gamma, sigma).value
        for _ in range(20):
            bumped = base.copy()
            k = int(rng.integers(1, 40))
            bumped[k] += complex(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
            deformed = ParamCurve(np.arange(41, dtype=float), bumped)
            after = subtraction_index(deformed, sigma).value
            assert round(before) == round(after)


class TestArgumentPrinciple:
    def test_cubic_zeros(self):
        circle = ParamCurve.circle(0, 1.0, n=256)
        assert argument_principle_count(lambda z: z ** 3, circle, "zeros") == 3

    def test_square_fixed_points(self):
        circle = ParamCurve.circle(0, 1.5, n=256)
        assert argument_principle_count(lambda z: z * z, circle, "fixed_points") == 2

    def test_parabolic_double_point(self):
        circle = ParamCurve.circle(0, 0.1, n=256)
        assert argument_principle_count(lambda z: z + z * z, circle,
                                        "fixed_points") == 2

    def test_exponential_rectangle(self):
        from scipy.optimize import brentq
        spec = exp_map(0.3)
        rect = ParamCurve.rectangle(-1, 3, -2, 2)
        count = argument_principle_count(spec, rect, "fixed_points")
        r1 = brentq(lambda x: 0.3 * np.exp(x) - x, 0, 1)
        r2 = brentq(lambda x: 0.3 * np.exp(x) - x, 1, 2)
        assert count == 2
        assert -1 < r1 < 3 and -1 < r2 < 3

    def test_open_contour_rejected(self):
        arc = ParamCurve.segment(0, 1j, n=16)
        with pytest.raises(NotClosed):
            argument_principle_count(lambda z: z, arc, "zeros")

    def test_clockwise_rejected(self):
        circle = ParamCurve.circle(0, 1.0, n=64)
        flipped = ParamCurve(circle.t, circle.z[::-1].copy(), closed=True)
        with pytest.raises(NotCounterclockwise):
            argument_principle_count(lambda z: z, flipped, "zeros")

    def test_self_intersection_rejected(self):
        z = np.array([0, 2 + 2j, 2, 0 + 2j, 0], dtype=complex)
        bowtie = ParamCurve(np.arange(5, dtype=float), z, closed=True)
        with pytest.raises(NotSimple):
            argument_principle_count(lambda z: z - (1 + 1j), bowtie, "zeros")

    def test_zero_on_contour_rejected(self):
        circle = ParamCurve.circle(0, 1.0, n=128)
        with pytest.raises(ZeroOnContour):
            argument_principle_count(lambda z: z - 1, circle, "zeros")

    def test_planted_polynomial_roots(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            deg = int(rng.integers(1, 7))
            roots = rng.uniform(-2, 2, deg) + 1j * rng.uniform(-2, 2, deg)
            center = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            radius = rng.uniform(0.5, 2.5)
            if np.min(np.abs(roots - center) - radius) ** 2 < 1e-4:
                continue
            if np.any(np.abs(np.abs(roots - center) - radius) < 1e-3):
                continue
            poly = np.poly(roots)
            fn = lambda z, c=poly: np.polyval(c, z)
            circle = ParamCurve.circle(center, radius, n=256)
            inside = int(np.sum(np.abs(roots - center) < radius))
            assert argument_principle_count(fn, circle, "zeros") == inside


class TestRefineForArgument:
    def test_square_contour_refined_to_winding_one(self):
        z = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j])
        square = ParamCurve(np.arange(5, dtype=float), z, closed=True)
        refined = refine_for_argument(square, lambda w: w)
        assert winding_number(refined, 0).integer_snap == 1
        # original samples survive
        for orig in z:
            assert np.min(np.abs(refined.z - orig)) < 1e-14

    def test_no_winding_needs_no_refinement(self):
        circle = ParamCurve.circle(0, 1.0, n=256)
        refined = refine_for_argument(circle, lambda w: w - 5)
        assert len(refined) <= len(circle) + 8
        assert winding_number(ParamCurve(refined.t, refined.z - 5), 0).integer_snap == 0

    def test_near_zero_contour(self):
        circle = ParamCurve.circle(1e-3, 0.01, n=8)
        refined = refine_for_argument(circle, lambda w: w)
        assert winding_number(refined, 0).integer_snap == 1


class TestMultiplicity:
    def test_simple_linear(self):
        assert multiplicity_at(lambda z: 2 * z, 0, 0.1) == 1

    def test_parabolic_quadratic(self):
        assert multiplicity_at(lambda z: z + z * z, 0, 0.1) == 2

    def test_exponential_parabolic(self):
        assert multiplicity_at(parse_map("exp(1/e)"), 1.0, 0.2) == 2

    def test_inconsistent_radius(self):
        # radius straddles a second fixed point of z^2 (z = 1)
        with pytest.raises(InconsistentRadius):
            multiplicity_at(lambda z: z * z, 0, 1.5)

    def test_not_fixed_rejected(self):
        with pytest.raises(ValueError):
            multiplicity_at(lambda z: 2 * z, 1.0, 0.1)

    @pytest.mark.parametrize("mapobj, z0, radius, count", [
        (lambda z: 2 * z, 0, 0.1, 1), (lambda z: z + z ** 3, 0, 0.1, 3),
        (parse_map("exp(1/e)"), 1.0, 0.2, 2), (parse_map("exp(1/e)"), 1.0, 1e-2, 2)])
    def test_own_circles_are_not_checked(self, mapobj, z0, radius, count, monkeypatch):
        # its circles are simple and counterclockwise by construction; the
        # count is the checked count's
        assert argument_principle_count(mapobj, ParamCurve.circle(z0, radius, n=512)) == count

        def unchecked(*args):
            raise AssertionError("multiplicity_at checked its own circle")
        monkeypatch.setattr(raysep.curves, "is_simple", unchecked)
        monkeypatch.setattr(raysep.curves, "signed_area", unchecked)
        assert multiplicity_at(mapobj, z0, radius) == count


class TestCurveValidation:
    def test_non_monotone_parameters(self):
        with pytest.raises(ValueError):
            ParamCurve([0, 1, 1], [0, 1j, 2j])

    def test_closed_needs_matching_endpoints(self):
        with pytest.raises(ValueError):
            ParamCurve([0, 1, 2], [0, 1j, 2j], closed=True)

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            ParamCurve([0.0], [0j])

    def test_simplicity_detector(self):
        square = ParamCurve.rectangle(0, 1, 0, 1)
        assert is_simple(square)
        # many collinear segment pairs along each side
        assert is_simple(ParamCurve.rectangle(0, 1, 0, 1, n_per_side=2048))
        # runs back along part of its own bottom edge [0, 6]
        z = np.array([0, 6, 6 + 2j, 2 + 2j, 2, 4, 4 - 1j, -1j, 0], dtype=complex)
        assert not is_simple(ParamCurve(np.arange(len(z), dtype=float), z, closed=True))
        z = np.array([0, 2 + 2j, 2, 0 + 2j, 0], dtype=complex)
        assert not is_simple(ParamCurve(np.arange(5, dtype=float), z, closed=True))

    def test_snap_rule(self):
        assert IndexValue.from_turns(1.0000001).integer_snap == 1
        assert IndexValue.from_turns(1.001).integer_snap is None


def is_simple_reference(curve: ParamCurve, tol: float = 1e-12) -> bool:
    """O(n^2): the exact segment test on every pair of non-adjacent segments."""
    a, b = curve.segments()
    n = len(a)
    i, j = np.triu_indices(n, 2)
    keep = ~(curve.closed & (i == 0) & (j == n - 1))
    i, j = i[keep], j[keep]
    return not _any_segments_intersect(a[i], b[i], a[j], b[j], tol)


def polyline(points, closed: bool = False) -> ParamCurve:
    z = np.asarray(points, dtype=complex)
    if closed:
        z = np.concatenate([z, z[:1]])
    return ParamCurve(np.arange(len(z), dtype=float), z, closed=closed)


def contour_like(crossing: bool) -> ParamCurve:
    """A dense wavy arc of 600 short segments closed by a connector of segments
    30 times as long, the shape of a counting contour."""
    arc = 0.3 * np.sin(np.linspace(0, 30, 601)) + 1j * np.linspace(0, 30, 601)
    top = np.linspace(arc[-1], -45 + 30j, 31)[1:]
    left = np.linspace(-45 + 30j, -45, 21)[1:]
    if crossing:    # back to the arc's start by a detour across the arc
        bottom = np.concatenate([np.linspace(-45, 1 + 1.5j, 31)[1:],
                                 np.linspace(1 + 1.5j, 0, 3)[1:-1]])
    else:
        bottom = np.linspace(-45, 0, 31)[1:-1]
    return polyline(np.concatenate([arc, top, left, bottom]), closed=True)


class TestIsSimple:
    """The cell broad phase against the all-pairs reference."""

    def check(self, curve: ParamCurve) -> bool:
        simple = is_simple(curve)
        assert simple == is_simple_reference(curve)
        return simple

    @staticmethod
    def random_walk(seed: int) -> ParamCurve:
        # odd seeds draw step lengths over six orders of magnitude
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 30))
        steps = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.exp(
            rng.uniform(-3, 3, n) * (seed % 2))
        return polyline(np.cumsum(steps), closed=seed % 3 == 0)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_walks(self, seed):
        self.check(self.random_walk(seed))
        self.check(random_closed_polyline(np.random.default_rng(seed)))

    def test_random_walks_are_mixed(self):
        assert {is_simple(self.random_walk(seed)) for seed in range(30)} == {True, False}

    @pytest.mark.parametrize("shift", [0.0, 0.01])
    def test_figure_eight(self, shift):
        # shift 0 puts the crossing on a vertex, 0.01 inside two segments
        t = shift + np.linspace(0, 2 * np.pi, 201)[:-1]
        curve = polyline(np.sin(t) + 0.5j * np.sin(2 * t), closed=True)
        assert not self.check(curve)
        oval = polyline(np.cos(t) + 0.5j * np.sin(t), closed=True)
        assert self.check(oval)

    @pytest.mark.parametrize("points", [
        [0, 2, 2 + 2j, 1, 2j],              # a vertex on a non-adjacent segment
        [0, 1, 2, 2 + 2j, 1, 2j],           # two non-adjacent vertices coincide
    ])
    def test_vertex_touch(self, points):
        assert not self.check(polyline(points, closed=True))
        lifted = [z + 1e-6j if k == 3 else z for k, z in enumerate(points)]
        assert self.check(polyline(lifted, closed=True)) == (len(points) == 5)

    def test_touch_within_tolerance_across_a_cell_edge(self):
        # unit cells: the last segment ends 5e-13 short of the first, at
        # x = 2, an edge of cells that start at x = 0; the grid starts at
        # x = -1/2, so here the touch is mid-cell (the next test puts it on
        # an edge)
        gap = 5e-13
        z = [2, 2 + 1j, 2 + 2j, 1 + 2j, 2j, 1j, 1 - gap + 0.5j, 2 - gap + 0.5j]
        assert not self.check(polyline(z))

    def test_touch_within_tolerance_across_a_shifted_cell_edge(self):
        # the same touch at x = 2.5, an edge of the unit cells that start
        # half a cell below the least x, 0
        gap = 5e-13
        z = [2.5, 2.5 + 1j, 2.5 + 2j, 1 + 2j, 2j, 1j, 1.5 - gap + 0.5j, 2.5 - gap + 0.5j]
        assert not self.check(polyline(z))

    @pytest.mark.parametrize("box, n", [
        ((-4, 10, -12, 12), 256),       # the counting contours of the p = 1 boxes
        ((-4, 8, -12, 12), 256),
        ((-4, 10, -40, 40), 256),
        ((-9, 7.5, -13, 13), 64),
        ((0, 1, 0, 1), 7),
    ])
    def test_rectangle(self, box, n):
        rect = ParamCurve.rectangle(*box, n_per_side=n)
        assert self.check(rect)
        # a sample of the bottom side moved onto the top side
        z = rect.z.copy()
        z[n // 2] = complex(z[n // 2].real, box[3])
        assert not self.check(ParamCurve(rect.t, z, closed=True))

    @pytest.mark.parametrize("crossing", [False, True])
    def test_counting_contour_shape(self, crossing):
        curve = contour_like(crossing)
        lengths = np.abs(np.diff(curve.z))
        assert np.max(lengths) > 25 * np.median(lengths)
        assert self.check(curve) == (not crossing)

    @pytest.mark.parametrize("points", [
        [1 + 1j, 1 + 1j],                    # extract_tracts' two-point repeated curve
        [0, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0, 1, 1 + 1j],             # median segment length 0
        [0, 1e-300, 2e-300, 1, 1 + 1j],      # segments far below the tolerance
    ])
    @pytest.mark.filterwarnings("error")    # no division by a zero cell
    def test_degenerate_segments(self, points):
        self.check(polyline(points))

    def test_small_and_far_from_the_origin(self):
        t = np.linspace(0, 2 * np.pi, 65)[:-1] + 0.01
        assert self.check(polyline(1e6 + 1e-6 * np.exp(1j * t), closed=True))
        eight = 1e6 + 1e-6 * (np.sin(t) + 0.5j * np.sin(2 * t))
        assert not self.check(polyline(eight, closed=True))


def _group_points_loop(points, tol):
    """The grouping loop `group_points` replaced: the first point left is
    kept and absorbs the later ones within tol of it."""
    pts = np.ravel(np.asarray(points, dtype=complex))
    group = np.empty(len(pts), dtype=int)
    kept = []
    rest, index = pts, np.arange(len(pts))
    while len(rest):
        near = np.abs(rest - rest[0]) < tol
        near[0] = True
        group[index[near]] = len(kept)
        kept.append(index[0])
        rest, index = rest[~near], index[~near]
    return pts[kept], group


@st.composite
def _grouping_inputs(draw):
    """Clusters, chains spaced at tol, exact duplicates and nan, shuffled."""
    tol = draw(st.sampled_from([1e-6, 0.5, 1.0]))
    coord = st.floats(-5, 5, allow_nan=False)
    pts = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["cluster", "chain", "duplicates", "nan"]))
        c = complex(draw(coord), draw(coord))
        n = draw(st.integers(1, 8))
        if kind == "cluster":
            pts += [c + tol * complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1)))
                    for _ in range(n)]
        elif kind == "chain":
            step = tol * draw(st.sampled_from([1.0, 1.0 - 1e-12, 1.0 + 1e-12, 0.5]))
            d = np.exp(1j * draw(st.floats(0, 6.3)))
            pts += [c + k * step * d for k in range(n)]
        elif kind == "duplicates":
            pts += [c] * n
        else:
            pts += [complex(np.nan, draw(coord)), complex(draw(coord), np.nan)][: n % 2 + 1]
    order = draw(st.permutations(range(len(pts))))
    return [pts[i] for i in order], tol


class TestGroupPoints:
    @settings(max_examples=300, deadline=None)
    @given(_grouping_inputs())
    def test_matches_the_loop(self, case):
        points, tol = case
        kept, group = group_points(points, tol)
        ref_kept, ref_group = _group_points_loop(points, tol)
        assert kept.tobytes() == ref_kept.tobytes()
        assert group.tolist() == ref_group.tolist()

    def test_vertical_and_nan(self):
        # equal real parts all fall in one window; nan points stay alone
        points = [0.5j * k for k in range(6)] + [complex("nan"), 0.25j, complex("nan")]
        kept, group = group_points(points, 0.6)
        ref_kept, ref_group = _group_points_loop(points, 0.6)
        assert kept.tobytes() == ref_kept.tobytes()
        assert group.tolist() == ref_group.tolist() == [0, 0, 1, 1, 2, 2, 3, 0, 4]


class TestDedupPoints:
    def test_matches_greedy_loop(self):
        # reference: the per-point scan over the kept points, in order
        def greedy(points, tol, groups=None):
            kept = []
            for z in map(complex, points):
                near = [g for g, u in enumerate(kept) if abs(z - u) < tol]
                if groups is not None:
                    groups.append(near[0] if near else len(kept))
                if not near:
                    kept.append(z)
            return kept

        rng = np.random.default_rng(5)
        centers = rng.uniform(-5, 5, 40) + 1j * rng.uniform(-5, 5, 40)
        picks = rng.integers(0, 40, 400)
        points = centers[picks] + 1e-9 * rng.standard_normal(400)
        assert dedup_points(points, 1e-6) == greedy(points, 1e-6)
        groups = []
        kept, group = group_points(points, 1e-6)
        assert kept.tolist() == greedy(points, 1e-6, groups)
        assert group.tolist() == groups
        assert len(dedup_points(points, 1e-6)) == len(set(picks))
        assert dedup_points([], 1e-6) == []
        # greedy order: a chain of points each within tol of the next
        chain = [0, 0.6, 1.2, 1.8]
        assert dedup_points(chain, 1.0) == greedy(chain, 1.0) == [0, 1.2]
        assert group_points(chain, 1.0)[1].tolist() == [0, 0, 1, 1]
