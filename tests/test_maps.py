"""Map family: evaluation, singular values, inverse branches."""

import cmath

import numpy as np
import pytest

from raysep.errors import Overflow
from raysep.maps import (
    BranchContext,
    CutGeometry,
    MapSpec,
    branch_log,
    exp_map,
    parse_complex,
    parse_map,
)
from raysep.structure import Rect, _preimage_bounds, structural_setup


def negative_real_cut(spec: MapSpec) -> CutGeometry:
    """The cut along the negative reals from the unit circle."""
    return CutGeometry.radial(spec, np.pi, 1.0)


class TestEvaluate:
    def test_basic_value_and_derivative(self):
        spec = exp_map(0.3)
        value, deriv = spec.evaluate(0.0, 1)
        assert value == pytest.approx(0.3)
        assert deriv == pytest.approx(0.3)

    def test_parabolic_identity(self):
        spec = parse_map("exp(1/e)")
        value, deriv = spec.evaluate(1.0, 1)
        assert value == pytest.approx(1.0, abs=1e-15)
        assert deriv == pytest.approx(1.0, abs=1e-15)

    def test_fixed_point_from_bisection(self):
        from scipy.optimize import brentq
        x = brentq(lambda t: 0.3 * np.exp(t) - t, 0, 1, xtol=1e-14)
        spec = exp_map(0.3)
        value, deriv = spec.evaluate(x, 1)
        assert value == pytest.approx(x, abs=1e-12)
        assert deriv == pytest.approx(x, abs=1e-12)   # multiplier equals the point

    def test_iterate_chain_rule(self):
        spec = exp_map(0.3)
        z = 0.2 + 0.1j
        v1, d1 = spec.evaluate(z, 1)
        v2, d2 = spec.evaluate(v1, 1)
        vp, dp = spec.evaluate(z, 2)
        assert vp == pytest.approx(v2)
        assert dp == pytest.approx(d1 * d2)

    def test_overflow_reported(self):
        spec = exp_map(1.0)
        with pytest.raises(Overflow):
            spec.evaluate(800.0, 1)
        with pytest.raises(Overflow):
            spec.evaluate(20.0, 3)  # tower escapes through 1e300
        z = 1e301j  # Re z is small but |z| is past OVERFLOW_MAG
        with pytest.raises(Overflow):
            spec.evaluate(z, 1)
        assert not np.isfinite(spec.evaluate_array(np.array([z]), 1)[0])
        w, deriv = spec.derivative_array(np.array([z]), 1)
        assert not np.isfinite(w[0]) and not np.isfinite(deriv[0])

    def test_array_matches_scalar(self):
        spec = parse_map("exp(1,1)")
        zs = np.array([0.1 + 0.2j, -1.0 + 0.5j, 2.0 - 1.0j])
        vals = spec.evaluate_array(zs, 2)
        ws, derivs = spec.derivative_array(zs, 2)
        for z, v, w, d in zip(zs, vals, ws, derivs):
            assert v == pytest.approx(spec.evaluate(z, 2)[0])
            assert (w, d) == spec.evaluate(z, 2)

    def test_derivative_against_finite_differences(self):
        rng = np.random.default_rng(5)
        spec = parse_map("exp(0.4,0.2)")
        h = 1e-6
        for _ in range(1000):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            _, deriv = spec.evaluate(z, 1)
            numeric = (spec.evaluate(z + h, 1)[0] - spec.evaluate(z - h, 1)[0]) / (2 * h)
            assert abs(deriv - numeric) <= 1e-5 * max(1.0, abs(deriv))


class TestSingularValues:
    def test_single_factor(self):
        assert exp_map(0.3).singular_values() == [0.0]

    def test_random_affine(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = complex(rng.uniform(0.1, 2), rng.uniform(-1, 1))
            b = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            values = exp_map(a, b).singular_values()
            assert len(values) == 1
            assert values[0] == pytest.approx(b)


def pull_back(spec, w, band, cut):
    """The inverse branch of `band` at one point, for the cut geometry `cut`."""
    return complex(BranchContext(spec, cut).pull_back(w, band))


class TestInverseBranch:
    def test_principal_branch(self):
        spec = exp_map(0.3)
        z = pull_back(spec, 3.0, 0, negative_real_cut(spec))
        assert z == pytest.approx(np.log(10.0))

    def test_band_shift(self):
        spec = exp_map(0.3)
        z = pull_back(spec, 3.0, 1, negative_real_cut(spec))
        assert z == pytest.approx(np.log(10.0) + 2j * np.pi)

    def test_pullback_iteration_converges_to_repelling_point(self):
        from scipy.optimize import brentq
        spec = exp_map(0.3)
        cut = negative_real_cut(spec)
        z = 3.0 + 0j
        for _ in range(200):
            z = pull_back(spec, z, 0, cut)
        target = brentq(lambda t: 0.3 * np.exp(t) - t, 1, 2, xtol=1e-14)
        assert z == pytest.approx(target, abs=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(13)
        spec = exp_map(0.3)
        cut = negative_real_cut(spec)
        for _ in range(200):
            w = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
            if abs(w) < 1.1 or abs(w.imag) < 1e-3 and w.real < 0:
                continue
            for j in (-1, 0, 2):
                z = pull_back(spec, w, j, cut)
                value, _ = spec.evaluate(z, 1)
                assert abs(value - w) < 1e-9

    def test_branch_disjointness(self):
        rng = np.random.default_rng(19)
        spec = exp_map(0.3)
        cut = negative_real_cut(spec)
        for _ in range(100):
            w = complex(rng.uniform(1.5, 8), rng.uniform(-8, 8))
            images = [pull_back(spec, w, j, cut)
                      for j in range(-2, 3)]
            for i in range(len(images)):
                for k in range(i + 1, len(images)):
                    assert abs(images[i] - images[k]) > 1e-6

    @pytest.mark.parametrize("text", ["exp(0.3)", "exp(-5)", "exp(1,1)"])
    def test_rows_of_a_2d_pull_back_equal_row_calls(self, text):
        # one integer band per lane of a 1-D w: bitwise the single-label
        # calls, also for the last lanes, which lie on the cut (a band edge)
        spec = parse_map(text)
        ctx = BranchContext(spec, negative_real_cut(spec))
        rng = np.random.default_rng(23)
        bands = rng.integers(-40, 41, 12)
        w = rng.uniform(2, 1e4, len(bands)) * np.exp(1j * rng.uniform(0, 2 * np.pi, len(bands)))
        w[9:] = -rng.uniform(2, 1e4, 3)
        lanes = ctx.pull_back(w, bands)
        assert lanes.shape == w.shape
        for z, wl, j in zip(lanes, w, bands):
            assert z.tobytes() == ctx.pull_back(wl, int(j)).tobytes()
        # the cut lanes land on their band's top edge, phi(|v|) + 2 pi j
        v = np.abs((w[9:] - spec.b) / spec.a)
        edge = ctx.cut.phi(v) + 2.0 * np.pi * bands[9:]
        assert np.all(np.abs(lanes[9:].imag - edge) < 1e-9)


# for a = 1, b = 0 the negative-real cut has phi identically pi
PRINCIPAL = negative_real_cut(MapSpec(1.0))


class TestBranchLog:
    def test_half_open_band_assignment(self):
        # the cut itself (negative reals) belongs to the band below
        z = branch_log(-2.0 + 0j, 0, PRINCIPAL)
        assert z.imag == pytest.approx(np.pi)
        z = branch_log(-2.0 - 1e-12j, 0, PRINCIPAL)
        assert z.imag == pytest.approx(-np.pi, abs=1e-11)

    def test_array_input(self):
        v = np.array([1.0, 1j, -1j])
        z = branch_log(v, 0, PRINCIPAL)
        assert np.allclose(np.exp(z), v)

    def test_zero_is_on_cut(self):
        # the logarithm's one singularity: |v| below LOG_FLOOR gives nan
        assert np.isnan(branch_log(0j, 0, PRINCIPAL))
        z = branch_log(np.array([1e-301, 1.0]), 0, PRINCIPAL)
        assert np.isnan(z[0]) and z[1] == 0


class TestCutGeometry:
    @pytest.mark.parametrize("spec", [exp_map(0.3), exp_map(0.5, -0.5)], ids=repr)
    def test_phi_is_an_array_on_a_straight_cut(self, spec):
        # branch_log reads phi_inf itself on a straight cut; phi must still
        # give numpy values with array methods, which _preimage_bounds uses
        cut = CutGeometry.radial(spec, 0.0, 1.0)
        assert cut.c.imag == 0
        one = cut.phi(2.0)
        assert isinstance(one, (np.ndarray, np.generic)) and np.shape(one) == ()
        assert one.min() == one.max() == cut.phi_inf
        two = cut.phi(np.array([0.5, 4.0]))
        assert isinstance(two, np.ndarray) and two.shape == (2,)
        assert two.min() == two.max() == cut.phi_inf
        setup = structural_setup(spec, Rect(-4, 9, -12, 12), 0.1)
        bounds = _preimage_bounds(setup, [-1, 0, 1], 2.0 * setup.disk.radius)
        assert bounds.shape == (3,) and np.all(np.isfinite(bounds))


class TestParsing:
    def test_parse_complex_forms(self):
        assert parse_complex("0.3") == pytest.approx(0.3)
        assert parse_complex("-5") == pytest.approx(-5.0)
        assert parse_complex("1/e") == pytest.approx(1 / cmath.e)
        assert parse_complex("e") == pytest.approx(cmath.e)
        assert parse_complex("2+3i") == pytest.approx(2 + 3j)
        assert parse_complex("pi") == pytest.approx(np.pi)

    def test_parse_map_shorthand(self):
        spec = parse_map("exp(0.3)")
        assert spec == MapSpec(0.3 + 0j, 0j)
        spec = parse_map("exp(1,1)")
        assert (spec.a, spec.b) == (1, 1)

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_map("sin(1)")

    def test_json_round_trip(self):
        spec = parse_map("exp(0.4,0.2)")
        again = MapSpec.from_json(spec.to_json())
        assert again == spec

    @pytest.mark.parametrize("count", [0, 2])
    def test_json_with_other_than_one_factor_rejected(self, count):
        data = {"factors": [{"a": [1.0, 0.0], "b": [0.0, 0.0]}] * count}
        with pytest.raises(ValueError, match=f"got {count}"):
            MapSpec.from_json(data)

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError):
            MapSpec(0.0, 1.0)
