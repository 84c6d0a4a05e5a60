"""The array kernels against frozen copies of their earlier forms, bit for bit.

`branch_log`, `MapSpec.derivative_array`, the Newton sweep and the pullback
walk's cut and singular-value test were rewritten to make fewer numpy calls
per step, with the same arithmetic.  The `frozen_*` functions below are
those kernels as they stood before the rewrite.  A reference that calls the
current kernels cannot see them drift, so each current kernel must return
the bits of its frozen copy, on inputs at the edges of its branches: straight
and curved cuts, points on a band's lower edge, signed zeros, integer band
arrays, the overflow guards, non-finite values and frozen Newton lanes.
"""

import cmath
import itertools
import math

import numpy as np
import pytest

import raysep.rays
from raysep.fixedpoints import _newton_sweep
from raysep.maps import (LOG_FLOOR, OVERFLOW_MAG, OVERFLOW_RE, BranchContext, CutGeometry,
                         branch_log, exp_map, parse_map)
from raysep.rays import BROKEN_TOL, SCHEDULE, Address, PullbackWalk
from raysep.structure import Rect, structural_setup

# -- the frozen copies ---------------------------------------------------------------


def frozen_phi(cut, rho):
    inner = abs(cut.r - cut.c) / cut.abs_a
    return cut.phi_inf - np.arcsin(cut.c.imag / cut.abs_a / np.maximum(rho, inner))


class FrozenOnCut(Exception):
    """The error that the frozen `branch_log` raises below LOG_FLOOR."""


def frozen_branch_log(v, j, cut):
    v = np.asarray(v, dtype=complex)
    rho = np.abs(v)
    if (rho < LOG_FLOOR).any():
        raise FrozenOnCut("logarithm input too close to 0")
    y0 = np.arctan2(v.imag, v.real)
    hi = frozen_phi(cut, rho) + 2.0 * np.pi * j
    lo = hi - 2.0 * np.pi
    k = np.ceil((lo - y0) / (2.0 * np.pi))
    y = y0 + 2.0 * np.pi * k
    on_lo = y <= lo + 1e-15
    y = np.where(on_lo, y + 2.0 * np.pi, y)
    z = np.array(np.log(rho), dtype=complex)
    z.imag += y
    return z


def frozen_derivative_array(spec, z, period):
    w = np.asarray(z, dtype=complex).copy()
    deriv = np.ones_like(w)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(period):
            safe = (w.real < OVERFLOW_RE) & (np.abs(w) <= OVERFLOW_MAG)
            ew = np.exp(np.where(safe, w, 0))
            ew = np.where(safe, spec.a * ew, np.inf + 0j)
            deriv = deriv * ew
            w = np.where(safe, ew + spec.b, np.inf + 0j)
    return w, deriv


def frozen_newton_sweep(evaluator, seeds):
    z = np.array(seeds, dtype=complex).ravel()
    live = np.arange(len(z))
    for _ in range(64):
        if not len(live):
            break
        zl = z[live]
        w, dw = evaluator(zl)
        g = w - zl
        gp = dw - 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(np.abs(gp) > 1e-14, g / gp, 0.0)
        bad = ~np.isfinite(step.real) | ~np.isfinite(step.imag) | (np.abs(zl) > 1e8)
        zl = np.where(bad, zl, zl - step)
        z[live] = zl
        live = live[~bad & ~(np.abs(step) < 1e-13 * (1.0 + np.abs(zl)))]
    return z.reshape(np.shape(seeds))


def frozen_bad_input(setup, z):
    cut = setup.branch_context.cut
    direction = cmath.exp(1j * cut.theta)
    svals = np.array(setup.spec.singular_values(), dtype=complex)
    s = np.maximum((z * direction.conjugate()).real, cut.r)
    near_value = np.abs(svals[:, None] - z) <= BROKEN_TOL
    return (np.abs(z - s * direction) <= BROKEN_TOL) | near_value.any(axis=0)


def frozen_walk(setup, address, levels):
    """One address walked down `levels` pullbacks on one-lane arrays, frozen kernels.

    Returns its states by level and the level at which it stopped at the cut
    or the singular value (-1 when clean); a settled walk repeats its last p
    states below.
    """
    spec, cut = setup.spec, setup.branch_context.cut
    p = address.period_length
    states = np.full(levels + 1, np.nan, dtype=complex)
    z = PullbackWalk(setup, [address]).anchors(levels)
    states[levels] = z[0]
    for k in range(levels - 1, -1, -1):
        if frozen_bad_input(setup, z)[0]:
            return states, k + 1
        z = frozen_branch_log((z - spec.b) / spec.a, address.period[k % p].j, cut)
        states[k] = z[0]
        if k + p <= levels:
            prev = states[k + p:k + p + 1]
            if (np.abs(z - prev) < 1e-15 * (1.0 + np.abs(z)))[0]:
                for kk in range(k - 1, -1, -1):
                    states[kk] = states[kk + p]
                break
    return states, -1


def _bits(a):
    a = np.asarray(a)
    return a.shape, a.dtype, a.tobytes()


# -- branch_log ------------------------------------------------------------------------

CUTS = {
    # b = 0: c = 0, a straight cut
    "straight b=0": CutGeometry.radial(exp_map(0.3), 0.0, 1.0),
    "straight b=0 turned": CutGeometry.radial(exp_map(-5), 2.0, 1.5),
    # phi_inf = pi: the negative reals are the cut
    "straight negative reals": CutGeometry.radial(exp_map(1.0), math.pi, 1.0),
    # a real offset along the cut: still straight
    "straight real c": CutGeometry.radial(exp_map(0.5, -0.5), 0.0, 2.0),
    # signed zeros in Im c and phi_inf
    "straight signed zeros": CutGeometry(0.0, 1.0, complex(0.4, -0.0), 0.5, -0.0),
    "curved": CutGeometry.radial(exp_map(0.5, -0.5), 1.0, 2.0),
    "curved offset": CutGeometry.radial(exp_map(0.6, 0.5 + 0.3j), -2.5, 1.5),
}


def _branch_inputs():
    rng = np.random.default_rng(7)
    mods = 10.0 ** rng.uniform(-250, 250, 40)
    v = mods * np.exp(1j * rng.uniform(-np.pi, np.pi, len(mods)))
    special = [-2.0 + 0j, complex(-2.0, -0.0), complex(-0.5, 0.0), complex(1.0, -0.0),
               complex(1.0, 0.0), complex(-0.0, 1.0), complex(0.0, -1.0), complex(-0.0, -3.0),
               complex(-1.0, 1e-300), complex(-1.0, -1e-300), 1e-299 + 0j,
               complex(math.inf, 0.0), complex(-math.inf, 0.0), complex(math.inf, math.inf),
               complex(math.nan, 0.0), complex(math.nan, 1.0), complex(0.0, math.nan),
               complex(1e300, 1e300), complex(-1e308, 0.0)]
    return np.concatenate([v, special])


@pytest.mark.parametrize("name", list(CUTS))
def test_branch_log_bits(name):
    cut = CUTS[name]
    v = _branch_inputs()
    # a point exactly on each band's lower edge phi(|v|) + 2 pi (j - 1),
    # which the half-open band moves up by 2 pi
    edge = np.exp(1j * float(frozen_phi(cut, 3.0))) * 3.0
    v = np.concatenate([v, [edge, edge.conjugate()]])
    bands = np.resize(np.arange(-3, 4), len(v))
    with np.errstate(invalid="ignore"):
        for j in (0, -2, 5, bands, bands.astype(np.int32)):
            assert _bits(branch_log(v, j, cut)) == _bits(frozen_branch_log(v, j, cut))
        for x, j in zip(v.tolist(), bands.tolist()):
            got = branch_log(x, j, cut)
            assert got.ndim == 0
            assert _bits(got) == _bits(frozen_branch_log(x, j, cut))


def test_branch_log_is_nan_where_it_raised():
    # the frozen copy raised below LOG_FLOOR; the kernel gives nan exactly there,
    # and the frozen bits everywhere else
    for cut in (CUTS["curved"], CUTS["straight b=0"]):
        v = np.array([1.0, 1e-301j, 0j, -0.0 - 0.5j, LOG_FLOOR, 0.9 * LOG_FLOOR])
        small = np.abs(v) < LOG_FLOOR
        with pytest.raises(FrozenOnCut):
            frozen_branch_log(v, 0, cut)
        got = branch_log(v, 0, cut)
        assert np.isnan(got[small]).all()
        assert _bits(got[~small]) == _bits(frozen_branch_log(v[~small], 0, cut))
        assert np.isnan(branch_log(0j, 0, cut))


def test_pull_back_bits():
    # the walk's own call: w - b, / a, then the band of each lane
    for spec, cut in ((exp_map(0.5, -0.5), CUTS["curved"]), (exp_map(0.3), CUTS["straight b=0"])):
        ctx = BranchContext(spec, cut)
        w = _branch_inputs()[:40]
        bands = np.resize(np.arange(-3, 4), len(w))
        expected = frozen_branch_log((w - spec.b) / spec.a, bands, cut)
        assert _bits(ctx.pull_back(w, bands)) == _bits(expected)


# -- derivative_array ---------------------------------------------------------------------

SPECS = [exp_map(0.3), exp_map(-5), exp_map(0.5, -0.5), parse_map("exp(1/e)"),
         exp_map(0.6, 0.5 + 0.1j), exp_map(1e10, -2j)]

GUARD_LANES = [complex(689.9, 0.0), complex(690.0, 0.0), complex(690.0, -1.0),
               complex(700.0, 2.0), complex(1e301, 0.0), complex(-1e301, 5.0),
               complex(0.0, 2e300), complex(math.inf, 0.0), complex(-math.inf, 0.0),
               complex(0.0, math.inf), complex(math.nan, 0.0), complex(1.0, math.nan),
               complex(-800.0, 0.0), complex(1.0, -0.0), complex(-0.0, -0.0), 0j]


@pytest.mark.parametrize("period", [1, 2, 3, 4])
@pytest.mark.parametrize("spec", SPECS, ids=repr)
def test_derivative_array_bits(spec, period):
    rng = np.random.default_rng(period)
    finite = rng.uniform(-6, 6, 30) + 1j * rng.uniform(-12, 12, 30)
    mixed = np.concatenate([finite, GUARD_LANES])
    with np.errstate(invalid="ignore", over="ignore"):
        # an iterate where every lane is safe, one where some are not, and
        # every lane on its own
        for z in (finite, mixed, *[np.array([x]) for x in mixed]):
            w, d = spec.derivative_array(z, period)
            fw, fd = frozen_derivative_array(spec, z, period)
            assert _bits(w) == _bits(fw) and _bits(d) == _bits(fd)


# -- the Newton sweep ----------------------------------------------------------------------


@pytest.mark.parametrize("period", [1, 2, 4])
@pytest.mark.parametrize("spec", SPECS[:5], ids=repr)
def test_newton_sweep_bits(spec, period):
    rng = np.random.default_rng(period + 10)
    grid = rng.uniform(-4, 8, 60) + 1j * rng.uniform(-12, 12, 60)
    # steps that are not finite (overflowed values), |z| > 1e8, nan seeds
    edge = np.array([complex(700.0, 1.0), complex(695.0, 0.0), complex(2e8, 1.0),
                     complex(-3e8, 0.0), complex(math.nan, 0.0), complex(0.0, math.inf),
                     complex(40.0, 0.5), 1.0 + 0j])
    for seeds in (grid, np.concatenate([grid, edge]), edge, edge[:1], edge[-1:],
                  np.concatenate([grid, edge]).reshape(4, -1)):
        got = _newton_sweep(lambda z: spec.derivative_array(z, period), seeds)
        with np.errstate(invalid="ignore", over="ignore"):
            want = frozen_newton_sweep(lambda z: frozen_derivative_array(spec, z, period),
                                       seeds)
        assert _bits(got) == _bits(want)


# -- the pullback walk ---------------------------------------------------------------------


@pytest.mark.parametrize("case, block", [
    pytest.param(case, block, id=case if block is None else f"{case}-block{block}")
    for case in ("period_two", "broken", "parabolic", "curved_cut", "slow")
    for block in (None, 1, 3, 64)])
def test_walk_bits(case, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(raysep.rays, "WALK_BLOCK", block)
    if case == "period_two":
        setup = structural_setup(exp_map(-5), Rect(-9, 7.5, -13, 13), 0.12)
        addresses = [Address.cycle(b) for b in itertools.product((-1, 0, 2), repeat=2)]
    else:
        text = {"broken": "exp(0.5,0.2)", "parabolic": "exp(1/e)",
                "curved_cut": "exp(0.5,-0.5)", "slow": "exp(0.375,-i/256)"}[case]
        setup = structural_setup(parse_map(text), Rect(-4, 9, -12, 12), 0.1)
        addresses = [Address.constant(j) for j in (-1, 0, 1)]
    p = addresses[0].period_length
    levels = (SCHEDULE[-1] if case == "slow" else 640) * p
    states, bad_at = PullbackWalk(setup, addresses).states(levels, np.arange(levels + 1))
    stops = []
    for row, bad, address in zip(states, bad_at, addresses):
        ref, ref_bad = frozen_walk(setup, address, levels)
        assert bad == ref_bad
        # a lane stopped in a repelling petal is the reference above its stop,
        # and below it repeats its parabolic cycle
        differ = np.flatnonzero((row != ref) & ~(np.isnan(row) & np.isnan(ref)))
        stop = int(differ.max()) + 1 if len(differ) else 0
        assert row[stop:].tobytes() == ref[stop:].tobytes()
        assert row[:max(stop - p, 0)].tobytes() == row[p:stop].tobytes()
        stops.append(stop)
    assert (bad_at >= 0).any() == (case == "broken")
    assert [stop > 0 for stop in stops] == [case == "parabolic" and a == Address.constant(0)
                                            for a in addresses]
    assert max(stops) <= levels - raysep.rays.DEFAULT_SAMPLES * p
