"""Dynamic ray tracing by nested inverse-branch pullback.

A ray of periodic address s is traced as a pullback walk: starting from an
anchor placed deep inside the fundamental domain of a high symbol, inverse
branches are applied symbol by symbol.  The intermediate state after the
walk reaches level k lies on the ray of the k-times-shifted address, so the
states at levels that are multiples of the period are the samples of the
ray itself.  One application of f moves a state one level up the same walk,
which makes the ray-invariance relation exact by construction.

The walk is an array walk: every address of one cycle length is a lane, and
all lanes go down one level per pullback call.  A lane leaves the walk when
it reaches the cut or a singular value, or when it settles on its limit
cycle, whose last p states then stand for all lower levels.  One walk,
DEFAULT_SCHEDULE[-1] cycles deep, serves both tracing and landing: its top
cycles are the ray's samples, and its states at the depths of the doubling
schedule are the endpoints the landing is resolved from.  Lanes that
resolve no limit are walked again, SLOW_SCHEDULE[-1] cycles deep, for a
landing point whose multiplier is close to 1 in modulus.

Potentials are a declared parametrization: the sample at level k carries
potential DEFAULT_T_TOP * 2^(k_top - k), halving toward the landing point;
applying f doubles the potential.  Each walk resolves the limits of all its
lanes in one array pass over the endpoint matrix: a settled endpoint, or
Richardson extrapolation for the algebraic (parabolic) approach, polished
by one Newton sweep on f^p(z) - z and kept when f^p closes on it.
`landing_point` then interprets one ray's limit: broken walks, the approach
direction and the preperiod.

Rays land together when their landings fall in one group of
`landing_groups` (greedy in ray order, within PAIR_TOL); the ray graph's
landing points and pairs come from these groups.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .curves import group_points
from .errors import BrokenRay, MixedPeriods, UnlandedRay
from .fixedpoints import _newton_sweep
from .maps import OVERFLOW_MAG, BranchLabel, MapSpec
from .structure import StructuralSetup, _expansion_radii, _not_validated

LANDING_TOL = 1e-10
PAIR_TOL = 1e-6
BROKEN_TOL = 1e-8
DEFAULT_SAMPLES = 26
DEFAULT_T_TOP = 8.0
DEFAULT_SCHEDULE = (10, 20, 40, 80, 160, 320, 640)
SLOW_SCHEDULE = tuple(16 * d for d in DEFAULT_SCHEDULE)


@dataclass(frozen=True)
class Address:
    """Eventually periodic symbol sequence over fundamental-domain labels."""

    period: tuple[BranchLabel, ...]
    preperiod: tuple[BranchLabel, ...] = ()

    def __post_init__(self):
        if not self.period:
            raise ValueError("period part must be nonempty")

    @classmethod
    def constant(cls, j: int) -> "Address":
        return cls(period=(BranchLabel(j),))

    @classmethod
    def cycle(cls, bands) -> "Address":
        return cls(period=tuple(BranchLabel(j) for j in bands))

    def shifted(self) -> "Address":
        if self.preperiod:
            return Address(self.period, self.preperiod[1:])
        return Address(self.period[1:] + self.period[:1])

    def symbols(self) -> set[BranchLabel]:
        return set(self.preperiod) | set(self.period)

    @property
    def period_length(self) -> int:
        return len(self.period)

    def __str__(self) -> str:
        pre = ",".join(str(s.j) for s in self.preperiod)
        per = ",".join(str(s.j) for s in self.period)
        return f"{pre}|{per}"

    @classmethod
    def parse(cls, text: str) -> "Address":
        """Parse 'pre|per' with comma-separated band indices.

        An empty period side repeats the last preperiod symbol; no bar at
        all means a purely periodic address.
        """
        text = text.strip()
        if "|" in text:
            pre_s, per_s = text.split("|", 1)
        else:
            pre_s, per_s = "", text
        pre = tuple(BranchLabel(int(p)) for p in pre_s.split(",") if p.strip())
        per = tuple(BranchLabel(int(p)) for p in per_s.split(",") if p.strip())
        if not per:
            if not pre:
                raise ValueError(f"empty address {text!r}")
            per = (pre[-1],)
            pre = pre[:-1]
        return cls(period=per, preperiod=pre)


@dataclass(frozen=True)
class RayStatus:
    kind: str                      # "lands_at" | "broken" | "unresolved"
    point: complex | None = None
    first_bad_t: float | None = None
    approach_direction: complex | None = None

    @classmethod
    def landed(cls, point: complex, direction: complex | None) -> "RayStatus":
        return cls("lands_at", point=point, approach_direction=direction)


@dataclass(frozen=True)
class Ray:
    address: Address
    t: np.ndarray                  # decreasing potentials
    z: np.ndarray
    status: RayStatus
    setup: StructuralSetup
    endpoints: np.ndarray          # cycle walk states at the DEFAULT_SCHEDULE depths
    limit: complex                 # the walk's limit, before any preperiod; nan: none

    @property
    def period(self) -> int:
        return self.address.period_length

    @property
    def landing(self) -> complex:
        if self.status.kind != "lands_at":
            raise UnlandedRay(self.address)
        return self.status.point

    def value_at(self, t: float) -> complex:
        order = np.argsort(self.t)
        re = np.interp(t, self.t[order], self.z[order].real)
        im = np.interp(t, self.t[order], self.z[order].imag)
        return complex(re, im)


@dataclass(frozen=True)
class RayPair:
    rays: tuple[Ray, Ray]
    common_landing: complex


# -- pullback walk ----------------------------------------------------------------


class PullbackWalk:
    """Array inverse-branch walk: one lane per address, all of one cycle length.

    Every active lane goes down one level per `pull_back` call.  A lane
    leaves the walk when its state reaches the cut or a singular value
    (broken), or when it has settled on its limit cycle.
    """

    def __init__(self, spec: MapSpec, setup: StructuralSetup, addresses):
        self.setup = setup
        self.addresses = list(addresses)
        self.ctx = setup.branch_context
        self._svals = np.array(spec.singular_values(), dtype=complex)

    def anchors(self, level: int) -> np.ndarray:
        """Each lane's top state: deep inside the domain of its symbol at `level`.

        The anchor radius is the expansion radius of the lane's symbols.  One
        doubling search (`structure._expansion_radii`), which tests each
        radius by the closed-form preimage bound of every symbol, settles the
        radii of all distinct symbol sets together; the first set, in address
        order, that no radius validates raises ExpansionNotValidated.
        """
        symbols = [frozenset(address.symbols()) for address in self.addresses]
        sets = list(dict.fromkeys(symbols))
        radii = dict(zip(sets, _expansion_radii(self.setup, sets)))
        for s in sets:
            if radii[s] is None:
                raise _not_validated(s)
        base = np.array([radii[s] for s in symbols], dtype=float)
        band = np.array([a.period[level % a.period_length].j for a in self.addresses],
                        dtype=float)
        z = np.empty(len(self.addresses), dtype=complex)
        z.real = base + DEFAULT_T_TOP
        z.imag = self.ctx.cut.phi_inf + 2.0 * math.pi * band - math.pi
        return z

    def _bad_input(self, z: np.ndarray) -> np.ndarray:
        """Mask of the states too close to the cut or to a singular value."""
        # distance to the radial continuation of delta beyond the disk
        direction = cmath.exp(1j * self.ctx.cut.theta)
        s = np.maximum((z * direction.conjugate()).real, self.ctx.cut.r)
        near_value = np.abs(self._svals[:, None] - z) <= BROKEN_TOL
        return (np.abs(z - s * direction) <= BROKEN_TOL) | near_value.any(axis=0)

    def states(self, levels: int, keep) -> tuple[np.ndarray, np.ndarray]:
        """Walk every lane down `levels` pullbacks from its anchor.

        Returns one row per lane holding its states at the levels `keep`
        (level k holds the state of the ray of the k-times-shifted cycle),
        and per lane the level at which it stopped before hitting the cut
        or a singular value (-1 when its whole walk is clean); a lane's
        states below that level are nan.  Only the last p + 1 levels are
        held in memory.
        """
        n = len(self.addresses)
        p = self.addresses[0].period_length
        labels = np.empty((n, p), dtype=object)
        for i, address in enumerate(self.addresses):
            labels[i, :] = address.period
        keep = np.asarray(keep, dtype=int)
        kept = set(keep.tolist())
        out = np.full((n, len(keep)), np.nan, dtype=complex)
        bad_at = np.full(n, -1)
        # the active lanes' last p + 1 states, level k at row k % (p + 1)
        active = np.arange(n)
        z = self.anchors(levels)
        ring = np.empty((p + 1, n), dtype=complex)
        ring[levels % (p + 1)] = z
        out[:, keep == levels] = z[:, None]
        for k in range(levels - 1, -1, -1):
            bad = self._bad_input(z)
            if bad.any():
                bad_at[active[bad]] = k + 1
                active, z, ring, labels = active[~bad], z[~bad], ring[:, ~bad], labels[~bad]
                if not len(active):
                    break
            z = self.ctx.pull_back(z, labels[:, k % p])
            ring[k % (p + 1)] = z
            if k in kept:
                out[np.ix_(active, keep == k)] = z[:, None]
            if k + p > levels:
                continue
            settled = np.abs(z - ring[(k + p) % (p + 1)]) < 1e-15 * (1.0 + np.abs(z))
            if settled.any():
                # settled on the limit cycle; avoid float-level branch-cut
                # noise at the landing point: lower levels repeat the last p
                below = np.flatnonzero(keep < k)
                source = ring[(k + (keep[below] - k) % p) % (p + 1)]
                out[np.ix_(active[settled], below)] = source[:, settled].T
                stay = ~settled
                active, z, ring, labels = active[stay], z[stay], ring[:, stay], labels[stay]
                if not len(active):
                    break
        return out, bad_at

    def prefix(self, z: np.ndarray, preperiod) -> np.ndarray:
        """Apply the preperiod pullbacks to points of the cycle ray."""
        for label in reversed(preperiod):
            if np.any(self._bad_input(z)):
                raise BrokenRay(0.0, len(preperiod))
            z = self.ctx.pull_back(z, label)
        return z


def _limits(spec: MapSpec, endpoints: np.ndarray, period: int) -> np.ndarray:
    """Each row's limit from its DEFAULT_SCHEDULE endpoints; nan where none.

    A row's endpoints either settle to the Cauchy tolerance (geometric
    contraction, repelling landing), and the first settled one is its
    candidate, or decay algebraically (parabolic landing), which two-level
    doubling-depth Richardson extrapolation detects and accelerates.  One
    Newton sweep on f^p(z) - z polishes every candidate, and the polished
    point replaces it when it moved less than 1e-2 (1 + |candidate|).  A
    point is the limit when f^p closes on it without overflowing (the
    conditions of `MapSpec.evaluate`).  Rows holding a nan have no limit.
    """
    limit = np.full(len(endpoints), np.nan, dtype=complex)
    rows = np.flatnonzero(~np.isnan(endpoints).any(axis=1))
    e = endpoints[rows]
    settled = np.abs(np.diff(e, axis=1)) < LANDING_TOL * (1.0 + np.abs(e[:, 1:]))
    r1 = 2.0 * e[:, 1:] - e[:, :-1]
    r2 = (4.0 * r1[:, 1:] - r1[:, :-1]) / 3.0
    algebraic = np.abs(r2[:, -1] - r2[:, -2]) < 1e-4 * (1.0 + np.abs(r2[:, -1]))
    has_settled = settled.any(axis=1)
    found = has_settled | algebraic
    rows, e, settled = rows[found], e[found], settled[found]
    candidate = np.where(has_settled[found],
                         e[np.arange(len(e)), np.argmax(settled, axis=1) + 1],
                         r2[found, -1])
    polished = _newton_sweep(lambda z: spec.derivative_array(z, period), candidate)
    point = np.where(np.abs(polished - candidate) < 1e-2 * (1.0 + np.abs(candidate)),
                     polished, candidate)
    w, dw = spec.derivative_array(point, period)
    closes = (np.isfinite(w) & (np.abs(w) <= OVERFLOW_MAG) & (np.abs(dw) <= OVERFLOW_MAG)
              & (np.abs(w - point) < 1e-8 * (1.0 + np.abs(point))))
    limit[rows[closes]] = point[closes]
    return limit


# -- public operations --------------------------------------------------------------


def trace_ray(spec: MapSpec, setup: StructuralSetup, address, depth: int = 80):
    """Trace rays by one array pullback walk.

    `address` is one Address, which gives one Ray, or a sequence of
    addresses of one cycle length, which gives the list of their Rays (a
    mixed batch raises MixedPeriods).  All lanes walk together,
    DEFAULT_SCHEDULE[-1] cycles deep.  The top cycles are the samples: at
    most DEFAULT_SAMPLES of them, and at most `depth` + 1, with potentials
    halving per level from DEFAULT_T_TOP.  The states at the depths of the
    doubling schedule become the ray's `endpoints`, and one array pass over
    all lanes' endpoints resolves each ray's `limit` (nan when there is
    none), which `landing_point` interprets; lanes with clean endpoints but
    no limit take it from a second walk, to the SLOW_SCHEDULE depths.  A
    walk that runs into the cut or a singular value among the samples is
    truncated and the ray is marked broken; one that does so below the
    samples leaves nan endpoints.
    """
    if depth < 10:
        raise ValueError("depth must be at least 10")
    addresses = [address] if isinstance(address, Address) else list(address)
    periods = sorted({a.period_length for a in addresses})
    if len(periods) > 1:
        raise MixedPeriods(f"addresses of different periods: {periods}")
    if not addresses:
        return []

    walk = PullbackWalk(spec, setup, addresses)
    p = periods[0]
    n_cycles = min(DEFAULT_SAMPLES - 1, depth)
    top = DEFAULT_SCHEDULE[-1] * p
    sample_levels = top - np.arange(n_cycles + 1) * p
    endpoint_levels = top - np.array(DEFAULT_SCHEDULE) * p
    states, bad_at = walk.states(top, np.concatenate([sample_levels, endpoint_levels]))
    potentials = DEFAULT_T_TOP * np.power(2.0, -np.arange(n_cycles + 1, dtype=float) * p)
    limits = _limits(spec, states[:, n_cycles + 1:], p)
    slow = np.flatnonzero(np.isnan(limits) & ~np.isnan(states[:, n_cycles + 1:]).any(axis=1))
    if len(slow):
        deep = PullbackWalk(spec, setup, [addresses[i] for i in slow])
        levels = (SLOW_SCHEDULE[-1] - np.array(SLOW_SCHEDULE)) * p
        limits[slow] = _limits(spec, deep.states(SLOW_SCHEDULE[-1] * p, levels)[0], p)

    # each ray's t, z and endpoints are views of `potentials` and of its row
    # of `states`: per-ray copies raised peak memory at period 4
    rays = []
    for a, row, bad, limit in zip(addresses, states, bad_at, limits):
        # samples above the level the walk stopped at (at least two are kept)
        clean = int(np.count_nonzero(sample_levels >= bad))
        t_vals, z_vals = potentials[:max(clean, 2)], row[:max(clean, 2)]
        status = RayStatus("unresolved")
        if clean <= n_cycles:
            status = RayStatus("broken", first_bad_t=float(potentials[clean]))
        scale = 0.5 ** len(a.preperiod)
        if a.preperiod and status.kind != "broken":
            try:
                z_vals = walk.prefix(z_vals, a.preperiod)
                t_vals = t_vals * scale
            except BrokenRay:
                status = RayStatus("broken", first_bad_t=float(t_vals[-1] * scale))
        rays.append(Ray(a, t_vals, z_vals, status, setup, row[n_cycles + 1:],
                        complex(limit)))
    return rays[0] if isinstance(address, Address) else rays


def landing_point(spec: MapSpec, ray: Ray) -> Ray:
    """The ray with its landing status, read off the limit its walk resolved.

    `trace_ray` keeps the states of the ray's own walk at the depths of the
    doubling schedule and resolves their limit in one pass over the whole
    walk, so a periodic ray is neither walked nor polished again here.  Nan
    endpoints mean that walk hit the cut or a singular value below the
    samples, and the ray is broken; a nan limit leaves it unresolved.  A
    landed ray gets the approach direction of its deepest endpoint still
    away from the point, and a preperiodic one the preperiod pullbacks of
    the cycle's limit.
    """
    if ray.status.kind == "broken":
        return ray
    endpoints = ray.endpoints
    if np.any(np.isnan(endpoints)):
        return replace(ray, status=RayStatus("broken",
                                             first_bad_t=float(np.min(ray.t))))
    point = ray.limit
    if cmath.isnan(point):
        return replace(ray, status=RayStatus("unresolved"))

    # approach direction from the deepest endpoints still away from the point
    direction = None
    gaps = np.abs(endpoints - point)
    away = np.nonzero(gaps > 1e3 * LANDING_TOL)[0]
    if len(away):
        e = endpoints[away[-1]]
        direction = (e - point) / abs(e - point)

    if ray.address.preperiod:
        walk = PullbackWalk(spec, ray.setup, [ray.address])
        try:
            point = complex(walk.prefix(np.array([point]), ray.address.preperiod)[0])
        except BrokenRay:
            return replace(ray, status=RayStatus("broken",
                                                 first_bad_t=float(np.min(ray.t))))
        direction = None
    if not (math.isfinite(point.real) and math.isfinite(point.imag)):
        return replace(ray, status=RayStatus("unresolved"))
    return replace(ray, status=RayStatus.landed(point, direction))


def fixed_rays(spec: MapSpec, setup: StructuralSetup, domains,
               period: int = 1, depth: int = 80) -> list[Ray]:
    """All rays of period-`period` addresses over the given domains.

    For period 1 this is one fixed ray per fundamental domain; for period p,
    all |domains|^p addresses, traced and limit-resolved together by one
    array walk, then each read by `landing_point`.  Per-ray failures are
    recorded in the ray status, not raised.
    """
    labels = [d if isinstance(d, BranchLabel) else d.label for d in domains]
    labels = sorted(set(labels), key=lambda l: l.j)
    addresses = [Address(period=combo)
                 for combo in itertools.product(labels, repeat=period)]
    return [landing_point(spec, ray)
            for ray in trace_ray(spec, setup, addresses, depth=depth)]


def same_landing(landings, z: complex):
    """Mask of `landings` that are the landing point `z` (closer than PAIR_TOL)."""
    return np.abs(np.asarray(landings) - z) < PAIR_TOL


def landings_at(landings, points) -> list[np.ndarray]:
    """Per point, the indices of the `landings` that are that landing point.

    The rows of the (points x landings) `same_landing` mask as index arrays,
    without the dense mask (a megabyte at period 4, which raised peak
    memory): a hit needs |Re difference| < PAIR_TOL, so each point tests
    only the landings whose real parts lie within 2 PAIR_TOL of its own
    (the margin covers rounding), found by bisection in the sorted real
    parts.
    """
    landings = np.asarray(landings, dtype=complex)
    points = np.asarray(points, dtype=complex)
    order = np.argsort(landings.real)
    re = landings.real[order]
    lo = np.searchsorted(re, points.real - 2.0 * PAIR_TOL, side="left")
    count = np.searchsorted(re, points.real + 2.0 * PAIR_TOL, side="right") - lo
    point = np.repeat(np.arange(len(points)), count)
    near = order[np.arange(len(point)) + np.repeat(lo - (np.cumsum(count) - count), count)]
    hit = same_landing(landings[near], points[point])
    by_point = np.lexsort((near[hit], point[hit]))
    point, near = point[hit][by_point], near[hit][by_point]
    bounds = np.searchsorted(point, np.arange(len(points) + 1))
    return [near[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def landing_groups(rays: list[Ray]) -> tuple[np.ndarray, np.ndarray]:
    """`curves.group_points`, within PAIR_TOL, of the landings of landed rays.

    Returns the distinct landing points, first-seen, and per ray the index
    of its point among them.
    """
    periods = {r.period for r in rays}
    if len(periods) > 1:
        raise MixedPeriods(f"rays of different periods: {sorted(periods)}")
    for r in rays:
        if r.status.kind != "lands_at":
            raise UnlandedRay(r.address)
    return group_points([r.landing for r in rays], PAIR_TOL)


def pairs_from_groups(rays: list[Ray], group: np.ndarray) -> list[RayPair]:
    """One RayPair per two rays of one landing group, ordered by common landing.

    Members pair up in ray order, at the midpoint of their landings.
    """
    pairs = []
    for g in np.flatnonzero(np.bincount(group) > 1):
        pairs += [RayPair((rays[i], rays[k]), 0.5 * (rays[i].landing + rays[k].landing))
                  for i, k in itertools.combinations(np.flatnonzero(group == g), 2)]
    pairs.sort(key=lambda p: (p.common_landing.real, p.common_landing.imag))
    return pairs
