"""Dynamic ray tracing by nested inverse-branch pullback.

A ray of periodic address s is traced as a pullback walk: starting from an
anchor placed deep inside the fundamental domain of a high symbol, inverse
branches are applied symbol by symbol.  The intermediate state after the
walk reaches level k lies on the ray of the k-times-shifted address, so the
states at levels that are multiples of the period are the samples of the
ray itself.  One application of f moves a state one level up the same walk,
which makes the ray-invariance relation exact by construction.

The walk is an array walk: every address of one cycle length is a lane, and
all lanes go down one level per pullback call.  A lane's symbols are the
row of an (n, p) integer band matrix, built once per walk, and each level
pulls every active lane back through the band of its own row.  The levels
go in blocks, up to WALK_BLOCK deep and at most WALK_BLOCK^2 states, with
no test in between: a narrow walk pays numpy's per-call floor for its
tests once per block, not once per level.  After each block a lane leaves
the walk at its first event, the level at which it reached the cut or a
singular value, or settled on its limit cycle, whose last p states then
stand for all lower levels.  One walk, DEFAULT_SCHEDULE[-1] cycles deep,
serves both tracing and landing: its top cycles are the ray's samples, and
its states at the depths of the doubling schedule are the endpoints the
landing is resolved from.  Lanes that resolve no limit are walked again,
SLOW_SCHEDULE[-1] cycles deep, for a landing point whose multiplier is
close to 1 in modulus.

Potentials are a declared parametrization: the sample at level k carries
potential DEFAULT_T_TOP * 2^(k_top - k), halving toward the landing point;
applying f doubles the potential.  Each walk resolves the limits of all its
lanes in one array pass over the endpoint matrix: a settled endpoint, or
Richardson extrapolation for the algebraic (parabolic) approach, polished
by one Newton sweep on f^p(z) - z and kept when f^p closes on it.  A
preperiodic ray's samples and limit then take the preperiod pullbacks.
`landing_point` interprets one ray's limit, on plain scalars: broken walks
and the approach direction.

Rays land together when their landings fall in one group of
`landing_groups` (greedy in ray order, within PAIR_TOL); the ray graph's
landing points and pairs come from these groups.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .curves import group_points
from .errors import BrokenRay, MixedPeriods, OnCut, UnlandedRay
from .fixedpoints import _newton_sweep
from .maps import BranchLabel, MapSpec, in_range
from .structure import StructuralSetup, _expansion_radii, _not_validated

LANDING_TOL = 1e-10
PAIR_TOL = 1e-6
BROKEN_TOL = 1e-8
DEFAULT_SAMPLES = 26
DEFAULT_T_TOP = 8.0
DEFAULT_SCHEDULE = (10, 20, 40, 80, 160, 320, 640)
SLOW_SCHEDULE = tuple(16 * d for d in DEFAULT_SCHEDULE)
WALK_BLOCK = 16


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


UNRESOLVED = RayStatus("unresolved")


@dataclass(frozen=True)
class Ray:
    address: Address
    t: np.ndarray                  # decreasing potentials
    z: np.ndarray
    status: RayStatus
    endpoints: np.ndarray          # cycle walk states at the DEFAULT_SCHEDULE depths
    limit: complex                 # the walk's limit, after any preperiod; nan: none

    @property
    def period(self) -> int:
        return self.address.period_length

    @property
    def landing(self) -> complex:
        if self.status.kind != "lands_at":
            raise UnlandedRay(self.address)
        return self.status.point


@dataclass(frozen=True)
class RayPair:
    rays: tuple[Ray, Ray]
    common_landing: complex


# -- pullback walk ----------------------------------------------------------------


class PullbackWalk:
    """Array inverse-branch walk: one lane per address, all of one cycle length.

    `bands` is the (n, p) integer band matrix of the addresses' cycles, built
    once: row i holds the bands of address i's period, and the level-k
    pullback takes every active lane through the band in column k mod p.
    Every active lane goes down one level per `pull_back` call, a block of
    levels at a time.  A lane leaves the walk at the level where its state
    reaches the cut or a singular value (broken), or where it has settled
    on its limit cycle, as if every level had been tested.
    """

    def __init__(self, setup: StructuralSetup, addresses):
        self.setup = setup
        self.addresses = list(addresses)
        self.bands = np.array([[s.j for s in a.period] for a in self.addresses], dtype=int)
        self.ctx = setup.branch_context
        self._cut_direction = cmath.exp(1j * self.ctx.cut.theta)

    def anchors(self, level: int) -> np.ndarray:
        """Each lane's top state: deep inside the domain of its symbol at `level`.

        The anchor radius is the expansion radius of the lane's symbols: the
        distinct bands of its sorted row of `bands`, joined by a preperiod's
        bands.  One doubling search (`structure._expansion_radii`), which
        tests each radius by the closed-form preimage bound of every symbol,
        settles the radii of all distinct symbol sets together; the first
        set, in address order, that no radius validates raises
        ExpansionNotValidated.
        """
        symbols = [tuple(dict.fromkeys(row)) for row in np.sort(self.bands, axis=1).tolist()]
        for i, address in enumerate(self.addresses):
            if address.preperiod:
                symbols[i] = tuple(sorted(s.j for s in address.symbols()))
        sets = list(dict.fromkeys(symbols))
        labels = [[BranchLabel(j) for j in s] for s in sets]
        radii = dict(zip(sets, _expansion_radii(self.setup, labels)))
        for s, ls in zip(sets, labels):
            if radii[s] is None:
                raise _not_validated(ls)
        z = np.empty(len(self.addresses), dtype=complex)
        z.real = np.array([radii[s] for s in symbols], dtype=float) + DEFAULT_T_TOP
        z.imag = (self.ctx.cut.phi_inf + 2.0 * math.pi * self.bands[:, level % self.bands.shape[1]]
                  - math.pi)
        return z

    def _bad_input(self, z: np.ndarray) -> np.ndarray:
        """Mask of the states too close to the cut or to the singular value b."""
        # distance to the radial continuation of delta beyond the disk
        direction = self._cut_direction
        s = np.maximum((z * direction.conjugate()).real, self.ctx.cut.r)
        # bad when either distance is within BROKEN_TOL; fmin passes over a nan one
        return np.fmin(np.abs(z - s * direction), np.abs(z - self.ctx.spec.b)) <= BROKEN_TOL

    def states(self, levels: int, keep) -> tuple[np.ndarray, np.ndarray]:
        """Walk every lane down `levels` pullbacks from its anchor.

        Returns one row per lane holding its states at the levels `keep`
        (level k holds the state of the ray of the k-times-shifted cycle),
        and per lane the level at which it stopped before hitting the cut
        or a singular value (-1 when its whole walk is clean); a lane's
        states below that level are nan.  The lanes go down in blocks of m
        levels, m = min(WALK_BLOCK, WALK_BLOCK^2 // lanes) and at least 1,
        with no test in between; one bad test over the block's inputs and
        one settle test over its states then take each lane out at its
        first event, the level at which a walk that tested every level
        would stop it.  A state on b ends its block where its pullback
        raises OnCut, and the block's bad test takes it out.  Only the last
        p + 1 levels and the current block are held in memory.
        """
        n, p = self.bands.shape
        keep = np.asarray(keep, dtype=int)
        out = np.full((n, len(keep)), np.nan, dtype=complex)
        bad_at = np.full(n, -1)
        # the active lanes and their band rows; buffer row r holds level k + p - r of
        # the active lanes in its first columns: rows up to p carry the previous
        # levels (nan above the anchor, which never settles) and the block follows
        active, rows = np.arange(n), self.bands
        buf = np.empty((p + 1 + WALK_BLOCK, n), dtype=complex)
        buf[:p] = np.nan
        buf[p] = self.anchors(levels)
        out[:, keep == levels] = buf[p, :, None]
        k = levels
        while k > 0 and len(active):
            lanes = len(active)
            m = min(k, WALK_BLOCK, max(1, WALK_BLOCK * WALK_BLOCK // lanes))
            cut = None
            try:
                for i in range(m):
                    buf[p + 1 + i, :lanes] = self.ctx.pull_back(buf[p + i, :lanes],
                                                                rows[:, (k - 1 - i) % p])
            except OnCut as exc:
                cut, m = exc, i
            # each lane's events in walk order: row 2i, its input at level k - i is
            # bad; row 2i + 1, its state at level k - 1 - i settled.  The level-0
            # state is no input, and below the anchor the top input was the last
            # block's bottom one, already tested
            new = buf[p + 1:p + m + 1, :lanes]
            event = np.zeros((2 * m + 1, lanes), dtype=bool)
            event[1::2] = np.abs(new - buf[1:m + 1, :lanes]) < 1e-15 * (1.0 + np.abs(new))
            tested, inputs = int(k < levels), m + 1 if k > m else m
            if inputs > tested:
                bad = self._bad_input(buf[p + tested:p + inputs, :lanes])
                event[2 * tested:2 * inputs:2] = bad
            cols = np.flatnonzero((keep < k) & (keep >= k - m))
            if len(cols):
                out[active[:, None], cols] = buf[p + k - keep[cols], :lanes].T
            if np.count_nonzero(event):
                first = event.argmax(axis=0)
                gone = np.flatnonzero(event[first, np.arange(lanes)])
                stop, settled = k - (first[gone] + 1) // 2, first[gone] % 2 == 1
                bad_at[active[gone[~settled]]] = stop[~settled]
                # below its event a broken lane holds nan, and a settled one repeats its
                # last p states, which avoids float-level branch-cut noise at the landing point
                level = stop[:, None] + (keep - stop[:, None]) % p
                fill = np.where(settled[:, None], buf[p + k - level, gone[:, None]], np.nan)
                out[active[gone]] = np.where(keep < stop[:, None], fill, out[active[gone]])
                active, rows = np.delete(active, gone), np.delete(rows, gone, axis=0)
                buf[:p + 1, :len(active)] = np.delete(buf[m:m + p + 1, :lanes], gone, axis=1)
            elif cut is not None:
                raise cut
            else:
                buf[:p + 1, :lanes] = buf[m:m + p + 1, :lanes]
            k -= m
        return out, bad_at

    def prefix(self, z: np.ndarray, preperiod) -> np.ndarray:
        """Apply the preperiod pullbacks to points of the cycle ray."""
        for label in reversed(preperiod):
            if np.count_nonzero(self._bad_input(z)):
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
    point is the limit when f^p closes on it without overflowing
    (`maps.in_range`).  Rows holding a nan have no limit.
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
    closes = in_range(w, dw) & (np.abs(w - point) < 1e-8 * (1.0 + np.abs(point)))
    limit[rows[closes]] = point[closes]
    return limit


# -- public operations --------------------------------------------------------------


def trace_ray(setup: StructuralSetup, address, depth: int = 80):
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
    samples leaves nan endpoints.  A preperiodic ray's samples and limit
    then take the preperiod pullbacks, and one of those that starts at the
    cut or a singular value marks the ray broken.
    """
    if depth < 10:
        raise ValueError("depth must be at least 10")
    addresses = [address] if isinstance(address, Address) else list(address)
    periods = sorted({a.period_length for a in addresses})
    if len(periods) > 1:
        raise MixedPeriods(f"addresses of different periods: {periods}")
    if not addresses:
        return []

    walk = PullbackWalk(setup, addresses)
    p = periods[0]
    n_cycles = min(DEFAULT_SAMPLES - 1, depth)
    top = DEFAULT_SCHEDULE[-1] * p
    sample_levels = top - np.arange(n_cycles + 1) * p
    endpoint_levels = top - np.array(DEFAULT_SCHEDULE) * p
    states, bad_at = walk.states(top, np.concatenate([sample_levels, endpoint_levels]))
    potentials = DEFAULT_T_TOP * np.power(2.0, -np.arange(n_cycles + 1, dtype=float) * p)
    limits = _limits(setup.spec, states[:, n_cycles + 1:], p)
    slow = np.flatnonzero(np.isnan(limits) & ~np.isnan(states[:, n_cycles + 1:]).any(axis=1))
    if len(slow):
        deep = PullbackWalk(setup, [addresses[i] for i in slow])
        levels = (SLOW_SCHEDULE[-1] - np.array(SLOW_SCHEDULE)) * p
        limits[slow] = _limits(setup.spec, deep.states(SLOW_SCHEDULE[-1] * p, levels)[0], p)

    # each ray's t, z and endpoints are views of `potentials` and of its row
    # of `states`: per-ray copies raised peak memory at period 4
    clean = np.count_nonzero(sample_levels >= bad_at[:, None], axis=1)
    rays = []
    for i, (a, n_clean, limit) in enumerate(zip(addresses, clean.tolist(), limits.tolist())):
        # samples above the level the walk stopped at (at least two are kept)
        t_vals, z_vals = potentials[:max(n_clean, 2)], states[i, :max(n_clean, 2)]
        status = UNRESOLVED
        if n_clean <= n_cycles:
            status = RayStatus("broken", first_bad_t=float(potentials[n_clean]))
        elif a.preperiod:
            scale = 0.5 ** len(a.preperiod)
            deepest_t = float(t_vals[-1] * scale)
            try:
                z_vals = walk.prefix(z_vals, a.preperiod)
                t_vals = t_vals * scale
                if not cmath.isnan(limit):
                    limit = complex(walk.prefix(np.array([limit]), a.preperiod)[0])
            except BrokenRay:
                status = RayStatus("broken", first_bad_t=deepest_t)
        rays.append(Ray(a, t_vals, z_vals, status, states[i, n_cycles + 1:], limit))
    return rays[0] if isinstance(address, Address) else rays


def landing_point(ray: Ray) -> Ray:
    """The ray with its landing status, read off the limit its walk resolved.

    `trace_ray` keeps the states of the ray's own walk at the depths of the
    doubling schedule and resolves their limit, after any preperiod, in one
    pass over the whole walk, so a ray is neither walked nor polished again
    here; the read itself is on plain scalars.  Nan endpoints mean that
    walk hit the cut or a singular value below the samples, and the ray is
    broken at its least potential; a limit that is not finite leaves it
    unresolved.  A landed periodic ray gets the approach direction of its
    deepest endpoint farther than 1e3 LANDING_TOL from the point; with no
    such endpoint, or for a preperiodic ray, the direction is None.
    """
    if ray.status.kind == "broken":
        return ray
    endpoints = ray.endpoints.tolist()
    point = ray.limit
    if any(map(cmath.isnan, endpoints)):
        status = RayStatus("broken", first_bad_t=float(np.min(ray.t)))
    elif not cmath.isfinite(point):
        status = UNRESOLVED
    else:
        direction = None
        if not ray.address.preperiod:
            for e in reversed(endpoints):
                if abs(e - point) > 1e3 * LANDING_TOL:
                    # numpy complex128 division: Python's differs in the last ulp
                    gap = np.complex128(e) - point
                    direction = gap / abs(gap)
                    break
        status = RayStatus.landed(point, direction)
    return Ray(ray.address, ray.t, ray.z, status, ray.endpoints, point)


def fixed_rays(setup: StructuralSetup, domains, period: int = 1,
               depth: int = 80) -> list[Ray]:
    """All rays of period-`period` addresses over the given domains.

    For period 1 this is one fixed ray per fundamental domain; for period p,
    all |domains|^p addresses, in band order, traced and limit-resolved
    together by one array walk whose lanes are the rows of their (n, p)
    integer band matrix, then each read by `landing_point`.  Per-ray
    failures are recorded in the ray status, not raised.
    """
    labels = [d if isinstance(d, BranchLabel) else d.label for d in domains]
    labels = sorted(set(labels), key=lambda l: l.j)
    addresses = [Address(period=combo)
                 for combo in itertools.product(labels, repeat=period)]
    return [landing_point(ray) for ray in trace_ray(setup, addresses, depth=depth)]


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
