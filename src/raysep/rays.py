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
singular value (a pullback of b is nan), or settled on its limit cycle,
whose last p states then stand for all lower levels.  Below the samples it
also settles at a doubling depth where its state is within LANDING_TOL of
the one a doubling above, and leaves where a petal certificate proves that
the rest of its walk stays in the repelling petal of a parabolic cycle and
approaches it (`PullbackWalk._petal_orbits`, after the Leau-Fatou flower
theorem); that cycle then stands for all lower levels.  One walk,
SCHEDULE[-1] cycles deep, serves both tracing and landing: its top cycles
are the ray's samples, and its states at the depths of the doubling
schedule are the endpoints the landing is resolved from.

Potentials are a declared parametrization: the sample at level k carries
potential DEFAULT_T_TOP * 2^(k_top - k), halving toward the landing point;
applying f doubles the potential.  The walk resolves the limits of all its
lanes in one array pass over the endpoint matrix: the first settled
endpoint (a repelling landing, or a parabolic one that the walk
certified), polished by one Newton sweep on f^p(z) - z and kept when f^p
closes on it, and a second pass picks the approach directions.  A
preperiodic ray's samples and limit then take the preperiod pullbacks.
`landing_point` only turns a finite limit into a landing.

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

from .curves import _point_segment_distance, group_points
from .errors import MixedPeriods, UnlandedRay
from .fixedpoints import (ROOT_OF_UNITY_TOL, _captured, _newton_sweep, _petal_jet,
                          _unit_multiplier_jet)
from .maps import BranchLabel, MapSpec, in_range
from .structure import StructuralSetup, _expansion_radii, _not_validated, as_labels

LANDING_TOL = 1e-10
PAIR_TOL = 1e-6
BROKEN_TOL = 1e-8
DEFAULT_SAMPLES = 26
DEFAULT_T_TOP = 8.0
SCHEDULE = tuple(10 * 2 ** i for i in range(11))     # endpoint depths: 10, 20, ..., 10240 cycles
WALK_BLOCK = 16
PETAL_SCREEN = 0.5      # a lane is tested for a petal where |(f^p)' - 1| is below this


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
    endpoints: np.ndarray          # cycle walk states at the SCHEDULE depths
    limit: complex                 # the walk's limit, after any preperiod; nan: none
    direction: complex | None = None   # `_directions`; None for a preperiodic ray

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
    `symbols` extends each row by its address's preperiod bands, padded
    with the row's first band to a common width.
    Every active lane goes down one level per `pull_back` call, a block of
    levels at a time.  A lane leaves the walk at the level where its state
    reaches the cut or a singular value (broken), or where it has settled
    on its limit cycle, as if every level had been tested; below the top
    DEFAULT_SAMPLES cycles, also at a SCHEDULE depth where its states
    settle to LANDING_TOL, and at the end of a block where a petal
    certificate proves that it lands on a parabolic cycle (tested at
    doubling depths).
    """

    def __init__(self, setup: StructuralSetup, addresses):
        self.setup = setup
        self.addresses = list(addresses)
        self.bands = np.array([[s.j for s in a.period] for a in self.addresses], dtype=int)
        self.symbols = self.bands
        pre = max((len(a.preperiod) for a in self.addresses), default=0)
        if pre:
            self.symbols = np.concatenate([self.bands, np.array(
                [[s.j for s in a.preperiod] + [a.period[0].j] * (pre - len(a.preperiod))
                 for a in self.addresses], dtype=int)], axis=1)
        self.ctx = setup.branch_context
        self._cut_direction = cmath.exp(1j * self.ctx.cut.theta)

    def anchors(self, level: int) -> np.ndarray:
        """Each lane's top state: deep inside the domain of its symbol at `level`.

        The anchor's real part is DEFAULT_T_TOP past the expansion radius of
        the lane's row of `symbols`: one doubling search over all rows
        (`structure._expansion_radii`), which tests each radius by the
        closed-form preimage bound of every distinct band.  The first row,
        in address order, that no radius validates raises
        ExpansionNotValidated.
        """
        radii = _expansion_radii(self.setup, self.symbols)
        failed = np.flatnonzero(np.isnan(radii))
        if len(failed):
            raise _not_validated(self.symbols[failed[0]])
        z = np.empty(len(self.addresses), dtype=complex)
        z.real = radii + DEFAULT_T_TOP
        z.imag = (self.ctx.cut.phi_inf + 2.0 * math.pi * self.bands[:, level % self.bands.shape[1]]
                  - math.pi)
        return z

    def _bad_input(self, z: np.ndarray, above: np.ndarray | None = None) -> np.ndarray:
        """Mask of the states too close to the cut or to the singular value b,
        and, given `above` (each state's ray sample p levels up), of those
        whose segment from it passes within BROKEN_TOL of b."""
        # distance to the radial continuation of delta beyond the disk
        direction, b = self._cut_direction, self.ctx.spec.b
        s = np.maximum((z * direction.conjugate()).real, self.ctx.cut.r)
        near = np.fmin(np.abs(z - s * direction), np.abs(z - b))
        if above is not None:
            near = np.fmin(near, _point_segment_distance(b, above, z))
        # bad when any distance is within BROKEN_TOL; fmin passes over a nan one
        return near <= BROKEN_TOL

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
        would stop it.  The bad test is the one source of breaks: a state on
        b, or whose segment from the state p levels up passes b, breaks its
        lane, and a pullback of b is nan (`maps.branch_log`).
        Below the top DEFAULT_SAMPLES cycles a lane also settles at a
        SCHEDULE depth where its states there and at the depth above settle
        by `_limits`' test, which reads the limit from the first such pair.
        At the end of the first block below the top DEFAULT_SAMPLES cycles,
        and then of the first block each time the walk's depth has doubled,
        `_petal_orbits` tests the lanes still walking, and a lane it lands
        stops there: its states below that level hold the parabolic cycle.
        So a lane that never lands there is tested once per doubling of
        depth.  Only the last p + 1 levels and the current block are held in
        memory.
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
        # the SCHEDULE levels, and each lane's states at the last two it walked
        depths = [levels - p * d for d in SCHEDULE if p * d < levels]
        ends = np.full((2, n), np.nan, dtype=complex)
        k, petal_at = levels, levels - DEFAULT_SAMPLES * p
        while k > 0 and len(active):
            lanes = len(active)
            m = min(k, WALK_BLOCK, max(1, WALK_BLOCK * WALK_BLOCK // lanes))
            for i in range(m):
                buf[p + 1 + i, :lanes] = self.ctx.pull_back(buf[p + i, :lanes],
                                                            rows[:, (k - 1 - i) % p])
            # each lane's events in walk order: row 2i, its input at level k - i is
            # bad; row 2i + 1, its state at level k - 1 - i settled.  The level-0
            # state is no input, and below the anchor the top input was the last
            # block's bottom one, already tested
            new = buf[p + 1:p + m + 1, :lanes]
            event = np.zeros((2 * m + 1, lanes), dtype=bool)
            event[1::2] = np.abs(new - buf[1:m + 1, :lanes]) < 1e-15 * (1.0 + np.abs(new))
            tested, inputs = int(k < levels), m + 1 if k > m else m
            if inputs > tested:     # above the anchor the buffer is nan, which is never bad
                event[2 * tested:2 * inputs:2] = self._bad_input(
                    buf[p + tested:p + inputs, :lanes], buf[tested:inputs, :lanes])
            while depths and depths[0] >= k - m:
                d = depths.pop(0)
                ends[0] = ends[1]
                ends[1, active] = buf[p + k - d, :lanes]
                if d <= levels - DEFAULT_SAMPLES * p:     # below the samples
                    e = ends[:, active]
                    event[2 * (k - d) - 1] |= np.abs(e[1] - e[0]) < LANDING_TOL * (1 + np.abs(e[1]))
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
            else:
                buf[:p + 1, :lanes] = buf[m:m + p + 1, :lanes]
            k -= m
            if len(active) and 0 < k <= petal_at:
                petal_at = 2 * k - levels
                lanes = len(active)
                orbits = self._petal_orbits(buf[0, :lanes], buf[p, :lanes], k, rows)
                gone = np.flatnonzero(~np.isnan(orbits[0]))
                if len(gone):
                    # below its stop a landed lane holds the parabolic cycle it lands on
                    out[active[gone]] = np.where(keep < k, orbits[(keep - k) % p][:, gone].T,
                                                 out[active[gone]])
                    active, rows = np.delete(active, gone), np.delete(rows, gone, axis=0)
                    buf[:p + 1, :len(active)] = np.delete(buf[:p + 1, :lanes], gone, axis=1)
        return out, bad_at

    def _petal_orbits(self, above: np.ndarray, z: np.ndarray, level: int,
                      rows: np.ndarray) -> np.ndarray:
        """Per lane, the parabolic cycle that its remaining walk provably lands on.

        `z` holds the lanes' states at `level` and `above` those at level + p;
        each lane's walk goes on to level 0 through its row of `rows`.  Row i
        of the (p, lanes) result holds a landed lane's limit at the levels
        congruent to level + i mod p; the other lanes' columns are nan.

        A lane with |(f^p)'(z) - 1| < PETAL_SCREEN is a candidate.  Newton on
        (f^p)' = 1 from z (`_unit_multiplier_jet`) gives z0, kept when f^p
        closes on it and |(f^p)'(z0) - 1| < ROOT_OF_UNITY_TOL, and
        `_petal_jet` gives its jet (none when A = 0).  In V = 1/(A (z - z0))
        one step of f^p is V -> V - 1 + eta, and |eta| <= eps(|z - z0|) with
        `_captured`'s bound (V is its W at z0 - z).  Let V+ be V at the state
        at level + p, left = level // p + 1 the cycles below it,
        r_max = 1/(|A| Re V+) and r_min = 1/(|A| (|V+| + 1.5 (left + 1))),
        and let eps <= 1/2 on [r_min, r_max]: `_captured` at z0 - above with
        left + 1 steps and no probe distance.  If Re Y >= Re V+ + n/2 and
        |Y| <= |V+| + 3n/2 for some n < left, every X in D(Y + 1, 3/4) has
        |z - z0| in [r_min, r_max]; there |eta| < 3/4 = |X - Y - 1| on the
        circle, so by Rouché f^p has one preimage h(Y) of Y in that disk, and
        it lies within 1/2 of Y + 1, where the bounds hold for n + 1.  The
        walk's p logarithms are the branch h when they are holomorphic on
        D(z0, r_max), which holds every such Y, and agree with h at V+.  The
        first holds when each disk D(x_j, R_j) that they take it through
        misses the cut and b (`_cut_distance`), with x_0 = z0, R_0 = r_max,
        x_(j+1) the next logarithm at x_j and R_(j+1) = -log(1 - R_j/|x_j - b|),
        the bound of log on that disk; the second when the state at `level` has |V - V+ - 1| <= 1/2,
        a margin of 1/4 for the walk's rounding.  By induction the lane's
        states at levels level + p - n p, down to level 0, keep
        Re V >= Re V+ + n/2 and |V| <= |V+| + 3n/2: they stay in the
        repelling petal within r_max of z0 and approach z0.  Its limits at the
        other levels are the centres x_j.  Any failed condition leaves the
        lane walking.
        """
        spec, p = self.ctx.spec, rows.shape[1]
        orbits = np.full((p, len(z)), np.nan, dtype=complex)
        lanes = np.flatnonzero(np.abs(spec.derivative_array(z, p)[1] - 1.0) < PETAL_SCREEN)
        if not len(lanes):
            return orbits
        z0 = _newton_sweep(_unit_multiplier_jet(lambda x: spec.derivative_array(x, p)), z[lanes])
        closes, dw = _closing(spec, z0, p)
        radius = np.full(len(lanes), np.nan)
        for i in np.flatnonzero(closes & (np.abs(dw - 1.0) < ROOT_OF_UNITY_TOL)):
            jet = _petal_jet(spec, z0[i], p)
            if jet is None:
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                v_above, v = 1.0 / (jet.A * (np.array([above[lanes[i]], z[lanes[i]]]) - z0[i]))
            if (abs(v - v_above - 1.0) <= 0.5
                    and _captured(jet, np.array([z0[i] - above[lanes[i]]]), level // p + 2,
                                  np.inf)[0]):
                radius[i] = 1.0 / (abs(jet.A) * v_above.real)
        held = np.flatnonzero(~np.isnan(radius))
        x, r = z0[held], radius[held]
        orbit = np.empty((p, len(held)), dtype=complex)
        orbit[0] = x
        for j in range(1, p + 1):
            clear = r < self._cut_distance(x)
            held, x, r, orbit = held[clear], x[clear], r[clear], orbit[:, clear]
            if j == p or not len(held):
                break
            r = -np.log1p(-r / np.abs(x - spec.b))
            x = orbit[p - j] = self.ctx.pull_back(x, rows[lanes[held], (level - j) % p])
        orbits[:, lanes[held]] = orbit
        return orbits

    def _cut_distance(self, z: np.ndarray) -> np.ndarray:
        """Distance from z to where the inverse branches jump: the cut and b.

        That is the cut beyond the disk, s e^(i theta) for s >= r, and the
        segment from b to its inner end, along which the logarithm's band is
        bounded at constant argument (`maps.CutGeometry`).
        """
        direction, b = self._cut_direction, self.ctx.spec.b
        end = self.ctx.cut.r * direction
        s = np.maximum((z * direction.conjugate()).real, self.ctx.cut.r)
        t = np.clip(((z - b) * np.conj(end - b)).real / abs(end - b) ** 2, 0.0, 1.0)
        return np.minimum(np.abs(z - s * direction), np.abs(z - b - t * (end - b)))

    def prefix(self, z: np.ndarray, preperiod) -> np.ndarray | None:
        """Apply the preperiod pullbacks to points of the cycle ray; None where
        one of them would start at the cut or a singular value."""
        for label in reversed(preperiod):
            if np.count_nonzero(self._bad_input(z)):
                return None
            z = self.ctx.pull_back(z, label.j)
        return z


def _limits(spec: MapSpec, endpoints: np.ndarray, period: int) -> np.ndarray:
    """Each row's limit from its SCHEDULE endpoints; nan where none.

    A row's endpoints settle to the Cauchy tolerance (geometric
    contraction, repelling landing; or a walk stopped in a petal, whose
    endpoints below the stop hold the certified parabolic point), and the
    first settled one is its candidate; a row with none has no limit.  One
    Newton sweep on f^p(z) - z polishes every candidate, and the polished
    point replaces it when it moved less than 1e-2 (1 + |candidate|).  A
    point is the limit when f^p closes on it without overflowing
    (`maps.in_range`).  Rows holding a nan have no limit.
    """
    limit = np.full(len(endpoints), np.nan, dtype=complex)
    rows = np.flatnonzero(~np.isnan(endpoints).any(axis=1))
    e = endpoints[rows]
    settled = np.abs(np.diff(e, axis=1)) < LANDING_TOL * (1.0 + np.abs(e[:, 1:]))
    found = settled.any(axis=1)
    rows, e, settled = rows[found], e[found], settled[found]
    candidate = e[np.arange(len(e)), np.argmax(settled, axis=1) + 1]
    polished = _newton_sweep(lambda z: spec.derivative_array(z, period), candidate)
    point = np.where(np.abs(polished - candidate) < 1e-2 * (1.0 + np.abs(candidate)),
                     polished, candidate)
    closes = _closing(spec, point, period)[0]
    limit[rows[closes]] = point[closes]
    return limit


def _closing(spec: MapSpec, z: np.ndarray, period: int) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the points that f^p closes on without overflowing (`maps.in_range`),
    within 1e-8 (1 + |z|), and (f^p)' at every point."""
    w, dw = spec.derivative_array(z, period)
    return in_range(w, dw) & (np.abs(w - z) < 1e-8 * (1.0 + np.abs(z))), dw


# -- public operations --------------------------------------------------------------


def _directions(endpoints: np.ndarray, limits: np.ndarray) -> list:
    """Per row, the unit vector from its limit toward its deepest endpoint
    farther than 1e3 LANDING_TOL from it, or None.  One array pass picks the
    endpoints; each vector is numpy scalar arithmetic, as the array abs and
    division differ from it in the last ulp."""
    far = np.abs(endpoints - limits[:, None]) > 1e3 * LANDING_TOL
    deepest = far.shape[1] - 1 - np.argmax(far[:, ::-1], axis=1)
    directions = [None] * len(limits)
    for i in np.flatnonzero(far.any(axis=1)).tolist():
        gap = endpoints[i, deepest[i]] - limits[i]
        directions[i] = gap / abs(gap)
    return directions


def trace_ray(setup: StructuralSetup, address):
    """Trace rays by one array pullback walk.

    `address` is one Address, which gives one Ray, or a sequence of
    addresses of one cycle length, which gives the list of their Rays (a
    mixed batch raises MixedPeriods).  All lanes walk together,
    SCHEDULE[-1] cycles deep, unless they settle, or stop in the repelling
    petal of a parabolic cycle that a certificate proves they land on.  The
    samples are the states at the top DEFAULT_SAMPLES cycle boundaries, with
    potentials halving per level from DEFAULT_T_TOP.  The states at the
    SCHEDULE depths become the ray's `endpoints`, and one array pass over
    all lanes' endpoints resolves each ray's `limit` (nan when there is
    none), which `landing_point` reads, and a periodic ray's `direction`.
    Here alone a ray is marked broken: when its walk met the cut or a
    singular value (among the samples it is truncated there, and broken at
    the first potential it lost), or one of its preperiod pullbacks would
    start there; else it is broken at its least potential.  A preperiodic
    ray's samples and limit take the preperiod pullbacks.
    """
    addresses = [address] if isinstance(address, Address) else list(address)
    periods = sorted({a.period_length for a in addresses})
    if len(periods) > 1:
        raise MixedPeriods(f"addresses of different periods: {periods}")
    if not addresses:
        return []

    walk = PullbackWalk(setup, addresses)
    p = periods[0]
    n_cycles = DEFAULT_SAMPLES - 1
    top = SCHEDULE[-1] * p
    sample_levels = top - np.arange(n_cycles + 1) * p
    endpoint_levels = top - np.array(SCHEDULE) * p
    states, bad_at = walk.states(top, np.concatenate([sample_levels, endpoint_levels]))
    potentials = DEFAULT_T_TOP * np.power(2.0, -np.arange(n_cycles + 1, dtype=float) * p)
    endpoints = states[:, n_cycles + 1:]
    limits = _limits(setup.spec, endpoints, p)

    # each ray's t, z and endpoints are views of `potentials` and of its row
    # of `states`: per-ray copies raised peak memory at period 4
    clean = np.count_nonzero(sample_levels >= bad_at[:, None], axis=1)
    rays = []
    for i, (a, n_clean, broken, limit, direction) in enumerate(zip(
            addresses, clean.tolist(), (bad_at >= 0).tolist(), limits.tolist(),
            _directions(endpoints, limits))):
        # samples above the level the walk stopped at (at least two are kept)
        t_vals, z_vals = potentials[:max(n_clean, 2)], states[i, :max(n_clean, 2)]
        if a.preperiod and n_clean > n_cycles:
            # a break in the limit's pullbacks keeps the pulled-back samples
            direction, z_pre = None, walk.prefix(z_vals, a.preperiod)
            if z_pre is not None:
                t_vals, z_vals = t_vals * 0.5 ** len(a.preperiod), z_pre
                if not cmath.isnan(limit):
                    z_pre = walk.prefix(np.array([limit]), a.preperiod)
                    limit = limit if z_pre is None else complex(z_pre[0])
            broken = broken or z_pre is None
        status = UNRESOLVED
        if broken:
            status = RayStatus("broken", first_bad_t=(
                float(potentials[n_clean]) if n_clean <= n_cycles
                else float(potentials[-1]) * 0.5 ** len(a.preperiod)))
        rays.append(Ray(a, t_vals, z_vals, status, endpoints[i], limit, direction))
    return rays[0] if isinstance(address, Address) else rays


def landing_point(ray: Ray) -> Ray:
    """The ray with its landing status, read off the limit its walk resolved.

    `trace_ray` decided the limit, the direction and any break, so a broken
    ray, or one whose limit is not finite (unresolved), comes back as it is;
    any other lands at its limit, approached from its `direction`.
    """
    if ray.status.kind == "broken" or not cmath.isfinite(ray.limit):
        return ray
    return Ray(ray.address, ray.t, ray.z, RayStatus.landed(ray.limit, ray.direction),
               ray.endpoints, ray.limit, ray.direction)


def fixed_rays(setup: StructuralSetup, domains, period: int = 1) -> list[Ray]:
    """All rays of period-`period` addresses over the given domains.

    For period 1 this is one fixed ray per fundamental domain; for period p,
    all |domains|^p addresses, in band order, traced and limit-resolved
    together by one array walk whose lanes are the rows of their (n, p)
    integer band matrix, then each read by `landing_point`.  Per-ray
    failures are recorded in the ray status, not raised.
    """
    labels = sorted(set(as_labels(domains)), key=lambda l: l.j)
    addresses = [Address(period=combo)
                 for combo in itertools.product(labels, repeat=period)]
    return [landing_point(ray) for ray in trace_ray(setup, addresses)]


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
    of its point among them.  A ray that has not landed raises UnlandedRay
    (`Ray.landing`).
    """
    periods = {r.period for r in rays}
    if len(periods) > 1:
        raise MixedPeriods(f"rays of different periods: {sorted(periods)}")
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
