"""Dynamic ray tracing by nested inverse-branch pullback.

A ray of periodic address s is traced as a pullback walk: starting from an
anchor placed deep inside the fundamental domain of a high symbol, inverse
branches are applied symbol by symbol.  The intermediate state after the
walk reaches level k lies on the ray of the k-times-shifted address, so the
states at levels that are multiples of the period are the samples of the
ray itself.  One application of f moves a state one level up the same walk,
which makes the ray-invariance relation exact by construction.

Potentials are a declared parametrization: the sample at level k carries
potential t_top * 2^(k_top - k), halving toward the landing point; applying
f doubles the potential.  Landing points are resolved by one deep walk,
read at each depth of a doubling schedule, with Richardson extrapolation
for the algebraic (parabolic) approach, then polished by Newton's method
on f^p(z) - z.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BrokenRay,
    ExpansionNotValidated,
    MixedPeriods,
    UnlandedRay,
)
from .fixedpoints import _newton_sweep
from .maps import BranchLabel, MapSpec, Overflow
from .structure import StructuralSetup, validate_expansion_radius

LANDING_TOL = 1e-10
PAIR_TOL = 1e-6
BROKEN_TOL = 1e-8
DEFAULT_SAMPLES = 26
DEFAULT_T_TOP = 8.0
DEFAULT_SCHEDULE = (10, 20, 40, 80, 160, 320, 640)


@dataclass(frozen=True)
class Address:
    """Eventually periodic symbol sequence over fundamental-domain labels."""

    period: tuple[BranchLabel, ...]
    preperiod: tuple[BranchLabel, ...] = ()

    def __post_init__(self):
        if not self.period:
            raise ValueError("period part must be nonempty")

    @classmethod
    def constant(cls, j: int, alpha: int = 0) -> "Address":
        return cls(period=(BranchLabel(alpha, j),))

    @classmethod
    def cycle(cls, bands, alpha: int = 0) -> "Address":
        return cls(period=tuple(BranchLabel(alpha, j) for j in bands))

    def symbol(self, k: int) -> BranchLabel:
        if k < len(self.preperiod):
            return self.preperiod[k]
        return self.period[(k - len(self.preperiod)) % len(self.period)]

    def shifted(self) -> "Address":
        if self.preperiod:
            return Address(self.period, self.preperiod[1:])
        return Address(self.period[1:] + self.period[:1])

    def cycle_address(self) -> "Address":
        return Address(self.period)

    def symbols(self) -> set[BranchLabel]:
        return set(self.preperiod) | set(self.period)

    @property
    def period_length(self) -> int:
        return len(self.period)

    def is_periodic(self) -> bool:
        return not self.preperiod

    def __str__(self) -> str:
        pre = ",".join(str(s.j) for s in self.preperiod)
        per = ",".join(str(s.j) for s in self.period)
        return f"{pre}|{per}"

    @classmethod
    def parse(cls, text: str, alpha: int = 0) -> "Address":
        """Parse 'pre|per' with comma-separated band indices.

        An empty period side repeats the last preperiod symbol; no bar at
        all means a purely periodic address.
        """
        text = text.strip()
        if "|" in text:
            pre_s, per_s = text.split("|", 1)
        else:
            pre_s, per_s = "", text
        pre = tuple(BranchLabel(alpha, int(p)) for p in pre_s.split(",") if p.strip())
        per = tuple(BranchLabel(alpha, int(p)) for p in per_s.split(",") if p.strip())
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
    anchor_base: float = 0.0       # validated expansion radius the walk anchors at

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
    """Inverse-branch walk machinery for one address over a setup."""

    def __init__(self, spec: MapSpec, setup: StructuralSetup, address: Address,
                 t_top: float = DEFAULT_T_TOP, anchor_base: float | None = None):
        self.spec = spec
        self.setup = setup
        self.address = address
        self.t_top = float(t_top)
        self.anchor_base = float(anchor_base if anchor_base is not None
                                 else setup.expansion_radius)
        self.ctx = setup.branch_context
        self._theta = self.ctx.outer_cut.tail_angle
        self._svals = np.array(spec.singular_values(), dtype=complex)
        self._delta_a = complex(setup.delta.z[0])
        self._delta_dir = self._delta_a / abs(self._delta_a)

    def anchor(self, label: BranchLabel) -> complex:
        center = self._theta + 2.0 * math.pi * label.j - math.pi
        return complex(self.anchor_base + self.t_top, center)

    def _bad_input(self, z: complex) -> bool:
        # distance to the radial continuation of delta beyond the disk
        s = (z * self._delta_dir.conjugate()).real
        if s >= abs(self._delta_a):
            d = abs(z - s * self._delta_dir)
        else:
            d = abs(z - self._delta_a)
        if d <= BROKEN_TOL:
            return True
        return bool(np.any(np.abs(self._svals - z) <= BROKEN_TOL))

    def states(self, levels: int) -> tuple[np.ndarray, int]:
        """Walk down `levels` pullbacks from the anchor.

        Returns the states indexed by level (position k holds the state of
        the ray of the k-times-shifted address) and the lowest level safely
        reached before hitting the cut or a singular value (-1 when the
        whole walk is clean, otherwise the level at which the walk stopped).
        """
        cycle = self.address if self.address.is_periodic() else self.address.cycle_address()
        p = cycle.period_length
        top = levels
        z = self.anchor(cycle.symbol(top))
        states = np.empty(top + 1, dtype=complex)
        states[top] = z
        bad_at = -1
        for k in range(top - 1, -1, -1):
            if self._bad_input(z):
                bad_at = k + 1
                states[: k + 1] = np.nan
                break
            z = complex(self.ctx.pull_back(z, cycle.symbol(k)))
            states[k] = z
            if k + p <= top and abs(z - states[k + p]) < 1e-15 * (1.0 + abs(z)):
                # walk has settled on its limit cycle; avoid float-level
                # branch-cut noise at the landing point
                for kk in range(k - 1, -1, -1):
                    states[kk] = states[kk + p]
                break
        return states, bad_at

    def prefix(self, z: complex) -> complex:
        """Apply the preperiod pullbacks to a point of the cycle ray."""
        for label in reversed(self.address.preperiod):
            if self._bad_input(z):
                raise BrokenRay(0.0, len(self.address.preperiod))
            z = complex(self.ctx.pull_back(z, label))
        return z


def _resolve_anchor_radius(spec: MapSpec, setup: StructuralSetup,
                           labels: set[BranchLabel],
                           cap: float = 1e6) -> float:
    """Smallest validated expansion radius (doubling from the setup's R).

    Far bands need a larger radius than the setup default; any radius for
    which the pullback of the circle stays inside it works for the walk.
    """
    need = set(lb.j for lb in labels)
    for R, bands in sorted(setup.validated_radii.items()):
        if need <= set(bands):
            return R
    ordered = sorted(labels, key=lambda l: l.j)
    R = setup.expansion_radius
    while R <= cap:
        report = validate_expansion_radius(spec, setup, ordered, R)
        if report.ok:
            recorded = setup.validated_radii.get(R, ())
            setup.validated_radii[R] = tuple(sorted(set(recorded) | need))
            return R
        R *= 2.0
    raise ExpansionNotValidated(
        f"no expansion radius up to {cap} valid for bands {sorted(need)}")


# -- public operations --------------------------------------------------------------


def trace_ray(spec: MapSpec, setup: StructuralSetup, address: Address,
              depth: int = 80, t_grid=None) -> Ray:
    """Trace the ray of the given address by a nested pullback walk.

    `depth` bounds the number of pullback cycles; `t_grid` fixes the top
    potential and the sample count (potentials themselves follow the
    declared halving parametrization).  Walks that run into the cut or a
    singular value are truncated and the ray is marked broken.
    """
    if depth < 10:
        raise ValueError("depth must be at least 10")
    anchor_base = _resolve_anchor_radius(spec, setup, address.symbols())
    if t_grid is None:
        n_samples, t_top = DEFAULT_SAMPLES, DEFAULT_T_TOP
    else:
        t_grid = np.asarray(t_grid, dtype=float)
        if np.any(t_grid <= 0) or np.any(np.diff(t_grid) >= 0):
            raise ValueError("t_grid must be positive and decreasing")
        n_samples, t_top = len(t_grid), float(t_grid[0])
    n_samples = max(n_samples, 2)

    walk = PullbackWalk(spec, setup, address, t_top, anchor_base)
    p = address.period_length
    n_cycles = min(n_samples - 1, depth)
    levels = n_cycles * p
    states, bad_at = walk.states(levels)

    sample_levels = np.array([levels - m * p for m in range(n_cycles + 1)],
                             dtype=int)
    potentials = t_top * np.power(2.0, -np.arange(n_cycles + 1, dtype=float) * p)
    good = sample_levels >= max(bad_at, 0) if bad_at >= 0 else np.ones(len(sample_levels), bool)

    t_vals = potentials[good]
    z_vals = states[sample_levels[good]]
    status = RayStatus("unresolved")
    if bad_at >= 0:
        dropped = potentials[~good]
        first_bad = float(np.max(dropped)) if len(dropped) else float(potentials[-1])
        status = RayStatus("broken", first_bad_t=first_bad)
        if len(t_vals) < 2:
            t_vals = potentials[:2]
            z_vals = states[sample_levels[:2]]

    scale = 0.5 ** len(address.preperiod)
    if address.preperiod and status.kind != "broken":
        try:
            z_vals = np.array([walk.prefix(complex(z)) for z in z_vals])
            t_vals = t_vals * scale
        except BrokenRay:
            status = RayStatus("broken", first_bad_t=float(t_vals[-1] * scale))
    return Ray(address, t_vals, z_vals, status, setup, anchor_base)


def landing_point(spec: MapSpec, ray: Ray) -> Ray:
    """Resolve the landing of a traced ray by one deep pullback walk.

    The walk goes DEFAULT_SCHEDULE[-1] cycles deep and is read at each
    depth of the doubling schedule: symbols repeat with the period, so the
    state d cycles below the top is the endpoint of a d-cycle walk.  The
    endpoints either settle to the Cauchy tolerance (geometric contraction,
    repelling landing) or decay algebraically (parabolic landing), which
    Richardson extrapolation detects and accelerates; candidates are
    polished by Newton on f^p(z) - z and checked for period closure.
    """
    if ray.status.kind == "broken":
        return ray
    walk = PullbackWalk(spec, ray.setup, ray.address,
                        anchor_base=ray.anchor_base or None)
    period = ray.address.period_length
    top = DEFAULT_SCHEDULE[-1] * period
    states, bad_at = walk.states(top)
    if bad_at >= 0:
        return replace(ray, status=RayStatus("broken",
                                             first_bad_t=float(np.min(ray.t))))
    endpoints = states[top - np.array(DEFAULT_SCHEDULE) * period]
    diffs = np.abs(np.diff(endpoints))

    candidate = None
    settled = np.nonzero(diffs < LANDING_TOL * (1.0 + np.abs(endpoints[1:])))[0]
    if len(settled):
        candidate = complex(endpoints[settled[0] + 1])
    else:
        # algebraic decay: doubling-depth Richardson, two levels
        r1 = 2.0 * endpoints[1:] - endpoints[:-1]
        r2 = (4.0 * r1[1:] - r1[:-1]) / 3.0
        if abs(r2[-1] - r2[-2]) < 1e-4 * (1.0 + abs(r2[-1])):
            candidate = complex(r2[-1])
    if candidate is None:
        return replace(ray, status=RayStatus("unresolved"))

    point = candidate
    polished = complex(_newton_sweep(lambda z: spec.derivative_array(z, period),
                                     np.array([candidate]))[0])
    if abs(polished - candidate) < 1e-2 * (1.0 + abs(candidate)):
        point = polished
    try:
        w, _ = spec.evaluate(point, period)
        closes = abs(w - point) < 1e-8 * (1.0 + abs(point))
    except Overflow:
        closes = False
    if not closes:
        return replace(ray, status=RayStatus("unresolved"))

    # approach direction from the deepest endpoints still away from the point
    direction = None
    gaps = np.abs(endpoints - point)
    away = np.nonzero(gaps > 1e3 * LANDING_TOL)[0]
    if len(away):
        e = endpoints[away[-1]]
        direction = (e - point) / abs(e - point)

    if ray.address.preperiod:
        try:
            point = walk.prefix(point)
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
    all |domains|^p addresses, each traced and landing-resolved.  Per-ray
    failures are recorded in the ray status, not raised.
    """
    labels = [d if isinstance(d, BranchLabel) else d.label for d in domains]
    labels = sorted(set(labels), key=lambda l: (l.alpha, l.j))
    return [landing_point(spec, trace_ray(spec, setup, Address(period=combo), depth=depth))
            for combo in itertools.product(labels, repeat=period)]


def orbit_representatives(rays: list[Ray]) -> list[Ray]:
    """One ray per cyclic-rotation class of periodic addresses."""
    seen: set[tuple] = set()
    out = []
    for ray in rays:
        key_cycle = tuple((s.alpha, s.j) for s in ray.address.period)
        rotations = {key_cycle[i:] + key_cycle[:i] for i in range(len(key_cycle))}
        canon = min(rotations)
        if canon not in seen:
            seen.add(canon)
            out.append(ray)
    return out


def detect_ray_pairs(rays: list[Ray], tol: float = PAIR_TOL) -> list[RayPair]:
    """Group landed rays by common landing point; one RayPair per pair."""
    if not rays:
        return []
    periods = {r.period for r in rays}
    if len(periods) > 1:
        raise MixedPeriods(f"rays of different periods: {sorted(periods)}")
    pts = []
    for r in rays:
        if r.status.kind != "lands_at":
            raise UnlandedRay(r.address)
        pts.append(r.landing)
    n = len(rays)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for k in range(i + 1, n):
            if abs(pts[i] - pts[k]) < tol:
                parent[find(i)] = find(k)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    pairs = []
    for members in groups.values():
        if len(members) < 2:
            continue
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                i, k = members[a], members[b]
                common = 0.5 * (pts[i] + pts[k])
                pairs.append(RayPair((rays[i], rays[k]), common))
    pairs.sort(key=lambda p: (p.common_landing.real, p.common_landing.imag))
    return pairs
