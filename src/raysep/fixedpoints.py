"""Location and classification of periodic points.

Newton's method on f^p(z) - z finds the periodic points in a box, first
from the dynamics alone: the caller's seeds (`separation.period_points`
passes the landings of the period-p rays, among them each domain's
inverse-branch limit) and the orbit of each singular value, which every
attracting or parabolic cycle attracts.  The argument-principle count over
the box boundary certifies that rung; when it falls short (a Siegel or
Cremer point, say) or there is no count, seed grids run as the fallback.
Fundamental domains that avoid the disk get their unique repelling fixed
point directly from the inverse-branch contraction.  The local theory at
parabolic points (normal-form coefficient, attracting and repelling
directions) is extracted by discrete contour integration, and each
attracting basin is confirmed by a probe orbit.  For a simple petal the
probe stops early on a certificate: in the Fatou coordinate W = -1/(A u) one
step of f^p is a translation by 1 + eps, and for a e^z + b every term of eps
has a closed-form bound.
"""

from __future__ import annotations

import cmath
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .curves import ParamCurve, argument_principle_count, dedup_points, map_arrays, multiplicity_at
from .errors import (
    BoundaryRoot,
    DegenerateExpansion,
    DomainMeetsDisk,
    NotParabolic,
    RaysepError,
)
from .maps import BranchLabel, MapSpec
from .structure import Rect, StructuralSetup

ATTRACT_BAND = 1e-6         # |m| < 1 - band: attracting; > 1 + band: repelling
ROOT_OF_UNITY_TOL = 1e-6
MAX_UNITY_ORDER = 64
DEDUP_TOL = 1e-7
RESIDUAL_TOL = 1e-9
BOUNDARY_TOL = 1e-9
PETAL_RADII = (0.125, 0.25, 0.5, 1.0, 2.0, 4.0)   # Cauchy radii rho of the petal jet
ROUNDING_ULPS = 64          # rounding slack of one step of f^p, in ulps of its terms
ORBIT_SKIP = 64             # K: a singular value's orbit seeds Newton from f^K on


@dataclass
class FixedPointRecord:
    location: complex
    period: int
    multiplier: complex
    classification: str         # attracting | repelling | parabolic | irrationally_indifferent
    multiplicity: int = 1
    incident_ray_addresses: list = field(default_factory=list)

    def __repr__(self) -> str:
        return (f"FixedPointRecord({self.location:.6g}, p={self.period}, "
                f"{self.classification}, m={self.multiplier:.4g}, "
                f"mult={self.multiplicity})")


@dataclass(frozen=True)
class PetalFan:
    at: complex
    m: int
    attracting_dirs: tuple[complex, ...]
    repelling_dirs: tuple[complex, ...]
    leading_coeff: complex


class CountMismatchWarning(UserWarning):
    """Newton sweep found fewer/more points than the argument principle."""


def classify_multiplier(m: complex) -> str:
    mod = abs(m)
    if mod < 1.0 - ATTRACT_BAND:
        return "attracting"
    if mod > 1.0 + ATTRACT_BAND:
        return "repelling"
    if _near_root_of_unity(m) is not None:
        return "parabolic"
    return "irrationally_indifferent"


def _near_root_of_unity(m: complex) -> int | None:
    """Smallest q <= MAX_UNITY_ORDER with |m - e^(2 pi i k/q)| small, else None."""
    for q in range(1, MAX_UNITY_ORDER + 1):
        k = round(q * cmath.phase(m) / (2.0 * math.pi))
        root = cmath.exp(2j * math.pi * k / q)
        if abs(m - root) < ROOT_OF_UNITY_TOL:
            return q
    return None


def _newton_sweep(evaluator, seeds: np.ndarray) -> np.ndarray:
    """Newton on w(z) - z from every seed; each iteration evaluates only live lanes.

    `evaluator` gives (w, w') for an array, as `map_arrays` gives
    (f^p, (f^p)'); `_polish_parabolic` passes its own jet.  A lane stops
    once its step is below 1e-13 (1 + |z|), and is frozen where the step is
    not finite or |z| exceeds 1e8.  At most 64 iterations run.
    """
    z = np.array(seeds, dtype=complex).ravel()
    live, zl = np.arange(len(z)), z.copy()     # the live lanes and their points
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(64):
            if not len(live):
                break
            w, dw = evaluator(zl)
            gp = dw - 1.0
            step = np.where(np.abs(gp) > 1e-14, (w - zl) / gp, 0.0)
            frozen = ~np.isfinite(step) | (np.abs(zl) > 1e8)
            np.subtract(zl, step, out=zl, where=~frozen)
            done = frozen | (np.abs(step) < 1e-13 * (1.0 + np.abs(zl)))
            if np.count_nonzero(done):
                z[live[done]] = zl[done]
                live, zl = live[~done], zl[~done]
    z[live] = zl
    return z.reshape(np.shape(seeds))


def _polish_parabolic(evaluator, z: np.ndarray) -> np.ndarray:
    """Refine near-parabolic points by Newton on (f^p)'(z) - 1, as lanes of `_newton_sweep`.

    The derivative has a simple zero where f^p(z) - z has a double one, so
    this sidesteps the cancellation floor of the direct residual.  The sweep
    runs on the jet u -> ((f^p)'(u) - 1 + u, D + 1), whose Newton step is
    ((f^p)'(u) - 1) / D, with D the central difference of (f^p)' at step
    1e-6.  A point that moves more than 1e-4 (1 + |z|) keeps its input.
    """
    h = 1e-6

    def jet(u):
        _, d = evaluator(np.concatenate([u, u + h, u - h]))
        d, right, left = np.split(d, 3)
        return d - 1.0 + u, (right - left) / (2.0 * h) + 1.0

    polished = _newton_sweep(jet, z)
    return np.where(np.abs(polished - z) > 1e-4 * (1.0 + np.abs(z)), z, polished)


def _auto_multiplicity(mapobj, z: complex, period: int, spacing: float) -> int:
    radius = min(1e-2, 0.25 * spacing) if spacing > 0 else 1e-2
    try:
        return multiplicity_at(mapobj, z, radius, period)
    except (RaysepError, ValueError):
        return 2  # parabolic with multiplier 1 has multiplicity at least 2


def find_periodic_points(mapobj, region: Rect | tuple, period: int = 1, *,
                         extra_seeds=()) -> list[FixedPointRecord]:
    """All solutions of f^p(z) = z in the region, classified.

    Newton runs from the seed sets of `_seed_ladder` until the count with
    multiplicity matches the argument principle over the region boundary,
    else CountMismatchWarning.  Without a count (at p >= 2 it overflows on
    wide boxes) the first grid is taken as it is.  `separation.period_points`
    passes the landings of the period-p rays as `extra_seeds`.
    """
    if not isinstance(region, Rect):
        region = Rect(*region)
    if period < 1 or period > 4:
        raise ValueError("period must be between 1 and 4")
    evaluator = map_arrays(mapobj, period)

    contour = ParamCurve.rectangle(region.x0, region.x1, region.y0, region.y1,
                                   n_per_side=256)
    try:
        expected = argument_principle_count(mapobj, contour, "fixed_points", period)
    except RaysepError:
        expected = None

    extra = np.asarray(extra_seeds, dtype=complex)
    for seeds in _seed_ladder(mapobj, region, period, extra, expected is not None):
        roots = _newton_sweep(evaluator, seeds)
        records = _collect_records(mapobj, evaluator, roots, region, period)
        total = sum(r.multiplicity for r in records)
        if expected is None or total == expected:
            break
    if expected is not None and total != expected:
        warnings.warn(
            f"found {total} points (with multiplicity) but the argument "
            f"principle counts {expected} in the region", CountMismatchWarning)
    return records


def _seed_ladder(mapobj, region: Rect, period: int, extra: np.ndarray, counted: bool):
    """Newton's seed sets, in order, each built only when the last fell short.

    With a count, the first rung is `extra` and the singular orbits: every
    repelling point is a ray's landing and every attracting or parabolic
    cycle attracts a singular value.  Then come grids of 64, 128 and 256
    steps per diagonal, each joined by `extra`.
    """
    if counted:
        yield np.concatenate([extra, _singular_orbits(mapobj, period)])
    for n in (64, 128, 256):
        yield np.concatenate([_seed_grid(region, n), extra])


def _singular_orbits(mapobj, period: int) -> np.ndarray:
    """f^K(v), ..., f^(K+p-1)(v) for each singular value v, K = ORBIT_SKIP.

    Points that overflow (an escaping v) are dropped; a plain callable has
    no singular values.
    """
    if not isinstance(mapobj, MapSpec):
        return np.empty(0, dtype=complex)
    orbit = [mapobj.evaluate_array(np.array(mapobj.singular_values(), dtype=complex),
                                   ORBIT_SKIP)]
    for _ in range(period - 1):
        orbit.append(mapobj.evaluate_array(orbit[-1]))
    orbit = np.concatenate(orbit)
    return orbit[np.isfinite(orbit)]


def _seed_grid(region: Rect, n: int) -> np.ndarray:
    step = region.diagonal / n
    nx = max(int((region.x1 - region.x0) / step), 8)
    ny = max(int((region.y1 - region.y0) / step), 8)
    xs = np.linspace(region.x0 + step / 3, region.x1 - step / 3, nx)
    ys = np.linspace(region.y0 + step / 3, region.y1 - step / 3, ny)
    zz = (xs[None, :] + 1j * ys[:, None]).ravel()
    return zz


def _collect_records(mapobj, evaluator, roots: np.ndarray, region: Rect,
                     period: int) -> list[FixedPointRecord]:
    w, _ = evaluator(roots)
    residual = np.abs(w - roots)
    ok = np.isfinite(residual) & (residual < RESIDUAL_TOL * (1.0 + np.abs(roots)))
    unique = np.array(dedup_points(roots[ok], DEDUP_TOL), dtype=complex)
    # a multiple root shatters Newton limits into a cloud of near-solutions;
    # pull near-parabolic candidates onto the derivative-1 locus and merge
    _, d = evaluator(unique)
    near = np.flatnonzero(np.abs(d - 1.0) < 1e-4)
    zp = _polish_parabolic(evaluator, unique[near])
    wp, _ = evaluator(zp)
    kept = np.abs(wp - zp) < RESIDUAL_TOL * (1.0 + np.abs(zp))
    unique[near[kept]] = zp[kept]
    unique = [z for z in dedup_points(unique, DEDUP_TOL) if region.contains(z)]
    unique.sort(key=lambda z: (z.real, z.imag))

    _, multipliers = evaluator(np.array(unique, dtype=complex))

    spacing = None     # O(n^2), so computed only when a multiplicity needs it
    records = []
    for z, m in zip(unique, multipliers.tolist()):
        edge = min(z.real - region.x0, region.x1 - z.real,
                   z.imag - region.y0, region.y1 - z.imag)
        if edge < BOUNDARY_TOL:
            raise BoundaryRoot(f"periodic point {z} sits on the region boundary")
        cls = classify_multiplier(m)
        multiplicity = 1
        if cls == "parabolic" and abs(m - 1.0) < ROOT_OF_UNITY_TOL:
            if spacing is None:
                spacing = min((abs(a - b) for a, b in itertools.combinations(unique, 2)),
                              default=math.inf)
            multiplicity = _auto_multiplicity(
                mapobj, z, period, spacing if math.isfinite(spacing) else 1.0)
        records.append(FixedPointRecord(z, period, m, cls, multiplicity))
    return records


def find_fixed_in_domain(setup: StructuralSetup, label: BranchLabel) -> FixedPointRecord:
    """The unique (repelling) fixed point of a domain that avoids the disk.

    Iterates the domain's inverse branch from the anchor; the Schwarz lemma
    makes this a strict contraction when the domain does not meet the disk.
    """
    dom = setup.domain_by_band(label.j)
    if setup.meets_disk([dom])[0]:
        raise DomainMeetsDisk(
            f"domain {label} intersects the disk; use find_periodic_points")
    z = dom.anchor
    for _ in range(5000):
        nz = complex(setup.branch_context.pull_back(z, dom.label))
        if abs(nz - z) < 1e-12:
            z = nz
            break
        z = nz
    w, d = setup.spec.evaluate(z, 1)
    record = FixedPointRecord(z, 1, d, classify_multiplier(d))
    if record.classification != "repelling":
        raise AssertionError(
            f"forced fixed point of {label} is {record.classification}, "
            "contradiction with the contraction argument")
    return record


def petal_directions(mapobj, at: complex, period: int = 1) -> PetalFan:
    """Attracting and repelling directions of the parabolic point `at`.

    The normal-form coefficient is the first Taylor coefficient of
    f^p(z) - z at `at` of order 2 to 8 above 1e-8, taken by discrete contour
    integration on 256 points at radius 1e-2; directions interleave with
    exact gaps pi/m.
    """
    at = complex(at)
    evaluator = map_arrays(mapobj, period)
    _, d = evaluator(np.array([at]))
    if abs(complex(d[0]) - 1.0) > 1e-6:
        raise NotParabolic(
            f"multiplier {complex(d[0]):.8g} is not within 1e-6 of 1")
    theta = 2.0 * math.pi * np.arange(256) / 256
    ring = at + 1e-2 * np.exp(1j * theta)
    w, _ = evaluator(ring)
    g = w - ring
    for order in range(2, 9):
        coeff = np.mean(g * np.exp(-1j * order * theta)) / 1e-2 ** order
        if abs(coeff) > 1e-8:
            a = complex(coeff)
            m = order - 1
            attract = tuple(
                cmath.exp(1j * (math.pi - cmath.phase(a) + 2.0 * math.pi * k) / m)
                for k in range(m))
            repel = tuple(
                cmath.exp(1j * (-cmath.phase(a) + 2.0 * math.pi * k) / m)
                for k in range(m))
            return PetalFan(at, m, attract, repel, a)
    raise DegenerateExpansion(
        "no normal-form coefficient above 1e-08 up to order 8")


@dataclass(frozen=True)
class PetalJet:
    """Taylor data of g(u) = f^p(z0 + u) - z0 = g0 + lam u + A u^2 + T(u).

    |T(u)| <= K |u|^3 on |u| <= rho, and one floating-point step of f^p from
    z0 + u, |u| <= rho, is within `slack` of the exact one.
    """

    g0: complex
    lam: complex
    A: complex
    rho: float
    K: float
    slack: float


def _petal_jet(spec: MapSpec, z0: complex, period: int) -> PetalJet | None:
    """The jet of f^p at z0, with the smallest K over the radii PETAL_RADII.

    g0, lam and A come from the chain rule along the orbit w_0 = z0, ...,
    w_p, using f' = f'' = a e^z =: c_k at w_k.  For |v| <= B_k,
    f(w_k + v) - f(w_k) = c_k (e^v - 1), so B_0 = rho and
    B_(k+1) = |c_k| expm1(B_k) bound |f^k(z0 + u) - w_k| on |u| <= rho, and
    T(u)/u^3, holomorphic there, is at most K = (B_p + |lam| rho +
    |A| rho^2) / rho^3 by the maximum principle.  The rounding slack allows
    ROUNDING_ULPS ulps of each iterate's terms |c_k| e^(B_k) and
    |w_(k+1)| + B_(k+1), carried to w_p by the later factors |c_j| e^(B_j).
    None when the orbit overflows or no radius gives a finite K.
    """
    w, lam, d2, factors = complex(z0), 1.0 + 0.0j, 0.0j, []
    try:
        for _ in range(period):
            c = spec.a * cmath.exp(w)
            lam, d2 = c * lam, c * (lam * lam + d2)
            w = c + spec.b
            factors.append((abs(c), abs(w)))
    except OverflowError:
        return None
    A = d2 / 2.0
    rho = np.array(PETAL_RADII)
    bound, error = rho.copy(), np.zeros_like(rho)
    with np.errstate(over="ignore", invalid="ignore"):
        for c, w_mod in factors:
            grown = c * np.exp(bound)      # |f'| over the disk of radius B_k
            bound = c * np.expm1(bound)
            error = grown * error + grown + w_mod + bound
        K = (bound + abs(lam) * rho + abs(A) * rho ** 2) / rho ** 3
    K = np.where(np.isfinite(K) & np.isfinite(error), K, np.inf)
    i = int(np.argmin(K))
    if not math.isfinite(K[i]) or A == 0:
        return None
    slack = float(ROUNDING_ULPS * np.finfo(float).eps * error[i])
    return PetalJet(w - z0, lam, A, float(rho[i]), float(K[i]), slack)


def _captured(jet: PetalJet, u: np.ndarray, left: int, d0: np.ndarray) -> np.ndarray:
    """Lanes at z0 + u with `left` steps to go that provably pass the probe test.

    In the Fatou coordinate W = -1/(A u) one step is W -> W + 1 + eps, and
    with e = |g0| + slack + |lam - 1| r + K r^3 for |u| = r <= rho,
    |eps| <= (e/(|A| r^2) + |A| r + e/r) / (1 - |A| r - e/r).  Let
    r_max = 1/(|A| Re W) and r_min = 1/(|A| (|W| + 1.5 left)).  If that
    bound is at most 1/2 on [r_min, r_max] (decreasing terms at r_min,
    increasing ones at r_max), then by induction Re W grows by at least
    1/2 and |W| by at most 3/2 per step, so every later |u| lies in
    [r_min, r_max].  A lane is captured when moreover r_max <= min(10 d0,
    rho) and the final |u| <= 1/(|A| (Re W + left/2)) is below d0/2, both
    with the slack added: it never leaves 10 d0 and ends within d0/2.
    """
    a = abs(jet.A)
    e0, e1, K = abs(jet.g0) + jet.slack, abs(jet.lam - 1.0), jet.K
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        W = -1.0 / (jet.A * u)
        r_max = 1.0 / (a * W.real)
        r_min = 1.0 / (a * (np.abs(W) + 1.5 * left))
        grow = a * r_max + K * r_max ** 2
        den = 1.0 - grow - e0 / r_min - e1
        num = (e0 / (a * r_min ** 2) + e1 / (a * r_min) + K * r_max / a + grow
               + e0 / r_min + e1)
        final = 1.0 / (a * (W.real + 0.5 * left))
    return ((W.real > 0.0) & (r_max + jet.slack <= np.minimum(10.0 * d0, jet.rho))
            & (final + jet.slack < 0.5 * d0) & (den > 0.0) & (num <= 0.5 * den))


def probe_virtual_points(mapobj, fan: PetalFan, period: int = 1, *,
                         step: float = 0.1, iters: int = 4000) -> list[complex]:
    """Attracting directions whose probe orbit converges to the parabolic point.

    Each direction's probe starts at distance d0 = `step` from the point and
    passes when its `iters` steps never go beyond 10 d0 and end below
    d0/2: convergence along a parabolic direction is algebraic, so the test
    is a decreasing trend rather than a small final distance.  All
    directions walk as lanes, one evaluation per step for the lanes still
    walking.  For a MapSpec with a simple petal (m = 1), a lane stops early
    once `_captured` certifies, by the Fatou coordinate and the closed-form
    jet `_petal_jet`, that the rest of its walk would pass; it is checked at
    steps 0, 1, 2, 4, 8, ...  Other lanes walk all `iters` steps.
    """
    fn = map_arrays(mapobj, period)
    jet = (_petal_jet(mapobj, fan.at, period)
           if isinstance(mapobj, MapSpec) and fan.m == 1 else None)
    z = fan.at + step * np.array(fan.attracting_dirs, dtype=complex)
    d0 = np.abs(z - fan.at)
    confirmed = np.zeros(len(z), dtype=bool)
    live = np.arange(len(z))
    for k in range(iters):
        if jet is not None and not k & (k - 1):
            done = _captured(jet, z[live] - fan.at, iters - k, d0[live])
            confirmed[live[done]] = True
            live = live[~done]
        if not len(live):
            break
        w, _ = fn(z[live])
        z[live] = w
        dist = np.abs(w - fan.at)
        live = live[np.isfinite(dist) & (dist <= 10.0 * d0[live])]
    confirmed[live] = np.abs(z[live] - fan.at) < 0.5 * d0[live]
    return [fan.attracting_dirs[i] for i in np.flatnonzero(confirmed)]
