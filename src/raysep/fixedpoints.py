"""Location and classification of periodic points.

Newton's method on f^p(z) - z over a seed grid finds the periodic points in
a box; the count is cross-checked against the argument principle over the
box boundary.  Fundamental domains that avoid the disk get their unique
repelling fixed point directly from the inverse-branch contraction.  The
local theory at parabolic points (normal-form coefficient, attracting and
repelling directions) is extracted by discrete contour integration.
"""

from __future__ import annotations

import cmath
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .curves import (ParamCurve, argument_principle_count, dedup_points, ensure_vectorized,
                     multiplicity_at)
from .errors import (
    BoundaryRoot,
    DegenerateExpansion,
    DomainMeetsDisk,
    NotParabolic,
    OnCut,
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


def _map_arrays(mapobj, period: int):
    """(values, derivatives) evaluator for a MapSpec or a plain callable."""
    if isinstance(mapobj, MapSpec) or hasattr(mapobj, "derivative_array"):
        return lambda z: mapobj.derivative_array(z, period)
    fn = ensure_vectorized(mapobj)

    def run(z):
        w = np.asarray(z, dtype=complex)
        deriv = np.ones_like(w)
        h = 1e-6
        for _ in range(period):
            with np.errstate(over="ignore", invalid="ignore"):
                step = (fn(w + h) - fn(w - h)) / (2.0 * h)
                deriv = deriv * step
                w = fn(w)
        return w, deriv
    return run


def _newton_sweep(evaluator, seeds: np.ndarray, iters: int = 64,
                  blowup: float = 1e8) -> np.ndarray:
    z = seeds.astype(complex).copy()
    alive = np.ones(z.shape, dtype=bool)
    for _ in range(iters):
        if not np.any(alive):
            break
        w, dw = evaluator(z)
        g = w - z
        gp = dw - 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(np.abs(gp) > 1e-14, g / gp, 0.0)
        bad = ~np.isfinite(step.real) | ~np.isfinite(step.imag) | (np.abs(z) > blowup)
        alive &= ~bad
        z = np.where(alive, z - step, z)
        done = np.abs(step) < 1e-13 * (1.0 + np.abs(z))
        alive &= ~done
    return z


def _polish_parabolic(mapobj, z0: complex, period: int) -> complex:
    """Refine a near-parabolic point via Newton on (f^p)'(z) - 1.

    The derivative has a simple zero where f^p(z) - z has a double one, so
    this sidesteps the cancellation floor of the direct residual.
    """
    evaluator = _map_arrays(mapobj, period)
    z = complex(z0)
    h = 1e-6
    for _ in range(50):
        _, d = evaluator(np.array([z, z + h, z - h]))
        g = complex(d[0]) - 1.0
        gprime = (complex(d[1]) - complex(d[2])) / (2.0 * h)
        if abs(gprime) < 1e-14:
            break
        step = g / gprime
        z = z - step
        if abs(step) < 1e-15 * (1.0 + abs(z)):
            break
    if abs(z - z0) > 1e-4 * (1.0 + abs(z0)):
        return complex(z0)
    return z


def _auto_multiplicity(mapobj, z: complex, period: int, spacing: float) -> int:
    radius = min(1e-2, 0.25 * spacing) if spacing > 0 else 1e-2
    try:
        return multiplicity_at(mapobj, z, radius, period)
    except (RaysepError, ValueError):
        return 2  # parabolic with multiplier 1 has multiplicity at least 2


def find_periodic_points(mapobj, region: Rect | tuple, period: int = 1, *,
                         setup: StructuralSetup | None = None,
                         grid: int = 64, extra_seeds=(),
                         cross_check: bool = True) -> list[FixedPointRecord]:
    """All solutions of f^p(z) = z in the region, classified.

    Newton runs from a seed grid (plus inverse-branch seeds when a setup is
    supplied); completeness is cross-checked against the argument principle
    over the region boundary, with a CountMismatchWarning on discrepancy.
    """
    if not isinstance(region, Rect):
        region = Rect(*region)
    if period < 1 or period > 4:
        raise ValueError("period must be between 1 and 4")
    evaluator = _map_arrays(mapobj, period)

    expected = None
    if cross_check:
        contour = ParamCurve.rectangle(region.x0, region.x1, region.y0, region.y1,
                                       n_per_side=256)
        try:
            expected = argument_principle_count(mapobj, contour, "fixed_points", period)
        except RaysepError:
            expected = None

    records: list[FixedPointRecord] = []
    for attempt_grid in (grid, grid * 2, grid * 4):
        seeds = _seed_grid(region, attempt_grid)
        if setup is not None:
            seeds = np.concatenate([seeds, _domain_seeds(setup, region)])
        if len(extra_seeds):
            seeds = np.concatenate([seeds, np.asarray(extra_seeds, dtype=complex)])
        roots = _newton_sweep(evaluator, seeds)
        records = _collect_records(mapobj, evaluator, roots, region, period)
        total = sum(r.multiplicity for r in records)
        if expected is None or total == expected:
            break
    else:
        total = sum(r.multiplicity for r in records)
    if expected is not None and total != expected:
        warnings.warn(
            f"found {total} points (with multiplicity) but the argument "
            f"principle counts {expected} in the region", CountMismatchWarning)
    return records


def _seed_grid(region: Rect, n: int) -> np.ndarray:
    step = region.diagonal / n
    nx = max(int((region.x1 - region.x0) / step), 8)
    ny = max(int((region.y1 - region.y0) / step), 8)
    xs = np.linspace(region.x0 + step / 3, region.x1 - step / 3, nx)
    ys = np.linspace(region.y0 + step / 3, region.y1 - step / 3, ny)
    zz = (xs[None, :] + 1j * ys[:, None]).ravel()
    return zz


def _domain_seeds(setup: StructuralSetup, region: Rect) -> np.ndarray:
    seeds = []
    for dom in setup.domains:
        z = dom.anchor
        try:
            for _ in range(200):
                nz = complex(setup.pull_back(z, dom.label))
                if abs(nz - z) < 1e-12:
                    break
                z = nz
            seeds.append(z)
        except OnCut:
            continue
    return np.array([s for s in seeds if region.contains(s)], dtype=complex)


def _collect_records(mapobj, evaluator, roots: np.ndarray, region: Rect,
                     period: int) -> list[FixedPointRecord]:
    w, _ = evaluator(roots)
    residual = np.abs(w - roots)
    ok = np.isfinite(residual) & (residual < RESIDUAL_TOL * (1.0 + np.abs(roots)))
    unique = dedup_points(roots[ok], DEDUP_TOL)
    # a multiple root shatters Newton limits into a cloud of near-solutions;
    # pull near-parabolic candidates onto the derivative-1 locus and merge
    _, d = evaluator(np.array(unique, dtype=complex))
    for i in np.nonzero(np.abs(d - 1.0) < 1e-4)[0]:
        zp = _polish_parabolic(mapobj, unique[i], period)
        wp, _ = evaluator(np.array([zp]))
        if abs(complex(wp[0]) - zp) < RESIDUAL_TOL * (1.0 + abs(zp)):
            unique[i] = zp
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
        if cls == "parabolic" and abs(m - 1.0) < 1e-4:
            z = _polish_parabolic(mapobj, z, period)
            _, d = evaluator(np.array([z]))
            m = complex(d[0])
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


def find_fixed_in_domain(spec: MapSpec, setup: StructuralSetup,
                         label: BranchLabel) -> FixedPointRecord:
    """The unique (repelling) fixed point of a domain that avoids the disk.

    Iterates the domain's inverse branch from the anchor; the Schwarz lemma
    makes this a strict contraction when the domain does not meet the disk.
    """
    dom = setup.domain_by_band(label.j, label.alpha)
    if _domain_min_modulus(setup, dom) <= setup.disk.radius + 1e-9:
        raise DomainMeetsDisk(
            f"domain {label} intersects the disk; use find_periodic_points")
    z = dom.anchor
    for _ in range(5000):
        nz = complex(setup.pull_back(z, dom.label))
        if abs(nz - z) < 1e-12:
            z = nz
            break
        z = nz
    w, d = spec.evaluate(z, 1)
    record = FixedPointRecord(z, 1, d, classify_multiplier(d))
    if record.classification != "repelling":
        raise AssertionError(
            f"forced fixed point of {label} is {record.classification}, "
            "contradiction with the contraction argument")
    return record


def _domain_min_modulus(setup: StructuralSetup, dom, n_boundary: int = 512) -> float:
    """Minimum |z| over the closure of a fundamental domain.

    The minimum is attained on the boundary: the two side cuts plus the piece
    of tract boundary between them (0 is never inside a tract since f(0)
    lies in the disk).
    """
    best = math.inf
    for side in dom.side_curves:
        best = min(best, float(np.min(np.abs(side.z))))
    delta0 = complex(setup.delta.z[0])
    theta0 = math.atan2(delta0.imag, delta0.real)
    u = theta0 + np.linspace(1e-6, 2.0 * math.pi - 1e-6, n_boundary)
    w = setup.disk.radius * np.exp(1j * u)
    z = setup.pull_back(w, dom.label)
    best = min(best, float(np.min(np.abs(z))))
    return best


def petal_directions(mapobj, at: complex, period: int = 1, *,
                     probe_radius: float = 1e-2, n_samples: int = 256,
                     coeff_tol: float = 1e-8, max_order: int = 8) -> PetalFan:
    """Attracting and repelling directions of the parabolic point `at`.

    The normal-form coefficient is the first Taylor coefficient of
    f^p(z) - z at `at` (order >= 2) above threshold, extracted by discrete
    contour integration; directions interleave with exact gaps pi/m.
    """
    at = complex(at)
    evaluator = _map_arrays(mapobj, period)
    _, d = evaluator(np.array([at]))
    if abs(complex(d[0]) - 1.0) > 1e-6:
        raise NotParabolic(
            f"multiplier {complex(d[0]):.8g} is not within 1e-6 of 1")
    theta = 2.0 * math.pi * np.arange(n_samples) / n_samples
    ring = at + probe_radius * np.exp(1j * theta)
    w, _ = evaluator(ring)
    g = w - ring
    for order in range(2, max_order + 1):
        coeff = np.mean(g * np.exp(-1j * order * theta)) / probe_radius ** order
        if abs(coeff) > coeff_tol:
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
        f"no normal-form coefficient above {coeff_tol} up to order {max_order}")


def probe_virtual_points(mapobj, fan: PetalFan, period: int = 1, *,
                         step: float = 0.1, iters: int = 4000) -> list[complex]:
    """Attracting directions whose probe orbit converges to the parabolic point.

    Convergence along a parabolic direction is algebraic, so the criterion
    is a decreasing trend rather than a small final distance.
    """
    fn = _map_arrays(mapobj, period)
    confirmed = []
    for direction in fan.attracting_dirs:
        z = fan.at + step * direction
        d0 = abs(z - fan.at)
        ok = True
        dist = d0
        for _ in range(iters):
            w, _ = fn(np.array([z]))
            z = complex(w[0])
            dist = abs(z - fan.at)
            if not math.isfinite(dist) or dist > 10.0 * d0:
                ok = False
                break
        if ok and dist < 0.5 * d0:
            confirmed.append(direction)
    return confirmed
