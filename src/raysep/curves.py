"""Winding numbers and argument-principle counting over discretized curves.

Curves are piecewise linear.  For a straight segment that avoids a point P,
the net change of arg(z - P) along the segment equals the principal angle
between its endpoint vectors, so winding numbers of polylines are computed
exactly (up to float rounding) with no quadrature.  Counting zeros or fixed
points of a holomorphic map reduces to the winding number of the image of a
contour, which is where adaptive refinement of the sampling comes in.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    CurveHitsPoint,
    CurvesCollide,
    InconsistentRadius,
    NonFiniteInput,
    NotClosed,
    NotCounterclockwise,
    NotSimple,
    RefinementBudgetExceeded,
    ZeroIntegrand,
    ZeroOnContour,
)

CLOSE_TOL = 1e-12          # endpoint coincidence for closed curves
COLLISION_TOL = 1e-12      # geometric degeneracy (point on curve, curve on curve)
ZERO_TOL = 1e-9            # root proximity to a counting contour
SNAP_TOL = 1e-6            # integer snapping of indices
MAX_ARG_STEP = np.pi / 4   # refinement target for integrand arguments
SAMPLE_BUDGET = 1 << 22
# point-segment elements (or samples) per chunk of the array kernels
CHUNK_ELEMENTS = 4096

Integrand = Callable[[np.ndarray], np.ndarray]


def _as_complex_array(values) -> np.ndarray:
    z = np.asarray(values, dtype=complex)
    if not np.all(np.isfinite(z.real) & np.isfinite(z.imag)):
        raise NonFiniteInput("non-finite sample in curve data")
    return z


@dataclass(frozen=True)
class IndexValue:
    """Index of a curve in turns, with an integer snap when unambiguous."""

    value: float
    integer_snap: int | None

    @classmethod
    def from_turns(cls, turns: float) -> "IndexValue":
        nearest = round(turns)
        snap = int(nearest) if abs(turns - nearest) < SNAP_TOL else None
        return cls(float(turns), snap)


class ParamCurve:
    """A parametrized polyline: strictly increasing parameters and samples."""

    __slots__ = ("t", "z", "closed")

    def __init__(self, t, z, closed: bool = False):
        t = np.asarray(t, dtype=float)
        z = _as_complex_array(z)
        if t.ndim != 1 or z.shape != t.shape:
            raise ValueError("t and z must be one-dimensional and equal length")
        if len(t) < 2:
            raise ValueError("a curve needs at least 2 samples")
        if not np.all(np.isfinite(t)):
            raise NonFiniteInput("non-finite parameter value")
        if np.any(np.diff(t) <= 0):
            raise ValueError("parameters must be strictly increasing")
        if closed and abs(z[0] - z[-1]) > CLOSE_TOL:
            raise ValueError("closed curve endpoints do not coincide")
        self.t = t
        self.z = z
        self.closed = bool(closed)

    def __len__(self) -> int:
        return len(self.t)

    def __repr__(self) -> str:
        kind = "closed" if self.closed else "open"
        return f"ParamCurve({len(self)} samples, {kind})"

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_points(cls, points: Sequence[complex], closed: bool = False,
                    t: Sequence[float] | None = None) -> "ParamCurve":
        pts = _as_complex_array(points)
        if t is None:
            t = np.arange(len(pts), dtype=float)
        return cls(t, pts, closed)

    @classmethod
    def circle(cls, center: complex, radius: float, n: int = 256,
               turns: int = 1, t0: float = 0.0) -> "ParamCurve":
        """Counterclockwise circle sampled with n points per turn."""
        total = n * abs(turns) + 1
        theta = t0 + 2.0 * np.pi * turns * np.linspace(0.0, 1.0, total)
        z = center + radius * np.exp(1j * theta)
        z[-1] = z[0]  # exact closure
        return cls(np.linspace(0.0, 1.0, total), z, closed=True)

    @classmethod
    def segment(cls, a: complex, b: complex, n: int = 64) -> "ParamCurve":
        s = np.linspace(0.0, 1.0, n)
        return cls(s, a + (b - a) * s, closed=False)

    @classmethod
    def rectangle(cls, x0: float, x1: float, y0: float, y1: float,
                  n_per_side: int = 64) -> "ParamCurve":
        """Counterclockwise axis-aligned rectangle boundary."""
        corners = [complex(x0, y0), complex(x1, y0), complex(x1, y1),
                   complex(x0, y1), complex(x0, y0)]
        zs = []
        for a, b in zip(corners[:-1], corners[1:]):
            s = np.linspace(0.0, 1.0, n_per_side, endpoint=False)
            zs.append(a + (b - a) * s)
        z = np.concatenate(zs + [np.array([corners[0]])])
        return cls(np.arange(len(z), dtype=float), z, closed=True)

    # -- geometry helpers -------------------------------------------------

    def segments(self) -> tuple[np.ndarray, np.ndarray]:
        return self.z[:-1], self.z[1:]

    def distance_to_point(self, p: complex | np.ndarray) -> float:
        """Distance from p to the polyline.

        p may also be an array of points; the result is then the minimum
        distance over all of them.
        """
        return float(np.min(min_segment_distance(p, *self.segments())))

    def value_at(self, t: float) -> complex:
        """Linear interpolation at parameter t (clamped to range)."""
        re = np.interp(t, self.t, self.z.real)
        im = np.interp(t, self.t, self.z.imag)
        return complex(re, im)

    def length(self) -> float:
        return float(np.sum(np.abs(np.diff(self.z))))


def concat(first: ParamCurve, second: ParamCurve, close: bool = False) -> ParamCurve:
    """Concatenate consecutive arcs (end of first must equal start of second)."""
    if abs(first.z[-1] - second.z[0]) > 1e-9:
        raise ValueError("arcs are not consecutive")
    shift = first.t[-1] - second.t[0]
    t = np.concatenate([first.t, second.t[1:] + shift])
    z = np.concatenate([first.z, second.z[1:]])
    return ParamCurve(t, z, closed=close)


def _point_segment_distance(p: complex | np.ndarray, a: np.ndarray,
                            b: np.ndarray) -> np.ndarray:
    """Distance from point p to each segment [a_i, b_i]; broadcasts over p."""
    d = b - a
    L2 = (d * d.conjugate()).real
    L2 = np.where(L2 == 0.0, 1.0, L2)
    s = ((p - a) * d.conjugate()).real / L2
    s = np.clip(s, 0.0, 1.0)
    return np.abs(p - (a + s * d))


def min_segment_distance(points, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest segment [a_i, b_i] (inf if none).

    Points go through in chunks of at most CHUNK_ELEMENTS point-segment
    elements, so the temporaries stay small.
    """
    pts = np.ravel(np.asarray(points, dtype=complex))
    out = np.full(len(pts), np.inf)
    rows = max(1, CHUNK_ELEMENTS // max(len(a), 1))
    for lo in range(0, len(pts) if len(a) else 0, rows):
        out[lo:lo + rows] = np.min(
            _point_segment_distance(pts[lo:lo + rows, None], a, b), axis=1)
    return out


def group_points(points, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Greedy first-seen grouping: the kept points and each point's group.

    Each point, in order, is kept unless it lies within `tol` of a point
    already kept.  `group[i]` is the index, among the kept points, of the
    first kept point within `tol` of point i (a kept point is its own group).
    """
    pts = np.ravel(np.asarray(points, dtype=complex))
    group = np.empty(len(pts), dtype=int)
    kept = []
    rest, index = pts, np.arange(len(pts))
    while len(rest):
        # the first point left is kept and absorbs the later ones within tol of it
        near = np.abs(rest - rest[0]) < tol
        near[0] = True      # so that a nan point is kept, not left forever
        group[index[near]] = len(kept)
        kept.append(index[0])
        rest, index = rest[~near], index[~near]
    return pts[kept], group


def dedup_points(points, tol: float) -> list[complex]:
    """The kept points of `group_points`, in order."""
    return [complex(z) for z in group_points(points, tol)[0]]


def _turn_sum(w: np.ndarray) -> float:
    """Continuous argument change along the polyline of values w, in radians."""
    return float(np.sum(np.angle(w[1:] / w[:-1])))


def winding_number(curve: ParamCurve, p: complex,
                   collision_tol: float = COLLISION_TOL) -> IndexValue:
    """Continuous argument change of z - p along the curve, in turns.

    Exact for polylines: each straight segment avoiding p contributes the
    principal angle between its endpoint vectors.
    """
    p = complex(p)
    if not (np.isfinite(p.real) and np.isfinite(p.imag)):
        raise NonFiniteInput("reference point is not finite")
    if curve.distance_to_point(p) <= collision_tol:
        raise CurveHitsPoint(f"point {p} lies on the curve")
    return IndexValue.from_turns(_turn_sum(curve.z - p) / (2.0 * np.pi))


def subtraction_index(gamma: ParamCurve, sigma: ParamCurve,
                      collision_tol: float = COLLISION_TOL) -> IndexValue:
    """Index of the pointwise difference sigma(t) - gamma(t) about 0.

    Both curves are affinely renormalized to [0, 1] and resampled onto the
    union of their parameter grids; on that grid the difference is again a
    polyline, so its winding number is computed exactly.
    """
    tg = _normalize_param(gamma.t)
    ts = _normalize_param(sigma.t)
    grid = np.union1d(tg, ts)
    zg = _interp_complex(grid, tg, gamma.z)
    zs = _interp_complex(grid, ts, sigma.z)
    diff = zs - zg
    a, b = diff[:-1], diff[1:]
    dist = _point_segment_distance(0.0 + 0.0j, a, b)
    k = int(np.argmin(dist))
    if dist[k] <= collision_tol:
        raise CurvesCollide(float(grid[k]), float(dist[k]))
    return IndexValue.from_turns(_turn_sum(diff) / (2.0 * np.pi))


def _normalize_param(t: np.ndarray) -> np.ndarray:
    return (t - t[0]) / (t[-1] - t[0])


def _interp_complex(grid: np.ndarray, t: np.ndarray, z: np.ndarray) -> np.ndarray:
    return np.interp(grid, t, z.real) + 1j * np.interp(grid, t, z.imag)


def ensure_vectorized(fn: Callable) -> Integrand:
    """Wrap a scalar complex function so it accepts ndarray input."""
    def wrapped(z: np.ndarray) -> np.ndarray:
        try:
            out = fn(z)
            out = np.asarray(out, dtype=complex)
            if out.shape == np.shape(z):
                return out
        except (TypeError, ValueError):
            pass
        return np.array([fn(w) for w in np.ravel(z)], dtype=complex).reshape(np.shape(z))
    return wrapped


def refine_for_argument(curve: ParamCurve, integrand: Callable,
                        max_step: float = MAX_ARG_STEP,
                        zero_tol: float = ZERO_TOL,
                        budget: int = SAMPLE_BUDGET) -> ParamCurve:
    """Insert samples until consecutive integrand arguments differ by < max_step.

    Original samples are preserved; inserted samples are parameter midpoints,
    hence lie on the polyline.
    """
    if not (0.0 < max_step < np.pi):
        raise ValueError("max_step must lie in (0, pi)")
    fn = ensure_vectorized(integrand)
    t = curve.t.astype(float)
    z = curve.z.copy()
    w = fn(z)
    for _ in range(64):
        if not np.all(np.isfinite(w.real) & np.isfinite(w.imag)):
            raise NonFiniteInput("integrand overflowed on the curve")
        if np.any(np.abs(w) <= zero_tol):
            raise ZeroIntegrand("integrand vanished at a curve sample")
        steps = np.abs(np.angle(w[1:] / w[:-1]))
        bad = steps >= max_step
        if not np.any(bad):
            return ParamCurve(t, z, curve.closed)
        if len(t) + int(np.sum(bad)) > budget:
            raise RefinementBudgetExceeded(
                f"needs more than {budget} samples")
        idx = np.nonzero(bad)[0]
        t_new = 0.5 * (t[idx] + t[idx + 1])
        z_new = 0.5 * (z[idx] + z[idx + 1])
        w_new = fn(z_new)
        pos = idx + 1
        t = np.insert(t, pos, t_new)
        z = np.insert(z, pos, z_new)
        w = np.insert(w, pos, w_new)
    raise RefinementBudgetExceeded("refinement failed to settle in 64 passes")


def is_simple(curve: ParamCurve, tol: float = COLLISION_TOL) -> bool:
    """True when no two non-adjacent segments of the polyline intersect.

    Broad phase: square cells of the median segment length (at least 1/16
    of the longest and at least tol); each segment's box, widened by tol,
    covers at most 19 x 19 of them.  Intersecting segments share a cell, so
    only same-cell pairs go to the exact test, CHUNK_ELEMENTS at a time.
    """
    a, b = curve.segments()
    lengths = np.sort(np.abs(b - a))    # np.median would import numpy.ma, 1 MB
    cell = max(float(lengths[len(lengths) // 2]), float(lengths[-1]) / 16.0, tol) or 1.0

    def cell_range(u, v):   # first cell and number of cells per segment
        lo, hi = (np.floor((w - np.min(u)) / cell).astype(np.int64)
                  for w in (np.minimum(u, v) - tol, np.maximum(u, v) + tol))
        return lo, hi - lo + 1

    x0, nx = cell_range(a.real, b.real)
    y0, ny = cell_range(a.imag, b.imag)
    seg = np.repeat(np.arange(len(a)), nx * ny)
    k = np.arange(len(seg)) - np.repeat(np.cumsum(nx * ny) - nx * ny, nx * ny)
    cx, cy = x0[seg] + k % nx[seg], y0[seg] + k // nx[seg]
    order = np.lexsort((seg, cy, cx))
    cx, cy, seg = cx[order], cy[order], seg[order]
    # entries sorted by cell: pairs in one cell are `shift` apart for some shift
    for shift in range(1, len(seg)):
        same = (cx[shift:] == cx[:-shift]) & (cy[shift:] == cy[:-shift])
        if not same.any():
            break
        i, j = seg[:-shift][same], seg[shift:][same]
        keep = (j - i > 1) & ~(curve.closed & (i == 0) & (j == len(a) - 1))
        i, j = i[keep], j[keep]
        for lo in range(0, len(i), CHUNK_ELEMENTS):
            p, q = i[lo:lo + CHUNK_ELEMENTS], j[lo:lo + CHUNK_ELEMENTS]
            if _any_segments_intersect(a[p], b[p], a[q], b[q], tol):
                return False
    return True


def _any_segments_intersect(p1, p2, q1, q2, tol: float) -> bool:
    d1 = p2 - p1
    d2 = q2 - q1
    denom = (d1 * d2.conjugate()).imag
    # scale-relative: collinear resampled polylines give denominators at
    # rounding level, far above any absolute epsilon
    scale = np.maximum(np.abs(d1) * np.abs(d2), 1e-300)
    parallel = np.abs(denom) < 1e-12 * scale
    a, b = p1[parallel], p2[parallel]
    if np.any((_point_segment_distance(q1[parallel], a, b) <= tol)
              | (_point_segment_distance(q2[parallel], a, b) <= tol)):
        return True
    q = q1 - p1
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (q * d2.conjugate()).imag / denom
        u = (q * d1.conjugate()).imag / denom
    eps = tol / (np.abs(d1) + 1e-300)
    epu = tol / (np.abs(d2) + 1e-300)
    hit = ~parallel & (s >= -eps) & (s <= 1 + eps) & (u >= -epu) & (u <= 1 + epu)
    return bool(np.any(hit))


def signed_area(curve: ParamCurve) -> float:
    x, y = curve.z.real, curve.z.imag
    return 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


def iterate_map(mapobj, period: int) -> Integrand:
    """f^period as a vectorized evaluator; accepts a MapSpec or a callable."""
    if hasattr(mapobj, "evaluate_array"):
        return lambda z: mapobj.evaluate_array(z, period)
    fn = ensure_vectorized(mapobj)

    def run(z: np.ndarray) -> np.ndarray:
        w = np.asarray(z, dtype=complex)
        for _ in range(period):
            w = fn(w)
        return w
    return run


def argument_principle_count(mapobj, contour: ParamCurve, mode: str = "fixed_points",
                             period: int = 1, *, zero_tol: float = ZERO_TOL,
                             max_step: float = MAX_ARG_STEP,
                             budget: int = SAMPLE_BUDGET) -> int:
    """Exact count (with multiplicity) of zeros of f^p(z)-z or f^p(z) inside.

    The contour must be closed, simple and counterclockwise; the winding
    number of the integrand along the refined contour is the count.
    """
    if mode not in ("zeros", "fixed_points"):
        raise ValueError(f"unknown mode {mode!r}")
    if period < 1:
        raise ValueError("period must be >= 1")
    if not contour.closed:
        raise NotClosed("counting requires a closed contour")
    if not is_simple(contour):
        raise NotSimple("contour has self-intersections")
    if signed_area(contour) <= 0:
        raise NotCounterclockwise("contour must be counterclockwise")

    fp = iterate_map(mapobj, period)
    if mode == "fixed_points":
        integrand = lambda z: fp(z) - z
    else:
        integrand = fp
    try:
        refined = refine_for_argument(contour, integrand, max_step,
                                      zero_tol=zero_tol, budget=budget)
    except ZeroIntegrand as exc:
        raise ZeroOnContour(str(exc)) from exc
    w = ensure_vectorized(integrand)(refined.z)
    turns = _turn_sum(w) / (2.0 * np.pi)
    snapped = IndexValue.from_turns(turns)
    if snapped.integer_snap is None:
        raise ZeroOnContour(
            f"index {turns} did not snap to an integer; a root may sit on the contour")
    return snapped.integer_snap


def multiplicity_at(mapobj, z0: complex, radius: float, period: int = 1,
                    n_samples: int = 512) -> int:
    """Local multiplicity of f^p(z)-z at z0 via counts on two circles.

    The caller supplies a radius small enough to isolate z0; this is checked
    by comparing the counts at radius and radius/2.
    """
    z0 = complex(z0)
    fp = iterate_map(mapobj, period)
    res = complex(fp(np.array([z0]))[0]) - z0
    if abs(res) > 1e-8:
        raise ValueError(f"{z0} is not fixed under f^{period} (residual {abs(res):.2e})")
    counts = []
    for r in (radius, radius / 2.0):
        circle = ParamCurve.circle(z0, r, n=n_samples)
        counts.append(argument_principle_count(mapobj, circle, "fixed_points", period))
    if counts[0] != counts[1]:
        raise InconsistentRadius(counts[0], counts[1])
    return counts[0]
