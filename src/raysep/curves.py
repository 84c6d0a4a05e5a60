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
    def from_points(cls, points: Sequence[complex]) -> "ParamCurve":
        """The open polyline through the points, parametrized by their index."""
        pts = _as_complex_array(points)
        return cls(np.arange(len(pts), dtype=float), pts)

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
    A point that is not finite is within `tol` of nothing, so it is kept.

    |z - w| < tol needs |Re z - Re w| < tol and |Im z - Im w| < tol, so a
    point meets only the points of its window, those whose real parts lie
    within 2 `tol` of its own (the margin covers rounding), found in the
    finite points sorted by real part.  A point with no other point in its
    window, or none with imaginary part within 2 `tol` (found the same way
    in the points sorted by imaginary part), is kept.  The others are taken
    in order, and each one not yet absorbed is kept and absorbs the points
    of its window within `tol` of it.  The cost grows with the number of
    groups among those points times their window sizes, not with the
    number of points squared.
    """
    pts = np.ravel(np.asarray(points, dtype=complex))
    owner = np.arange(len(pts))     # the kept point each point is grouped with
    finite = np.flatnonzero(np.isfinite(pts))
    order = finite[np.argsort(pts.real[finite], kind="stable")]
    lo, hi = _windows(pts.real[order], tol)
    crowded = np.zeros(len(pts), dtype=bool)
    crowded[order[hi - lo > 1]] = True
    by_imag = finite[np.argsort(pts.imag[finite], kind="stable")]
    lo_imag, hi_imag = _windows(pts.imag[by_imag], tol)
    crowded[by_imag[hi_imag - lo_imag == 1]] = False
    at = np.empty(len(pts), dtype=int)
    at[order] = np.arange(len(order))
    for i in np.flatnonzero(crowded).tolist():
        if not crowded[i]:          # absorbed by an earlier point
            continue
        window = order[lo[at[i]]:hi[at[i]]]
        window = window[crowded[window]]
        near = window[np.abs(pts[window] - pts[i]) < tol]
        owner[near] = i
        crowded[near] = False
        crowded[i] = False
    kept = np.flatnonzero(owner == np.arange(len(pts)))
    return pts[kept], np.searchsorted(kept, owner)


def _windows(x: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Per entry of the sorted `x`, the slice of the entries within 2 tol of it."""
    return (np.searchsorted(x, x - 2.0 * tol, side="left"),
            np.searchsorted(x, x + 2.0 * tol, side="right"))


def dedup_points(points, tol: float) -> list[complex]:
    """The kept points of `group_points`, in order."""
    return [complex(z) for z in group_points(points, tol)[0]]


def turn_angles(w0: np.ndarray, w1: np.ndarray) -> np.ndarray:
    """Argument change along each straight segment from w0 to w1 past 0, in radians."""
    return np.angle(w1 / w0)


def _turn_sum(w: np.ndarray) -> float:
    """Continuous argument change along the polyline of values w, in radians."""
    return float(np.sum(turn_angles(w[:-1], w[1:])))


def winding_number(curve: ParamCurve, p: complex) -> IndexValue:
    """Continuous argument change of z - p along the curve, in turns.

    Exact for polylines: each straight segment avoiding p contributes the
    principal angle between its endpoint vectors.
    """
    p = complex(p)
    if not (np.isfinite(p.real) and np.isfinite(p.imag)):
        raise NonFiniteInput("reference point is not finite")
    if curve.distance_to_point(p) <= COLLISION_TOL:
        raise CurveHitsPoint(f"point {p} lies on the curve")
    return IndexValue.from_turns(_turn_sum(curve.z - p) / (2.0 * np.pi))


def subtraction_index(gamma: ParamCurve, sigma: ParamCurve) -> IndexValue:
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
    if dist[k] <= COLLISION_TOL:
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


def refine_for_argument(curve: ParamCurve, integrand: Callable) -> ParamCurve:
    """Insert samples until consecutive integrand arguments differ by < MAX_ARG_STEP.

    Original samples are preserved; inserted samples are parameter midpoints,
    hence lie on the polyline.
    """
    fn = ensure_vectorized(integrand)
    t = curve.t.astype(float)
    z = curve.z.copy()
    w = fn(z)
    for _ in range(64):
        if not np.all(np.isfinite(w.real) & np.isfinite(w.imag)):
            raise NonFiniteInput("integrand overflowed on the curve")
        if np.any(np.abs(w) <= ZERO_TOL):
            raise ZeroIntegrand("integrand vanished at a curve sample")
        steps = np.abs(np.angle(w[1:] / w[:-1]))
        bad = steps >= MAX_ARG_STEP
        if not np.any(bad):
            return ParamCurve(t, z, curve.closed)
        if len(t) + int(np.sum(bad)) > SAMPLE_BUDGET:
            raise RefinementBudgetExceeded(
                f"needs more than {SAMPLE_BUDGET} samples")
        idx = np.nonzero(bad)[0]
        t_new = 0.5 * (t[idx] + t[idx + 1])
        z_new = 0.5 * (z[idx] + z[idx + 1])
        w_new = fn(z_new)
        pos = idx + 1
        t = np.insert(t, pos, t_new)
        z = np.insert(z, pos, z_new)
        w = np.insert(w, pos, w_new)
    raise RefinementBudgetExceeded("refinement failed to settle in 64 passes")


def is_simple(curve: ParamCurve) -> bool:
    """True when no two non-adjacent segments of the polyline intersect.

    Broad phase: square cells of the median segment length (at least 1/16
    of the longest and at least COLLISION_TOL); each segment's box, widened
    by COLLISION_TOL, covers at most 19 x 19 of them.  The grid starts half
    a cell below each axis's least vertex, so a side of an axis-aligned box
    lies mid-cell, not on a cell edge.  Intersecting segments share a cell
    whatever the origin, so only same-cell pairs go to the exact test,
    CHUNK_ELEMENTS at a time.
    """
    a, b = curve.segments()
    lengths = np.sort(np.abs(b - a))    # np.median would import numpy.ma, 1 MB
    cell = max(float(lengths[len(lengths) // 2]), float(lengths[-1]) / 16.0, COLLISION_TOL) or 1.0

    def cell_range(u, v):   # first cell and number of cells per segment
        lo, hi = (np.floor((w - np.min(u)) / cell + 0.5).astype(np.int64)
                  for w in (np.minimum(u, v) - COLLISION_TOL,
                            np.maximum(u, v) + COLLISION_TOL))
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
            if _any_segments_intersect(a[p], b[p], a[q], b[q], COLLISION_TOL):
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


def map_arrays(mapobj, period: int):
    """(f^period, (f^period)') as a vectorized evaluator.

    A MapSpec (anything with `derivative_array`) gives its chain rule; a
    plain callable is iterated, its derivative by central differences.
    """
    if hasattr(mapobj, "derivative_array"):
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


def argument_principle_count(mapobj, contour: ParamCurve, mode: str = "fixed_points",
                             period: int = 1) -> int:
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
    return _winding_count(mapobj, contour, mode, period)


def _winding_count(mapobj, contour: ParamCurve, mode: str, period: int) -> int:
    """`argument_principle_count` on a contour known to be closed, simple and
    counterclockwise: the winding number of the integrand along the refined
    contour, snapped to an integer."""
    fp = map_arrays(mapobj, period)
    if mode == "fixed_points":
        integrand = lambda z: fp(z)[0] - z
    else:
        integrand = lambda z: fp(z)[0]
    try:
        refined = refine_for_argument(contour, integrand)
    except ZeroIntegrand as exc:
        raise ZeroOnContour(str(exc)) from exc
    w = ensure_vectorized(integrand)(refined.z)
    turns = _turn_sum(w) / (2.0 * np.pi)
    snapped = IndexValue.from_turns(turns)
    if snapped.integer_snap is None:
        raise ZeroOnContour(
            f"index {turns} did not snap to an integer; a root may sit on the contour")
    return snapped.integer_snap


def multiplicity_at(mapobj, z0: complex, radius: float, period: int = 1) -> int:
    """Local multiplicity of f^p(z)-z at z0 via counts on two circles.

    The caller supplies a radius small enough to isolate z0; this is checked
    by comparing the counts at radius and radius/2.  The circles are closed,
    simple and counterclockwise by construction, so neither is checked.
    """
    z0 = complex(z0)
    fp = map_arrays(mapobj, period)
    res = complex(fp(np.array([z0]))[0][0]) - z0
    if abs(res) > 1e-8:
        raise ValueError(f"{z0} is not fixed under f^{period} (residual {abs(res):.2e})")
    counts = []
    for r in (radius, radius / 2.0):
        circle = ParamCurve.circle(z0, r, n=512)
        counts.append(_winding_count(mapobj, circle, "fixed_points", period))
    if counts[0] != counts[1]:
        raise InconsistentRadius(counts[0], counts[1])
    return counts[0]
