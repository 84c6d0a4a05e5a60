"""Assembly of the ray graph, basic regions, counting contours and reports.

`period_points` is the one seed path from a setup to its periodic points: it
traces the period-p rays and seeds Newton with their landings, for
`separation_report` and `raysep fixedpoints` alike.  The graph of landed
rays and their landing points cuts the plane into basic regions.  Only ray
pairs (two rays with a common landing point) actually separate; membership
is decided by crossing parity of a test segment against each pair's curve,
so truncation of the rays at a finite box does not split regions.  Regions
are found from samples beside the pair curves; by Euler's formula there are
1 + sum(k_i - 1) of them when landing point i carries k_i rays.
`RegionGeometry.signature` and `min_distance` are array kernels over points
x the segments of all pair curves.  The graph's landing points, its pairs
and each ray's landing index come from one grouping of the landings
(`rays.landing_groups`).  The global counting contour encloses a full and
complete collection of fundamental domains and carries the expected
fixed-point count, which the argument principle must reproduce exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import (
    CHUNK_ELEMENTS,
    ParamCurve,
    argument_principle_count,
    concat,
    map_arrays,
    min_segment_distance,
    signed_area,
    winding_number,
)
from .errors import (
    ConnectorBlocked,
    EpsTooLarge,
    ExpansionNotValidated,
    NotFullComplete,
    ResolutionTooCoarse,
    SideCheckFailed,
)
from .fixedpoints import (
    ROOT_OF_UNITY_TOL,
    FixedPointRecord,
    find_periodic_points,
    petal_directions,
    probe_virtual_points,
)
from .maps import BranchLabel, MapSpec, in_range
from .rays import (Address, Ray, RayPair, fixed_rays, landing_groups, landing_point,
                   landings_at, pairs_from_groups, same_landing, trace_ray)
from .structure import (Rect, StructuralSetup, _expansion_radii, _require_resolution,
                        validate_expansion_radius)

PROBE_CLEARANCE = 1e-6
ARC_SAMPLES = 256           # samples of a modified boundary arc at a fixed point


# -- ray graph -----------------------------------------------------------------------


@dataclass
class RayGraph:
    rays: list[Ray]
    landing_points: list[complex]      # sorted by (real, imag)
    pairs: list[RayPair]
    landing_index: np.ndarray          # rays[i] lands at landing_points[landing_index[i]]


def build_ray_graph(rays: list[Ray]) -> RayGraph:
    """Group the landed rays by landing point once; pairs come from the groups."""
    points, group = landing_groups(rays)
    order = np.lexsort((points.imag, points.real))
    return RayGraph(list(rays), [complex(z) for z in points[order]],
                    pairs_from_groups(rays, group), np.argsort(order)[group])


# -- region geometry by crossing parity ------------------------------------------------


def pair_polyline(pair: RayPair, reach: float) -> np.ndarray:
    """The separating curve of a pair: ray, landing point, other ray.

    Both rays are extended horizontally beyond their largest-potential
    sample out to real part `reach` (rays of the supported family are
    asymptotically horizontal).
    """
    r1, r2 = pair.rays
    z0 = pair.common_landing

    def one_side(ray: Ray) -> np.ndarray:
        order = np.argsort(-ray.t)  # far to near
        z = ray.z[order]
        ext = complex(max(reach, z[0].real + 1.0), z[0].imag)
        return np.concatenate([[ext], z])

    a = one_side(r1)
    b = one_side(r2)[::-1]
    return np.concatenate([a, [z0], b])


class RegionGeometry:
    """Which side of each ray pair a point is on, and how far from all pairs.

    The segments of all pair polylines are concatenated once.  `signature`
    and `min_distance` are array kernels over points x segments: a scalar is
    a batch of size 1, and points go through in chunks of at most
    `CHUNK_ELEMENTS` point-segment elements, so the temporaries stay small.
    """

    def __init__(self, pairs: list[RayPair], bbox: Rect):
        self.bbox = bbox
        reach = bbox.x1 + 3.0 * bbox.diagonal
        self.polylines = [ParamCurve.from_points(pair_polyline(p, reach))
                          for p in pairs]
        self.pairs = pairs
        segments = [poly.segments() for poly in self.polylines]
        self._a = np.concatenate([a for a, _ in segments] or [np.empty(0, complex)])
        self._b = np.concatenate([b for _, b in segments] or [np.empty(0, complex)])
        # index of each polyline's first segment, for the per-polyline sums
        self._starts = np.cumsum([0] + [len(a) for a, _ in segments[:-1]])
        self._chunk = max(1, CHUNK_ELEMENTS // max(len(self._a), 1))  # points
        d = bbox.diagonal
        self._far = complex(bbox.x0 - 3.71 * d, bbox.y0 - 2.39 * d)

    def signature(self, z: complex | np.ndarray) -> tuple[int, ...] | np.ndarray:
        """Crossing parity of the segment [z, far] with each pair polyline.

        A point whose test segment grazes a polyline (a vertex or a
        near-parallel overlap) is retried with a jittered far point; after
        12 attempts the first unresolved point raises ResolutionTooCoarse.
        A scalar gives a tuple, an array an (n, len(pairs)) int array.
        """
        pts = np.ravel(np.asarray(z, dtype=complex))
        bits = np.zeros((len(pts), len(self.polylines)), dtype=int)
        pending = np.arange(len(pts)) if self.polylines else np.arange(0)
        for attempt in range(12):
            if not len(pending):
                break
            far = self._far * (1.0 + 0.0173 * attempt) - 1j * attempt * 0.31
            grazed = []
            for lo in range(0, len(pending), self._chunk):
                chunk = pending[lo:lo + self._chunk]
                counts, grazing = self._crossings(pts[chunk], far)
                bits[chunk[~grazing]] = counts[~grazing] & 1
                grazed.append(chunk[grazing])
            pending = np.concatenate(grazed)
        if len(pending):
            raise ResolutionTooCoarse(
                f"cannot resolve the region of {complex(pts[pending[0]])}")
        if np.ndim(z) == 0:
            return tuple(int(b) for b in bits[0])
        return bits

    def _crossings(self, p: np.ndarray, far: complex) -> tuple[np.ndarray, np.ndarray]:
        """Proper crossings of each [p_i, far] per polyline, and which p_i graze."""
        a, d2 = self._a, self._b - self._a
        d1 = (far - p)[:, None]
        denom = (d1 * d2.conjugate()).imag
        q = a - p[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (q * d2.conjugate()).imag / denom
            u = (q * d1.conjugate()).imag / denom
        scale = np.abs(d1) * np.abs(d2)
        parallel = np.abs(denom) < 1e-14 * np.maximum(scale, 1e-300)
        eps = 1e-9
        inside = (~parallel) & (s > eps) & (s < 1 - eps) & (u > eps) & (u < 1 - eps)
        grazing = (~parallel) & (
            ((np.abs(s) <= eps) | (np.abs(s - 1) <= eps)) & (u > -eps) & (u < 1 + eps)
            | ((np.abs(u) <= eps) | (np.abs(u - 1) <= eps)) & (s > -eps) & (s < 1 + eps)
        )
        return np.add.reduceat(inside, self._starts, axis=1), grazing.any(axis=1)

    def min_distance(self, z: complex | np.ndarray) -> float | np.ndarray:
        """Distance from each point to the nearest pair polyline (inf if none)."""
        out = min_segment_distance(z, self._a, self._b)
        return float(out[0]) if np.ndim(z) == 0 else out


# -- basic regions ----------------------------------------------------------------------


@dataclass
class BasicRegion:
    id: int
    signature: tuple[int, ...]
    boundary_rays: list[Ray]
    sample_interior_point: complex


def basic_regions(graph: RayGraph, bbox: Rect | tuple,
                  resolution: float = 0.5) -> tuple[list[BasicRegion], RegionGeometry]:
    """Basic regions meeting the box, found by the signatures of pair-curve samples.

    The samples sit 0.35 and 0.05 x `resolution` off both sides of the middle
    of every pair-curve segment, inside the box; with no pairs the one sample
    is the centre of the box.  Two points belong to the same region iff no
    pair separates them.  By Euler's formula on the sphere, a ray graph whose
    landing point i carries k_i rays cuts the plane into 1 + sum(k_i - 1)
    regions; finding any other number raises ResolutionTooCoarse.
    """
    _require_resolution(resolution)
    if not isinstance(bbox, Rect):
        bbox = Rect(*bbox)
    geometry = RegionGeometry(graph.pairs, bbox)
    centre = complex(0.5 * (bbox.x0 + bbox.x1), 0.5 * (bbox.y0 + bbox.y1))
    samples = _probe_points(geometry, resolution) if graph.pairs else np.array([centre])
    clearance = geometry.min_distance(samples)
    # a sample on a curve must not reach `signature`, which raises there
    clear = ~(clearance < max(PROBE_CLEARANCE, resolution * 1e-3))
    samples, clearance = samples[clear], clearance[clear]
    sigs, group = np.unique(geometry.signature(samples), axis=0, return_inverse=True)
    group = group.reshape(-1)
    # per signature, the first sample of largest clearance (lexsort is stable)
    order = np.lexsort((-clearance, group))
    first = order[np.unique(group[order], return_index=True)[1]]
    best = {tuple(int(b) for b in sig): complex(samples[i]) for sig, i in zip(sigs, first)}
    expected = 1 + int(np.sum(np.bincount(graph.landing_index) - 1))
    if len(best) != expected:
        raise ResolutionTooCoarse(
            f"{len(best)} region signatures found at resolution {resolution}; "
            f"the ray graph cuts the plane into 1 + sum(k_i - 1) = {expected}")
    regions = []
    for i, (sig, sample) in enumerate(best.items()):
        boundary = []
        for k, pair in enumerate(geometry.pairs):
            neighbor = tuple(b ^ 1 if idx == k else b for idx, b in enumerate(sig))
            if neighbor in best:
                boundary.extend(pair.rays)
        regions.append(BasicRegion(i, sig, boundary, sample))
    return regions, geometry


def _probe_points(geometry: RegionGeometry, resolution: float) -> np.ndarray:
    """The straddle samples of every pair polyline, in polyline order, inside the box."""
    bbox = geometry.bbox
    p = np.concatenate([_straddle(*poly.segments(), resolution)
                        for poly in geometry.polylines] or [np.empty(0, complex)])
    return p[(bbox.x0 <= p.real) & (p.real <= bbox.x1)
             & (bbox.y0 <= p.imag) & (p.imag <= bbox.y1)]


def _straddle(a: np.ndarray, b: np.ndarray, resolution: float) -> np.ndarray:
    """Points 0.35 and 0.05 x resolution off both sides of the middle of each
    segment [a, b] of nonzero length, ordered by (offset, segment, side)."""
    with np.errstate(invalid="ignore", divide="ignore"):
        normals = 1j * (b - a) / np.abs(b - a)
    shifts = np.array([[0.35, -0.35], [0.05, -0.05]]) * resolution
    p = 0.5 * (b + a)[:, None] + shifts[:, None, :] * normals[:, None]
    return p[np.isfinite(p)]


# -- counting contour -------------------------------------------------------------------


@dataclass
class CountingContour:
    spec: MapSpec
    pieces: list[tuple[str, ParamCurve]]
    closed_curve: ParamCurve
    expected_count: int
    domains: list[BranchLabel]
    radius: float


def check_full_complete(setup: StructuralSetup, labels: list[BranchLabel], rays) -> None:
    """Raise NotFullComplete with a witness when the collection fails.

    Full: band indices contiguous per tract.  Complete: contains every
    domain meeting the disk, and adjacent domains' fixed rays land alone at
    repelling points (checked on the traced evidence: the collection's and
    both adjacent bands' fixed rays).  `rays` are fixed rays already read
    by `landing_point`, as `fixed_rays` returns them; the bands they do not
    cover are traced by one walk.
    """
    js = sorted(lb.j for lb in labels)
    if not js:
        raise NotFullComplete("empty collection")
    if js != list(range(js[0], js[-1] + 1)):
        raise NotFullComplete(f"gap in bands {js}")
    for dom, meets in zip(setup.domains, setup.meets_disk(setup.domains)):
        if meets and dom.label.j not in js:
            raise NotFullComplete(f"domain {dom.label.j} meets the disk but is missing")
    # adjacent rays must land alone at repelling points
    bands = js + [js[0] - 1, js[-1] + 1]
    given = {r.address: r for r in rays}
    missing = [a for a in map(Address.constant, bands) if a not in given]
    try:
        traced = trace_ray(setup, missing)
    except ExpansionNotValidated as exc:
        raise NotFullComplete(f"cannot validate a band: {exc}") from exc
    given.update((a, landing_point(r)) for a, r in zip(missing, traced))
    landings = np.empty(len(bands), dtype=complex)
    for i, j in enumerate(bands):
        ray = given[Address.constant(j)]
        if ray.status.kind != "lands_at":
            raise NotFullComplete(f"fixed ray of band {j} did not land")
        landings[i] = ray.landing
    for i in (len(js), len(js) + 1):
        shared = same_landing(landings, landings[i])
        shared[i] = False
        if shared.any():
            raise NotFullComplete(f"adjacent band {bands[i]} ray lands with "
                                  f"band {bands[int(np.argmax(shared))]} ray")


def counting_contour(setup: StructuralSetup, domains, rays=()) -> CountingContour:
    """The closed contour around a full complete collection of domains.

    Pieces: the preimage arc of the circle of radius R (the setup's
    expansion radius) covering it N times, the two pullback arcs of the
    cut, and a connector threading outside the tract; the enclosed
    fixed-point count must be N + 1.  `rays`, fixed rays already traced,
    are passed to `check_full_complete`.
    """
    labels = sorted((d if isinstance(d, BranchLabel) else d.label for d in domains),
                    key=lambda l: l.j)
    R = setup.expansion_radius
    report = validate_expansion_radius(setup, labels, R)
    if not report.ok:
        raise ExpansionNotValidated(
            f"expansion radius {R} not valid for the collection "
            f"(margin {report.margin:.3g})")
    check_full_complete(setup, labels, rays)

    spec, cut = setup.spec, setup.branch_context.cut
    j_lo, j_hi = labels[0].j, labels[-1].j
    N = len(labels)
    r_disk = setup.disk.radius

    # cut pieces between the tract boundary and the circle preimage
    s_vals = np.geomspace(r_disk, R, 160)
    top = cut.lift(s_vals[::-1], j_hi)
    bottom = cut.lift(s_vals, j_lo - 1)

    # preimage arc of C_R covering it N times, bottom cut to top cut
    n_arc = 192 * N + 1
    u = np.linspace(cut.theta, cut.theta + 2.0 * math.pi * N, n_arc)
    v = (R * np.exp(1j * u) - spec.b) / spec.a
    base = float(cut.phi(abs(v[0])))
    args = np.unwrap(np.angle(v))
    args += (base - args[0])
    z_arc = np.log(np.abs(v)) + 1j * (args + 2.0 * math.pi * (j_lo - 1))
    z_arc[0] = bottom[-1]
    z_arc[-1] = top[0]
    r_piece = ParamCurve(np.linspace(0.0, 1.0, n_arc), z_arc)
    t_plus = ParamCurve(np.linspace(0.0, 1.0, len(top)), top)
    t_minus = ParamCurve(np.linspace(0.0, 1.0, len(bottom)), bottom)

    # connector outside the tract, crossing the cut ray once beyond radius R
    inner_top = complex(top[-1])
    inner_bottom = complex(bottom[0])
    h_top = inner_top.imag + min(1.0, math.pi / 3)
    h_bot = inner_bottom.imag - min(1.0, math.pi / 3)
    if not (h_bot < 0.0 < h_top):
        raise NotFullComplete(
            "collection does not straddle the cut direction; the connector "
            "cannot cross it exactly once")
    body = abs(spec.b)
    x_turn = min(inner_top.real, inner_bottom.real) - 1.0
    if r_disk > body:
        x_turn = min(x_turn, math.log((r_disk - body) / abs(spec.a)) - 1.0)
    x_left = -(1.3 * max(R, setup.bbox.corner_radius()) + 1.0)
    waypoints = [inner_top,
                 complex(x_turn, h_top),
                 complex(x_left, h_top),
                 complex(x_left, h_bot),
                 complex(x_turn, h_bot),
                 inner_bottom]
    gamma_pts = []
    for a, b in zip(waypoints[:-1], waypoints[1:]):
        seg = a + (b - a) * np.linspace(0.0, 1.0, 48, endpoint=False)
        gamma_pts.append(seg)
    gamma_pts = np.concatenate(gamma_pts + [np.array([inner_bottom])])
    gamma = ParamCurve(np.arange(len(gamma_pts), dtype=float), gamma_pts)

    closed = concat(concat(concat(r_piece, t_plus), gamma), t_minus, close=True)
    if signed_area(closed) <= 0:
        raise ConnectorBlocked("assembled contour is not counterclockwise")

    # the image of the preimage arc must cover the circle N times
    image_turns = winding_number(
        ParamCurve(r_piece.t, spec.evaluate_array(r_piece.z)), 0.0).value
    if abs(image_turns - N) > 1e-6:
        raise NotFullComplete(
            f"preimage arc covers the circle {image_turns:.6f} times, not {N}")

    pieces = [(f"r_alpha(N={N})", r_piece),
              ("Gamma_alpha:delta_plus", t_plus),
              ("Gamma_alpha:gamma", gamma),
              ("Gamma_alpha:delta_minus", t_minus)]
    return CountingContour(spec, pieces, closed, N + 1, labels, R)


def global_count_check(contour: CountingContour) -> tuple[int, int, bool]:
    """(expected, measured, match) for the counting contour."""
    measured = argument_principle_count(contour.spec, contour.closed_curve,
                                        "fixed_points", 1)
    return contour.expected_count, measured, measured == contour.expected_count


# -- boundary modification near fixed points ----------------------------------------------


@dataclass
class ModifiedRegion:
    kind: str                   # "repelling" | "parabolic"
    zeta: ParamCurve
    f_zeta: ParamCurve
    margin: float
    base: object
    center: complex
    eps: float
    sector: tuple[complex, float] | None = None   # (direction, half-angle)

    def contains(self, z: complex) -> bool:
        if self.kind == "repelling":
            return self.base.contains(z) or abs(z - self.center) < self.eps
        if abs(z - self.center) < self.eps and self.sector is not None:
            d, half = self.sector
            if abs(_angle_between(z - self.center, d)) < half:
                return False
        return self.base.contains(z)


def _angle_between(v: complex, d: complex) -> float:
    return math.atan2((d.conjugate() * v).imag, (d.conjugate() * v).real)


def _first_crossing(ray: ParamCurve, center: complex, eps: float) -> complex:
    """First entry of the ray into the eps-disk, coming from the far end."""
    z = ray.z
    gaps = np.abs(z - center)
    zs = z[::-1] if gaps[0] < gaps[-1] else z
    gaps = np.abs(zs - center)
    inside = np.nonzero(gaps <= eps)[0]
    if not len(inside) or inside[0] == 0:
        raise ValueError("ray does not cross the eps-circle from outside")
    i = inside[0]
    a, b = zs[i - 1], zs[i]
    ga, gb = gaps[i - 1], gaps[i]
    s = (ga - eps) / (ga - gb)
    return complex(a + s * (b - a))


def modify_boundary_near_fixed_point(mapobj, region, record: FixedPointRecord,
                                     eps: float, *, other_fixed_points=()) -> ModifiedRegion:
    """Replace the boundary arc at a fixed point per the local dynamics.

    Repelling: the region is enlarged by the eps-disk and the new arc maps
    strictly outside the enlarged region.  Parabolic: a repelling-petal
    sector is removed and the new arc maps into the closure of the shrunk
    region.  The containment is verified numerically sample by sample.
    """
    z0 = complex(record.location)
    for other in other_fixed_points:
        if abs(complex(other) - z0) <= 2.0 * eps and abs(complex(other) - z0) > 1e-12:
            raise EpsTooLarge(
                f"fixed point {other} inside the modification zone of {z0}")
    fn = map_arrays(mapobj, record.period)
    crossings = [_first_crossing(ray, z0, eps) for ray in region.boundary_rays]
    if len(crossings) != 2:
        raise ValueError("exactly two boundary rays are required")
    ang = sorted(math.atan2((c - z0).imag, (c - z0).real) for c in crossings)

    if record.classification == "repelling":
        # candidate arcs between the crossing angles; take the one outside V
        for lo, hi in ((ang[0], ang[1]), (ang[1], ang[0] + 2.0 * math.pi)):
            theta = np.linspace(lo, hi, ARC_SAMPLES + 2)[1:-1]
            pts = z0 + eps * np.exp(1j * theta)
            mid = pts[len(pts) // 2]
            if not region.contains(complex(mid)):
                break
        zeta = ParamCurve(np.linspace(0.0, 1.0, len(pts)), pts)
        modified = ModifiedRegion("repelling", zeta, None, 0.0, region, z0, eps)
        image = fn(zeta.z)[0]
        margin = _side_margin(image, modified, want_inside=False)
        modified.f_zeta = ParamCurve(zeta.t, image)
        modified.margin = margin
        if margin <= 0:
            raise SideCheckFailed(margin)
        return modified

    if record.classification != "parabolic":
        raise ValueError("modification handles repelling or parabolic points")
    fan = petal_directions(mapobj, z0, record.period)
    half = math.pi / (2.0 * fan.m)
    # repelling direction closest to the incoming rays
    def score(d):
        return max(abs(_angle_between(c - z0, d)) for c in crossings)
    direction = min(fan.repelling_dirs, key=score)
    theta_d = math.atan2(direction.imag, direction.real)
    theta = np.linspace(theta_d - half, theta_d + half, ARC_SAMPLES)
    arc = z0 + eps * np.exp(1j * theta)
    edge_lo = z0 + eps * np.exp(1j * (theta_d - half)) * \
        np.linspace(1.0 / 64, 1.0, ARC_SAMPLES // 4, endpoint=False)
    edge_hi = z0 + eps * np.exp(1j * (theta_d + half)) * \
        np.linspace(1.0 / 64, 1.0, ARC_SAMPLES // 4, endpoint=False)
    boundary_pts = np.concatenate([edge_lo[::-1], arc, edge_hi])
    keep = np.array([region.contains(complex(p)) and abs(p - z0) > 1e-12
                     for p in boundary_pts])
    pts = boundary_pts[keep]
    if len(pts) < 4:
        raise SideCheckFailed(0.0)
    # deterministic path order around the sector corner
    angles = np.angle(pts - z0)
    radii = np.abs(pts - z0)
    order = np.lexsort((radii, angles))
    pts = pts[order]
    zeta = ParamCurve(np.arange(len(pts), dtype=float), pts)
    modified = ModifiedRegion("parabolic", zeta, None, 0.0, region, z0, eps,
                              sector=(direction, half))
    image = fn(zeta.z)[0]
    margin = _side_margin(image, modified, want_inside=True)
    modified.f_zeta = ParamCurve(zeta.t, image)
    modified.margin = margin
    if margin <= 0:
        raise SideCheckFailed(margin)
    return modified


def _side_margin(image: np.ndarray, region: ModifiedRegion,
                 want_inside: bool) -> float:
    """Largest perturbation under which all image samples keep their side."""
    offsets = np.array([1.0, -1.0, 1j, -1j])
    for h in (1e-2, 1e-3, 1e-4, 1e-6, 1e-9):
        ok = True
        for w in image:
            w = complex(w)
            states = [region.contains(w + complex(o) * h) for o in offsets]
            states.append(region.contains(w))
            if want_inside and not all(states):
                ok = False
                break
            if not want_inside and any(states):
                ok = False
                break
        if ok:
            return h
    # sign of failure: check the unperturbed samples
    bad = sum(1 for w in image
              if region.contains(complex(w)) != want_inside)
    return -float(bad) if bad else 0.0


# -- separation report ------------------------------------------------------------------------


@dataclass
class RegionVerdict:
    region_id: int
    verdict: str    # exactly_one_{interior,virtual} | VIOLATION(...) | INCOMPLETE(...)
    interior: list[complex]
    virtual: list[complex]
    boundary_landings: list[complex]


@dataclass
class SeparationReport:
    period: int
    regions: list[BasicRegion]
    verdicts: list[RegionVerdict]
    global_counts: tuple[int, int, bool] | None     # (expected N + 1, measured, match)
    incomplete: list[str]
    records: list[FixedPointRecord]
    graph: RayGraph

    @property
    def has_violation(self) -> bool:
        """A region verdict is VIOLATION(...) or the global count mismatches."""
        mismatch = self.global_counts is not None and not self.global_counts[2]
        return mismatch or any(v.verdict.startswith("VIOLATION") for v in self.verdicts)

    @property
    def is_incomplete(self) -> bool:
        return bool(self.incomplete)


def period_points(setup: StructuralSetup, period: int, depth: int):
    """The period-p rays over the setup's domains and the period-p points in its box.

    Newton is seeded with the landings of the landed rays, among them each
    domain's inverse-branch limit, so it starts at every point a ray lands
    at; `find_periodic_points` adds the singular value's orbit, and runs its
    seed grids only when these fall short of the argument-principle count or
    there is none.  Returns the rays, the landed rays, their landings (each
    read once) and the records of `find_periodic_points`.
    """
    rays = fixed_rays(setup, setup.domains, period, depth=depth)
    landed = [r for r in rays if r.status.kind == "lands_at"]
    landings = np.array([r.landing for r in landed], dtype=complex)
    records = find_periodic_points(setup.spec, setup.bbox, period, extra_seeds=landings)
    return rays, landed, landings, records


def separation_report(spec: MapSpec, setup: StructuralSetup, period: int = 1,
                      resolution: float = 0.5,
                      ray_depth: int = 80) -> SeparationReport:
    """Verify that each basic region holds exactly one interior or virtual point.

    Traces all period-p rays over the domains of the setup, builds the ray
    graph and basic regions in the setup's box, classifies every period-p
    point in the box as boundary (a landing point), interior, or parabolic
    with virtual basins, and emits one verdict per region.  While a virtual
    point could not be placed, an empty region reads INCOMPLETE, not
    VIOLATION.  So does every region without exactly one point while one of
    the period's rays did not land: the graph then lacks its edges, and
    regions it would separate merge.  `spec` must be the setup's map.
    """
    if spec != setup.spec:
        raise ValueError(f"map {spec} is not the setup's map {setup.spec}")
    _require_resolution(resolution)
    rays, landed, landings, records = period_points(setup, period, ray_depth)
    lost = len(landed) < len(rays)
    incomplete = [f"ray {r.address} {r.status.kind}" for r in rays
                  if r.status.kind != "lands_at"]

    # rays landing at found points via addresses inferred from orbit bands
    landed, landings = _augment_with_inferred_rays(setup, period, records, landed, landings,
                                                   incomplete)
    graph = build_ray_graph(landed)
    regions, geometry = basic_regions(graph, setup.bbox, resolution)

    verdicts = [RegionVerdict(reg.id, "", [], [], []) for reg in regions]
    verdict_by_sig = {r.signature: v for r, v in zip(regions, verdicts)}
    # points to place in regions, in record order:
    # (point placed, the interior or parabolic point, whether it is virtual)
    members: list[tuple[complex, complex, bool]] = []
    unplaced = False
    # a record is a boundary point iff some ray lands at it
    at_landing = landings_at(landings, [rec.location for rec in records])
    for rec, incident in zip(records, at_landing):
        z = rec.location
        if len(incident):
            rec.incident_ray_addresses = [graph.rays[i].address for i in incident]
        if rec.classification == "parabolic" and abs(rec.multiplier - 1.0) < ROOT_OF_UNITY_TOL:
            # each confirmed attracting basin is one virtual point, assigned
            # to the region its probe orbit sits in
            fan = petal_directions(spec, z, period)
            for direction in probe_virtual_points(spec, fan, period):
                probe = _virtual_probe(geometry, z, direction)
                if probe is None:
                    incomplete.append(f"virtual point of parabolic {z}: every probe "
                                      f"lies within {PROBE_CLEARANCE} of a pair curve")
                    unplaced = True
                    continue
                members.append((probe, z, True))
        elif not len(incident):
            members.append((z, z, False))

    sigs = geometry.signature(np.array([m[0] for m in members], dtype=complex))
    for (probe, z, virtual), sig in zip(members, sigs):
        sig = tuple(int(b) for b in sig)
        if sig not in verdict_by_sig:
            raise ResolutionTooCoarse(f"{probe} lies in no region the samples found")
        v = verdict_by_sig[sig]
        (v.virtual if virtual else v.interior).append(z)

    # boundary landings: a landing of one ray lies in the region of its own
    # signature; one of k >= 2 rays bounds the regions of the straddle
    # samples of the pair-curve segments that meet at it
    lone = np.flatnonzero(np.bincount(graph.landing_index) == 1)
    points, owners = [np.array(graph.landing_points, dtype=complex)[lone]], [lone]
    landing_of = {id(r): i for r, i in zip(graph.rays, graph.landing_index)}
    for pair, poly in zip(graph.pairs, geometry.polylines):
        a, b = poly.segments()
        meet = (a == pair.common_landing) | (b == pair.common_landing)
        points.append(_straddle(a[meet], b[meet], resolution))
        owners.append(np.full(len(points[-1]), landing_of[id(pair.rays[0])]))
    points, owners = np.concatenate(points), np.concatenate(owners)
    clear = geometry.min_distance(points) > 0
    sigs = map(tuple, geometry.signature(points[clear]).tolist())
    hits = {(int(i), verdict_by_sig[sig].region_id)
            for i, sig in zip(owners[clear], sigs) if sig in verdict_by_sig}
    for i, k in sorted(hits):
        verdicts[k].boundary_landings.append(graph.landing_points[i])

    for v in verdicts:
        n_int = len(v.interior)
        n_vir = len(v.virtual)
        if n_int == 1 and n_vir == 0:
            v.verdict = "exactly_one_interior"
        elif n_int == 0 and n_vir == 1:
            v.verdict = "exactly_one_virtual"
        elif lost or (n_int == 0 and n_vir == 0 and unplaced):
            v.verdict = f"INCOMPLETE(interior={n_int}, virtual={n_vir})"
        else:
            v.verdict = f"VIOLATION(interior={n_int}, virtual={n_vir})"

    global_counts = None
    if period == 1:
        try:
            contour = counting_contour(setup, setup.domain_labels(), rays=rays)
            global_counts = global_count_check(contour)
        except (NotFullComplete, ExpansionNotValidated, ConnectorBlocked) as exc:
            incomplete.append(f"global count: {type(exc).__name__}: {exc}")
    return SeparationReport(period, regions, verdicts, global_counts,
                            incomplete, records, graph)


def _virtual_probe(geometry: RegionGeometry, z: complex, direction: complex) -> complex | None:
    """The first probe off z along `direction` that clears every pair curve.

    Probes start 0.1 from z and shrink by 0.7 twenty times; None when all 21
    lie within PROBE_CLEARANCE of a pair curve.
    """
    probes = [z + 0.1 * direction]
    for _ in range(20):
        probes.append(z + abs(probes[-1] - z) * 0.7 * direction)
    clear = ~(geometry.min_distance(np.array(probes, dtype=complex)) < PROBE_CLEARANCE)
    return probes[int(np.argmax(clear))] if clear.any() else None


def _augment_with_inferred_rays(setup: StructuralSetup, period: int, records, landed,
                                landings, incomplete):
    """Trace rays for repelling points not matched by any landed ray.

    Candidate addresses come from the band indices of the orbit, which is
    how landing points relate to itineraries.  Each orbit level of all
    candidates is one `derivative_array` step, an orbit that leaves
    `maps.in_range` (where `MapSpec.evaluate` raises Overflow) is dropped,
    and one `band_index` call reads every band.  One doubling search
    (`structure._expansion_radii`) settles all candidates' radii, and every
    validated candidate is traced by one `trace_ray` call.  The records are
    then taken in order: a record matched by a ray inferred for an earlier
    record, or whose address was already tried, is skipped, an unvalidated
    address is an `incomplete` entry, and a ray that lands at its record
    joins the landed rays.  Failures are recorded, not fatal.  Returns
    `landed` and its `landings`, each with the inferred rays appended.
    """
    known = landings_at(landings, [rec.location for rec in records])
    unmatched = [rec for rec, hits in zip(records, known)
                 if rec.classification == "repelling" and not len(hits)]
    orbits = [np.array([rec.location for rec in unmatched], dtype=complex)]
    kept = np.ones(len(unmatched), dtype=bool)
    for _ in range(period - 1):
        w, dw = setup.spec.derivative_array(orbits[-1], 1)
        kept &= in_range(w, dw)
        orbits.append(w)
    bands = setup.band_index(np.stack(orbits, axis=1)[kept]).tolist()
    candidates = [(rec, Address.cycle(b))      # (record, address), in record order
                  for rec, b in zip([r for r, ok in zip(unmatched, kept) if ok], bands)]
    addresses = list(dict.fromkeys(a for _rec, a in candidates))
    radii = _expansion_radii(setup, [a.period for a in addresses])
    validated = [a for a, R in zip(addresses, radii) if R is not None]
    traced = dict(zip(validated, trace_ray(setup, validated))) if validated else {}

    inferred, tried = [], set()
    found = np.empty(len(candidates), dtype=complex)    # the inferred rays' landings
    for rec, address in candidates:
        if address in tried or same_landing(found[:len(inferred)], rec.location).any():
            continue
        tried.add(address)
        if address not in traced:
            incomplete.append(f"inferred ray {address} not validated")
            continue
        ray = landing_point(traced[address])
        if ray.status.kind == "lands_at" and same_landing(ray.landing, rec.location):
            found[len(inferred)] = ray.landing
            inferred.append(ray)
    return list(landed) + inferred, np.concatenate([landings, found[:len(inferred)]])
