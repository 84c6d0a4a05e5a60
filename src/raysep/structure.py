"""Disk, cut curve, tracts and fundamental domains for a supported map.

The construction: pick a round disk D about 0 containing the singular values,
0 and f(0); the preimage of the complement of D is the tract set; a radial
cut curve delta from D to infinity, pulled back through the inverse branches,
slices each tract into fundamental domains labeled by log-bands.  For the
map a e^z + b the tract boundaries (logs of the circle |e^z + b/a| = r/|a|),
the fundamental-domain cuts and the bound on each branch's image of the
circle |w| = R that decides the expansion radius are all closed forms.  The
cuts are the lifts log(|s - c|/|a|) + i(phi_inf + arg(s - c) + 2 pi m) of
delta = s e^(i theta), with c = b e^(-i theta) (`maps.CutGeometry`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import ParamCurve, min_segment_distance
from .errors import DeltaBlocked, ExpansionNotValidated, Overflow
from .maps import BranchContext, BranchLabel, CutGeometry, MapSpec

DISK_SCALE = 1.25
EXPANSION_CAP = 1e6
DELTA_ANGLES = 360
# choose_delta's scan order, nearest pi first, and _box_exit_radius's cos, sin
_DELTA_THETAS = np.array(sorted(
    (math.pi + o for o in np.arange(DELTA_ANGLES) * (2.0 * np.pi / DELTA_ANGLES)),
    key=lambda th: abs(math.remainder(th - math.pi, 2.0 * math.pi))))
_DELTA_COS = np.array([math.cos(th) for th in _DELTA_THETAS])
_DELTA_SIN = np.array([math.sin(th) for th in _DELTA_THETAS])


@dataclass(frozen=True)
class Rect:
    """Axis-aligned box x0 <= Re z <= x1, y0 <= Im z <= y1."""

    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        for name, edge in zip(("x0", "x1", "y0", "y1"), self.as_tuple()):
            if not math.isfinite(edge):
                raise ValueError(f"box edge {name} = {edge} is not finite")
        if not self.x0 < self.x1:
            raise ValueError(f"box edge x0 = {self.x0} must be below x1 = {self.x1}")
        if not self.y0 < self.y1:
            raise ValueError(f"box edge y0 = {self.y0} must be below y1 = {self.y1}")

    @property
    def diagonal(self) -> float:
        return math.hypot(self.x1 - self.x0, self.y1 - self.y0)

    def contains(self, z: complex) -> bool:
        return self.x0 <= z.real <= self.x1 and self.y0 <= z.imag <= self.y1

    def corner_radius(self) -> float:
        return max(abs(complex(x, y))
                   for x in (self.x0, self.x1) for y in (self.y0, self.y1))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x0, self.x1, self.y0, self.y1)


@dataclass(frozen=True)
class DomainDisk:
    radius: float


@dataclass
class Tract:
    alpha: int
    boundary: ParamCurve
    anchor: complex


@dataclass
class FundamentalDomain:
    label: BranchLabel
    side_curves: tuple[ParamCurve, ParamCurve]
    anchor: complex


@dataclass
class StructuralSetup:
    """Disk, cut, tracts and fundamental domains of one map in one box."""

    spec: MapSpec
    disk: DomainDisk
    delta: ParamCurve
    tracts: list[Tract]
    domains: list[FundamentalDomain]
    expansion_radius: float
    bbox: Rect
    resolution: float
    branch_context: BranchContext

    def domain_labels(self) -> list[BranchLabel]:
        return [d.label for d in self.domains]

    def domain_by_band(self, j: int) -> FundamentalDomain:
        for d in self.domains:
            if d.label.j == j:
                return d
        raise KeyError(f"no fundamental domain with band {j} in the setup")

    def band_index(self, z) -> np.ndarray:
        """Band j of the fundamental domain whose closure contains each z.

        Uses that exp(z) equals (f(z) - b)/a, so Im z is a continuous
        argument of that quantity of modulus e^(Re z).  Returns an int
        array, 0-d for a scalar `z`, as `maps.branch_log` does.
        """
        z = np.asarray(z, dtype=complex)
        phi = self.branch_context.cut.phi(np.exp(np.minimum(z.real, 700.0)))
        return np.ceil((z.imag - phi) / (2.0 * np.pi) - 1e-12).astype(int)

    def meets_disk(self, domains) -> np.ndarray:
        """Whether the closure of each fundamental domain meets the disk, as a bool array.

        Its least |z| is attained on its boundary: the two side cuts plus
        the piece of tract boundary between them (0 is never inside a tract
        since f(0) lies in the disk), whose disk-circle piece is sampled 512
        times.  All domains' pieces go through one `pull_back`, one band per
        lane.  The slack 1e-9 counts a domain that touches the disk.
        """
        u = self.branch_context.cut.theta + np.linspace(1e-6, 2.0 * math.pi - 1e-6, 512)
        bands = np.repeat(np.array([d.label.j for d in domains], dtype=int), len(u))
        z = self.branch_context.pull_back(
            np.tile(self.disk.radius * np.exp(1j * u), len(domains)), bands)
        arcs = np.abs(z).reshape(len(domains), len(u)).min(axis=1)
        sides = [min(float(np.min(np.abs(side.z))) for side in d.side_curves)
                 for d in domains]
        return np.minimum(sides, arcs) <= self.disk.radius + 1e-9


# -- tract extraction ---------------------------------------------------------


def extract_tracts(spec: MapSpec, bbox: Rect, resolution: float,
                   radius: float) -> list[Tract]:
    """Connected components of {|f| > radius} in the box, in closed form.

    For f = a e^z + b put c = b/a, R = radius/|a| and q(y) = c e^(-iy).  The
    level set |f| = radius is the log of the circle |u + c| = R.  Premise:
    radius > |b|, so the circle encloses 0 and each height y meets it once,
    at Re z = x(y) = log(sqrt(R^2 - Im q^2) - Re q); the tract set is
    {Re z > x(Im z)}.  Heights are sampled about `resolution` apart.  Each
    maximal run of heights with x(y) < x1 is one tract reaching the right
    edge of the box: its boundary is x(y) + iy over the run, alpha counts
    the runs from the bottom, and the anchor is x1 + iy where x(y) is least.
    """
    c = spec.b / spec.a
    R = radius / abs(spec.a)
    ny = max(int(round((bbox.y1 - bbox.y0) / resolution)) + 1, 8)
    ys = np.linspace(bbox.y0, bbox.y1, ny)
    q = c * np.exp(-1j * ys)
    xs = np.log(np.sqrt(R * R - q.imag ** 2) - q.real)
    flips = np.flatnonzero(np.diff(np.concatenate(([0], xs < bbox.x1, [0]))))
    tracts = []
    for alpha, (lo, hi) in enumerate(zip(flips[::2], flips[1::2])):
        pts = xs[lo:hi] + 1j * ys[lo:hi]
        if len(pts) == 1:  # a run of one height: a degenerate one-point curve
            pts = np.repeat(pts, 2)
        k = lo + int(np.argmin(xs[lo:hi]))
        tracts.append(Tract(alpha=alpha, boundary=ParamCurve.from_points(pts),
                            anchor=complex(bbox.x1, ys[k])))
    return tracts


# -- delta selection ------------------------------------------------------------


def choose_delta(spec: MapSpec, bbox: Rect, resolution: float, radius: float,
                 tracts: list[Tract]) -> ParamCurve:
    """Radial cut from the disk boundary to the box edge, clearance-maximized.

    Of DELTA_ANGLES rays, scanned by distance from pi so that ties prefer
    the negative real direction, the first of largest clearance wins: 0 if
    the ray meets the tract set, else the least distance from its probes to
    the tract boundaries.  A ray's first sample radius e^(i theta) is one
    of its probes, so its distance to the boundaries bounds the clearance,
    and only a ray whose bound beats the best clearance C so far is
    sampled, tested against the tract set and probed.  At each rise of C
    the later rays' bounds are re-measured to the segments within C of
    their first samples, and a probe to those within its first sample's
    distance: the skips and clearances of a scan over all segments.
    """
    exits = np.minimum(*(np.where(abs(u) > 1e-15, np.where(u > 0, hi, lo) / u, np.inf)
                         for u, lo, hi in ((_DELTA_COS, bbox.x0, bbox.x1),
                                           (_DELTA_SIN, bbox.y0, bbox.y1))))
    thetas = _DELTA_THETAS[exits > radius * 1.05]
    first = radius * np.exp(1j * (thetas % (2 * np.pi)))
    a = np.concatenate([t.boundary.z[:-1] for t in tracts] or [np.empty(0, complex)])
    b = np.concatenate([t.boundary.z[1:] for t in tracts] or [np.empty(0, complex)])
    bound = np.full(len(thetas), np.inf)
    best_theta, best_clear = None, -1.0
    for i, theta in enumerate(thetas):
        if bound[i] <= best_clear + 1e-12:
            continue
        pts = _delta_ray(bbox, resolution, radius, theta)[1]
        if np.any(np.abs(spec.evaluate_array(pts, 1)) > radius):
            clear = 0.0
        else:
            probes = pts[:: max(len(pts) // 64, 1)]
            clear = min_segment_distance(probes, *_segments_near(
                probes, a, b, min_segment_distance(first[i:i + 1], a, b)[0])).min()
        if clear > best_clear + 1e-12:
            best_clear, best_theta = clear, theta
            rest = i + 1 + np.flatnonzero(bound[i + 1:] > best_clear + 1e-12)
            if len(rest):
                bound[rest] = min_segment_distance(
                    first[rest], *_segments_near(first[rest], a, b, best_clear + 1e-12))
    if best_theta is None or best_clear < resolution:
        raise DeltaBlocked(
            f"best clearance {best_clear:.3g} below resolution {resolution}")
    return ParamCurve(*_delta_ray(bbox, resolution, radius, best_theta))


def _segments_near(points: np.ndarray, a: np.ndarray, b: np.ndarray, reach: float):
    """The segments [a_i, b_i] whose bounding box comes within reach of the
    points' (slack 1e-9 for rounding): no other comes within reach of one."""
    r = reach * (1 + 1e-9) + 1e-9
    near = np.ones(len(a), dtype=bool)
    for p, u, v in ((points.real, a.real, b.real), (points.imag, a.imag, b.imag)):
        near &= (np.minimum(u, v) <= p.max() + r) & (np.maximum(u, v) >= p.min() - r)
    return a[near], b[near]


def _delta_ray(bbox: Rect, resolution: float, radius: float,
               theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Parameters and samples of the ray at angle theta, disk to box edge."""
    reach = _box_exit_radius(bbox, theta)
    s = np.linspace(radius, reach, max(int((reach - radius) / (resolution / 2)), 16))
    return s, s * np.exp(1j * (theta % (2 * np.pi)))


def _box_exit_radius(bbox: Rect, theta: float) -> float:
    """Distance from 0, which the box holds, to the box edge along theta."""
    dx, dy = math.cos(theta), math.sin(theta)
    sx = (bbox.x1 if dx > 0 else bbox.x0) / dx if abs(dx) > 1e-15 else math.inf
    sy = (bbox.y1 if dy > 0 else bbox.y0) / dy if abs(dy) > 1e-15 else math.inf
    return min(sx, sy)


# -- the main construction -------------------------------------------------------


def auto_disk(spec: MapSpec, radius: float | None = None) -> DomainDisk:
    """Disk about 0 holding the singular values, 0 and f(0) in its interior.

    Without a radius it is DISK_SCALE times the largest of their moduli; an
    explicit radius must exceed that largest modulus.  A map whose f(0) = a + b
    overflows (`MapSpec.evaluate`) raises ValueError, naming a and b.
    """
    try:
        f0 = spec.evaluate(0.0, 1)[0]
    except Overflow:
        raise ValueError(f"f(0) = a + b overflows for a = {spec.a}, b = {spec.b}") from None
    required = max(abs(p) for p in spec.singular_values() + [0.0, f0])
    if radius is None:
        radius = DISK_SCALE * required
    elif not radius > required:
        raise ValueError(
            f"disk_radius {radius} must exceed {required:.6g}, the largest "
            "modulus of the singular values, 0 and f(0)")
    return DomainDisk(float(radius))


def _require_resolution(resolution: float) -> None:
    """ValueError unless the grid or region resolution is finite and > 0."""
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError(f"resolution must be finite and > 0, got {resolution}")


def structural_setup(spec: MapSpec, bbox: Rect, resolution: float,
                     disk_radius: float | None = None,
                     expansion_radius: float | str = "auto") -> StructuralSetup:
    """Build disk, delta, tracts and fundamental domains inside the box.

    Fundamental-domain cutting relies on the closed-form inverse branch of
    a e^z + b.  The resolution must be finite, > 0 and at most 5% of the
    box diagonal, f(0) = a + b must not overflow, an explicit disk_radius r
    must exceed the moduli of the singular value b, of 0 and of f(0), and
    the box must contain the square [-r, r] x [-r, r]; otherwise ValueError,
    naming the value, is raised before any tract work.  An explicit expansion_radius that fails the
    expansion check raises ExpansionNotValidated, naming it and its margin.
    """
    _require_resolution(resolution)
    if resolution > 0.05 * bbox.diagonal:
        raise ValueError("resolution must be at most 5% of the box diagonal")
    disk = auto_disk(spec, disk_radius)
    if not bbox.contains(complex(disk.radius, disk.radius)) or \
       not bbox.contains(complex(-disk.radius, -disk.radius)):
        raise ValueError(f"box {bbox.as_tuple()} must contain the square [-r, r] x [-r, r] "
                         f"about the disk of radius r = {disk.radius}")

    tracts = extract_tracts(spec, bbox, resolution, disk.radius)
    delta = choose_delta(spec, bbox, resolution, disk.radius, tracts)
    cut = CutGeometry.radial(spec, float(np.angle(delta.z[0])), disk.radius)
    setup = StructuralSetup(
        spec=spec, disk=disk, delta=delta, tracts=tracts,
        domains=_build_domains(bbox, delta, cut), expansion_radius=0.0, bbox=bbox,
        resolution=resolution, branch_context=BranchContext(spec, cut),
    )
    if expansion_radius == "auto":
        setup.expansion_radius = select_expansion_radius(setup, setup.domain_labels())
    else:
        setup.expansion_radius = float(expansion_radius)
        report = validate_expansion_radius(setup, setup.domain_labels(),
                                           setup.expansion_radius)
        if not report.ok:
            raise ExpansionNotValidated(
                f"expansion radius {setup.expansion_radius} not valid for the "
                f"domains (margin {report.margin:.3g})")
    return setup


def _build_domains(bbox: Rect, delta: ParamCurve, cut: CutGeometry) -> list[FundamentalDomain]:
    x_tract = math.log(cut.r / cut.abs_a)  # asymptotic tract edge
    if x_tract > bbox.x1:
        return []
    # bands whose asymptotic strip meets the box vertically
    j_lo = math.floor((bbox.y0 - cut.phi_inf) / (2.0 * math.pi)) + 1
    j_hi = math.ceil((bbox.y1 - cut.phi_inf) / (2.0 * math.pi))
    # edges run on to Re z > x1 + 2 > r, past where a domain's least |z| can be
    reach = cut.abs_a * math.exp(bbox.x1 + 2.0) + cut.r
    s = delta.t
    if s[-1] < reach:
        s = np.concatenate([s, np.geomspace(s[-1], reach, 65)[1:]])
    edges = {m: ParamCurve(s, cut.lift(s, m)) for m in range(j_lo - 1, j_hi + 1)}
    anchor_re = max(x_tract + 1.0, min(bbox.x1 - 1.0, x_tract + 3.0))
    return [FundamentalDomain(BranchLabel(j), (edges[j - 1], edges[j]),
                              complex(anchor_re, cut.phi_inf + 2.0 * math.pi * j - math.pi))
            for j in range(j_lo, j_hi + 1)]


# -- expansion radius ---------------------------------------------------------------


@dataclass(frozen=True)
class ExpansionReport:
    ok: bool
    margin: float
    worst_band: int | None


def _preimage_bounds(setup: StructuralSetup, bands, R: float) -> np.ndarray:
    """Per band j, a bound B_j on |z| over the band-j preimages of |w| = R.

    On the circle v = (w - b)/a has modulus in [lo, hi] = [(R - |b|)/|a|,
    (R + |b|)/|a|], and the band-j preimage is z = log|v| + iy with y in
    (phi(|v|) + 2 pi (j - 1), phi(|v|) + 2 pi j].  The cut's phi is
    monotone, so its extremes over [lo, hi] lie at lo and hi.  Hence
    B_j = hypot(max |log|v||, max |y|); when b = 0, |v| is constant and B_j
    is the supremum itself.
    """
    if R <= setup.disk.radius:
        raise ValueError("R must exceed the disk radius")
    spec, cut = setup.spec, setup.branch_context.cut
    lo, hi = (R - abs(spec.b)) / abs(spec.a), (R + abs(spec.b)) / abs(spec.a)
    phi = cut.phi(np.array([lo, hi]))
    j = np.asarray(bands, dtype=float)
    y = np.maximum(np.abs(phi.min() + 2.0 * np.pi * (j - 1)),
                   np.abs(phi.max() + 2.0 * np.pi * j))
    return np.hypot(max(abs(math.log(lo)), abs(math.log(hi))), y)


def as_labels(domains) -> list[BranchLabel]:
    """The label of each fundamental domain in `domains`; a BranchLabel is its own."""
    return [d if isinstance(d, BranchLabel) else d.label for d in domains]


def validate_expansion_radius(setup: StructuralSetup, domains,
                              R: float) -> ExpansionReport:
    """Check that every domain's inverse branch maps the circle |w| = R inside it.

    The margin is R minus the largest closed-form bound `_preimage_bounds`
    of the domains' preimage moduli, and the worst band is the first to
    reach it.  The check passes when the margin is positive; being an upper
    bound, not a sampled estimate, it never passes a failing radius.
    """
    bands = [lb.j for lb in as_labels(domains)]
    if not bands:
        return ExpansionReport(True, R, None)
    bounds = _preimage_bounds(setup, bands, R)
    i = int(np.argmax(bounds))
    margin = R - float(bounds[i])
    return ExpansionReport(bool(margin > 0.0), margin, bands[i])


def _expansion_radii(setup: StructuralSetup, rows) -> np.ndarray:
    """Per row of the integer band matrix `rows`, the first radius, doubling,
    at which all its bands pass; nan where no R up to EXPANSION_CAP passes.

    All rows move through R, 2R, ... together, from `setup.expansion_radius`
    once that is set, else from twice the disk radius (at least 1).  The
    distinct bands are found once, and at each R one `_preimage_bounds`
    call bounds them all; a row still searching passes when all its bounds
    are below R, and the search stops when no row is left.
    """
    rows = np.asarray(rows, dtype=int)
    bands, inverse = np.unique(rows, return_inverse=True)
    inverse = inverse.reshape(rows.shape)
    radii = np.full(len(rows), np.nan)
    searching = np.arange(len(rows))
    R = setup.expansion_radius or max(2.0 * setup.disk.radius, 1.0)
    while len(searching) and R <= EXPANSION_CAP:
        passed = (_preimage_bounds(setup, bands, R) < R)[inverse[searching]].all(axis=1)
        radii[searching[passed]] = R
        searching = searching[~passed]
        R *= 2.0
    return radii


def _not_validated(bands) -> ExpansionNotValidated:
    """The error for a band set that no radius up to EXPANSION_CAP validates."""
    return ExpansionNotValidated(
        f"no expansion radius up to {EXPANSION_CAP:g} valid for bands "
        f"{sorted(set(map(int, bands)))}")


def select_expansion_radius(setup: StructuralSetup, domains) -> float:
    """The first radius, doubling, at which every label's expansion check passes.

    The search of `_expansion_radii` for the one row of the domains' bands.
    Raises ExpansionNotValidated, naming the bands, when no R up to
    EXPANSION_CAP passes.
    """
    bands = [lb.j for lb in as_labels(domains)]
    (R,) = _expansion_radii(setup, [bands])
    if math.isnan(R):
        raise _not_validated(bands)
    return float(R)
