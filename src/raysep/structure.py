"""Disk, cut curve, tracts and fundamental domains for a supported map.

The construction: pick a round disk D about 0 containing the singular values,
0 and f(0); the preimage of the complement of D is the tract set; a radial
cut curve delta from D to infinity, pulled back through the inverse branches,
slices each tract into fundamental domains labeled by log-bands.  Only
single-factor maps a e^z + b are supported here, so both the tract
boundaries (logs of the circle |e^z + b/a| = r/|a|) and the fundamental-domain
cuts (the inverse branches of that factor) are closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import CHUNK_ELEMENTS, ParamCurve, min_segment_distance
from .errors import (
    DeltaBlocked,
    ExpansionNotValidated,
    OrbitLeftTracts,
    OutsideTract,
    Overflow,
    UnsupportedMap,
)
from .maps import BranchContext, BranchLabel, CutGeometry, ExpAffine, MapSpec, branch_log

DISK_SCALE = 1.25
EXPANSION_CAP = 1e6
EXPANSION_SAMPLES = 4096
DELTA_ANGLES = 360


@dataclass(frozen=True)
class Rect:
    """Axis-aligned box x0 <= Re z <= x1, y0 <= Im z <= y1."""

    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError("degenerate box")

    @property
    def diagonal(self) -> float:
        return math.hypot(self.x1 - self.x0, self.y1 - self.y0)

    def contains(self, z: complex, margin: float = 0.0) -> bool:
        return (self.x0 + margin <= z.real <= self.x1 - margin
                and self.y0 + margin <= z.imag <= self.y1 - margin)

    def corner_radius(self) -> float:
        return max(abs(complex(x, y))
                   for x in (self.x0, self.x1) for y in (self.y0, self.y1))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x0, self.x1, self.y0, self.y1)


@dataclass(frozen=True)
class DomainDisk:
    center: complex
    radius: float


@dataclass
class Tract:
    alpha: int
    boundary: ParamCurve
    anchor: complex
    touches_box: bool


@dataclass
class FundamentalDomain:
    label: BranchLabel
    tract: int
    side_curves: tuple[ParamCurve, ParamCurve]
    anchor: complex
    order_key: int


@dataclass
class StructuralSetup:
    """Disk, cut, tracts and fundamental domains of one map in one box.

    `expansion_checks` caches the expansion check per (label, R): whether
    the pullback of the circle |w| = R through the label's inverse branch
    stays inside the circle.  Failures are kept too, so no label is checked
    twice at one radius.
    """

    spec: MapSpec
    disk: DomainDisk
    delta: ParamCurve
    tracts: list[Tract]
    domains: list[FundamentalDomain]
    expansion_radius: float
    bbox: Rect
    resolution: float
    branch_context: BranchContext
    strip_cut: CutGeometry
    expansion_checks: dict[tuple[BranchLabel, float], bool] = field(default_factory=dict)

    def domain_labels(self) -> list[BranchLabel]:
        return [d.label for d in self.domains]

    def domain_by_band(self, j: int, alpha: int = 0) -> FundamentalDomain:
        for d in self.domains:
            if d.label.j == j and d.label.alpha == alpha:
                return d
        raise KeyError(f"no fundamental domain with band {j} in the setup")

    def pull_back(self, w, label: BranchLabel, strict: bool = False):
        return self.branch_context.pull_back(w, label, strict)

    # -- membership helpers ------------------------------------------------

    def image_modulus(self, z: complex) -> float:
        """|f(z)| with overflow mapped to infinity."""
        try:
            w, _ = self.spec.evaluate(z, 1)
        except Overflow:
            return math.inf
        return abs(w)

    def in_tract(self, z: complex) -> bool:
        return self.image_modulus(z) > self.disk.radius

    def band_index(self, z: complex) -> int:
        """Band j of the fundamental domain whose closure contains z.

        Uses that exp(z) equals (f(z) - b)/a for the outer factor, so Im z is
        a continuous argument of that quantity of modulus e^(Re z).
        """
        rho = math.exp(min(z.real, 700.0))
        phi = float(self.branch_context.outer_cut.phi(rho))
        return math.ceil((z.imag - phi) / (2.0 * math.pi) - 1e-12)

    def in_domain(self, z: complex, label: BranchLabel) -> bool:
        return self.in_tract(z) and self.band_index(z) == label.j


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
    factor = spec.outer
    c = factor.b / factor.a
    R = radius / abs(factor.a)
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
                            anchor=complex(bbox.x1, ys[k]), touches_box=True))
    return tracts


# -- delta selection ------------------------------------------------------------


def choose_delta(spec: MapSpec, bbox: Rect, resolution: float, radius: float,
                 tracts: list[Tract]) -> ParamCurve:
    """Radial cut from the disk boundary to the box edge, clearance-maximized.

    Of DELTA_ANGLES rays, scanned by distance from pi so that ties prefer
    the negative real direction, the first of largest clearance wins: 0 if
    the ray meets the tract set, else the least distance from its probes to
    the tract boundaries.  All rays are evaluated in chunks of about
    CHUNK_ELEMENTS samples.  Its first sample, one of its probes, bounds a
    ray's clearance, so only a ray whose bound beats the best is probed.
    """
    offsets = np.arange(DELTA_ANGLES) * (2.0 * np.pi / DELTA_ANGLES)
    thetas = [th for th in sorted((math.pi + o for o in offsets),
                                  key=lambda th: abs(_wrap_pi(th - math.pi)))
              if _box_exit_radius(bbox, th) > radius * 1.05]
    a = np.concatenate([t.boundary.z[:-1] for t in tracts] or [np.empty(0, complex)])
    b = np.concatenate([t.boundary.z[1:] for t in tracts] or [np.empty(0, complex)])
    # a ray has at most 2 * corner_radius / resolution samples
    rows = max(1, int(CHUNK_ELEMENTS * resolution / (2.0 * bbox.corner_radius())))
    blocked, first = np.zeros(len(thetas), dtype=bool), np.zeros(len(thetas), dtype=complex)
    for lo in range(0, len(thetas), rows):
        rays = [_delta_ray(bbox, resolution, radius, th)[1] for th in thetas[lo:lo + rows]]
        mods = np.abs(spec.evaluate_array(np.concatenate(rays), 1))
        starts = np.cumsum([0] + [len(z) for z in rays[:-1]])
        blocked[lo:lo + rows] = np.maximum.reduceat(mods, starts) > radius
        first[lo:lo + rows] = [z[0] for z in rays]
    bound = np.zeros(len(thetas))
    bound[~blocked] = min_segment_distance(first[~blocked], a, b)
    best_theta, best_clear = None, -1.0
    for theta, clear, hit in zip(thetas, bound, blocked):
        if clear > best_clear + 1e-12 and not hit:
            pts = _delta_ray(bbox, resolution, radius, theta)[1]
            clear = min_segment_distance(pts[:: max(len(pts) // 64, 1)], a, b).min()
        if clear > best_clear + 1e-12:
            best_clear, best_theta = clear, theta
    if best_theta is None or best_clear < resolution:
        raise DeltaBlocked(
            f"best clearance {best_clear:.3g} below resolution {resolution}")
    return ParamCurve(*_delta_ray(bbox, resolution, radius, best_theta))


def _delta_ray(bbox: Rect, resolution: float, radius: float,
               theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Parameters and samples of the ray at angle theta, disk to box edge."""
    reach = _box_exit_radius(bbox, theta)
    s = np.linspace(radius, reach, max(int((reach - radius) / (resolution / 2)), 16))
    return s, s * np.exp(1j * (theta % (2 * np.pi)))


def _wrap_pi(theta: float) -> float:
    return math.remainder(theta, 2.0 * math.pi)


def _box_exit_radius(bbox: Rect, theta: float) -> float:
    """Distance from 0, which the box holds, to the box edge along theta."""
    dx, dy = math.cos(theta), math.sin(theta)
    sx = (bbox.x1 if dx > 0 else bbox.x0) / dx if abs(dx) > 1e-15 else math.inf
    sy = (bbox.y1 if dy > 0 else bbox.y0) / dy if abs(dy) > 1e-15 else math.inf
    return min(sx, sy)


def extended_delta(delta: ParamCurve, reach: float, n_extra: int = 64) -> ParamCurve:
    """Continue a radial delta outward to the given modulus (band bookkeeping)."""
    tip = complex(delta.z[-1])
    if abs(tip) >= reach:
        return delta
    direction = tip / abs(tip)
    s = np.geomspace(abs(tip), reach, n_extra + 1)[1:]
    t = np.concatenate([delta.t, s])
    z = np.concatenate([delta.z, direction * s])
    return ParamCurve(t, z)


# -- the main construction -------------------------------------------------------


def auto_disk(spec: MapSpec, radius: float | None = None) -> DomainDisk:
    """Disk about 0 holding the singular values, 0 and f(0) in its interior.

    Without a radius it is DISK_SCALE times the largest of their moduli; an
    explicit radius must exceed that largest modulus.
    """
    pts = list(spec.singular_values()) + [0.0 + 0.0j]
    try:
        pts.append(spec.evaluate(0.0, 1)[0])
    except Overflow:
        pass
    required = max(abs(p) for p in pts)
    if radius is None:
        radius = DISK_SCALE * required
        if radius == 0.0:
            radius = 0.01
    elif not radius > required:
        raise ValueError(
            f"disk_radius {radius} must exceed {required:.6g}, the largest "
            "modulus of the singular values, 0 and f(0)")
    return DomainDisk(0.0 + 0.0j, float(radius))


def structural_setup(spec: MapSpec, bbox: Rect | tuple, resolution: float,
                     disk_radius: float | None = None,
                     expansion_radius: float | str = "auto") -> StructuralSetup:
    """Build disk, delta, tracts and fundamental domains inside the box.

    Fundamental-domain cutting relies on the closed-form inverse branch of a
    single exponential-affine factor; compositions are rejected here (their
    evaluation and inverse branches still work at the map level).  An
    explicit disk_radius must exceed the moduli of the singular value b,
    of 0 and of f(0); otherwise ValueError is raised before any tract work.
    """
    if not isinstance(bbox, Rect):
        bbox = Rect(*bbox)
    if len(spec.factors) != 1:
        raise UnsupportedMap(
            "structural decomposition is implemented for single-factor maps")
    if resolution > 0.05 * bbox.diagonal:
        raise ValueError("resolution must be at most 5% of the box diagonal")
    disk = auto_disk(spec, disk_radius)
    if not bbox.contains(complex(disk.radius, disk.radius)) or \
       not bbox.contains(complex(-disk.radius, -disk.radius)):
        raise ValueError("box must contain the disk with margin")

    tracts = extract_tracts(spec, bbox, resolution, disk.radius)
    delta = choose_delta(spec, bbox, resolution, disk.radius, tracts)

    factor = spec.outer
    reach = abs(factor.a) * math.exp(bbox.x1 + 2.0) + disk.radius
    delta_ext = extended_delta(delta, reach)
    ctx = BranchContext(spec, delta_ext, disk.radius)
    strip_cut = CutGeometry.from_delta(delta_ext, ExpAffine(1.0, 0.0))

    domains = _build_domains(spec, bbox, disk, delta_ext, ctx)
    setup = StructuralSetup(
        spec=spec, disk=disk, delta=delta, tracts=tracts, domains=domains,
        expansion_radius=0.0, bbox=bbox, resolution=resolution,
        branch_context=ctx, strip_cut=strip_cut,
    )
    if expansion_radius == "auto":
        setup.expansion_radius = select_expansion_radius(
            spec, setup, setup.domain_labels())
    else:
        setup.expansion_radius = float(expansion_radius)
        validate_expansion_radius(spec, setup, setup.domain_labels(),
                                  setup.expansion_radius)
    return setup


def _build_domains(spec: MapSpec, bbox: Rect, disk: DomainDisk,
                   delta_ext: ParamCurve, ctx: BranchContext) -> list[FundamentalDomain]:
    factor = spec.outer
    cut = ctx.outer_cut
    theta_inf = cut.tail_angle
    x_tract = math.log(disk.radius / abs(factor.a))  # asymptotic tract edge
    if x_tract > bbox.x1:
        return []
    # bands whose asymptotic strip meets the box vertically
    j_lo = math.floor((bbox.y0 - theta_inf) / (2.0 * math.pi)) + 1
    j_hi = math.ceil((bbox.y1 - theta_inf) / (2.0 * math.pi))
    domains = []
    for j in range(j_lo, j_hi + 1):
        lower = _cut_curve(factor, delta_ext, cut, j - 1)
        upper = _cut_curve(factor, delta_ext, cut, j)
        anchor_re = max(x_tract + 1.0, min(bbox.x1 - 1.0, x_tract + 3.0))
        anchor = complex(anchor_re, theta_inf + 2.0 * math.pi * j - math.pi)
        domains.append(FundamentalDomain(
            label=BranchLabel(alpha=0, j=j), tract=0,
            side_curves=(lower, upper), anchor=anchor, order_key=j,
        ))
    return domains


def _cut_curve(factor: ExpAffine, delta_ext: ParamCurve, cut: CutGeometry,
               m: int) -> ParamCurve:
    """Pullback of the cut curve at band offset m: one side curve of a domain."""
    v = (delta_ext.z - factor.b) / factor.a
    rho = np.abs(v)
    order = np.argsort(rho)
    rho = rho[order]
    args = cut.phi(rho)
    z = np.log(rho) + 1j * (args + 2.0 * np.pi * m)
    return ParamCurve(np.log(rho), z)


# -- expansion radius ---------------------------------------------------------------


@dataclass(frozen=True)
class ExpansionReport:
    ok: bool
    margin: float
    worst_preimage: complex | None
    worst_band: int | None


def validate_expansion_radius(spec: MapSpec, setup: StructuralSetup,
                              domains, R: float) -> ExpansionReport:
    """Check that the pullback of the circle |w| = R stays inside it.

    Samples the circle adaptively, pulls each sample through every domain's
    inverse branch and compares moduli; the margin is R minus the largest
    preimage modulus.  Each label's own result, whether its preimages stay
    inside the circle, is recorded in `setup.expansion_checks`, also when
    the set as a whole fails.
    """
    labels = [d if isinstance(d, BranchLabel) else d.label for d in domains]
    if not labels:
        return ExpansionReport(True, R, None, None)
    if R <= setup.disk.radius:
        raise ValueError("R must exceed the disk radius")
    worst, worst_z, worst_band = -math.inf, None, None
    for label in labels:
        top = -math.inf  # the label's largest preimage modulus
        u = np.linspace(0.0, 2.0 * np.pi, EXPANSION_SAMPLES, endpoint=False)
        for _ in range(6):  # local refinement around the largest preimage
            w = R * np.exp(1j * u)
            z = setup.pull_back(w, label)
            mods = np.abs(z)
            k = int(np.argmax(mods))
            if mods[k] > top:
                top = float(mods[k])
                if top > worst:
                    worst, worst_z, worst_band = top, complex(z[k]), label.j
            du = u[1] - u[0]
            if du * R < 1e-6:
                break
            u = np.linspace(u[k] - du, u[k] + du, 65)
        setup.expansion_checks[(label, R)] = bool(R - top > 0.0)
    margin = R - worst
    return ExpansionReport(bool(margin > 0.0), margin, worst_z, worst_band)


def select_expansion_radius(spec: MapSpec, setup: StructuralSetup,
                            domains) -> float:
    """The first radius, doubling, at which every label's expansion check passes.

    Starts at `setup.expansion_radius` once that is set, else at twice the
    disk radius (at least 1).  At each R the labels with no result in
    `setup.expansion_checks` are validated by one call, and none when every
    label has one.  Raises ExpansionNotValidated, naming the bands, when no
    R up to EXPANSION_CAP passes.
    """
    labels = list(dict.fromkeys(d if isinstance(d, BranchLabel) else d.label
                                for d in domains))
    checks = setup.expansion_checks
    R = setup.expansion_radius or max(2.0 * setup.disk.radius, 1.0)
    while R <= EXPANSION_CAP:
        unchecked = [lb for lb in labels if (lb, R) not in checks]
        if unchecked:
            validate_expansion_radius(spec, setup, unchecked, R)
        if all(checks[(lb, R)] for lb in labels):
            return R
        R *= 2.0
    raise ExpansionNotValidated(
        f"no expansion radius up to {EXPANSION_CAP:g} valid for bands "
        f"{sorted(lb.j for lb in labels)}")


# -- lift and addresses ----------------------------------------------------------


def lift_evaluate(spec: MapSpec, w_log: complex, label: BranchLabel,
                  setup: StructuralSetup) -> complex:
    """2*pi*i-periodic lift value at a log-plane point over the tract.

    Satisfies exp(lift(w)) == f(exp(w)); the strip of the result is the band
    index of the projected point, which makes the lift literally periodic,
    lift(w + 2*pi*i) == lift(w).
    """
    z = np.exp(complex(w_log))
    try:
        w, _ = spec.evaluate(z, 1)
    except Overflow as exc:
        raise OutsideTract("projection escapes evaluation range") from exc
    if abs(w) <= setup.disk.radius:
        raise OutsideTract(f"exp({w_log}) is not in a tract")
    j = setup.band_index(complex(z))
    return complex(branch_log(w, j, setup.strip_cut))


def address_of_orbit(spec: MapSpec, setup: StructuralSetup, z: complex,
                     n: int) -> list[BranchLabel]:
    """Length-n address prefix of the orbit of z through fundamental domains."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    cur = complex(z)
    for k in range(n):
        if setup.image_modulus(cur) <= setup.disk.radius:
            raise OrbitLeftTracts(k + 1)
        out.append(BranchLabel(alpha=0, j=setup.band_index(cur)))
        if k + 1 < n:
            cur, _ = spec.evaluate(cur, 1)
    return out
