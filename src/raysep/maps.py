"""The supported family of entire maps and their labeled inverse branches.

A map is a finite composition of exponential-affine factors z -> a*e^z + b
(outermost factor first).  Each factor has order one and a single asymptotic
value b, so every composition has a bounded singular set and the inverse
branches are closed-form: complex logarithms with a band selection that is
adjusted across the cut curve delta.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .curves import ParamCurve, dedup_points
from .errors import BranchResolutionFailure, OnCut, Overflow

OVERFLOW_RE = 690.0          # exp argument guard
OVERFLOW_MAG = 1e300         # magnitude guard
BAND_EDGE_TOL = 1e-9


@dataclass(frozen=True)
class ExpAffine:
    """One factor z -> a * e^z + b with a != 0."""

    a: complex
    b: complex = 0.0

    def __post_init__(self):
        if self.a == 0:
            raise ValueError("factor coefficient a must be nonzero")

    def __call__(self, z: complex) -> complex:
        return self.a * cmath.exp(z) + self.b


@dataclass(frozen=True)
class BranchLabel:
    """Identifies one fundamental domain: tract alpha, band j, inner bands.

    For a single-factor map the pair (alpha, j) is the full label.  For
    compositions the tuple `inner` carries one band index per inner factor
    (outermost inner factor first); missing entries default to band 0.
    """

    alpha: int = 0
    j: int = 0
    inner: tuple[int, ...] = ()

    def inner_band(self, k: int) -> int:
        return self.inner[k] if k < len(self.inner) else 0

    def shifted(self, j: int) -> "BranchLabel":
        return BranchLabel(self.alpha, j, self.inner)


@dataclass(frozen=True)
class MapSpec:
    """A member of the supported family: composition of ExpAffine factors.

    factors[0] is the outermost factor (applied last).
    """

    factors: tuple[ExpAffine, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("at least one factor required")
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def outer(self) -> ExpAffine:
        return self.factors[0]

    # -- evaluation -----------------------------------------------------

    def evaluate(self, z: complex, period: int = 1) -> tuple[complex, complex]:
        """(f^period(z), (f^period)'(z)) for one point.

        A batch of size 1 through `derivative_array`.  Raises Overflow when
        the value is not finite, or when the value or the derivative exceeds
        OVERFLOW_MAG in modulus.
        """
        w, deriv = self.derivative_array(np.array([z], dtype=complex), period)
        w, deriv = complex(w[0]), complex(deriv[0])
        if not (cmath.isfinite(w) and abs(w) <= OVERFLOW_MAG
                and abs(deriv) <= OVERFLOW_MAG):
            raise Overflow()
        return w, deriv

    def evaluate_array(self, z: np.ndarray, period: int = 1) -> np.ndarray:
        """Vectorized f^period; overflowed entries become inf/nan, not errors."""
        return self.derivative_array(z, period)[0]

    def derivative_array(self, z: np.ndarray, period: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized (f^period, (f^period)') by the chain rule across factors.

        A lane becomes inf as soon as an iterate has Re w >= OVERFLOW_RE or
        |w| > OVERFLOW_MAG; overflow yields inf/nan entries, not errors.
        """
        if period < 1:
            raise ValueError("period must be >= 1")
        w = np.asarray(z, dtype=complex).copy()
        deriv = np.ones_like(w)
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(period):
                for factor in reversed(self.factors):
                    safe = (w.real < OVERFLOW_RE) & (np.abs(w) <= OVERFLOW_MAG)
                    ew = np.exp(np.where(safe, w, 0))
                    ew = np.where(safe, factor.a * ew, np.inf + 0j)
                    deriv = deriv * ew
                    w = np.where(safe, ew + factor.b, np.inf + 0j)
        return w, deriv

    # -- singular values -------------------------------------------------

    def singular_values(self) -> list[complex]:
        """Asymptotic values of the composition (the family has no critical points).

        Innermost factor's value pushed forward through the outer factors,
        plus each outer factor's own asymptotic value.
        """
        values: list[complex] = [self.factors[-1].b]
        for factor in reversed(self.factors[:-1]):
            values = [factor(v) for v in values]
            values.append(factor.b)
        return sorted(dedup_points(values, 1e-12), key=lambda v: (v.real, v.imag))

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "factors": [
                {"a": [f.a.real, f.a.imag], "b": [f.b.real, f.b.imag]}
                for f in self.factors
            ]
        }

    @classmethod
    def from_json(cls, data: dict) -> "MapSpec":
        factors = tuple(
            ExpAffine(complex(*f["a"]), complex(*f["b"])) for f in data["factors"]
        )
        return cls(factors)


def exp_map(a: complex, b: complex = 0.0) -> MapSpec:
    """Convenience constructor for the single-factor map a*e^z + b."""
    return MapSpec((ExpAffine(complex(a), complex(b)),))


# -- cut geometry and branch selection ---------------------------------------


@dataclass
class CutGeometry:
    """Band geometry of one factor's logarithm relative to a cut curve.

    For the factor z -> a*e^z + b and cut delta, the relevant curve is
    v(s) = (delta(s) - b)/a; its modulus is monotone for radial delta, so the
    cut's unwrapped argument is a function phi of the modulus.  Band j then
    occupies arguments (phi(|v|) + 2*pi*(j-1), phi(|v|) + 2*pi*j].
    """

    moduli: np.ndarray
    args: np.ndarray          # unwrapped, tail value = asymptotic angle
    tail_angle: float

    @classmethod
    def from_delta(cls, delta: ParamCurve, factor: ExpAffine) -> "CutGeometry":
        v = (delta.z - factor.b) / factor.a
        rho = np.abs(v)
        order = np.argsort(rho)
        rho = rho[order]
        raw = np.angle(v[order])
        args = np.unwrap(raw)
        # normalize so the tail (largest modulus) angle lies in (-pi, pi]
        tail = args[-1]
        shift = 2.0 * np.pi * round((tail - _wrap_half_open(tail)) / (2.0 * np.pi))
        args = args - shift
        return cls(rho, args, float(args[-1]))

    @classmethod
    def principal(cls) -> "CutGeometry":
        """Cut along the negative reals (phi identically pi)."""
        return cls(np.array([1.0, 2.0]), np.array([np.pi, np.pi]), np.pi)

    def phi(self, rho: np.ndarray | float):
        return np.interp(rho, self.moduli, self.args,
                         left=self.args[0], right=self.tail_angle)


def _wrap_half_open(theta: float) -> float:
    """Wrap into (-pi, pi]."""
    out = math.remainder(theta, 2.0 * math.pi)
    if out <= -math.pi:
        out += 2.0 * math.pi
    return out


def branch_log(v, j, cut: CutGeometry, strict: bool = False):
    """log(v) with the imaginary part selected into band j of the cut geometry.

    Returns an array, 0-d for a scalar `v`; `j` is an int or an integer
    array that broadcasts against `v` (one band per lane).  In strict mode,
    values whose selected argument sits within BAND_EDGE_TOL of a band edge
    raise BranchResolutionFailure.
    """
    v = np.asarray(v, dtype=complex)
    rho = np.abs(v)
    if np.any(rho < 1e-300):
        raise OnCut("logarithm input too close to 0")
    y0 = np.angle(v)
    hi = cut.phi(rho) + 2.0 * np.pi * j
    lo = hi - 2.0 * np.pi
    k = np.ceil((lo - y0) / (2.0 * np.pi))
    y = y0 + 2.0 * np.pi * k
    # half-open interval (lo, hi]: ceil lands in [lo, lo+2pi); fix y == lo
    on_lo = y <= lo + 1e-15
    y = np.where(on_lo, y + 2.0 * np.pi, y)
    if strict:
        edge = np.minimum(np.abs(y - lo), np.abs(hi - y))
        if np.any(edge < BAND_EDGE_TOL):
            raise BranchResolutionFailure("argument within tolerance of a band edge")
    return np.log(rho) + 1j * y


@dataclass
class BranchContext:
    """Precomputed cut geometries for all factors of a map."""

    spec: MapSpec
    delta: ParamCurve
    disk_radius: float
    outer_cut: CutGeometry = field(init=False)
    inner_cuts: tuple[CutGeometry, ...] = field(init=False)

    def __post_init__(self):
        self.outer_cut = CutGeometry.from_delta(self.delta, self.spec.outer)
        self.inner_cuts = tuple(CutGeometry.principal()
                                for _ in self.spec.factors[1:])

    def pull_back(self, w, label, strict: bool = False):
        """Composite inverse branch: outer factor first, inner factors after.

        `label` is one BranchLabel for all of `w`, or a sequence of
        BranchLabels with one per lane of a 1-D `w` or one per row of a 2-D
        `w`.  Returns an array, 0-d for a scalar `w`.
        """
        inner = range(len(self.spec.factors) - 1)
        z = np.asarray(w, dtype=complex)
        if isinstance(label, BranchLabel):
            band, inner_bands = label.j, [label.inner_band(k) for k in inner]
        else:
            rows = (-1,) + (1,) * (z.ndim - 1)
            band = np.array([lb.j for lb in label]).reshape(rows)
            inner_bands = [np.array([lb.inner_band(k) for lb in label]).reshape(rows)
                           for k in inner]
        z = branch_log((z - self.spec.outer.b) / self.spec.outer.a,
                       band, self.outer_cut, strict)
        for k, factor in enumerate(self.spec.factors[1:]):
            z = branch_log((z - factor.b) / factor.a,
                           inner_bands[k], self.inner_cuts[k], strict)
        return z


def inverse_branch(spec: MapSpec, w: complex, label: BranchLabel,
                   delta_cut: ParamCurve, *, disk_radius: float | None = None,
                   cut_tol: float = 1e-12) -> complex:
    """The unique z in the fundamental domain of `label` with f(z) = w.

    Preconditions: w outside the closed disk and at distance > cut_tol from
    the cut curve.  For relaxed pullbacks (ray tracing into the disk) use
    BranchContext.pull_back directly.
    """
    w = complex(w)
    if disk_radius is None:
        disk_radius = abs(complex(delta_cut.z[0]))
    if abs(w) <= disk_radius + cut_tol:
        raise OnCut(f"{w} lies in the closed disk of radius {disk_radius}")
    if delta_cut.distance_to_point(w) <= cut_tol:
        raise OnCut(f"{w} lies on the cut curve")
    ctx = BranchContext(spec, delta_cut, disk_radius)
    return complex(ctx.pull_back(w, label, strict=True))


# -- shorthand parsing ---------------------------------------------------------


def parse_complex(text: str) -> complex:
    """Parse a scalar: floats, 'e', 'pi', fractions like '1/e', '2+3i'."""
    s = text.strip().lower()
    if "/" in s:
        num, den = s.split("/", 1)
        return parse_complex(num) / parse_complex(den)
    sign = 1.0
    while s and s[0] in "+-":
        if s[0] == "-":
            sign = -sign
        s = s[1:].strip()
    if s == "e":
        return sign * math.e
    if s == "pi":
        return sign * math.pi
    try:
        return sign * complex(s.replace("i", "j"))
    except ValueError as exc:
        raise ValueError(f"cannot parse complex literal {text!r}") from exc


def parse_map(text: str) -> MapSpec:
    """Parse shorthand like 'exp(0.3)', 'exp(1/e)', 'exp(1,1)*exp(1,0)'.

    Composition is written outermost-first with '*'.
    """
    factors = []
    for chunk in text.split("*"):
        chunk = chunk.strip()
        if not (chunk.startswith("exp(") and chunk.endswith(")")):
            raise ValueError(f"unsupported map shorthand {chunk!r}")
        body = chunk[4:-1]
        parts = [p for p in body.split(",") if p.strip()]
        if not 1 <= len(parts) <= 2:
            raise ValueError(f"exp() takes 1 or 2 arguments, got {chunk!r}")
        a = parse_complex(parts[0])
        b = parse_complex(parts[1]) if len(parts) == 2 else 0.0
        factors.append(ExpAffine(a, b))
    return MapSpec(tuple(factors))
