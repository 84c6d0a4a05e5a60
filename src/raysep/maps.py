"""The supported family of entire maps and their labeled inverse branches.

A map is one exponential-affine factor z -> a*e^z + b.  It has order one and
a single asymptotic value b, so its singular set is bounded and its inverse
branches are closed-form: complex logarithms whose bands are bounded by the
lifts of the radial cut curve delta, along which the argument is itself a
closed form (`CutGeometry`).  Iterates f^p enter through `period`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import OnCut, Overflow

OVERFLOW_RE = 690.0          # exp argument guard
OVERFLOW_MAG = 1e300         # magnitude guard
LOG_FLOOR = 1e-300           # branch_log raises OnCut below this modulus


@dataclass(frozen=True)
class BranchLabel:
    """Identifies one fundamental domain by its band j."""

    j: int


@dataclass(frozen=True)
class MapSpec:
    """A member of the supported family: z -> a * e^z + b with a != 0."""

    a: complex
    b: complex = 0.0

    def __post_init__(self):
        if self.a == 0:
            raise ValueError("map coefficient a must be nonzero")

    # -- evaluation -----------------------------------------------------

    def evaluate(self, z: complex, period: int = 1) -> tuple[complex, complex]:
        """(f^period(z), (f^period)'(z)) for one point.

        A batch of size 1 through `derivative_array`.  Raises Overflow when
        the value is not finite, or when the value or the derivative exceeds
        OVERFLOW_MAG in modulus.
        """
        w, deriv = self.derivative_array(np.array([z], dtype=complex), period)
        if not in_range(w, deriv)[0]:
            raise Overflow()
        return complex(w[0]), complex(deriv[0])

    def evaluate_array(self, z: np.ndarray, period: int = 1) -> np.ndarray:
        """Vectorized f^period; overflowed entries become inf/nan, not errors."""
        return self.derivative_array(z, period)[0]

    def derivative_array(self, z: np.ndarray, period: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized (f^period, (f^period)') by the chain rule across iterates.

        A lane becomes inf as soon as an iterate has Re w >= OVERFLOW_RE or
        |w| > OVERFLOW_MAG; overflow yields inf/nan entries, not errors.
        """
        if period < 1:
            raise ValueError("period must be >= 1")
        w = np.array(z, dtype=complex)
        deriv = 1.0          # 1.0 * ew has the bits of (1 + 0j) * ew
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(period):
                safe = (w.real < OVERFLOW_RE) & (np.abs(w) <= OVERFLOW_MAG)
                ew = self.a * np.exp(w)
                w = ew + self.b
                if np.count_nonzero(safe) < np.size(safe):
                    ew = np.where(safe, ew, np.inf + 0j)
                    w = np.where(safe, w, np.inf + 0j)
                deriv = deriv * ew
        return w, deriv

    # -- singular values -------------------------------------------------

    def singular_values(self) -> list[complex]:
        """The asymptotic value b (the family has no critical points)."""
        return [self.b]

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        """{"factors": [{"a": [re, im], "b": [re, im]}]}, a one-factor list."""
        return {"factors": [{"a": [self.a.real, self.a.imag],
                             "b": [self.b.real, self.b.imag]}]}

    @classmethod
    def from_json(cls, data: dict) -> "MapSpec":
        factors = data["factors"]
        if len(factors) != 1:
            raise ValueError(f"a map has exactly one factor, got {len(factors)}")
        return cls(complex(*factors[0]["a"]), complex(*factors[0]["b"]))


def in_range(w, deriv):
    """Mask of the lanes that `MapSpec.evaluate` accepts: the value finite, and
    the value and the derivative at most OVERFLOW_MAG in modulus."""
    return np.isfinite(w) & (np.abs(w) <= OVERFLOW_MAG) & (np.abs(deriv) <= OVERFLOW_MAG)


def exp_map(a: complex, b: complex = 0.0) -> MapSpec:
    """Convenience constructor for the map a*e^z + b."""
    return MapSpec(complex(a), complex(b))


# -- cut geometry and branch selection ---------------------------------------


@dataclass(frozen=True)
class CutGeometry:
    """Band geometry of the map's logarithm about the radial cut s e^(i theta), s >= r.

    For the map z -> a*e^z + b the cut's point s e^(i theta) has
    v = (w - b)/a = e^(i theta) (s - c)/a with c = b e^(-i theta).  As
    r > |b|, Re(s - c) > 0: |v| = |s - c|/|a| grows with s, and the cut's
    argument is phi_inf + arg(s - c), where phi_inf = theta - arg a wrapped
    into (-pi, pi] is its limit at infinity.  Since Im(s - c) = -Im c, that
    argument as a function of rho = |v| is the closed form
    phi(rho) = phi_inf - arcsin(Im c / (|a| max(rho, |r - c|/|a|))),
    monotone in rho and constant below the cut's inner end.  Band j
    occupies arguments (phi(|v|) + 2*pi*(j-1), phi(|v|) + 2*pi*j].
    """

    theta: float
    r: float
    c: complex
    abs_a: float
    phi_inf: float

    @classmethod
    def radial(cls, spec: MapSpec, theta: float, r: float) -> "CutGeometry":
        """The cut at angle theta from the disk of radius r > |b| about 0."""
        return cls(theta, r, spec.b * cmath.exp(-1j * theta), abs(spec.a),
                   _wrap_half_open(theta - cmath.phase(spec.a)))

    def phi(self, rho):
        """The cut's argument at modulus rho of v; an array, 0-d for a scalar."""
        inner = abs(self.r - self.c) / self.abs_a
        return self.phi_inf - np.arcsin(self.c.imag / self.abs_a / np.maximum(rho, inner))

    def lift(self, s, m: int):
        """The cut points s e^(i theta), s >= r, pulled back to band m's top edge."""
        d = np.asarray(s, dtype=float) - self.c
        return np.log(np.abs(d) / self.abs_a) + 1j * (self.phi_inf + np.angle(d) + 2.0 * np.pi * m)


def _wrap_half_open(theta: float) -> float:
    """Wrap into (-pi, pi]."""
    out = math.remainder(theta, 2.0 * math.pi)
    if out <= -math.pi:
        out += 2.0 * math.pi
    return out


def branch_log(v, j, cut: CutGeometry):
    """log(v) with the imaginary part selected into band j of the cut geometry.

    Returns an array, 0-d for a scalar `v`; `j` is an int or an integer
    array that broadcasts against `v` (one band per lane).  Raises OnCut
    when some |v| is below LOG_FLOOR.
    """
    v = np.asarray(v, dtype=complex)
    rho = np.abs(v)
    if np.count_nonzero(rho < LOG_FLOOR):
        raise OnCut("logarithm input too close to 0")
    y0 = np.arctan2(v.imag, v.real)
    # a straight cut (Im c = 0) has phi = phi_inf - arcsin(+-0) at every modulus
    hi = (cut.phi_inf if cut.c.imag == 0 else cut.phi(rho)) + 2.0 * np.pi * j
    lo = hi - 2.0 * np.pi
    k = np.ceil((lo - y0) / (2.0 * np.pi))
    z = np.array(np.log(rho), dtype=complex)
    y = z.imag           # a view: the imaginary part is built in the result
    y += y0 + 2.0 * np.pi * k
    # half-open interval (lo, hi]: ceil lands in [lo, lo+2pi); fix y == lo
    np.add(y, 2.0 * np.pi, out=y, where=y <= lo + 1e-15)
    return z


@dataclass
class BranchContext:
    """The map and its cut geometry, for its inverse branches."""

    spec: MapSpec
    cut: CutGeometry

    def pull_back(self, w, band):
        """Inverse branch of band j: the logarithm of (w - b)/a in band j.

        `band` is one int for all of `w`, or an integer array with one band
        per lane of a 1-D `w`.  Returns an array, 0-d for a scalar `w`.
        """
        z = np.asarray(w, dtype=complex)
        return branch_log((z - self.spec.b) / self.spec.a, band, self.cut)


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
    """Parse shorthand 'exp(a)' or 'exp(a,b)' for a*e^z + b, e.g. 'exp(1/e)'."""
    chunk = text.strip()
    if not (chunk.startswith("exp(") and chunk.endswith(")")) or "*" in chunk:
        raise ValueError(f"unsupported map shorthand {text!r}: expected exp(a) or exp(a,b)")
    parts = [p for p in chunk[4:-1].split(",") if p.strip()]
    if not 1 <= len(parts) <= 2:
        raise ValueError(f"exp() takes 1 or 2 arguments, got {text!r}")
    a = parse_complex(parts[0])
    b = parse_complex(parts[1]) if len(parts) == 2 else 0.0
    return MapSpec(a, b)
