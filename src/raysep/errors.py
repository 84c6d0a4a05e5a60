"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class so
that tests and the CLI can branch on the exact condition instead of parsing
messages.
"""

from __future__ import annotations


class RaysepError(Exception):
    """Base class for all package errors."""


# --- curve / index machinery ------------------------------------------------

class NonFiniteInput(RaysepError):
    """A NaN or infinity reached a public curve operation."""


class CurveHitsPoint(RaysepError):
    """The reference point lies on (or too close to) the curve."""


class CurvesCollide(RaysepError):
    """sigma(t) - gamma(t) vanished at some parameter."""

    def __init__(self, t: float, gap: float):
        self.t = t
        self.gap = gap
        super().__init__(f"curves collide at t={t!r} (gap {gap:.3e})")


class NotClosed(RaysepError):
    """Operation requires a closed curve."""


class NotSimple(RaysepError):
    """Contour has self-intersections and would be miscounted."""


class NotCounterclockwise(RaysepError):
    """Closed contour is negatively oriented."""


class ZeroOnContour(RaysepError):
    """A zero of the integrand lies on or too close to the contour."""


class ZeroIntegrand(RaysepError):
    """Integrand vanished at a curve sample during refinement."""


class RefinementBudgetExceeded(RaysepError):
    """Adaptive refinement would exceed the sample budget."""


class InconsistentRadius(RaysepError):
    """Multiplicity counts at radius and radius/2 disagree."""

    def __init__(self, count_full: int, count_half: int):
        self.count_full = count_full
        self.count_half = count_half
        super().__init__(
            f"count {count_full} at radius != count {count_half} at radius/2"
        )


# --- map model ---------------------------------------------------------------

class Overflow(RaysepError):
    """Orbit left the representable range; expected for escaping points."""

    def __init__(self):
        super().__init__("magnitude overflow")


# --- structural setup ----------------------------------------------------------

class DeltaBlocked(RaysepError):
    """No cut path from the disk to the box edge has enough clearance."""


# --- rays ---------------------------------------------------------------------

class ExpansionNotValidated(RaysepError):
    """Expansion radius check failed for the requested symbol set."""


class MixedPeriods(RaysepError):
    """`trace_ray` and `landing_groups` take rays of one period only."""


class UnlandedRay(RaysepError):
    """Graph construction requires every ray to have landed."""

    def __init__(self, address: object):
        self.address = address
        super().__init__(f"ray of address {address} has not landed")


# --- fixed points ----------------------------------------------------------------

class BoundaryRoot(RaysepError):
    """A periodic point sits numerically on the search-region boundary."""


class DomainMeetsDisk(RaysepError):
    """Fundamental domain intersects the disk; contraction not guaranteed."""


class NotParabolic(RaysepError):
    """Multiplier is not within tolerance of 1."""


class DegenerateExpansion(RaysepError):
    """No normal-form coefficient above threshold up to the probed order."""


# --- separation -------------------------------------------------------------------

class ResolutionTooCoarse(RaysepError):
    """Region samples miss a region of the ray graph, or a point's region is unresolved."""


class NotFullComplete(RaysepError):
    """Domain collection fails the full/complete check."""

    def __init__(self, witness: str):
        self.witness = witness
        super().__init__(f"collection not full and complete: {witness}")


class ConnectorBlocked(RaysepError):
    """No connector arc with the required clearance exists in the box."""


class EpsTooLarge(RaysepError):
    """Another fixed point lies inside the boundary-modification zone."""


class SideCheckFailed(RaysepError):
    """Numerical verification of the boundary-modification containment failed."""

    def __init__(self, margin: float):
        self.margin = margin
        super().__init__(f"side check failed (worst margin {margin:.3e})")
