"""Separation of the plane by invariant dynamic rays for exponential-type maps.

The pipeline: a structural setup (disk, cut curve, tracts, fundamental
domains) for a map of the supported family; dynamic rays traced by
inverse-branch pullback with resolved landing points; periodic points found
and classified; the ray graph cut into basic regions; and verification that
each region carries exactly one interior or virtual periodic point, with the
global fixed-point count over a counting contour as a cross-check.
"""

from .curves import (
    IndexValue,
    ParamCurve,
    argument_principle_count,
    multiplicity_at,
    refine_for_argument,
    subtraction_index,
    winding_number,
)
from .fixedpoints import (
    FixedPointRecord,
    PetalFan,
    find_fixed_in_domain,
    find_periodic_points,
    petal_directions,
)
from .maps import BranchLabel, MapSpec, exp_map, parse_map
from .rays import Address, Ray, RayPair, fixed_rays, landing_point, trace_ray
from .separation import (
    BasicRegion,
    CountingContour,
    RayGraph,
    SeparationReport,
    basic_regions,
    build_ray_graph,
    counting_contour,
    global_count_check,
    modify_boundary_near_fixed_point,
    separation_report,
)
from .structure import (
    Rect,
    StructuralSetup,
    structural_setup,
    validate_expansion_radius,
)

__version__ = "0.1.0"

__all__ = [
    "Address", "BasicRegion", "BranchLabel", "CountingContour",
    "FixedPointRecord", "IndexValue", "MapSpec", "ParamCurve", "PetalFan",
    "Ray", "RayGraph", "RayPair", "Rect", "SeparationReport",
    "StructuralSetup", "argument_principle_count", "basic_regions",
    "build_ray_graph", "counting_contour", "exp_map",
    "find_fixed_in_domain", "find_periodic_points", "fixed_rays",
    "global_count_check", "landing_point",
    "modify_boundary_near_fixed_point", "multiplicity_at", "parse_map",
    "petal_directions", "refine_for_argument", "separation_report",
    "structural_setup", "subtraction_index", "trace_ray",
    "validate_expansion_radius", "winding_number",
]
