"""Scenario lists of the benchmark workloads and the checks on their output.

Seed 0 runs the listed parameters exactly.  Any other seed moves each box
edge by up to a quarter of the scenario's grid resolution and scales `a` by
up to a relative 1e-3; the parabolic map exp(1/e) keeps its `a`, because any
perturbation destroys the parabolic point.  A seed draws a fresh
perturbation for each repetition, so a run that repeats its scenarios
averages over several nearby inputs.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from raysep.errors import Overflow
from raysep.fixedpoints import CountMismatchWarning
from raysep.maps import MapSpec, exp_map

ALLOWED_VERDICTS = ("exactly_one_interior", "exactly_one_virtual")
CLOSE_TOL = 1e-8


@dataclass(frozen=True)
class Scenario:
    name: str
    a: complex
    b: complex
    box: tuple[float, float, float, float]
    resolution: float
    period: int
    region_resolution: float = 0.5     # separation_report's default
    parabolic: bool = False

    def spec(self) -> MapSpec:
        return exp_map(self.a, self.b)


# Why each workload exists, and the layer it stresses, is in bench/README.md.
WORKLOADS: dict[str, list[Scenario]] = {
    "p1-family": [
        Scenario("exp(0.3)", 0.3, 0.0, (-4, 10, -12, 12), 0.1, 1),
        Scenario("exp(1/e)", 1 / math.e, 0.0, (-4, 8, -12, 12), 0.1, 1,
                 parabolic=True),
        Scenario("exp(0.5,-0.5)", 0.5, -0.5, (-4, 9, -12, 12), 0.1, 1),
        Scenario("exp(0.3)-13dom", 0.3, 0.0, (-4, 10, -40, 40), 0.1, 1),
    ],
    "p4-rays": [
        Scenario("exp(-5)-p4", -5.0, 0.0, (-9, 7.5, -13, 13), 0.12, 4),
    ],
    "p2-regions": [
        Scenario("exp(-5)-p2", -5.0, 0.0, (-9, 7.5, -13, 13), 0.12, 2,
                 region_resolution=0.25),
    ],
    # Not a measured workload: the warm-up scenario and the smoke test's input.
    "smoke": [
        Scenario("exp(0.3)-small", 0.3, 0.0, (-4, 6, -8, 8), 0.25, 1),
    ],
}


def scenarios(workload: str, seed: int, rep: int = 0) -> list[Scenario]:
    """The workload's scenarios for repetition `rep` of a seed.

    Seed 0 gives the unperturbed scenarios at every repetition.
    """
    base = WORKLOADS[workload]
    if seed == 0:
        return list(base)
    rng = random.Random(f"{seed}:{rep}")
    out = []
    for sc in base:
        q = sc.resolution / 4.0
        box = tuple(edge + rng.uniform(-q, q) for edge in sc.box)
        a = sc.a if sc.parabolic else sc.a * (1.0 + rng.uniform(-1e-3, 1e-3))
        out.append(Scenario(sc.name, a, sc.b, box, sc.resolution, sc.period,
                            sc.region_resolution, sc.parabolic))
    return out


def check(scenario: Scenario, setup, report, warned: list) -> list[str]:
    """Every way the scenario's output breaks the separation theorem's claims.

    An empty list means the scenario passed.  `warned` holds the warnings
    raised while the report was built.
    """
    problems = []
    if not report.verdicts:
        problems.append("no verdicts")
    for v in report.verdicts:
        if v.verdict not in ALLOWED_VERDICTS:
            problems.append(f"region {v.region_id}: {v.verdict}")
    if report.incomplete:
        problems.append(f"incomplete: {sorted(report.incomplete)[:3]}")
    for w in warned:
        if issubclass(w.category, CountMismatchWarning):
            problems.append(f"CountMismatchWarning: {w.message}")

    bands = sorted(d.label.j for d in setup.domains)
    expected = set(itertools.product(bands, repeat=scenario.period))
    attempted = {tuple(s.j for s in r.address.period) for r in report.graph.rays
                 if not r.address.preperiod} & expected
    if len(attempted) != len(bands) ** scenario.period:
        problems.append(f"{len(attempted)} landed addresses over the domains, "
                        f"expected {len(bands)}^{scenario.period}")

    spec = setup.spec
    for r in report.graph.rays:
        z = r.landing
        try:
            w, _ = spec.evaluate(z, scenario.period)
        except Overflow as exc:
            problems.append(f"ray {r.address}: f^p overflows at {z}: {exc}")
            continue
        if not abs(w - z) <= CLOSE_TOL * (1.0 + abs(z)):
            problems.append(f"ray {r.address} does not close at {z}")

    if scenario.period == 1:
        # global_counts[0] holds N, not the expected N + 1 (a known defect),
        # so the expected count comes from the setup.
        if report.global_counts is None:
            problems.append("no global count")
        elif report.global_counts[1] != len(setup.domains) + 1:
            problems.append(f"global count {report.global_counts[1]}, expected "
                            f"{len(setup.domains) + 1}")
    return problems
