"""The benchmark's seed-0 reports, byte for byte.

Runs `bench/harness.py`'s `run_scenario`, unedited, on the seven seed-0
scenarios of the `p1-family`, `p4-rays`, `p2-regions` and `smoke` workloads:
each passes the benchmark's own checks, and the sha256 of its serialized
report is pinned.  A change that moves report bytes updates these pins and
says why.
"""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

DIGESTS = {
    "exp(0.3)": "1977584139c489a2fcdf9b1693c54a40dc992ee2494fe4e7c92774e98ff6b3a3",
    "exp(1/e)": "49e8f0d1c62ae447dd515ef2289cbf6ac2b50ede474bba735c45659a996e5100",
    "exp(0.5,-0.5)": "9a98cd01d97093a0d9c9f43af3457eabcc56f72fb63bdc3209f879de0cb1bd50",
    "exp(0.3)-13dom": "552db3d79742aae0405b45f135d99e4977bcb3bc924538c7468b8e0d094aac87",
    "exp(-5)-p4": "d2ebbd116686a3d6628b3eebc969b19352047a249446b09469832838b8984dd3",
    "exp(-5)-p2": "edff068d1ebe2c72771e2d690f9cf2b50551bde95f4127e2a56363d979ba03b8",
    "exp(0.3)-small": "f9a9907dd378b24bc1224210ffbc775bcb4bb8d532857d02c7465bc7038e3e6f",
}


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import harness
    return harness


@pytest.mark.parametrize("workload", ["p1-family", "p4-rays", "p2-regions", "smoke"])
def test_seed_zero_reports_are_pinned(harness, workload):
    outcomes = [harness.run_scenario(sc) for sc in harness.workloads.scenarios(workload, 0)]
    assert [(o.scenario.name, o.problems) for o in outcomes] == \
        [(o.scenario.name, []) for o in outcomes]
    assert {o.scenario.name: o.digest for o in outcomes} == \
        {o.scenario.name: DIGESTS[o.scenario.name] for o in outcomes}
