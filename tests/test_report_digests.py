"""The benchmark's reports, byte for byte.

Runs `bench/harness.py`'s `run_scenario`, unedited, on the seven seed-0
scenarios of the `p1-family`, `p4-rays`, `p2-regions` and `smoke` workloads,
and on the perturbed scenarios of seeds 1-6 (first repetition) of the three
measured workloads: each passes the benchmark's own checks, and the sha256
of its serialized report is pinned.  A change that moves report bytes
updates these pins and says why.
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

SEEDED_DIGESTS = {     # seed: {scenario: sha256}
    1: {
        "exp(0.3)": "27a922ac18af9af66e055e19c6e34510285bc031a3a9ac358e917473a9fc5a05",
        "exp(1/e)": "49e8f0d1c62ae447dd515ef2289cbf6ac2b50ede474bba735c45659a996e5100",
        "exp(0.5,-0.5)": "2ea408d31ebfd77d3caca15f805a32f73e0cba7a2da112466f25d682f638acdb",
        "exp(0.3)-13dom": "7abd0374fb977878155685d8ad69dcf692321a02be499dea41f9ae367fbddf1a",
        "exp(-5)-p4": "9d785dc71d31ad17539a7386ee883361a0cbb2a798c8eb981ff67b75be3d5f06",
        "exp(-5)-p2": "754c1f54cdc78fab9945d7d5360a320a2f2aec870c55308e9c0e4e83c998e337",
    },
    2: {
        "exp(0.3)": "19319c12dd5853feef2af535087ef4a75514870daae006d76a0ecf85b04522ba",
        "exp(1/e)": "49e8f0d1c62ae447dd515ef2289cbf6ac2b50ede474bba735c45659a996e5100",
        "exp(0.5,-0.5)": "184e47c88336b260288db617fa6b2c33621561029ce224806c73ab88954f6ad0",
        "exp(0.3)-13dom": "7c61af9dd6c33dd06422cbced6455be0e704a11d602b8289562290c795cde2a4",
        "exp(-5)-p4": "fadc01fdb32ef10dca18c6074ae6173ec64ffdf8b9981d25809154253e6d31d3",
        "exp(-5)-p2": "7b72b8d68b64e578dff87dd660867fc624c1e9bafeed38a72e8125456132554a",
    },
    3: {
        "exp(0.3)": "21f02cf6cfc5b4b471b811f8cefebb2e2bc34044d29ef90349d6f412f9d6bf9a",
        "exp(1/e)": "49e8f0d1c62ae447dd515ef2289cbf6ac2b50ede474bba735c45659a996e5100",
        "exp(0.5,-0.5)": "6d3eaa7d6a64f8713e49780a37a0a4db2067bafbc9546c4c59aafe7fda096764",
        "exp(0.3)-13dom": "f6dd2f6d8617b2c139b06f0cdf6b755cd2ab107e95953a851a5b3b4cd2fc1431",
        "exp(-5)-p4": "74b46ea4fcfad16e622a0142c4a6a5c239c717329e54686cbdc7615b977fda34",
        "exp(-5)-p2": "a73cdc71d67303f7039058c0fbf627663f738cd12ca7d9ff842ab336743cfb71",
    },
    4: {
        "exp(0.3)": "53e21c03abc695795dda25fbec8ea5c9fa869542052e46bd647440ab34f8c23d",
        "exp(1/e)": "49e8f0d1c62ae447dd515ef2289cbf6ac2b50ede474bba735c45659a996e5100",
        "exp(0.5,-0.5)": "8ff539998b07b3ee04c00a50895b30fe8ad46978f72ab292f602292ade1e4466",
        "exp(0.3)-13dom": "8eee8bf2dafeaae56da520a4b5a2e75652a2f4607065cb17a420604d5ac1209f",
        "exp(-5)-p4": "20f03dcc00c8d0eb90f9140f06b1430186fafb910ee02e581774b182c6f04366",
        "exp(-5)-p2": "834baa42e6b1c9d13e6bebf0d62b7a79d416fd24d4aaddc6dc08c0d0c47573b8",
    },
    5: {
        "exp(0.3)": "a24ecd07be813b71215320788b7ca50a287f66e0167467e7ca78511e616b3d91",
        "exp(1/e)": "49e8f0d1c62ae447dd515ef2289cbf6ac2b50ede474bba735c45659a996e5100",
        "exp(0.5,-0.5)": "8b23acd941059ed3eba59ab6e42101c046e29554445bc718ceb25d5bd26370ff",
        "exp(0.3)-13dom": "9f1f3bdd6bd02407e6530a08bade49cf212f925cb299cc125d1b824a14f16745",
        "exp(-5)-p4": "c8a1c49935f1b7c046b9a62302cfa0f313ded3d6c0293063379b37072560baae",
        "exp(-5)-p2": "b46392882519151c11a64709094905a9b7aabfba801e3ca24470d23dd1fbd14a",
    },
    6: {
        "exp(0.3)": "fc2cf2e0068ede7ad740ccb6cd447d5398547a1213ac796ac25efabac60d56fa",
        "exp(1/e)": "49e8f0d1c62ae447dd515ef2289cbf6ac2b50ede474bba735c45659a996e5100",
        "exp(0.5,-0.5)": "c1526fdf37d9fc080d4f55b9b35ca57e96200a0d20406cac59178167b5e70b15",
        "exp(0.3)-13dom": "78814d3a035dd6d66b7a36115f8baa2d595b644eed309d5e849b7b00093811d0",
        "exp(-5)-p4": "2bad027b7ff44a145ca456d06be93fc665e72bd97e529d3533e2384849f28b32",
        "exp(-5)-p2": "e847ea00310386263101b94a07c1e4c15937a036c23071c3ac244c8824d6a86a",
    },
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


@pytest.mark.parametrize("seed", sorted(SEEDED_DIGESTS))
@pytest.mark.parametrize("workload", ["p1-family", "p4-rays", "p2-regions"])
def test_perturbed_reports_are_pinned(harness, workload, seed):
    outcomes = [harness.run_scenario(sc) for sc in harness.workloads.scenarios(workload, seed)]
    assert [(o.scenario.name, o.problems) for o in outcomes] == \
        [(o.scenario.name, []) for o in outcomes]
    assert {o.scenario.name: o.digest for o in outcomes} == \
        {o.scenario.name: SEEDED_DIGESTS[seed][o.scenario.name] for o in outcomes}
