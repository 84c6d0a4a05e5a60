"""Smoke test of the benchmark itself, on its tiny `smoke` scenario.

    python3 -m pytest bench/test_smoke.py -q

It is not collected by the package's test suite, which runs `tests/`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", "smoke",
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def runs():
    out = {}
    for trace in (0, 1):
        proc = _run(trace)
        assert proc.returncode == 0, proc.stderr
        out[trace] = proc.stdout.strip().splitlines()
    return out


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(runs, trace, kind):
    lines = runs[trace]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
    for m in SPEC[kind]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(ln.startswith(f"metric {m['name']} ") and ln.endswith(f" {m['unit']}")
                   for ln in lines), m["name"]


def test_traced_and_untraced_reports_match(runs):
    def digests(lines):
        return [json.loads(ln.split(" ", 1)[1])["digest"]
                for ln in lines if ln.startswith("scenario ")]
    assert digests(runs[0]) and digests(runs[0]) == digests(runs[1])


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import harness
    import workloads
    return harness, workloads


def test_broken_verdict_raises_failed_share(bench_modules, monkeypatch):
    harness, workloads = bench_modules
    check = workloads.check

    def broken(scenario, setup, report, warned):
        report.verdicts[0].verdict = "VIOLATION(interior=2, virtual=0)"
        return check(scenario, setup, report, warned)

    monkeypatch.setattr(workloads, "check", broken)
    lines = []
    result = harness.measure("smoke", 0, 0.0, False, out=lines.append)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    share = [ln for ln in lines if ln.startswith("failed_share ")]
    assert share and float(share[0].split()[1]) > 0


def test_seeds_perturb_deterministically(bench_modules):
    _, workloads = bench_modules
    for name, base in workloads.WORKLOADS.items():
        assert workloads.scenarios(name, 0) == workloads.scenarios(name, 0, 3) == base
        assert workloads.scenarios(name, 7) == workloads.scenarios(name, 7)
        assert workloads.scenarios(name, 7, 1) != workloads.scenarios(name, 7)
        for sc, moved in zip(base, workloads.scenarios(name, 7)):
            assert all(abs(a - b) <= sc.resolution / 4 for a, b in zip(sc.box, moved.box))
            assert abs(moved.a / sc.a - 1) <= 1e-3
            assert (moved.a == sc.a) == sc.parabolic


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
