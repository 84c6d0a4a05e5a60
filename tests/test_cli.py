"""CLI contract: exit codes, artifacts, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import raysep
from raysep.cli import EXIT_CONFIG, EXIT_INCOMPLETE, EXIT_OK, ScenarioConfig, main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfig:
    def test_round_trip(self):
        config = ScenarioConfig(map="exp(0.3)", period=2,
                                bbox=(-1.0, 2.0, -3.0, 4.0),
                                domains=(-1, 1), addresses=["0|", "|1,2"])
        again = ScenarioConfig.from_json(config.to_json())
        assert again == config

    def test_config_file(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        config = ScenarioConfig(map="exp(0.3)", bbox=(-4.0, 10.0, -12.0, 12.0))
        path.write_text(json.dumps(config.to_json()))
        code, out, _ = run_cli(["setup", "--config", str(path)], capsys)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["disk"]["radius"] == pytest.approx(0.375)

    def test_config_file_without_map_takes_the_flag(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"period": 1, "bbox": [-4, 10, -12, 12],
                                    "radius": 40}))
        code, out, _ = run_cli(["setup", "--map", "exp(0.3)", "--config", str(path)],
                               capsys)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["map"]["factors"][0]["a"] == [0.3, 0.0]
        assert data["expansion_radius"] == 40.0


class TestExitCodes:
    def test_missing_map_is_config_error(self, capsys):
        code, _, err = run_cli(["setup"], capsys)
        assert code == EXIT_CONFIG
        assert json.loads(err)["error"] == "config"

    def test_bad_map_is_config_error(self, capsys):
        code, _, err = run_cli(["setup", "--map", "tan(1)"], capsys)
        assert code == EXIT_CONFIG

    def test_composition_is_config_error(self, capsys):
        code, _, err = run_cli(["verify", "--map", "exp(1,1)*exp(1,0)"], capsys)
        assert code == EXIT_CONFIG
        assert len(err.splitlines()) == 1
        assert "exp(1,1)*exp(1,0)" in json.loads(err)["message"]

    def test_disk_radius_excluding_singular_value(self, capsys):
        code, _, err = run_cli(
            ["setup", "--map", "exp(0.5,2)", "--disk-radius", "1"], capsys)
        assert code == EXIT_CONFIG
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "config"
        assert "disk_radius" in payload["message"]

    def test_unwritable_out_dir(self, capsys, tmp_path):
        bogus = tmp_path / "missing" / "dir"
        code, _, err = run_cli(
            ["rays", "--map", "exp(0.3)", "--address", "0|",
             "--out", str(bogus)], capsys)
        assert code == EXIT_CONFIG
        assert "error" in json.loads(err)

    def test_no_expansion_radius_is_config_error(self, capsys, monkeypatch):
        import raysep.structure
        monkeypatch.setattr(raysep.structure, "EXPANSION_CAP", 1.0)
        code, _, err = run_cli(["setup", "--map", "exp(0.3)"], capsys)
        assert code == EXIT_CONFIG
        payload = json.loads(err)
        assert payload["error"] == "ExpansionNotValidated"
        assert "bands" in payload["message"]

    def test_failing_explicit_radius_is_config_error(self, capsys):
        code, out, err = run_cli(
            ["setup", "--map", "exp(0.3)", "--bbox=-4,6,-8,8", "--res", "0.25",
             "--radius", "10"], capsys)
        assert code == EXIT_CONFIG
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {
            "error": "ExpansionNotValidated",
            "message": "expansion radius 10.0 not valid for the domains (margin -0.056)"}

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_region_resolution_is_config_error(self, capsys, monkeypatch, value):
        import raysep.cli

        def no_setup(*_args, **_kwargs):
            raise AssertionError("setup built before --region-res was checked")
        monkeypatch.setattr(raysep.cli, "structural_setup", no_setup)
        code, _, err = run_cli(
            ["verify", "--map", "exp(0.3)", "--region-res", value], capsys)
        assert code == EXIT_CONFIG
        payload = json.loads(err)
        assert payload["error"] == "config"
        assert "--region-res" in payload["message"]

    @pytest.mark.parametrize("args, config, named", [
        (["setup"], {"map": "exp(0.3)", "colour": 1}, "colour"),
        (["setup"], [1, 2], "not a JSON object"),
        (["count", "--map", "exp(0.3)", "--domains=0..99", "--bbox=-4,10,-17,17"],
         None, "band"),
        (["rays", "--map", "exp(0.3)", "--domains=5..9", "--bbox=-4,10,-12,12"],
         None, "band 5"),
        (["setup", "--map", "exp(0.3)", "--bbox=-4,10,-12,12", "--res=0"], None,
         "resolution"),
        (["setup", "--map", "exp(0.3)", "--bbox=-4,10,-12,12", "--res=-0.1"], None,
         "resolution"),
        (["setup", "--map", "exp(0.3)", "--bbox=-4,10,-12,12", "--res=nan"], None,
         "resolution"),
        (["setup"], {"map": "exp(0.3)", "period": "2"}, "'period'"),
        (["setup"], {"map": "exp(0.3)", "period": 1.5}, "'period'"),
        (["setup"], {"map": "exp(0.3)", "resolution": "0.1"}, "'resolution'"),
        (["setup"], {"map": 3}, "'map'"),
        (["setup"], {"map": "exp(0.3)", "radius": [1]}, "'radius'"),
        (["setup"], {"map": "exp(0.3)", "bbox": [-4, 10, -12]}, "'bbox'"),
        (["rays"], {"map": "exp(0.3)", "addresses": "0|"}, "'addresses'"),
        (["rays"], {"map": "exp(0.3)", "domains": [5, 1]}, "empty domain range"),
        (["setup", "--map", "exp(0.3)", "--bbox=-inf,10,-12,12"], None, "box edge x0"),
        (["setup", "--map", "exp(0.3)", "--bbox=-4,inf,-12,12"], None, "box edge x1"),
        (["setup"], {"period": 1}, "'map'"),
        (["setup", "--map", "exp(0.3)", "--radius", "abc"], None, "--radius"),
        (["setup", "--map", "exp(0.3)", "--radius", "nan"], None, "--radius"),
        (["setup"], {"map": "exp(0.3)", "radius": "abc"}, "'radius'"),
    ], ids=["config-unknown-key", "config-list", "count-domains-out-of-range",
            "rays-domains-out-of-range", "res-zero", "res-negative", "res-nan",
            "config-period-string", "config-period-float", "config-resolution-string",
            "config-map-number", "config-radius-list",
            "config-bbox-three-numbers", "config-addresses-string",
            "config-domains-reversed", "bbox-minus-inf",
            "bbox-inf", "config-map-missing", "radius-not-a-number", "radius-nan",
            "config-radius-string"])
    def test_malformed_input_is_one_json_line(self, tmp_path, args, config, named):
        # a fresh process, so an uncaught exception shows as exit 1 and a traceback
        if config is not None:
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(config))
            args = args + ["--config", str(path)]
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run([sys.executable, "-m", "raysep.cli", *args], env=env,
                              cwd=tmp_path, capture_output=True, text=True)
        assert done.returncode == EXIT_CONFIG, done.stderr
        assert done.stdout == ""
        assert "Traceback" not in done.stderr
        (line,) = done.stderr.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "config"
        assert named in payload["message"]

    def test_broken_rays_counted_apart(self, capsys):
        # the band-0 fixed ray of 0.5 e^z + 0.2 runs into the asymptotic value
        code, out, err = run_cli(
            ["rays", "--map", "exp(0.5,0.2)", "--domains=-1..1"], capsys)
        assert code == EXIT_INCOMPLETE
        kinds = [r["status"]["kind"] for r in json.loads(out)["rays"]]
        assert kinds == ["lands_at", "broken", "lands_at"]
        assert json.loads(err) == {
            "error": "Incomplete",
            "message": "1 rays did not land (1 broken, 0 unresolved)"}

    def test_lost_ray_is_incomplete_not_violation(self, capsys):
        # the band-0 fixed ray of 0.6 e^z is broken: the graph lacks its edges,
        # so regions merge, and that is missing evidence, not a violation
        code, out, err = run_cli(
            ["verify", "--map", "exp(0.6)", "--bbox=-4,10,-12,12"], capsys)
        assert code == EXIT_INCOMPLETE
        data = json.loads(out)
        assert data["has_violation"] is False
        assert [r["verdict"] for r in data["regions"]] == ["INCOMPLETE(interior=2, virtual=0)"]
        assert "ray |0 broken" in json.loads(err)["message"]

    def test_verify_ok(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--map", "exp(0.3)", "--period", "1",
             "--bbox=-4,10,-12,12"], capsys)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["has_violation"] is False
        assert len(data["regions"]) == 1
        assert data["regions"][0]["verdict"] == "exactly_one_interior"

    def test_count_matches(self, capsys):
        code, out, _ = run_cli(
            ["count", "--map", "exp(0.3)", "--domains=-1..1",
             "--bbox=-4,10,-17,17"], capsys)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["expected_count"] == 4
        assert data["measured_count"] == 4
        assert data["match"] is True


class TestArtifacts:
    def test_rays_csv_and_json(self, capsys, tmp_path):
        code, out, _ = run_cli(
            ["rays", "--map", "exp(0.3)", "--address", "0|",
             "--depth", "320", "--out", str(tmp_path)], capsys)
        assert code == EXIT_OK
        data = json.loads((tmp_path / "rays.json").read_text())
        ray = data["rays"][0]
        assert ray["status"]["kind"] == "lands_at"
        assert ray["status"]["point"][0] == pytest.approx(1.7813370234, abs=1e-6)
        csv_files = list(tmp_path.glob("ray_*.csv"))
        assert len(csv_files) == 1
        header = csv_files[0].read_text().splitlines()[0]
        assert header == "t,re,im"

    def test_rays_keep_input_order_across_periods(self, capsys):
        addresses = ["|0,1", "0|", "|1,0", "|1"]
        args = ["rays", "--map", "exp(0.3)"]
        for a in addresses:
            args += ["--address", a]
        code, out, _ = run_cli(args, capsys)
        assert code == EXIT_OK
        rays = json.loads(out)["rays"]
        assert [r["address"] for r in rays] == ["|0,1", "|0", "|1,0", "|1"]
        # each ray is the one traced on its own
        for a, ray in zip(addresses, rays):
            code, alone, _ = run_cli(["rays", "--map", "exp(0.3)", "--address", a], capsys)
            assert json.loads(alone)["rays"] == [ray]

    def test_fixedpoints_table(self, capsys, tmp_path):
        code, out, _ = run_cli(
            ["fixedpoints", "--map", "exp(0.3)", "--bbox=-1,3,-2,2",
             "--out", str(tmp_path)], capsys)
        assert code == EXIT_OK
        rows = (tmp_path / "fixedpoints.csv").read_text().splitlines()
        assert rows[0] == "re,im,period,abs_multiplier,class,multiplicity"
        assert len(rows) == 3

    def test_svg_plot(self, capsys, tmp_path):
        svg_path = tmp_path / "overlay.svg"
        code, _, _ = run_cli(
            ["plot", "--map", "exp(0.3)", "--bbox=-4,10,-12,12",
             "--svg", str(svg_path)], capsys)
        assert code == EXIT_OK
        text = svg_path.read_text()
        assert text.startswith("<svg")
        assert 'viewBox="0 0 1200 1200"' in text
        assert "<polyline" in text

    def test_deterministic_reports(self, capsys):
        args = ["verify", "--map", "exp(0.3)", "--bbox=-4,10,-12,12"]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second


def test_runtime_imports_no_scipy():
    """The package and its CLI run on numpy alone; scipy is a test extra."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = ("import raysep, raysep.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_public_names_resolve():
    """Every exported name exists, so a deleted one cannot stay in __all__."""
    for name in raysep.__all__:
        assert hasattr(raysep, name), name
    namespace = {}
    exec("from raysep import *", namespace)
    assert set(raysep.__all__) <= set(namespace)
