"""CLI contract: exit codes, artifacts, determinism."""

import json
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import raysep
from raysep.cli import (EXIT_CONFIG, EXIT_INCOMPLETE, EXIT_OK, KEYS, ScenarioConfig,
                        build_parser, config_from_args, main)
from raysep.serialize import _PIECE_COLORS, _REGION_COLORS


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


_NUMBERS = st.floats(-1e3, 1e3)
_NAMES = st.text("abcxyz_./0123456789", min_size=1, max_size=8)
_CONFIGS = st.builds(
    ScenarioConfig,
    map=st.sampled_from(["exp(0.3)", "exp(-5)", "exp(0.5,0.2)", "exp(1/e)"]),
    period=st.integers(1, 4),
    bbox=st.tuples(_NUMBERS, _NUMBERS, _NUMBERS, _NUMBERS),
    resolution=st.floats(1e-3, 1.0),
    radius=st.one_of(st.just("auto"), _NUMBERS),
    disk_radius=st.none() | st.floats(1e-3, 10.0),
    domains=st.none() | st.tuples(st.integers(-9, 9), st.integers(-9, 9)).map(
        lambda ends: tuple(sorted(ends))),
    addresses=st.lists(st.sampled_from(["0|", "|1,2", "-1|0", "|0,-1"]), max_size=3),
    region_resolution=st.floats(1e-3, 5.0),
    out=st.none() | _NAMES,
    svg=st.none() | _NAMES,
)


def _as_flags(config: ScenarioConfig) -> list[str]:
    """The flags that give `config`, each in the --flag=value form."""
    flags = []
    for key, value in config.to_json().items():
        flag = KEYS[key].flag
        if key == "addresses":
            flags += [f"{flag}={address}" for address in value]
        elif key == "bbox":
            flags.append(f"{flag}={','.join(str(v) for v in value)}")
        elif key == "domains" and value is not None:
            flags.append(f"{flag}={value[0]}..{value[1]}")
        elif value is not None:
            flags.append(f"{flag}={value}")
    return flags


class TestOnePath:
    def test_every_field_has_a_flag(self):
        assert {f.name for f in fields(ScenarioConfig)} == set(KEYS)
        dests = set(vars(build_parser().parse_args(["setup"]))) - {"command", "config"}
        assert dests == {row.flag[2:].replace("-", "_") for row in KEYS.values()}

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(config=_CONFIGS)
    def test_flags_and_file_give_one_config(self, tmp_path, config):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config.to_json()))
        parser = build_parser()
        from_flags = config_from_args(parser.parse_args(["setup", *_as_flags(config)]))
        from_file = config_from_args(parser.parse_args(["setup", "--config", str(path)]))
        assert from_flags == from_file == ScenarioConfig.from_json(config.to_json())
        assert from_flags == config

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(base=_CONFIGS, over=_CONFIGS)
    def test_flag_overrides_the_config_key(self, tmp_path, base, over):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(base.to_json()))
        config = config_from_args(build_parser().parse_args(
            ["setup", "--config", str(path), *_as_flags(over)]))
        for key in KEYS:
            given_by_flag = getattr(over, key) not in (None, [])
            assert getattr(config, key) == getattr(over if given_by_flag else base, key)


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

    def test_overflowing_f0_is_config_error(self, capsys):
        code, _, err = run_cli(["verify", "--map", "exp(1e301)", "--bbox=-4,10,-12,12"], capsys)
        assert code == EXIT_CONFIG
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "config"
        assert "a = (1e+301+0j), b = 0" in payload["message"]

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

    @pytest.fixture
    def no_setup(self, monkeypatch):
        import raysep.cli

        def no_setup(*_args, **_kwargs):
            raise AssertionError("setup built before the config was checked")
        monkeypatch.setattr(raysep.cli, "structural_setup", no_setup)

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_region_resolution_is_config_error(self, capsys, no_setup, value):
        code, _, err = run_cli(
            ["verify", "--map", "exp(0.3)", "--region-res", value], capsys)
        assert code == EXIT_CONFIG
        payload = json.loads(err)
        assert payload["error"] == "config"
        assert "--region-res" in payload["message"]

    @pytest.mark.parametrize("args, config, named", [
        (["verify", "--map", "exp(0.3)", "--period", "5"], None, "--period"),
    ], ids=["period-5"])
    def test_out_of_range_value_is_config_error_before_setup(
            self, capsys, no_setup, tmp_path, args, config, named):
        if config is not None:
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(config))
            args = args + ["--config", str(path)]
        code, out, err = run_cli(args, capsys)
        assert code == EXIT_CONFIG
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "config"
        assert named in payload["message"]

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
        (["setup", "--map", "exp(0.3)", "--period", "abc"], None,
         "--period (config key 'period')"),
        (["setup", "--map", "exp(0.3)", "--res", "abc"], None,
         "--res (config key 'resolution')"),
        (["setup", "--map", "exp(0.3)", "--disk-radius", "q"], None,
         "--disk-radius (config key 'disk_radius')"),
        (["verify", "--map", "exp(0.3)", "--region-res", "z"], None,
         "--region-res (config key 'region_resolution')"),
        (["setup", "--map", "exp(0.3)", "--domains=a..b"], None,
         "--domains (config key 'domains')"),
        (["setup", "--map", "exp(0.3)", "--bbox=a,1,2,3"], None,
         "--bbox (config key 'bbox')"),
        (["verify", "--map", "exp(0.3)", "--period", "5"], None,
         "--period (config key 'period')"),
        (["setup"], {"map": "exp(0.3)", "depth": 80}, "unknown config keys: depth"),
        (["setup", "--map", "exp(0.3)", "--bbox=10,-4,-12,12"], None,
         "box edge x0 = 10.0 must be below x1 = -4.0"),
        (["setup", "--map", "exp(0.3)", "--bbox=-4,10,-12,12", "--disk-radius=inf"], None,
         "box (-4.0, 10.0, -12.0, 12.0) must contain the square [-r, r] x [-r, r] "
         "about the disk of radius r = inf"),
    ], ids=["config-unknown-key", "config-list", "count-domains-out-of-range",
            "rays-domains-out-of-range", "res-zero", "res-negative", "res-nan",
            "config-period-string", "config-period-float", "config-resolution-string",
            "config-map-number", "config-radius-list",
            "config-bbox-three-numbers", "config-addresses-string",
            "config-domains-reversed", "bbox-minus-inf",
            "bbox-inf", "config-map-missing", "radius-not-a-number", "radius-nan",
            "config-radius-string", "period-not-a-number", "res-not-a-number",
            "disk-radius-not-a-number",
            "region-res-not-a-number", "domains-not-numbers", "bbox-not-a-number",
            "period-5", "config-depth", "bbox-reversed",
            "disk-outside-box"])
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

    def test_depth_flag_is_gone(self, capsys):
        # the ray samples are fixed at DEFAULT_SAMPLES: --depth is an unknown
        # flag, reported as one JSON line like every configuration error
        code, out, err = run_cli(["setup", "--map", "exp(0.3)", "--depth", "80"], capsys)
        assert code == EXIT_CONFIG and out == ""
        assert err.count("\n") == 1 and err.endswith("\n")
        assert json.loads(err) == {"error": "config",
                                   "message": "raysep: unrecognized arguments: --depth 80"}

    @pytest.mark.parametrize("args, message", [
        (["setup", "--map", "exp(0.3)", "--period"],
         "raysep setup: argument --period: expected one argument"),
        (["walk"], "raysep: argument command: invalid choice: 'walk'"),
        ([], "raysep: the following arguments are required: command")])
    def test_usage_errors_are_one_json_line(self, args, message, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == EXIT_CONFIG and out == ""
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == "config" and payload["message"].startswith(message)

    def test_help_still_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        assert "--bbox" in capsys.readouterr().out

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
             "--out", str(tmp_path)], capsys)
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

    @staticmethod
    def _strokes(path):
        return Counter(re.findall(r'<polyline [^>]*stroke="(#[0-9a-f]{6})"', path.read_text()))

    def test_svg_count_draws_the_contour_pieces(self, capsys, tmp_path):
        svg_path = tmp_path / "count.svg"
        code, _, _ = run_cli(["count", "--map", "exp(0.3)", "--bbox=-4,10,-12,12",
                              "--svg", str(svg_path)], capsys)
        assert code == EXIT_OK
        assert set(_PIECE_COLORS.values()) <= set(self._strokes(svg_path))

    def test_svg_verify_colours_the_regions(self, capsys, tmp_path):
        # the pair of rays landing at -1.3267 bounds a region and takes its colour;
        # the rays that bound none take the last colour
        svg_path = tmp_path / "verify.svg"
        code, _, _ = run_cli(["verify", "--map", "exp(-5)", "--period", "2",
                              "--bbox=-9,7.5,-13,13", "--res", "0.12", "--svg", str(svg_path)],
                             capsys)
        assert code == EXIT_OK
        regions = {c: n for c, n in self._strokes(svg_path).items() if c in _REGION_COLORS}
        assert len(regions) >= 2 and regions.pop(_REGION_COLORS[-1]) > 2
        assert sorted(regions.values()) == [2]

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
