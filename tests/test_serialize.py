"""Serialization schemas round-trip and stay deterministic."""

import io
import json
import subprocess
import sys

import numpy as np
import pytest

from raysep import serialize
from raysep.curves import ParamCurve
from raysep.maps import exp_map
from raysep.rays import Address, landing_point, trace_ray
from raysep.separation import separation_report
from raysep.structure import Rect, structural_setup


@pytest.fixture(scope="module")
def setup03():
    return structural_setup(exp_map(0.3), Rect(-4, 10, -12, 12), 0.1)


def test_curve_json_round_trip():
    curve = ParamCurve.circle(1 + 2j, 0.5, n=32)
    data = json.loads(serialize.dumps(serialize.curve_to_json(curve)))
    assert set(data) == {"closed", "samples"}
    assert data["closed"] == curve.closed
    t, x, y = np.array(data["samples"]).T
    assert np.array_equal(t, curve.t)
    assert np.array_equal(x, curve.z.real) and np.array_equal(y, curve.z.imag)


def test_curve_csv_round_trip():
    curve = ParamCurve.segment(0, 1 + 1j, n=17)
    text = serialize.curve_to_csv(curve)
    assert text.splitlines()[0] == "t,re,im"
    t, x, y = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1).T
    assert np.array_equal(t, curve.t)
    assert np.array_equal(x, curve.z.real) and np.array_equal(y, curve.z.imag)


def test_ray_json_contains_address_and_landing(setup03):
    ray = landing_point(trace_ray(setup03, Address.constant(0)))
    data = serialize.ray_to_json(ray)
    assert data["address"] == "|0"
    assert data["status"]["kind"] == "lands_at"
    assert len(data["samples"]) == len(ray.t)


def test_setup_json_shape(setup03):
    data = serialize.setup_to_json(setup03)
    assert data["disk"]["radius"] == pytest.approx(0.375)
    bands = [d["band"] for d in data["domains"]]
    assert bands == sorted(bands)
    # deterministic dump
    assert serialize.dumps(data) == serialize.dumps(
        serialize.setup_to_json(setup03))


def test_svg_overlay_renders(setup03):
    text = serialize.svg_overlay(setup03)
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert "polyline" in text


@pytest.fixture(scope="module")
def report03(setup03):
    return serialize.report_to_json(separation_report(exp_map(0.3), setup03, 1))


def test_dumps_writes_one_line_of_the_same_value(report03):
    text = serialize.dumps(report03)
    assert text.endswith("\n") and text.count("\n") == 1
    assert json.loads(text) == report03


def test_json_tool_reprints_the_indented_layout(report03, tmp_path):
    path = tmp_path / "verify.json"
    path.write_text(serialize.dumps(report03), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "json.tool", "--indent", "1", "--sort-keys", str(path)],
        capture_output=True, text=True, check=True)
    assert proc.stdout == json.dumps(
        report03, sort_keys=True, indent=1, separators=(",", ": ")) + "\n"
