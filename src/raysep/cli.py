"""Command-line front end: scenario configs, subcommands, artifacts.

Exit codes: 0 success, 2 configuration or I/O error, 3 a verification
VIOLATION (a region with the wrong occupancy, or a count mismatch),
4 incomplete evidence (rays that did not land, a global count that
could not be taken, or a virtual point that could not be placed).
Errors are emitted as one-line JSON on stderr so pipelines can branch on
them.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import serialize
from .errors import RaysepError
from .fixedpoints import find_periodic_points
from .maps import parse_map
from .rays import Address, landing_point, trace_ray
from .separation import counting_contour, global_count_check, separation_report
from .structure import Rect, structural_setup

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VIOLATION = 3
EXIT_INCOMPLETE = 4

DEFAULT_BBOX = (-10.0, 10.0, -12.0, 12.0)
NUMBER = (int, float)
# per config key, the JSON type its flag's parser gives, per item for a list
# key (of CONFIG_LENGTHS items, any number for None); a bool is not a number
CONFIG_TYPES = {"map": str, "period": int, "bbox": NUMBER, "resolution": NUMBER,
                "depth": int, "radius": (str, *NUMBER), "disk_radius": NUMBER,
                "domains": int, "addresses": str, "region_resolution": NUMBER,
                "out": str, "svg": str}
CONFIG_LENGTHS = {"bbox": 4, "domains": 2, "addresses": None}


@dataclass
class ScenarioConfig:
    map: str
    period: int = 1
    bbox: tuple[float, float, float, float] = DEFAULT_BBOX
    resolution: float = 0.1
    depth: int = 80
    radius: str | float = "auto"
    disk_radius: float | None = None
    domains: tuple[int, int] | None = None
    addresses: list[str] = field(default_factory=list)
    region_resolution: float = 0.5
    out: str | None = None
    svg: str | None = None

    def to_json(self) -> dict:
        data = asdict(self)
        data["bbox"] = list(self.bbox)
        data["domains"] = list(self.domains) if self.domains else None
        return data

    @classmethod
    def from_json(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ValueError("the config file is not a JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        if "map" not in data:
            raise ValueError("missing config key 'map'")
        nullable = {f.name for f in fields(cls) if f.default is None}
        for key, value in data.items():
            if not (value is None and key in nullable or _has_shape(key, value)):
                raise ValueError(f"config key {key!r} has a value of the wrong type "
                                 f"or shape: {value!r}")
        kwargs = dict(data)
        if "radius" in kwargs:
            kwargs["radius"] = _parse_radius(kwargs["radius"], "config key 'radius'")
        if kwargs.get("bbox"):
            kwargs["bbox"] = tuple(float(v) for v in kwargs["bbox"])
        if kwargs.get("domains"):
            kwargs["domains"] = _parse_domains("{}..{}".format(*kwargs["domains"]))
        return cls(**kwargs)


def _has_shape(key: str, value) -> bool:
    items = value if key in CONFIG_LENGTHS else [value]
    return (isinstance(items, list) and CONFIG_LENGTHS.get(key, 1) in (None, len(items))
            and all(isinstance(v, CONFIG_TYPES[key]) and not isinstance(v, bool)
                    for v in items))


def _parse_radius(value, name: str) -> str | float:
    """The expansion radius: "auto" or a finite number; `name` is in the error."""
    if value == "auto":
        return value
    try:
        radius = float(value)
    except ValueError:
        radius = math.nan
    if not math.isfinite(radius):
        raise ValueError(f'{name} must be "auto" or a finite number, got {value!r}')
    return radius


def _parse_bbox(text: str) -> tuple[float, float, float, float]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError("bbox needs x0,x1,y0,y1")
    return tuple(parts)  # type: ignore[return-value]


def _parse_domains(text: str) -> tuple[int, int]:
    if ".." not in text:
        raise ValueError("domains need the form a..b")
    a, b = text.split("..", 1)
    lo, hi = int(a), int(b)
    if hi < lo:
        raise ValueError("empty domain range")
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raysep",
        description="Separation of the plane by invariant dynamic rays "
                    "for exponential-type entire maps.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("setup", "emit the structural decomposition as JSON"),
        ("rays", "trace rays and emit CSV/JSON"),
        ("fixedpoints", "find and classify periodic points"),
        ("count", "build the counting contour and compare counts"),
        ("verify", "full separation report"),
        ("plot", "SVG overlay of the current scenario"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--map", help="map shorthand, e.g. exp(0.3)")
        p.add_argument("--config", help="JSON scenario file mirroring the flags")
        p.add_argument("--period", type=int, default=None)
        p.add_argument("--bbox", type=str, default=None, help="x0,x1,y0,y1")
        p.add_argument("--res", type=float, default=None, help="grid step")
        p.add_argument("--depth", type=int, default=None)
        p.add_argument("--radius", type=str, default=None,
                       help='expansion radius R or "auto"')
        p.add_argument("--disk-radius", type=float, default=None)
        p.add_argument("--domains", type=str, default=None, help="band range a..b")
        p.add_argument("--address", action="append", default=None,
                       help='symbolic address "pre|per", may repeat')
        p.add_argument("--region-res", type=float, default=None)
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--svg", type=str, default=None, help="SVG output path")
    return parser


def config_from_args(args: argparse.Namespace) -> ScenarioConfig:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if args.map and isinstance(data, dict):
            data["map"] = args.map
        elif isinstance(data, dict) and "map" not in data:
            raise ValueError("the config file has no key 'map' and no --map was given")
        config = ScenarioConfig.from_json(data)
    else:
        if not args.map:
            raise ValueError("--map (or --config) is required")
        config = ScenarioConfig(map=args.map)
    if args.period is not None:
        config.period = args.period
    if args.bbox is not None:
        config.bbox = _parse_bbox(args.bbox)
    if args.res is not None:
        config.resolution = args.res
    if args.depth is not None:
        config.depth = args.depth
    if args.radius is not None:
        config.radius = _parse_radius(args.radius, "--radius")
    if args.disk_radius is not None:
        config.disk_radius = args.disk_radius
    if args.domains is not None:
        config.domains = _parse_domains(args.domains)
    if args.address:
        config.addresses = list(args.address)
    if args.region_res is not None:
        config.region_resolution = args.region_res
    if args.out is not None:
        config.out = args.out
    if args.svg is not None:
        config.svg = args.svg
    if config.period < 1:
        raise ValueError("period must be >= 1")
    if not (math.isfinite(config.region_resolution) and config.region_resolution > 0):
        raise ValueError(f"--region-res must be finite and > 0, "
                         f"got {config.region_resolution}")
    return config


def _write(config: ScenarioConfig, name: str, content: str) -> None:
    directory = Path(config.out) if config.out else Path(".")
    path = directory / name
    path.write_text(content, encoding="utf-8")


def _emit(config: ScenarioConfig, name: str, data: dict) -> None:
    text = serialize.dumps(data)
    sys.stdout.write(text)
    if config.out:
        _write(config, name, text)


def _build_setup(config: ScenarioConfig):
    spec = parse_map(config.map)
    return spec, structural_setup(
        spec, Rect(*config.bbox), config.resolution,
        disk_radius=config.disk_radius, expansion_radius=config.radius)


def _domain_labels(config: ScenarioConfig, setup):
    if config.domains is None:
        return setup.domain_labels()
    lo, hi = config.domains
    try:
        return [setup.domain_by_band(j).label for j in range(lo, hi + 1)]
    except KeyError as exc:
        raise ValueError(f"--domains {lo}..{hi}: {exc.args[0]}") from None


def run(command: str, config: ScenarioConfig) -> int:
    """Execute one subcommand; returns the exit code."""
    spec, setup = _build_setup(config)

    if command == "setup":
        _emit(config, "setup.json", serialize.setup_to_json(setup))
        return EXIT_OK

    if command == "rays":
        if config.addresses:
            addresses = [Address.parse(a) for a in config.addresses]
        else:
            addresses = [Address(period=combo) for combo in itertools.product(
                _domain_labels(config, setup), repeat=config.period)]
        # one walk per period; the rays are reported in input order
        traced = {}
        for p in dict.fromkeys(a.period_length for a in addresses):
            lanes = [i for i, a in enumerate(addresses) if a.period_length == p]
            traced.update(zip(lanes, trace_ray(spec, setup, [addresses[i] for i in lanes],
                                               depth=config.depth)))
        payload = []
        failed = {"broken": 0, "unresolved": 0}
        for i, address in enumerate(addresses):
            ray = landing_point(spec, traced[i])
            payload.append(serialize.ray_to_json(ray))
            if ray.status.kind in failed:
                failed[ray.status.kind] += 1
            if config.out:
                safe = str(address).replace("|", "_").replace(",", "_").replace("-", "m")
                _write(config, f"ray_{safe}.csv", serialize.ray_to_csv(ray))
        _emit(config, "rays.json", {"rays": payload})
        if any(failed.values()):
            _error("Incomplete", ValueError(
                f"{sum(failed.values())} rays did not land ({failed['broken']} broken, "
                f"{failed['unresolved']} unresolved)"))
            return EXIT_INCOMPLETE
        return EXIT_OK

    if command == "fixedpoints":
        records = find_periodic_points(spec, Rect(*config.bbox), config.period,
                                       setup=setup)
        _emit(config, "fixedpoints.json",
              {"records": [serialize.record_to_json(r) for r in records]})
        if config.out:
            _write(config, "fixedpoints.csv", serialize.records_to_csv(records))
        return EXIT_OK

    if command == "count":
        labels = _domain_labels(config, setup)
        contour = counting_contour(spec, setup, labels)
        expected, measured, match = global_count_check(spec, contour)
        _emit(config, "count.json", serialize.contour_to_json(contour, measured))
        if config.svg:
            Path(config.svg).write_text(
                serialize.svg_overlay(setup, contour=contour), encoding="utf-8")
        if not match:
            _error("VIOLATION",
                   ValueError(f"expected {expected} fixed points, measured {measured}"))
            return EXIT_VIOLATION
        return EXIT_OK

    if command == "verify":
        report = separation_report(spec, setup, config.period,
                                   resolution=config.region_resolution,
                                   ray_depth=config.depth)
        _emit(config, "verify.json", serialize.report_to_json(report))
        if config.svg:
            Path(config.svg).write_text(
                serialize.svg_overlay(setup, report=report), encoding="utf-8")
        if report.has_violation:
            bad = [v.verdict for v in report.verdicts
                   if v.verdict.startswith("VIOLATION")]
            if report.global_counts is not None and not report.global_counts[2]:
                expected, measured, _ = report.global_counts
                bad.append(f"expected {expected} fixed points, measured {measured}")
            _error("VIOLATION", ValueError("; ".join(bad)))
            return EXIT_VIOLATION
        if report.is_incomplete:
            _error("Incomplete", ValueError("; ".join(sorted(report.incomplete))))
            return EXIT_INCOMPLETE
        return EXIT_OK

    if command == "plot":
        report = separation_report(spec, setup, config.period,
                                   resolution=config.region_resolution,
                                   ray_depth=config.depth)
        svg = serialize.svg_overlay(setup, report=report)
        target = config.svg or "raysep.svg"
        Path(target).write_text(svg, encoding="utf-8")
        if config.out:
            _write(config, "plot.svg", svg)
        return EXIT_OK

    raise ValueError(f"unknown command {command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        _error("config", exc)
        return EXIT_CONFIG
    try:
        return run(args.command, config)
    except (OSError, ValueError) as exc:
        _error("config", exc)
        return EXIT_CONFIG
    except RaysepError as exc:
        _error(type(exc).__name__, exc)
        return EXIT_CONFIG


def _error(kind: str, exc: Exception) -> None:
    sys.stderr.write(json.dumps(
        {"error": kind, "message": str(exc)}, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
