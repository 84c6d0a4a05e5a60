"""Command-line front end: scenario configs, subcommands, artifacts.

A scenario is the --config file's JSON object with the given flags laid
over it; every value is checked against its key's row of KEYS before any
setup is built, and an error names both the flag and the key.

Exit codes: 0 success, 2 configuration or I/O error, 3 a verification
VIOLATION (a region with the wrong occupancy, or a count mismatch),
4 incomplete evidence (rays that did not land, a global count that
could not be taken, or a virtual point that could not be placed).
Errors, argument errors among them, are emitted as one-line JSON on stderr
so pipelines can branch on them.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple

from . import serialize
from .errors import RaysepError
from .maps import parse_map
from .rays import Address, landing_point, trace_ray
from .separation import counting_contour, global_count_check, period_points, separation_report
from .structure import Rect, structural_setup

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VIOLATION = 3
EXIT_INCOMPLETE = 4

NUMBER = (int, float)


def _parse_radius(value) -> str | float:
    """"auto", or the number `value` reads as (NaN when it reads as none)."""
    if value == "auto":
        return value
    try:
        return float(value)
    except ValueError:
        return math.nan


def _parse_domains(text: str) -> list[int]:
    if ".." not in text:
        raise ValueError("domains need the form a..b")
    return [int(end) for end in text.split("..", 1)]


class Key(NamedTuple):
    """One ScenarioConfig key.  `read` turns its flag's text into its JSON value,
    of type `kind`, per item for a list of `length` items (0: any number, one
    per repeat of the flag); a bool is not a number.  `convert` makes the
    field of the value, `ok` is the field's range and `rule` its message."""
    flag: str
    help: str | None = None
    read: Callable = lambda text: text
    kind: type | tuple = str
    length: int | None = None
    convert: Callable = lambda value: value
    ok: Callable = lambda value: True
    rule: str = ""


KEYS = {
    "map": Key("--map", "map shorthand, e.g. exp(0.3)"),
    "period": Key("--period", read=int, kind=int, ok=lambda p: 1 <= p <= 4,
                  rule="must be 1 through 4"),
    "bbox": Key("--bbox", "x0,x1,y0,y1", read=lambda text: [float(v) for v in text.split(",")],
                kind=NUMBER, length=4, convert=lambda box: tuple(float(v) for v in box)),
    "resolution": Key("--res", "grid step", read=float, kind=NUMBER),
    "radius": Key("--radius", 'expansion radius R or "auto"', kind=(str, *NUMBER),
                  convert=_parse_radius, ok=lambda r: r == "auto" or math.isfinite(r),
                  rule='must be "auto" or a finite number'),
    "disk_radius": Key("--disk-radius", read=float, kind=NUMBER),
    "domains": Key("--domains", "band range a..b", read=_parse_domains, kind=int, length=2,
                   convert=tuple, ok=lambda ends: ends[0] <= ends[1],
                   rule="is an empty domain range"),
    "addresses": Key("--address", 'symbolic address "pre|per", may repeat', length=0),
    "region_resolution": Key("--region-res", read=float, kind=NUMBER,
                             ok=lambda r: math.isfinite(r) and r > 0,
                             rule="must be finite and > 0"),
    "out": Key("--out", "output directory"),
    "svg": Key("--svg", "SVG output path"),
}


def _name(key: str) -> str:
    return f"{KEYS[key].flag} (config key {key!r})"


@dataclass
class ScenarioConfig:
    map: str
    period: int = 1
    bbox: tuple[float, float, float, float] = (-10.0, 10.0, -12.0, 12.0)
    resolution: float = 0.1
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
        """The scenario of a JSON object, each value checked by its row of KEYS."""
        if not isinstance(data, dict):
            raise ValueError("the config file is not a JSON object")
        unknown = sorted(set(data) - set(KEYS))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        if "map" not in data:
            raise ValueError(f"{_name('map')} is required")
        nullable = {f.name for f in fields(cls) if f.default is None}
        kwargs = {}
        for key, value in data.items():
            row = KEYS[key]
            if value is None and key in nullable:
                continue
            items = value if row.length is not None else [value]
            if not (isinstance(items, list) and row.length in (None, 0, len(items))
                    and all(isinstance(v, row.kind) and not isinstance(v, bool)
                            for v in items)):
                raise ValueError(f"{_name(key)} has a value of the wrong type "
                                 f"or shape: {value!r}")
            kwargs[key] = row.convert(value)
            if not row.ok(kwargs[key]):
                raise ValueError(f"{_name(key)} {row.rule}, got {value!r}")
        return cls(**kwargs)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ValueError, which `main`
    emits as one JSON line like every other configuration error."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        p.add_argument("--config", help="JSON scenario file mirroring the flags")
        for row in KEYS.values():
            p.add_argument(row.flag, help=row.help,
                           action="append" if row.length == 0 else "store")
    return parser


def config_from_args(args: argparse.Namespace) -> ScenarioConfig:
    """The scenario of the given flags laid over the --config file's object."""
    data = {}
    if args.config:
        data = json.loads(Path(args.config).read_text(encoding="utf-8"))
    for key, row in KEYS.items():
        text = getattr(args, row.flag[2:].replace("-", "_"))
        if text is not None and isinstance(data, dict):
            try:
                data[key] = row.read(text)
            except ValueError as exc:
                raise ValueError(f"{_name(key)} cannot read {text!r}: {exc}") from None
    return ScenarioConfig.from_json(data)


def _write(config: ScenarioConfig, name: str, content: str) -> None:
    (Path(config.out) / name).write_text(content, encoding="utf-8")


def _emit(config: ScenarioConfig, name: str, data: dict) -> None:
    text = serialize.dumps(data)
    sys.stdout.write(text)
    if config.out:
        _write(config, name, text)


def _domain_labels(config: ScenarioConfig, setup):
    if config.domains is None:
        return setup.domain_labels()
    lo, hi = config.domains
    try:
        return [setup.domain_by_band(j).label for j in range(lo, hi + 1)]
    except KeyError as exc:
        raise ValueError(f"{_name('domains')} {lo}..{hi}: {exc.args[0]}") from None


def run(command: str, config: ScenarioConfig) -> int:
    """Execute one subcommand; returns the exit code."""
    spec = parse_map(config.map)
    setup = structural_setup(spec, Rect(*config.bbox), config.resolution,
                             disk_radius=config.disk_radius,
                             expansion_radius=config.radius)

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
            traced.update(zip(lanes, trace_ray(setup, [addresses[i] for i in lanes])))
        payload = []
        failed = {"broken": 0, "unresolved": 0}
        for i, address in enumerate(addresses):
            ray = landing_point(traced[i])
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
        records = period_points(setup, config.period)[-1]
        _emit(config, "fixedpoints.json",
              {"records": [serialize.record_to_json(r) for r in records]})
        if config.out:
            _write(config, "fixedpoints.csv", serialize.records_to_csv(records))
        return EXIT_OK

    if command == "count":
        contour = counting_contour(setup, _domain_labels(config, setup))
        expected, measured, match = global_count_check(contour)
        _emit(config, "count.json", serialize.contour_to_json(contour, measured))
        if config.svg:
            Path(config.svg).write_text(
                serialize.svg_overlay(setup, contour=contour), encoding="utf-8")
        if not match:
            _error("VIOLATION",
                   ValueError(f"expected {expected} fixed points, measured {measured}"))
            return EXIT_VIOLATION
        return EXIT_OK

    if command in ("verify", "plot"):
        report = separation_report(spec, setup, config.period,
                                   resolution=config.region_resolution)

    if command == "verify":
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
        svg = serialize.svg_overlay(setup, report=report)
        Path(config.svg or "raysep.svg").write_text(svg, encoding="utf-8")
        if config.out:
            _write(config, "plot.svg", svg)
        return EXIT_OK

    raise ValueError(f"unknown command {command!r}")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return run(args.command, config_from_args(args))
    except (OSError, ValueError) as exc:
        _error("config", exc)
        return EXIT_CONFIG
    except RaysepError as exc:
        _error(type(exc).__name__, exc)
        return EXIT_CONFIG


def _error(kind: str, exc: Exception) -> None:
    sys.stderr.write(serialize.dumps({"error": kind, "message": str(exc)}))


if __name__ == "__main__":
    sys.exit(main())
