"""Command-line surface. Every subcommand is a thin shell over the library:
parse flags, call one library function, serialize the result.

Reports (uniformity, breakpoint, huff, pgg, sweep) print a human-readable
rendering to stdout and write the same numbers as JSON when ``--out`` (or
``--report`` for pgg) is given. Data products (field, isolines, pgg, curve)
write files. All numeric output uses shortest round-trip floats, so a
re-parsed output is bit-identical to the library result and two runs with
the same inputs produce the same bytes.

Exit code 0 on success, 1 on any domain or IO error (the message names the
offending file or flag), 2 on bad command-line syntax.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

import numpy as np

from .errors import (
    InvalidValueError,
    IsobenefitError,
    NoInteriorMinimumError,
    SumOverflowError,
    ZeroMeanError,
)
from .field import evaluate_field, evaluate_field_parts, kernel_benefit
from .gravity import huff_probabilities, numeric_breakpoint, reilly_breakpoint
from .indicators import UniformityResult, pgg_field, summary, uniformity
from .io import (  # noqa: F401  (perfbench/tracing.py wraps cli.atomic_write_text)
    atomic_write_text,
    load_scene,
    read_raster,
    write_contours_geojson,
    write_json,
    write_raster,
    write_rows,
)
from .isolines import extract_isolines
from .scene import KERNEL_FAMILIES, GridSpec, Kernel, Scene

__all__ = ["main"]


# ------------------------------------------------------------- flag parsing


def _grid_arg(text: str) -> tuple:
    """The five numbers of --grid; :func:`_grid_spec` checks their values."""
    parts = text.split(",")
    if len(parts) != 5:
        raise argparse.ArgumentTypeError(
            f"expected x0,y0,cell,ncols,nrows, got {text!r}")
    try:
        return (float(parts[0]), float(parts[1]), float(parts[2]),
                int(parts[3]), int(parts[4]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _grid_spec(numbers: tuple) -> GridSpec:
    try:
        return GridSpec(*numbers)
    except InvalidValueError as exc:
        raise InvalidValueError(f"--grid: {exc}") from None


def _floats_arg(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list of numbers, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("expected at least one number")
    return values


def _point_arg(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected x,y, got {text!r}")
    try:
        return (float(parts[0]), float(parts[1]))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected numbers, got {text!r}") from None


def _pair_arg(text: str) -> tuple[str, str]:
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 2 or not all(parts):
        raise argparse.ArgumentTypeError(f"expected id1,id2, got {text!r}")
    return (parts[0], parts[1])


def _add_scene_flag(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument("--scene", required=required, metavar="PATH",
                        help="scene file (JSON, or amenity CSV)")


def _add_kernel_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kernel", choices=KERNEL_FAMILIES, default="rational",
                        help="decay family (default: rational)")
    parser.add_argument("--efficiency", type=float, default=1.0, metavar="E",
                        help="moving-efficiency coefficient E (default: 1.0; "
                             "note: rational decays slower for larger E, "
                             "gaussian/exponential decay faster)")


def _add_grid_flag(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument("--grid", type=_grid_arg, required=required,
                        metavar="X0,Y0,CELL,NCOLS,NROWS",
                        help="evaluation grid: origin cell center, cell size, shape")


def _add_profile_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile", default=None, metavar="NAME",
                        help="preference profile to apply (default: baseline)")


def _amenity_by_id(scene: Scene, ident: str, flag: str):
    for am in scene.amenities:
        if am.id == ident:
            return am
    raise IsobenefitError(f"{flag}: no amenity with id {ident!r} in the scene")


# ---------------------------------------------------------- serialization


def _as_report(result) -> dict | None:
    """A result dataclass as a JSON object: its fields in declaration order,
    minus any that are None, plus ``negative_mean`` for uniformity results."""
    if result is None:
        return None
    doc = {key: value for key, value in asdict(result).items() if value is not None}
    if isinstance(result, UniformityResult):
        doc["negative_mean"] = result.negative_mean
    return doc


def _write_report(path: str | None, report: dict) -> None:
    if path is not None:
        write_json(path, report)


def _parts_paths(out: str) -> tuple[str, str]:
    stem, dot, ext = out.rpartition(".")
    if not dot:
        return out + "_positive", out + "_negative"
    return f"{stem}_positive.{ext}", f"{stem}_negative.{ext}"


# ------------------------------------------------------------- subcommands


def _cmd_field(args: argparse.Namespace) -> int:
    scene = load_scene(args.scene)
    kernel = Kernel(args.kernel, args.efficiency)
    if args.parts:
        parts = evaluate_field_parts(scene, kernel, args.grid, profile=args.profile)
        write_raster(parts.total, args.out)
        pos_path, neg_path = _parts_paths(args.out)
        write_raster(parts.positive, pos_path)
        write_raster(parts.negative, neg_path)
        print(f"wrote {args.out}, {pos_path}, {neg_path}")
    else:
        raster = evaluate_field(scene, kernel, args.grid, profile=args.profile)
        write_raster(raster, args.out)
        print(f"wrote {args.out}")
    return 0


def _scene_field(args: argparse.Namespace, evaluate):
    """``evaluate`` (a field function) on --scene/--grid, for the commands
    that take either those or --raster."""
    if args.scene is None:
        raise IsobenefitError(f"{args.command} needs --scene (with --grid) or --raster")
    if args.grid is None:
        raise IsobenefitError("--grid is required when computing the field from --scene")
    scene = load_scene(args.scene)
    kernel = Kernel(args.kernel, args.efficiency)
    return evaluate(scene, kernel, args.grid, profile=args.profile)


def _cmd_isolines(args: argparse.Namespace) -> int:
    if args.raster is not None:
        raster = read_raster(args.raster)
    else:
        raster = _scene_field(args, evaluate_field)
    if (args.levels is None) == (args.nlevels is None):
        raise IsobenefitError("pass exactly one of --levels or --nlevels")
    contours = extract_isolines(raster, levels=args.levels, nlevels=args.nlevels)
    write_contours_geojson(contours, args.out)
    print(f"wrote {args.out} ({len(contours.lines)} lines at {len(contours.levels)} levels)")
    return 0


def _uniformity_or_none(raster) -> UniformityResult | None:
    try:
        return uniformity(raster)
    except ZeroMeanError:
        return None


def _print_uniformity(label: str, result: UniformityResult | None) -> None:
    if result is None:
        print(f"U({label}) undefined: mean benefit is 0")
    else:
        care = "  [negative mean; interpret with care]" if result.negative_mean else ""
        print(f"U({label}) = {result.u!r}{care}")


def _cmd_uniformity(args: argparse.Namespace) -> int:
    report: dict
    if args.raster is not None:
        raster = read_raster(args.raster)
        result = uniformity(raster)  # undefined U on the main input is an error
        stats = summary(raster)
        _print_uniformity("all", result)
        report = {
            "source": {"raster": args.raster},
            "uniformity": {"all": _as_report(result)},
            "summary": _as_report(stats),
        }
    else:
        parts = _scene_field(args, evaluate_field_parts)
        result = uniformity(parts.total)
        pos = _uniformity_or_none(parts.positive)
        neg = _uniformity_or_none(parts.negative)
        stats = summary(parts.total)
        _print_uniformity("all", result)
        _print_uniformity("positive", pos)
        _print_uniformity("negative", neg)
        report = {
            "source": {
                "scene": args.scene,
                "profile": args.profile,
                "kernel": {"family": args.kernel, "efficiency": args.efficiency},
                "grid": _as_report(args.grid),
            },
            "uniformity": {
                "all": _as_report(result),
                "positive": _as_report(pos),
                "negative": _as_report(neg),
            },
            "summary": _as_report(stats),
        }
    print(f"total = {stats.total!r}  mean = {stats.mean!r}  "
          f"min = {stats.min!r}  max = {stats.max!r}  cells = {stats.count}")
    _write_report(args.out, report)
    return 0


def _cmd_breakpoint(args: argparse.Namespace) -> int:
    scene = load_scene(args.scene)
    kernel = Kernel(args.kernel, args.efficiency)
    amenity1 = _amenity_by_id(scene, args.pair[0], "--pair")
    amenity2 = _amenity_by_id(scene, args.pair[1], "--pair")
    context = scene.amenities if args.with_context else None
    reilly = reilly_breakpoint(amenity1, amenity2)
    distance = reilly.distance_from_1 + reilly.distance_from_2
    report = {
        "pair": [amenity1.id, amenity2.id],
        "distance": distance,
        "kernel": {"family": args.kernel, "efficiency": args.efficiency},
        "with_context": bool(args.with_context),
        "reilly": _as_report(reilly),
    }
    # the numeric point comes first, so that a refused argument prints nothing
    try:
        numeric = numeric_breakpoint(
            amenity1, amenity2, kernel,
            scene_context=context, resolution=args.resolution)
    except NoInteriorMinimumError as exc:
        report["numeric"] = {"error": "NoInteriorMinimum", "message": str(exc)}
        numeric_line = f"numeric: no interior minimum ({exc})"
    else:
        report["numeric"] = _as_report(numeric)
        numeric_line = (f"numeric: {numeric.distance_from_1!r} from {amenity1.id!r}, "
                        f"{numeric.distance_from_2!r} from {amenity2.id!r}, "
                        f"benefit {numeric.benefit_at_point!r}")
    print(f"pair {amenity1.id!r} .. {amenity2.id!r}, distance {distance!r}")
    print(f"reilly:  {reilly.distance_from_1!r} from {amenity1.id!r}, "
          f"{reilly.distance_from_2!r} from {amenity2.id!r}")
    print(numeric_line)
    _write_report(args.out, report)
    return 0


def _cmd_huff(args: argparse.Namespace) -> int:
    scene = load_scene(args.scene)
    result = huff_probabilities(args.origin, scene.amenities,
                                distance_exponent=args.distance_exponent)
    for ident, p in result.probabilities.items():
        print(f"{ident}\t{p!r}")
    _write_report(args.out, {
        "origin": [args.origin[0], args.origin[1]],
        "distance_exponent": args.distance_exponent,
        "probabilities": dict(result.probabilities),
    })
    return 0


def _cmd_pgg(args: argparse.Namespace) -> int:
    scene = load_scene(args.scene)
    kernel = Kernel(args.kernel, args.efficiency)
    raster = pgg_field(scene, kernel, args.grid, person=args.person,
                       majority=args.majority)
    write_raster(raster, args.out)
    stats = summary(raster)
    gains = int((raster.values > 0).sum())
    losses = int((raster.values < 0).sum())
    print(f"wrote {args.out}")
    print(f"total = {stats.total!r}  mean = {stats.mean!r}  "
          f"min = {stats.min!r}  max = {stats.max!r}  cells = {stats.count}")
    print(f"cells where the person gains: {gains}, loses: {losses}, "
          f"indifferent: {stats.count - gains - losses}")
    _write_report(args.report, {
        "person": args.person,
        "majority": args.majority if args.majority is not None else scene.majority,
        "summary": _as_report(stats),
        "gain_cells": gains,
        "loss_cells": losses,
        "indifferent_cells": stats.count - gains - losses,
    })
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    if args.dmax <= 0:
        raise IsobenefitError(f"--dmax must be > 0, got {args.dmax!r}")
    if args.samples < 2:
        raise IsobenefitError(f"--samples must be >= 2, got {args.samples}")
    kernels = [Kernel(args.kernel, e) for e in args.efficiencies]
    distances = np.arange(args.samples) * (args.dmax / (args.samples - 1))
    curves = [kernel_benefit(args.attractiveness, distances, kern) for kern in kernels]
    header = ",".join(["d"] + [f"E={e!r}" for e in args.efficiencies])
    write_rows(args.out, [header], np.column_stack([distances, *curves]))
    print(f"wrote {args.out} ({args.samples} rows, {len(kernels)} curves)")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    scene = load_scene(args.scene)
    rows = []
    print("E\tU\ttotal\tmean\tmin\tmax")
    for e in args.efficiencies:
        raster = evaluate_field(scene, Kernel(args.kernel, e), args.grid,
                                profile=args.profile)
        stats = summary(raster)
        result = _uniformity_or_none(raster)
        row = {"efficiency": e, "summary": _as_report(stats),
               "uniformity": _as_report(result)}
        u_text = "undefined" if result is None else repr(result.u)
        rows.append(row)
        print(f"{e!r}\t{u_text}\t{stats.total!r}\t{stats.mean!r}\t"
              f"{stats.min!r}\t{stats.max!r}")
    _write_report(args.out, {
        "scene": args.scene,
        "kernel_family": args.kernel,
        "profile": args.profile,
        "rows": rows,
    })
    return 0


# --------------------------------------------------------------- assembly


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isobenefit",
        description="Benefit fields, isobenefit lines, and gravity-model "
                    "indicators for scenes of urban amenities.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("field", help="evaluate a benefit raster")
    _add_scene_flag(p)
    _add_kernel_flags(p)
    _add_grid_flag(p)
    _add_profile_flag(p)
    p.add_argument("--out", required=True, metavar="PATH",
                   help="output raster file (.asc: ESRI ASCII, else CSV)")
    p.add_argument("--parts", action="store_true",
                   help="also write _positive/_negative companion rasters")
    p.set_defaults(func=_cmd_field)

    p = sub.add_parser("isolines", help="extract isobenefit lines as GeoJSON")
    _add_scene_flag(p, required=False)
    _add_kernel_flags(p)
    _add_grid_flag(p, required=False)
    _add_profile_flag(p)
    p.add_argument("--raster", default=None, metavar="PATH",
                   help="contour an existing raster file instead of a scene")
    p.add_argument("--levels", type=_floats_arg, default=None, metavar="A,B,C",
                   help="explicit contour levels")
    p.add_argument("--nlevels", type=int, default=None, metavar="N",
                   help="number of evenly spaced levels")
    p.add_argument("--out", required=True, metavar="PATH", help="output GeoJSON file")
    p.set_defaults(func=_cmd_isolines)

    p = sub.add_parser("uniformity", help="uniformity coefficient and summary stats")
    _add_scene_flag(p, required=False)
    _add_kernel_flags(p)
    _add_grid_flag(p, required=False)
    _add_profile_flag(p)
    p.add_argument("--raster", default=None, metavar="PATH",
                   help="report on an existing raster file instead of a scene")
    p.add_argument("--out", default=None, metavar="PATH", help="JSON report file")
    p.set_defaults(func=_cmd_uniformity)

    p = sub.add_parser("breakpoint", help="Reilly and numeric breaking points")
    _add_scene_flag(p)
    _add_kernel_flags(p)
    p.add_argument("--pair", type=_pair_arg, required=True, metavar="ID1,ID2",
                   help="the two amenities to compare")
    p.add_argument("--with-context", action="store_true",
                   help="sum the whole scene, not just the pair, along the segment")
    p.add_argument("--resolution", type=int, default=101, metavar="N",
                   help="samples per pass along the segment (default: 101)")
    p.add_argument("--out", default=None, metavar="PATH", help="JSON report file")
    p.set_defaults(func=_cmd_breakpoint)

    p = sub.add_parser("huff", help="visit probabilities from an origin")
    _add_scene_flag(p)
    p.add_argument("--origin", type=_point_arg, required=True, metavar="X,Y",
                   help="citizen location")
    p.add_argument("--distance-exponent", type=float, default=1.0, metavar="G",
                   help="distance exponent (default: 1.0, the plain model)")
    p.add_argument("--out", default=None, metavar="PATH", help="JSON report file")
    p.set_defaults(func=_cmd_huff)

    p = sub.add_parser("pgg", help="preference gap gain raster person vs majority")
    _add_scene_flag(p)
    _add_kernel_flags(p)
    _add_grid_flag(p)
    p.add_argument("--person", required=True, metavar="NAME",
                   help="profile whose gains to map")
    p.add_argument("--majority", default=None, metavar="NAME",
                   help="majority profile (default: the scene's, else baseline)")
    p.add_argument("--out", required=True, metavar="PATH",
                   help="output raster file (.asc: ESRI ASCII, else CSV)")
    p.add_argument("--report", default=None, metavar="PATH", help="JSON summary file")
    p.set_defaults(func=_cmd_pgg)

    p = sub.add_parser("curve", help="decay curves over distance, one column per E")
    p.add_argument("--attractiveness", type=float, default=3.0, metavar="A",
                   help="attractiveness at distance 0 (default: 3)")
    p.add_argument("--kernel", choices=KERNEL_FAMILIES, default="rational",
                   help="decay family (default: rational)")
    p.add_argument("--efficiencies", type=_floats_arg, required=True, metavar="E1,E2",
                   help="E values, one output column each")
    p.add_argument("--dmax", type=float, default=10.0, metavar="D",
                   help="largest sampled distance (default: 10)")
    p.add_argument("--samples", type=int, default=101, metavar="N",
                   help="number of distance samples from 0 to dmax (default: 101)")
    p.add_argument("--out", required=True, metavar="PATH", help="output CSV file")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("sweep", help="indicators across a list of E values")
    _add_scene_flag(p)
    p.add_argument("--kernel", choices=KERNEL_FAMILIES, default="rational",
                   help="decay family (default: rational)")
    p.add_argument("--efficiencies", type=_floats_arg, required=True, metavar="E1,E2",
                   help="E values to sweep")
    _add_grid_flag(p)
    _add_profile_flag(p)
    p.add_argument("--out", default=None, metavar="PATH", help="JSON report file")
    p.set_defaults(func=_cmd_sweep)

    return parser


# flags whose values legitimately start with a minus sign (negative origins,
# negative contour levels); argparse would read those as new options
_LEADING_MINUS_FLAGS = {"--grid", "--origin", "--levels"}


def _join_minus_values(argv: list[str]) -> list[str]:
    joined: list[str] = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if (token in _LEADING_MINUS_FLAGS and i + 1 < len(argv)
                and argv[i + 1][:1] == "-" and argv[i + 1][1:2] in set("0123456789.")):
            joined.append(f"{token}={argv[i + 1]}")
            skip = True
        else:
            joined.append(token)
    return joined


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    raw = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_join_minus_values(raw))
    try:
        if getattr(args, "grid", None) is not None:
            args.grid = _grid_spec(args.grid)
        return args.func(args)
    except SumOverflowError as exc:
        source = getattr(args, "raster", None) or getattr(args, "scene", None)
        print(f"error: {source}: {exc}", file=sys.stderr)
        return 1
    except (IsobenefitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
