"""Command-line surface. Every subcommand is a thin shell over the library:
parse flags, call one library function, serialize the result.

A subcommand's handler computes its result and returns its stdout lines,
its JSON report (or None if it has none) and its data products (the files
of field, isolines, pgg and curve). :func:`main` alone emits them: one
:func:`~isobenefit.io.write_all` call writes the products, and the report
when ``--out`` (``--report`` for pgg) names a file, all or none; then it
prints the lines. A command that fails therefore prints nothing and writes
no file. The reports (uniformity, breakpoint, huff, pgg, sweep) hold the
numbers of the printed lines. All numeric output uses shortest round-trip
floats, so a re-parsed output is bit-identical to the library result and
two runs with the same inputs produce the same bytes.

Exit code 0 on success, 1 on any domain or IO error (the message names the
offending file or flag), 2 on bad command-line syntax.

A call builds the parser of the subcommand its first argument names, and
no other: the point queries (breakpoint, huff) are run as many short calls,
and building all eight subcommands took several times as long as building
one, on every call. Without a known subcommand first (no arguments,
``--help``, an unknown name) the full parser is built. Both come from the
one :data:`_COMMANDS` table, so a subcommand's help text, usage line and
errors are the same whichever was built.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict

import numpy as np

from .errors import (
    CoincidentAmenitiesError,
    InvalidValueError,
    IsobenefitError,
    NoFiniteRangeError,
    NoInteriorMinimumError,
    NonPositiveAttractivenessError,
    OriginOnAmenityError,
    SumOverflowError,
    ZeroMeanError,
)
from .field import _amenity_columns, evaluate_field, evaluate_field_parts, kernel_benefit
from .gravity import huff_probabilities, numeric_breakpoint, reilly_breakpoint
from .indicators import UniformityResult, pgg_field, summary, uniformity
from .io import (  # noqa: F401  (perfbench/tracing.py wraps the writers by name)
    atomic_write_text,
    contours_product,
    json_product,
    load_scene,
    raster_product,
    read_raster,
    rows_product,
    write_all,
    write_contours_geojson,
    write_raster,
)
from .isolines import extract_isolines
from .scene import KERNEL_FAMILIES, MAX_GRID_CELLS, Amenity, GridSpec, Kernel, Scene

__all__ = ["main"]


# ------------------------------------------------------------- flag parsing


def _grid_arg(text: str) -> tuple:
    """The five numbers of --grid; :class:`GridSpec` checks their values."""
    parts = text.split(",")
    if len(parts) != 5:
        raise argparse.ArgumentTypeError(
            f"expected x0,y0,cell,ncols,nrows, got {text!r}")
    try:
        return (float(parts[0]), float(parts[1]), float(parts[2]),
                int(parts[3]), int(parts[4]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _checked(flag: str, make, *args):
    """``make(*args)``, with the message of a refused value prefixed by the
    flag that gave it."""
    try:
        return make(*args)
    except InvalidValueError as exc:
        raise InvalidValueError(f"{flag}: {exc}") from None


def _finite_flag(flag: str, value) -> None:
    """Refuse a flag's number, or list or pair of numbers, unless every one
    is finite."""
    if not np.isfinite(value).all():
        raise InvalidValueError(f"{flag} must be finite, got {value!r}")


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


def _flag(name: str, **options) -> tuple[str, dict]:
    """One flag of a subcommand: its name and its ``add_argument`` options."""
    return name, options


def _optional(flag: tuple[str, dict]) -> tuple[str, dict]:
    name, options = flag
    return name, {**options, "required": False}


_SCENE = _flag("--scene", required=True, metavar="PATH",
               help="scene file (JSON, or amenity CSV)")
_KERNEL = _flag("--kernel", choices=KERNEL_FAMILIES, default="rational",
                help="decay family (default: rational)")
_EFFICIENCY = _flag("--efficiency", type=float, default=1.0, metavar="E",
                    help="moving-efficiency coefficient E (default: 1.0; "
                         "note: rational decays slower for larger E, "
                         "gaussian/exponential decay faster)")
_GRID = _flag("--grid", type=_grid_arg, required=True, metavar="X0,Y0,CELL,NCOLS,NROWS",
              help="evaluation grid: origin cell center, cell size, shape")
_PROFILE = _flag("--profile", default=None, metavar="NAME",
                 help="preference profile to apply (default: baseline)")
_RASTER_OUT = _flag("--out", required=True, metavar="PATH",
                    help="output raster file (.asc: ESRI ASCII, else CSV)")
_REPORT_OUT = _flag("--out", dest="report", default=None, metavar="PATH",
                    help="JSON report file")


def _amenity_by_id(scene: Scene, ident: str, flag: str) -> Amenity:
    """The amenity ``ident`` of a loaded scene, built alone from the scene's
    columns."""
    if ident not in scene._ids:
        raise IsobenefitError(f"{flag}: no amenity with id {ident!r} in the scene")
    return Amenity(ident, *_amenity_columns(scene)[:, scene._ids.index(ident)].tolist())


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


def _kernel_report(args: argparse.Namespace) -> dict:
    return {"family": args.kernel, "efficiency": args.efficiency}


def _summary_line(stats) -> str:
    return (f"total = {stats.total!r}  mean = {stats.mean!r}  "
            f"min = {stats.min!r}  max = {stats.max!r}  cells = {stats.count}")


def _parts_paths(out: str) -> tuple[str, str]:
    # the extension is taken from the file name only, so the companions sit
    # beside --out whatever dots its directories hold
    stem, ext = os.path.splitext(out)
    return f"{stem}_positive{ext}", f"{stem}_negative{ext}"


# ------------------------------------------------------------- subcommands


def _cmd_field(args: argparse.Namespace) -> tuple[list[str], dict | None, list]:
    if args.parts:
        parts = _scene_field(args, evaluate_field_parts)
        pos_path, neg_path = _parts_paths(args.out)
        return [f"wrote {args.out}, {pos_path}, {neg_path}"], None, [
            raster_product(parts.total, args.out), raster_product(parts.positive, pos_path),
            raster_product(parts.negative, neg_path)]
    return [f"wrote {args.out}"], None, [
        raster_product(_scene_field(args, evaluate_field), args.out)]


def _check_source(args: argparse.Namespace) -> None:
    """Refuse a command that takes --raster or --scene/--grid but got
    neither, before it reads anything."""
    if args.raster is not None:
        return
    if args.scene is None:
        raise IsobenefitError(f"{args.command} needs --scene (with --grid) or --raster")
    if args.grid is None:
        raise IsobenefitError("--grid is required when computing the field from --scene")


def _scene_and_kernel(args: argparse.Namespace) -> tuple[Scene, Kernel]:
    scene = load_scene(args.scene)
    return scene, _checked("--efficiency", Kernel, args.kernel, args.efficiency)


def _scene_field(args: argparse.Namespace, evaluate):
    """``evaluate`` (a field function) on --scene/--grid."""
    scene, kernel = _scene_and_kernel(args)
    return evaluate(scene, kernel, args.grid, profile=args.profile)


def _cmd_isolines(args: argparse.Namespace) -> tuple[list[str], dict | None, list]:
    _check_source(args)
    # before any input is read: a refused flag pair costs no evaluation
    if (args.levels is None) == (args.nlevels is None):
        raise IsobenefitError("pass exactly one of --levels or --nlevels")
    if args.levels is not None:
        _finite_flag("--levels", args.levels)
    if args.raster is not None:
        raster = read_raster(args.raster)
    else:
        raster = _scene_field(args, evaluate_field)
    contours = extract_isolines(raster, levels=args.levels, nlevels=args.nlevels)
    return [f"wrote {args.out} ({len(contours.lines)} lines "
            f"at {len(contours.levels)} levels)"], None, [contours_product(contours, args.out)]


def _uniformity_or_none(raster) -> UniformityResult | None:
    try:
        return uniformity(raster)
    except ZeroMeanError:
        return None


def _uniformity_line(label: str, result: UniformityResult | None) -> str:
    if result is None:
        return f"U({label}) undefined: mean benefit is 0"
    care = "  [negative mean; interpret with care]" if result.negative_mean else ""
    return f"U({label}) = {result.u!r}{care}"


def _cmd_uniformity(args: argparse.Namespace) -> tuple[list[str], dict | None, list]:
    _check_source(args)
    if args.raster is not None:
        source = {"raster": args.raster}
        raster = read_raster(args.raster)
        results = {"all": uniformity(raster)}  # undefined U on the main input is an error
    else:
        source = {"scene": args.scene, "profile": args.profile,
                  "kernel": _kernel_report(args), "grid": _as_report(args.grid)}
        parts = _scene_field(args, evaluate_field_parts)
        raster = parts.total
        results = {"all": uniformity(raster),
                   "positive": _uniformity_or_none(parts.positive),
                   "negative": _uniformity_or_none(parts.negative)}
    stats = summary(raster)
    lines = [_uniformity_line(label, result) for label, result in results.items()]
    return [*lines, _summary_line(stats)], {
        "source": source,
        "uniformity": {label: _as_report(result) for label, result in results.items()},
        "summary": _as_report(stats),
    }, []


def _cmd_breakpoint(args: argparse.Namespace) -> tuple[list[str], dict | None, list]:
    scene, kernel = _scene_and_kernel(args)
    amenity1 = _amenity_by_id(scene, args.pair[0], "--pair")
    amenity2 = _amenity_by_id(scene, args.pair[1], "--pair")
    context = scene if args.with_context else None
    try:
        reilly = reilly_breakpoint(amenity1, amenity2)
    except (CoincidentAmenitiesError, InvalidValueError,
            NonPositiveAttractivenessError) as exc:  # the pair's geometry or A
        raise IsobenefitError(f"--pair: {exc}") from None
    distance = reilly.distance_from_1 + reilly.distance_from_2
    report = {
        "pair": [amenity1.id, amenity2.id],
        "distance": distance,
        "kernel": _kernel_report(args),
        "with_context": bool(args.with_context),
        "reilly": _as_report(reilly),
    }
    lines = [f"pair {amenity1.id!r} .. {amenity2.id!r}, distance {distance!r}",
             f"reilly:  {reilly.distance_from_1!r} from {amenity1.id!r}, "
             f"{reilly.distance_from_2!r} from {amenity2.id!r}"]
    try:
        numeric = numeric_breakpoint(
            amenity1, amenity2, kernel,
            scene_context=context, resolution=args.resolution)
    except NoInteriorMinimumError as exc:
        report["numeric"] = {"error": "NoInteriorMinimum", "message": str(exc)}
        lines.append(f"numeric: no interior minimum ({exc})")
    else:
        report["numeric"] = _as_report(numeric)
        lines.append(f"numeric: {numeric.distance_from_1!r} from {amenity1.id!r}, "
                     f"{numeric.distance_from_2!r} from {amenity2.id!r}, "
                     f"benefit {numeric.benefit_at_point!r}")
    return lines, report, []


def _cmd_huff(args: argparse.Namespace) -> tuple[list[str], dict | None, list]:
    scene = load_scene(args.scene)
    _finite_flag("--origin", args.origin)
    try:
        result = huff_probabilities(args.origin, scene, args.distance_exponent)
    except OriginOnAmenityError as exc:
        raise IsobenefitError(f"--origin: {exc}") from None
    except InvalidValueError as exc:
        # with a finite origin, every value error is the exponent's: not
        # finite, or weights that overflow even in log form
        raise InvalidValueError(f"--distance-exponent: {exc}") from None
    return [f"{ident}\t{p!r}" for ident, p in result.probabilities.items()], {
        "origin": [args.origin[0], args.origin[1]],
        "distance_exponent": args.distance_exponent,
        "probabilities": dict(result.probabilities),
    }, []


def _cmd_pgg(args: argparse.Namespace) -> tuple[list[str], dict | None, list]:
    scene, kernel = _scene_and_kernel(args)
    raster = pgg_field(scene, kernel, args.grid, person=args.person,
                       majority=args.majority)
    stats = summary(raster)
    gains = int((raster.values > 0).sum())
    losses = int((raster.values < 0).sum())
    indifferent = stats.count - gains - losses
    return [
        f"wrote {args.out}",
        _summary_line(stats),
        f"cells where the person gains: {gains}, loses: {losses}, indifferent: {indifferent}",
    ], {
        "person": args.person,
        "majority": args.majority if args.majority is not None else scene.majority,
        "summary": _as_report(stats),
        "gain_cells": gains,
        "loss_cells": losses,
        "indifferent_cells": indifferent,
    }, [raster_product(raster, args.out)]


def _cmd_curve(args: argparse.Namespace) -> tuple[list[str], dict | None, list]:
    _finite_flag("--attractiveness", args.attractiveness)
    _finite_flag("--dmax", args.dmax)
    if args.dmax <= 0:
        raise IsobenefitError(f"--dmax must be > 0, got {args.dmax!r}")
    if not 2 <= args.samples <= MAX_GRID_CELLS:
        raise InvalidValueError(
            f"--samples must be between 2 and {MAX_GRID_CELLS}, got {args.samples}")
    kernels = [_checked("--efficiencies", Kernel, args.kernel, e) for e in args.efficiencies]
    distances = np.arange(args.samples) * (args.dmax / (args.samples - 1))
    curves = [kernel_benefit(args.attractiveness, distances, kern) for kern in kernels]
    header = ",".join(["d"] + [f"E={e!r}" for e in args.efficiencies])
    return [f"wrote {args.out} ({args.samples} rows, {len(kernels)} curves)"], None, [
        rows_product(args.out, [header], np.column_stack([distances, *curves]))]


def _cmd_sweep(args: argparse.Namespace) -> tuple[list[str], dict | None, list]:
    scene = load_scene(args.scene)
    kernels = [_checked("--efficiencies", Kernel, args.kernel, e) for e in args.efficiencies]
    rows = []
    lines = ["E\tU\ttotal\tmean\tmin\tmax"]
    for e, kernel in zip(args.efficiencies, kernels):
        raster = evaluate_field(scene, kernel, args.grid, profile=args.profile)
        stats = summary(raster)
        result = _uniformity_or_none(raster)
        rows.append({"efficiency": e, "summary": _as_report(stats),
                     "uniformity": _as_report(result)})
        u_text = "undefined" if result is None else repr(result.u)
        lines.append(f"{e!r}\t{u_text}\t{stats.total!r}\t{stats.mean!r}\t"
                     f"{stats.min!r}\t{stats.max!r}")
    return lines, {
        "scene": args.scene,
        "kernel_family": args.kernel,
        "profile": args.profile,
        "rows": rows,
    }, []


# --------------------------------------------------------------- assembly


# (name, help, handler, flags) of every subcommand, in the order --help lists them
_COMMANDS = (
    ("field", "evaluate a benefit raster", _cmd_field, (
        _SCENE, _KERNEL, _EFFICIENCY, _GRID, _PROFILE, _RASTER_OUT,
        _flag("--parts", action="store_true",
              help="also write _positive/_negative companion rasters"),
    )),
    ("isolines", "extract isobenefit lines as GeoJSON", _cmd_isolines, (
        _optional(_SCENE), _KERNEL, _EFFICIENCY, _optional(_GRID), _PROFILE,
        _flag("--raster", default=None, metavar="PATH",
              help="contour an existing raster file instead of a scene"),
        _flag("--levels", type=_floats_arg, default=None, metavar="A,B,C",
              help="explicit contour levels"),
        _flag("--nlevels", type=int, default=None, metavar="N",
              help="number of evenly spaced levels"),
        _flag("--out", required=True, metavar="PATH", help="output GeoJSON file"),
    )),
    ("uniformity", "uniformity coefficient and summary stats", _cmd_uniformity, (
        _optional(_SCENE), _KERNEL, _EFFICIENCY, _optional(_GRID), _PROFILE,
        _flag("--raster", default=None, metavar="PATH",
              help="report on an existing raster file instead of a scene"),
        _REPORT_OUT,
    )),
    ("breakpoint", "Reilly and numeric breaking points", _cmd_breakpoint, (
        _SCENE, _KERNEL, _EFFICIENCY,
        _flag("--pair", type=_pair_arg, required=True, metavar="ID1,ID2",
              help="the two amenities to compare"),
        _flag("--with-context", action="store_true",
              help="sum the whole scene, not just the pair, along the segment"),
        _flag("--resolution", type=int, default=101, metavar="N",
              help="samples per pass along the segment (default: 101)"),
        _REPORT_OUT,
    )),
    ("huff", "visit probabilities from an origin", _cmd_huff, (
        _SCENE,
        _flag("--origin", type=_point_arg, required=True, metavar="X,Y",
              help="citizen location"),
        _flag("--distance-exponent", type=float, default=1.0, metavar="G",
              help="distance exponent (default: 1.0, the plain model)"),
        _REPORT_OUT,
    )),
    ("pgg", "preference gap gain raster person vs majority", _cmd_pgg, (
        _SCENE, _KERNEL, _EFFICIENCY, _GRID,
        _flag("--person", required=True, metavar="NAME",
              help="profile whose gains to map"),
        _flag("--majority", default=None, metavar="NAME",
              help="majority profile (default: the scene's, else baseline)"),
        _RASTER_OUT,
        _flag("--report", default=None, metavar="PATH", help="JSON summary file"),
    )),
    ("curve", "decay curves over distance, one column per E", _cmd_curve, (
        _flag("--attractiveness", type=float, default=3.0, metavar="A",
              help="attractiveness at distance 0 (default: 3)"),
        _KERNEL,
        _flag("--efficiencies", type=_floats_arg, required=True, metavar="E1,E2",
              help="E values, one output column each"),
        _flag("--dmax", type=float, default=10.0, metavar="D",
              help="largest sampled distance (default: 10)"),
        _flag("--samples", type=int, default=101, metavar="N",
              help="number of distance samples from 0 to dmax (default: 101)"),
        _flag("--out", required=True, metavar="PATH", help="output CSV file"),
    )),
    ("sweep", "indicators across a list of E values", _cmd_sweep, (
        _SCENE, _KERNEL,
        _flag("--efficiencies", type=_floats_arg, required=True, metavar="E1,E2",
              help="E values to sweep"),
        _GRID, _PROFILE, _REPORT_OUT,
    )),
)
_COMMAND_NAMES = frozenset(name for name, _help, _func, _flags in _COMMANDS)


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``isobenefit`` parser with every subcommand, or with ``command``
    alone. A subcommand's parser comes from the same calls either way, so
    its usage line, help text and errors do not depend on which was built."""
    parser = argparse.ArgumentParser(
        prog="isobenefit",
        description="Benefit fields, isobenefit lines, and gravity-model "
                    "indicators for scenes of urban amenities.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, help_text, func, flags in _COMMANDS:
        if command is None or command == name:
            p = sub.add_parser(name, help=help_text)
            for flag, options in flags:
                p.add_argument(flag, **options)
            p.set_defaults(func=func)
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


# errors that the values held by --scene or --raster cause, not a flag:
# main prefixes them with the file's path
_INPUT_VALUE_ERRORS = (SumOverflowError, NoFiniteRangeError, ZeroMeanError,
                       NonPositiveAttractivenessError)


def main(argv: list[str] | None = None) -> int:
    raw = sys.argv[1:] if argv is None else list(argv)
    command = raw[0] if raw and raw[0] in _COMMAND_NAMES else None
    args = _build_parser(command).parse_args(_join_minus_values(raw))
    try:
        if getattr(args, "grid", None) is not None:
            args.grid = _checked("--grid", GridSpec, *args.grid)
        out, report_path = getattr(args, "out", None), getattr(args, "report", None)
        if out and report_path and os.path.realpath(out) == os.path.realpath(report_path):
            raise IsobenefitError(f"--out and --report name the same file: {out}")
        lines, report, products = args.func(args)
        if report is not None and report_path is not None:
            products.append(json_product(report_path, report))
        write_all(products)
        print("\n".join(lines))
        return 0
    except _INPUT_VALUE_ERRORS as exc:  # the values of the input file are at fault
        source = getattr(args, "raster", None) or getattr(args, "scene", None)
        print(f"error: {source}: {exc}", file=sys.stderr)
        return 1
    except (IsobenefitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
