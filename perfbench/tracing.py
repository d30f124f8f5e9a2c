"""Spans around the package's layer boundaries, recorded from outside it.

:func:`install` replaces the module attributes that ``isobenefit.cli`` and
the library modules look up at call time with wrappers that record one span
per call: name, start, end, parent span, the ``ru_minflt`` delta over the
call, and a per-layer amount (bytes written or read, amenity-cells
evaluated, contour vertices produced). Spans stay in memory in a plain list
and are written out by the worker once its job list has finished.

:func:`layer_metrics` turns one round's spans into the per-layer metrics. A
span's self time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import importlib
import os
import resource
import time

# span record layout: [name, start, end, parent index or -1, minflt delta,
# amount, tag]
NAME, START, END, PARENT, MINFLT, AMOUNT, TAG = range(7)


def _amenity_cells(args, kwargs, result):
    scene, kernel, grid = args[:3]
    return len(scene.amenities) * grid.size, kernel.family


def _vertices(args, kwargs, result):
    return sum(len(line.points) for line in result.lines), None


# (module, attribute, span name, measure(args, kwargs, result) -> (amount, tag))
TARGETS = (
    ("isobenefit.cli", "main", "cli.main", None),
    ("isobenefit.cli", "load_scene", "io.load_scene", None),
    ("isobenefit.io", "validate_scene", "scene.validate_scene", None),
    ("isobenefit.cli", "write_raster", "io.write_raster",
     lambda a, k, r: (os.path.getsize(a[1]), None)),
    ("isobenefit.cli", "read_raster", "io.read_raster",
     lambda a, k, r: (os.path.getsize(a[0]), None)),
    ("isobenefit.cli", "write_contours_geojson", "io.write_contours_geojson",
     lambda a, k, r: (os.path.getsize(a[1]), None)),
    ("isobenefit.cli", "atomic_write_text", "io.atomic_write_text",
     lambda a, k, r: (len(a[1]), None)),
    ("isobenefit.cli", "evaluate_field", "field.evaluate_field", _amenity_cells),
    ("isobenefit.indicators", "evaluate_field", "field.evaluate_field", _amenity_cells),
    ("isobenefit.cli", "evaluate_field_parts", "field.evaluate_field_parts", _amenity_cells),
    ("isobenefit.gravity", "point_benefit", "field.point_benefit", None),
    ("isobenefit.cli", "kernel_benefit", "field.kernel_benefit", None),
    ("isobenefit.cli", "extract_isolines", "isolines.extract_isolines", _vertices),
    ("isobenefit.cli", "pgg_field", "indicators.pgg_field", None),
    ("isobenefit.cli", "uniformity", "indicators.uniformity", None),
    ("isobenefit.cli", "summary", "indicators.summary", None),
    ("isobenefit.cli", "numeric_breakpoint", "gravity.numeric_breakpoint", None),
    ("isobenefit.cli", "reilly_breakpoint", "gravity.reilly_breakpoint", None),
    ("isobenefit.cli", "huff_probabilities", "gravity.huff_probabilities", None),
)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, measure=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        usage = resource.getrusage
        who = resource.RUSAGE_SELF

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, 0, None]
            stack.append(len(spans))
            spans.append(record)
            faults = usage(who).ru_minflt
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                record[MINFLT] = usage(who).ru_minflt - faults
                record[START] = start
                record[END] = end
                stack.pop()
            if measure is not None:
                record[AMOUNT], record[TAG] = measure(args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every name in :data:`TARGETS` in its module."""
    for module_name, attr, span_name, measure in TARGETS:
        module = importlib.import_module(module_name)
        setattr(module, attr, tracer.wrap(span_name, getattr(module, attr), measure))


def layer_metrics(spans: list, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced round (values only; units live in
    ``BENCHMARK.json``)."""
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child_time = [0.0] * n
    for k, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += dur[k]

    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    self_s: dict[str, float] = {}
    faults: dict[str, int] = {}
    amount: dict[str, int] = {}
    family_cells: dict[str, int] = {}
    family_secs: dict[str, float] = {}
    nested: dict[tuple[str, str], int] = {}
    for k, s in enumerate(spans):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + dur[k]
        self_s[name] = self_s.get(name, 0.0) + dur[k] - child_time[k]
        faults[name] = faults.get(name, 0) + s[MINFLT]
        amount[name] = amount.get(name, 0) + s[AMOUNT]
        if name == "field.evaluate_field":
            family_cells[s[TAG]] = family_cells.get(s[TAG], 0) + s[AMOUNT]
            family_secs[s[TAG]] = family_secs.get(s[TAG], 0.0) + dur[k]
        if s[PARENT] >= 0:
            key = (spans[s[PARENT]][NAME], name)
            nested[key] = nested.get(key, 0) + 1

    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    mb = 1024.0 * 1024.0
    m: dict[str, float] = {
        "cli.main.calls": calls.get("cli.main", 0),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
        "io.load_scene.s": secs.get("io.load_scene", 0.0),
        "io.load_scene.calls": calls.get("io.load_scene", 0),
        "io.write_raster.s": secs.get("io.write_raster", 0.0),
        "io.write_raster.mb": amount.get("io.write_raster", 0) / mb,
        "io.write_raster.mb_per_s": rate(amount.get("io.write_raster", 0) / mb,
                                         secs.get("io.write_raster", 0.0)),
        "io.write_raster.minor_faults": faults.get("io.write_raster", 0),
        "io.read_raster.s": secs.get("io.read_raster", 0.0),
        "io.read_raster.mb_per_s": rate(amount.get("io.read_raster", 0) / mb,
                                        secs.get("io.read_raster", 0.0)),
        "io.write_contours_geojson.s": secs.get("io.write_contours_geojson", 0.0),
        "io.write_contours_geojson.mb": amount.get("io.write_contours_geojson", 0) / mb,
        "io.atomic_write_text.s": secs.get("io.atomic_write_text", 0.0),
        "scene.validate_scene.s": secs.get("scene.validate_scene", 0.0),
        "field.evaluate_field.s": secs.get("field.evaluate_field", 0.0),
        "field.evaluate_field.calls": calls.get("field.evaluate_field", 0),
        "field.evaluate_field.amenity_cells": amount.get("field.evaluate_field", 0),
        "field.evaluate_field.amenity_cells_per_s": rate(
            amount.get("field.evaluate_field", 0), secs.get("field.evaluate_field", 0.0)),
        "field.evaluate_field.minor_faults": faults.get("field.evaluate_field", 0),
    }
    for family in ("rational", "gaussian", "exponential"):
        m[f"field.evaluate_field.{family}.amenity_cells_per_s"] = rate(
            family_cells.get(family, 0), family_secs.get(family, 0.0))
    m.update({
        "field.evaluate_field_parts.s": secs.get("field.evaluate_field_parts", 0.0),
        "field.evaluate_field_parts.amenity_cells_per_s": rate(
            amount.get("field.evaluate_field_parts", 0),
            secs.get("field.evaluate_field_parts", 0.0)),
        "field.evaluate_field_parts.minor_faults": faults.get("field.evaluate_field_parts", 0),
        "field.point_benefit.calls": calls.get("field.point_benefit", 0),
        "field.point_benefit.s": secs.get("field.point_benefit", 0.0),
        "field.kernel_benefit.calls": calls.get("field.kernel_benefit", 0),
        "field.kernel_benefit.s": secs.get("field.kernel_benefit", 0.0),
        "isolines.extract_isolines.s": secs.get("isolines.extract_isolines", 0.0),
        "isolines.extract_isolines.vertices": amount.get("isolines.extract_isolines", 0),
        "isolines.extract_isolines.vertices_per_s": rate(
            amount.get("isolines.extract_isolines", 0),
            secs.get("isolines.extract_isolines", 0.0)),
        "indicators.pgg_field.s": secs.get("indicators.pgg_field", 0.0),
        "indicators.pgg_field.self_s": self_s.get("indicators.pgg_field", 0.0),
        "indicators.pgg_field.evaluate_calls":
            nested.get(("indicators.pgg_field", "field.evaluate_field"), 0),
        "indicators.uniformity.s": secs.get("indicators.uniformity", 0.0),
        "indicators.summary.s": secs.get("indicators.summary", 0.0),
        "gravity.numeric_breakpoint.s": secs.get("gravity.numeric_breakpoint", 0.0),
        "gravity.numeric_breakpoint.calls": calls.get("gravity.numeric_breakpoint", 0),
        "gravity.numeric_breakpoint.point_benefit_calls":
            nested.get(("gravity.numeric_breakpoint", "field.point_benefit"), 0),
        "gravity.huff_probabilities.s": secs.get("gravity.huff_probabilities", 0.0),
        "gravity.reilly_breakpoint.s": secs.get("gravity.reilly_breakpoint", 0.0),
        "trace.cli_main_coverage": rate(secs.get("cli.main", 0.0), wall_s),
        "trace.spans": n,
    })
    return m
