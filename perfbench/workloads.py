"""Seeded inputs and job lists for the three benchmark workloads.

Everything here is a pure function of (workload, seed): the scenes are drawn
from ``random.Random(seed)`` and written as JSON, and each job is one
``isobenefit`` command line plus the parameters the oracle needs to check
its output. The program under test only ever sees the generated files.

Why these workloads:

* ``raster_export`` -- 9 amenities, one near the centre of each cell of a
  3x3 lattice with disamenities in two opposite corners, on a 384x384 grid.
  Evaluation is cheap; the time goes to writing and reading rasters of
  about 3 MB of text each, in both CSV and ESRI ASCII. The lattice keeps
  the contour work alike across seeds.
* ``dense_scene`` -- 600 amenities on a 128x128 grid with two profiles. The
  grid fits in cache and the outputs are small, so nearly all the time is
  field accumulation. ``alice`` shares E with the majority (an O(changed)
  PGG applies), ``bob`` has its own E (it cannot), and one sweep per kernel
  family lets a family-specific path show in its own metric.
* ``gravity_queries`` -- 200 positive amenities and no grid. Per-call
  overhead (scene load, argument parsing) and the Python loop inside
  ``point_benefit`` dominate; any grid-side change is bypassed here.

The job lists are short, so one round takes 1-2.5 s and a run holds enough
rounds for its medians.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

WORKLOADS = ("raster_export", "dense_scene", "gravity_queries")
FAMILIES = ("rational", "gaussian", "exponential")
# one E per family, chosen so every family decays noticeably across a
# scene about 10 units wide without underflowing to zero
FAMILY_E = {"rational": 1.0, "gaussian": 0.5, "exponential": 0.5}
# sharper decay for breakpoints: with FAMILY_E the 200-amenity context is so
# smooth that most segments have no interior minimum; with these about nine
# pairs in ten do, so the golden-section refinement is exercised
BREAKPOINT_E = {"rational": 0.2, "gaussian": 4.0, "exponential": 4.0}
# breakpoint and huff jobs per gravity_queries round: enough that the
# latency percentiles of one round barely depend on which pairs the seed drew
N_QUERIES = 30


def _grid_text(grid: tuple) -> str:
    return ",".join(repr(v) for v in grid)


def _write_scene(path: str, amenities: list, profiles: dict | None = None,
                 majority: str | None = None) -> str:
    doc: dict = {"amenities": [
        {"id": ident, "x": x, "y": y, "A": a} for ident, x, y, a in amenities]}
    if profiles is not None:
        doc["profiles"] = profiles
    if majority is not None:
        doc["majority"] = majority
    text = json.dumps(doc, indent=1) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    return hashlib.sha256(text.encode()).hexdigest()


def _amenities(rng: random.Random, n: int, extent: float, n_negative: int) -> list:
    # positions are uniform, so making the first n_negative ones
    # disamenities places them at random too
    out = []
    for k in range(n):
        a = -rng.uniform(0.5, 2.0) if k < n_negative else rng.uniform(0.5, 3.0)
        out.append((f"a{k}", rng.uniform(0.0, extent), rng.uniform(0.0, extent), a))
    return out


def _lattice_amenities(rng: random.Random, side: int, extent: float) -> list:
    # one amenity near the centre of each cell of a side x side lattice,
    # disamenities in two opposite corners: with so few amenities, uniform
    # positions and signs make the field's shape, and with it the contour
    # work, differ several-fold from seed to seed
    step = extent / side
    negative = {0, side * side - 1}
    out = []
    for k in range(side * side):
        a = -rng.uniform(0.5, 2.0) if k in negative else rng.uniform(0.5, 3.0)
        x = (k % side + 0.5 + rng.uniform(-0.25, 0.25)) * step
        y = (k // side + 0.5 + rng.uniform(-0.25, 0.25)) * step
        out.append((f"a{k}", x, y, a))
    return out


def _raster_export(rng: random.Random) -> tuple[dict, list]:
    cell = 0.025
    grid = (cell / 2, cell / 2, cell, 384, 384)
    scene = _lattice_amenities(rng, 3, 384 * cell)
    g = _grid_text(grid)
    jobs = [
        {"kind": "field_parts", "scene": "scene.json", "kernel": "rational",
         "efficiency": FAMILY_E["rational"], "grid": grid,
         "outputs": ["field.csv", "field_positive.csv", "field_negative.csv"],
         "argv": ["field", "--scene", "scene.json", "--kernel", "rational",
                  "--efficiency", repr(FAMILY_E["rational"]), "--grid", g,
                  "--out", "field.csv", "--parts"]},
        {"kind": "field", "scene": "scene.json", "kernel": "gaussian",
         "efficiency": FAMILY_E["gaussian"], "grid": grid, "outputs": ["gauss.asc"],
         "argv": ["field", "--scene", "scene.json", "--kernel", "gaussian",
                  "--efficiency", repr(FAMILY_E["gaussian"]), "--grid", g,
                  "--out", "gauss.asc"]},
        {"kind": "isolines", "raster": "field.csv", "nlevels": 24,
         "outputs": ["isolines.geojson"],
         "argv": ["isolines", "--raster", "field.csv", "--nlevels", "24",
                  "--out", "isolines.geojson"]},
        {"kind": "uniformity_raster", "raster": "gauss.asc",
         "outputs": ["gauss_uniformity.json"],
         "argv": ["uniformity", "--raster", "gauss.asc", "--out", "gauss_uniformity.json"]},
    ]
    return {"scene.json": (scene, None, None)}, jobs


def _dense_scene(rng: random.Random) -> tuple[dict, list]:
    cell = 0.08
    grid = (cell / 2, cell / 2, cell, 128, 128)
    scene = _amenities(rng, 600, 128 * cell, n_negative=60)
    changed = sorted(rng.sample(range(len(scene)), len(scene) // 20))
    overrides = {scene[k][0]: rng.uniform(0.5, 3.0) for k in changed}
    profiles = {
        "median": {},
        "alice": {"overrides": overrides},
        "bob": {"E": 1.7, "overrides": overrides},
    }
    g = _grid_text(grid)
    jobs = []
    for family in FAMILIES:
        e = FAMILY_E[family]
        efficiencies = [e]
        out = f"sweep_{family}.json"
        jobs.append({
            "kind": "sweep", "scene": "scene.json", "kernel": family,
            "efficiencies": efficiencies, "grid": grid, "outputs": [out],
            "argv": ["sweep", "--scene", "scene.json", "--kernel", family,
                     "--efficiencies", ",".join(repr(v) for v in efficiencies),
                     "--grid", g, "--out", out]})
    jobs.append({
        "kind": "uniformity_scene", "scene": "scene.json", "kernel": "rational",
        "efficiency": FAMILY_E["rational"], "grid": grid,
        "outputs": ["scene_uniformity.json"],
        "argv": ["uniformity", "--scene", "scene.json", "--kernel", "rational",
                 "--efficiency", repr(FAMILY_E["rational"]), "--grid", g,
                 "--out", "scene_uniformity.json"]})
    for person in ("alice", "bob"):
        jobs.append({
            "kind": "pgg", "scene": "scene.json", "kernel": "rational",
            "efficiency": FAMILY_E["rational"], "grid": grid, "person": person,
            "outputs": [f"pgg_{person}.csv", f"pgg_{person}.json"],
            "argv": ["pgg", "--scene", "scene.json", "--kernel", "rational",
                     "--efficiency", repr(FAMILY_E["rational"]), "--grid", g,
                     "--person", person, "--out", f"pgg_{person}.csv",
                     "--report", f"pgg_{person}.json"]})
    return {"scene.json": (scene, profiles, "median")}, jobs


def _gravity_queries(rng: random.Random) -> tuple[dict, list]:
    extent = 10.0
    scene = _amenities(rng, 200, extent, n_negative=0)
    jobs = []
    for k in range(N_QUERIES):
        family = FAMILIES[k % 3]
        i, j = rng.sample(range(len(scene)), 2)
        pair = [scene[i][0], scene[j][0]]
        out = f"bp{k:03d}.json"
        jobs.append({
            "kind": "breakpoint", "scene": "scene.json", "kernel": family,
            "efficiency": BREAKPOINT_E[family], "pair": pair, "resolution": 101,
            "outputs": [out],
            "argv": ["breakpoint", "--scene", "scene.json", "--kernel", family,
                     "--efficiency", repr(BREAKPOINT_E[family]), "--pair", ",".join(pair),
                     "--with-context", "--out", out]})
    for k in range(N_QUERIES):
        origin = (rng.uniform(0.0, extent), rng.uniform(0.0, extent))
        out = f"huff{k:03d}.json"
        jobs.append({
            "kind": "huff", "scene": "scene.json", "origin": origin, "outputs": [out],
            "argv": ["huff", "--scene", "scene.json",
                     "--origin", f"{origin[0]!r},{origin[1]!r}", "--out", out]})
    for family in FAMILIES:
        efficiencies = [FAMILY_E[family] * f for f in (0.25, 0.5, 1.0, 2.0, 4.0)]
        out = f"curve_{family}.csv"
        jobs.append({
            "kind": "curve", "kernel": family, "attractiveness": 3.0,
            "efficiencies": efficiencies, "dmax": extent, "samples": 2001,
            "outputs": [out],
            "argv": ["curve", "--kernel", family, "--attractiveness", "3.0",
                     "--efficiencies", ",".join(repr(v) for v in efficiencies),
                     "--dmax", repr(extent), "--samples", "2001", "--out", out]})
    return {"scene.json": (scene, None, None)}, jobs


_BUILDERS = {
    "raster_export": _raster_export,
    "dense_scene": _dense_scene,
    "gravity_queries": _gravity_queries,
}


def build(workload: str, seed: int, directory: str) -> dict:
    """Write the workload's scenes into ``directory`` and return its manifest:
    the job list and the SHA-256 of each scene file."""
    rng = random.Random(f"{workload}:{seed}")
    scenes, jobs = _BUILDERS[workload](rng)
    hashes = {}
    for name, (amenities, profiles, majority) in scenes.items():
        hashes[name] = _write_scene(os.path.join(directory, name), amenities,
                                    profiles, majority)
    return {"workload": workload, "seed": seed, "scene_sha256": hashes, "jobs": jobs}
