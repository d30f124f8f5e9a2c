"""Output oracle: checks every output of a round against independently
written references. Nothing here imports the package; the kernels, the
file parsers and the statistics are written out again, term by term.

:func:`check` returns, per job index, the list of problems found (empty
when the job's outputs are right). It runs after the timed rounds.
"""

from __future__ import annotations

import json
import math
import os
import random

import numpy as np

REL = 1e-12  # relative tolerance against the sum of absolute terms
U_ABS = 1e-9  # uniformity coefficient, as in the acceptance tests
SAMPLED_CELLS = 64
DENSE_SAMPLES = 401


def kernel(a: float, d: float, family: str, e: float) -> float:
    if family == "rational":
        return a / (1.0 + d / e)
    if family == "gaussian":
        return a * math.exp(-e * d * d)
    return a * math.exp(-e * d)


def kernel_np(a: float, d: np.ndarray, family: str, e: float) -> np.ndarray:
    if family == "rational":
        return a / (1.0 + d / e)
    if family == "gaussian":
        return a * np.exp(-e * d * d)
    return a * np.exp(-e * d)


def _close(got: float, want: float, scale: float, rel: float = REL) -> bool:
    return abs(got - want) <= rel * scale


# ------------------------------------------------------------------ inputs


def _scene(path: str, profile: str | None = None, family_e: float | None = None):
    """(x, y, A) triples and the E in force, with the profile applied."""
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    body = doc.get("profiles", {}).get(profile, {}) if profile else {}
    overrides = body.get("overrides", {})
    amenities = [(float(a["x"]), float(a["y"]), float(overrides.get(a["id"], a["A"])))
                 for a in doc["amenities"]]
    e = body.get("E") if body.get("E") is not None else family_e
    return amenities, doc, e


def _point(amenities, family: str, e: float, x: float, y: float):
    """Independent point benefit: (total, positive part, negative part,
    sum of absolute terms)."""
    terms = [kernel(a, math.hypot(x - ax, y - ay), family, e) for ax, ay, a in amenities]
    return (math.fsum(terms), math.fsum(t for t in terms if t > 0),
            math.fsum(t for t in terms if t < 0), math.fsum(abs(t) for t in terms))


def _field_parts(amenities, family: str, e: float, grid) -> tuple:
    x0, y0, cell, ncols, nrows = grid
    xs = x0 + np.arange(ncols) * cell
    ys = y0 + np.arange(nrows) * cell
    pos = np.zeros((nrows, ncols))
    neg = np.zeros((nrows, ncols))
    for ax, ay, a in amenities:
        d = np.sqrt((xs[np.newaxis, :] - ax) ** 2 + (ys[:, np.newaxis] - ay) ** 2)
        if a > 0:
            pos += kernel_np(a, d, family, e)
        elif a < 0:
            neg += kernel_np(a, d, family, e)
    return pos + neg, pos, neg


# ------------------------------------------------------------------ parsers


def read_csv_raster(path: str):
    """Raster CSV as (grid, values[nrows, ncols] with row 0 at the bottom)."""
    with open(path, encoding="utf-8") as handle:
        header = handle.readline()
        rows = [np.fromiter(map(float, line.split(",")), dtype=float)
                for line in handle if line.strip()]
    fields = header.lstrip("#").strip().split(",")
    grid = (float(fields[2]), float(fields[3]), float(fields[4]),
            int(fields[0]), int(fields[1]))
    return grid, np.array(rows[::-1])


def read_asc_raster(path: str):
    with open(path, encoding="utf-8") as handle:
        head = {}
        for _ in range(6):
            key, value = handle.readline().split()
            head[key.upper()] = float(value)
        rows = [np.fromiter(map(float, line.split()), dtype=float)
                for line in handle if line.strip()]
    cell = head["CELLSIZE"]
    grid = (head["XLLCORNER"] + cell / 2.0, head["YLLCORNER"] + cell / 2.0, cell,
            int(head["NCOLS"]), int(head["NROWS"]))
    return grid, np.array(rows[::-1])


def read_raster(path: str):
    return read_asc_raster(path) if path.endswith(".asc") else read_csv_raster(path)


def _json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ------------------------------------------------------------------ checks


def _check_grid(got, want, what: str, out: list) -> bool:
    same = (got[3], got[4]) == (want[3], want[4]) and all(
        _close(g, w, abs(want[2])) for g, w in zip(got[:3], want[:3]))
    if not same:
        out.append(f"{what}: grid {got} differs from the requested {want}")
    return same


def _sampled_cells(values, amenities, family, e, grid, rng, what, out, part=0) -> None:
    """Compare sampled cells with the independent kernel sum; ``part`` picks
    total (0), positive (1) or negative (2)."""
    x0, y0, cell, ncols, nrows = grid
    picks = [(0, 0), (ncols - 1, nrows - 1)] + [
        (rng.randrange(ncols), rng.randrange(nrows)) for _ in range(SAMPLED_CELLS)]
    for i, j in picks:
        want = _point(amenities, family, e, x0 + i * cell, y0 + j * cell)
        if not _close(float(values[j, i]), want[part], want[3]):
            out.append(f"{what}: cell ({i},{j}) is {values[j, i]!r}, "
                       f"independent sum gives {want[part]!r}")
            return


def _check_summary(values: np.ndarray, summary: dict, what: str, out: list) -> None:
    v = values.reshape(-1)
    scale = float(np.abs(v).sum())
    want = {"total": float(v.sum()), "min": float(v.min()), "max": float(v.max())}
    for key, w in want.items():
        if not _close(summary[key], w, scale):
            out.append(f"{what}: summary {key} {summary[key]!r}, numpy gives {w!r}")
    if not _close(summary["mean"], want["total"] / v.size, scale / v.size):
        out.append(f"{what}: summary mean {summary['mean']!r} is not total/count")
    if summary["count"] != v.size:
        out.append(f"{what}: summary count {summary['count']} for {v.size} cells")


def _check_u(values: np.ndarray, uni: dict, what: str, out: list) -> None:
    v = values.reshape(-1)
    mean = float(v.mean())
    u = 1.0 - float(v.std()) / mean
    if abs(uni["u"] - u) > U_ABS or not _close(uni["mean"], mean, float(np.abs(v).mean())):
        out.append(f"{what}: U {uni['u']!r} (mean {uni['mean']!r}), numpy gives "
                   f"{u!r} (mean {mean!r})")
    if uni["count"] != v.size or uni["negative_mean"] != (mean < 0):
        out.append(f"{what}: count {uni['count']}, negative_mean {uni['negative_mean']}")


def _check_field(job, rng, read, out) -> None:
    amenities, _, e = _scene(job["scene"], None, job["efficiency"])
    grid = tuple(job["grid"])
    rasters = [read(path) for path in job["outputs"]]
    for (got_grid, _), path in zip(rasters, job["outputs"]):
        if not _check_grid(got_grid, grid, path, out):
            return
    for part, ((_, values), path) in enumerate(zip(rasters, job["outputs"])):
        _sampled_cells(values, amenities, job["kernel"], e, grid, rng, path, out, part)
    if job["kind"] == "field_parts":
        total, pos, neg = (values for _, values in rasters)
        if (pos < 0).any() or (neg > 0).any():
            out.append("positive/negative part has a cell of the wrong sign")
        bad = np.abs(pos + neg - total) > REL * (np.abs(pos) + np.abs(neg))
        if bad.any():
            out.append(f"positive + negative differs from the total in {int(bad.sum())} cells")


def _check_isolines(job, read, out) -> None:
    (x0, y0, cell, ncols, nrows), V = read(job["raster"])
    doc = _json(job["outputs"][0])
    vmin, vmax = float(V.min()), float(V.max())
    tol = REL * (vmax - vmin)
    want_levels = np.linspace(vmin, vmax, job["nlevels"] + 2)[1:-1]
    levels = np.array(doc["levels"], dtype=float)
    if levels.shape != want_levels.shape or (np.abs(levels - want_levels) > tol).any():
        out.append(f"levels {doc['levels']} are not {job['nlevels']} even steps")
        return
    if not doc["features"]:
        out.append("no contour lines")
    for k, feature in enumerate(doc["features"]):
        level = feature["properties"]["level"]
        pts = np.array(feature["geometry"]["coordinates"], dtype=float)
        fi = (pts[:, 0] - x0) / cell
        fj = (pts[:, 1] - y0) / cell
        on_row = np.abs(fj - np.rint(fj)) <= 1e-6
        on_col = np.abs(fi - np.rint(fi)) <= 1e-6
        # row edge: (i, j)-(i+1, j); column edge: (i, j)-(i, j+1)
        ri = np.clip(np.rint(fi).astype(int), 0, ncols - 1)
        rj = np.clip(np.rint(fj).astype(int), 0, nrows - 1)
        fl_i = np.clip(np.floor(fi).astype(int), 0, ncols - 2)
        fl_j = np.clip(np.floor(fj).astype(int), 0, nrows - 2)
        # the ends must bracket the level and the vertex must sit where
        # linear interpolation between them puts it
        with np.errstate(divide="ignore", invalid="ignore"):
            a, b = V[rj, fl_i], V[rj, fl_i + 1]
            row_ok = (on_row & (np.minimum(a, b) - tol <= level)
                      & (level <= np.maximum(a, b) + tol)
                      & (np.abs(fl_i + (level - a) / (b - a) - fi) <= 1e-6))
            a, b = V[fl_j, ri], V[fl_j + 1, ri]
            col_ok = (on_col & (np.minimum(a, b) - tol <= level)
                      & (level <= np.maximum(a, b) + tol)
                      & (np.abs(fl_j + (level - a) / (b - a) - fj) <= 1e-6))
        inside = (fi >= -1e-6) & (fi <= ncols - 1 + 1e-6) & (fj >= -1e-6) & (fj <= nrows - 1 + 1e-6)
        bad = ~((row_ok | col_ok) & inside)
        if bad.any():
            x, y = pts[int(np.argmax(bad))]
            out.append(f"feature #{k}: vertex ({x!r}, {y!r}) is not on a lattice edge "
                       f"bracketing level {level!r}")
            return


def _check_uniformity_raster(job, read, out) -> None:
    _, values = read(job["raster"])
    report = _json(job["outputs"][0])
    _check_summary(values, report["summary"], "report", out)
    _check_u(values, report["uniformity"]["all"], "report", out)


def _check_uniformity_scene(job, out) -> None:
    amenities, _, e = _scene(job["scene"], None, job["efficiency"])
    fields = _field_parts(amenities, job["kernel"], e, tuple(job["grid"]))
    report = _json(job["outputs"][0])
    _check_summary(fields[0], report["summary"], "all", out)
    for name, values in zip(("all", "positive", "negative"), fields):
        _check_u(values, report["uniformity"][name], name, out)


def _check_sweep(job, out) -> None:
    amenities, _, _ = _scene(job["scene"])
    report = _json(job["outputs"][0])
    if [row["efficiency"] for row in report["rows"]] != job["efficiencies"]:
        out.append("sweep rows do not follow the requested efficiencies")
        return
    for row in report["rows"]:
        total, _, _ = _field_parts(amenities, job["kernel"], row["efficiency"],
                                   tuple(job["grid"]))
        what = f"E={row['efficiency']!r}"
        _check_summary(total, row["summary"], what, out)
        _check_u(total, row["uniformity"], what, out)


def _check_pgg(job, rng, out) -> None:
    person, doc, e_person = _scene(job["scene"], job["person"], job["efficiency"])
    majority, _, e_majority = _scene(job["scene"], doc.get("majority"), job["efficiency"])
    grid, values = read_csv_raster(job["outputs"][0])
    if not _check_grid(grid, tuple(job["grid"]), job["outputs"][0], out):
        return
    x0, y0, cell, ncols, nrows = grid
    for _ in range(SAMPLED_CELLS):
        i, j = rng.randrange(ncols), rng.randrange(nrows)
        x, y = x0 + i * cell, y0 + j * cell
        p = _point(person, job["kernel"], e_person, x, y)
        m = _point(majority, job["kernel"], e_majority, x, y)
        if not _close(float(values[j, i]), p[0] - m[0], p[3] + m[3]):
            out.append(f"pgg cell ({i},{j}) is {values[j, i]!r}, "
                       f"independent difference gives {p[0] - m[0]!r}")
            break
    report = _json(job["outputs"][1])
    _check_summary(values, report["summary"], "pgg report", out)
    gains, losses = int((values > 0).sum()), int((values < 0).sum())
    if (report["gain_cells"], report["loss_cells"]) != (gains, losses):
        out.append(f"pgg report counts {report['gain_cells']}/{report['loss_cells']} "
                   f"gain/loss cells, the raster has {gains}/{losses}")


def _check_breakpoint(job, out) -> None:
    with open(job["scene"], encoding="utf-8") as handle:
        doc = json.load(handle)
    by_id = {a["id"]: (float(a["x"]), float(a["y"]), float(a["A"])) for a in doc["amenities"]}
    amenities = list(by_id.values())
    (x1, y1, a1), (x2, y2, a2) = (by_id[ident] for ident in job["pair"])
    family, e = job["kernel"], job["efficiency"]
    d = math.hypot(x2 - x1, y2 - y1)
    report = _json(job["outputs"][0])
    reilly = report["reilly"]
    if not _close(reilly["distance_from_2"], d / (1.0 + math.sqrt(a1 / a2)), d):
        out.append(f"reilly distance {reilly['distance_from_2']!r} is off")

    xs = np.array([a[0] for a in amenities])
    ys = np.array([a[1] for a in amenities])
    weights = np.array([a[2] for a in amenities])

    def profile(ts: np.ndarray):
        px = x1 + ts[:, np.newaxis] * (x2 - x1)
        py = y1 + ts[:, np.newaxis] * (y2 - y1)
        dist = np.sqrt((px - xs) ** 2 + (py - ys) ** 2)
        terms = kernel_np(weights, dist, family, e)
        return terms.sum(axis=1), np.abs(terms).sum(axis=1)

    numeric = report["numeric"]
    n = job["resolution"]
    coarse, coarse_scale = profile(np.arange(n + 2) / (n + 1))
    tol = REL * float(coarse_scale.max())
    if "error" in numeric:
        if float(coarse[1:-1].min()) < min(coarse[0], coarse[-1]) - tol:
            out.append("no interior minimum reported, but the sampled profile has one")
        return
    if float(coarse[1:-1].min()) > min(coarse[0], coarse[-1]) + tol:
        out.append("interior minimum reported, but the sampled profile is lowest at an end")
    bx, by = numeric["position"]
    got = _point(amenities, family, e, bx, by)
    if not _close(numeric["benefit_at_point"], got[0], got[3]):
        out.append(f"benefit at the breakpoint {numeric['benefit_at_point']!r}, "
                   f"independent sum gives {got[0]!r}")
    if not _close(numeric["distance_from_1"] + numeric["distance_from_2"], d, d):
        out.append("breakpoint distances do not add up to the pair distance")
    t = numeric["distance_from_1"] / d
    half = 1.0 / (n + 1)
    dense, _ = profile(np.linspace(max(0.0, t - half), min(1.0, t + half), DENSE_SAMPLES))
    if numeric["benefit_at_point"] > float(dense.min()) + tol:
        out.append(f"breakpoint benefit {numeric['benefit_at_point']!r} is above the "
                   f"dense-sampled minimum {float(dense.min())!r} around it")


def _check_huff(job, out) -> None:
    with open(job["scene"], encoding="utf-8") as handle:
        doc = json.load(handle)
    ox, oy = job["origin"]
    weights = {a["id"]: a["A"] / math.hypot(ox - a["x"], oy - a["y"]) for a in doc["amenities"]}
    total = math.fsum(weights.values())
    got = _json(job["outputs"][0])["probabilities"]
    if set(got) != set(weights):
        out.append("huff probabilities do not cover the scene's amenities")
        return
    if abs(math.fsum(got.values()) - 1.0) > REL:
        out.append(f"huff probabilities sum to {math.fsum(got.values())!r}")
    for ident, w in weights.items():
        if not _close(got[ident], w / total, w / total):
            out.append(f"huff probability of {ident} is {got[ident]!r}, A/d gives {w / total!r}")
            return


def _check_curve(job, out) -> None:
    with open(job["outputs"][0], encoding="utf-8") as handle:
        rows = [line.split(",") for line in handle.read().splitlines()]
    if len(rows) != job["samples"] + 1 or len(rows[0]) != len(job["efficiencies"]) + 1:
        out.append(f"curve has {len(rows)} lines of {len(rows[0])} columns")
        return
    step = job["dmax"] / (job["samples"] - 1)
    for k, row in enumerate(rows[1:]):
        d = float(row[0])
        if not _close(d, k * step, job["dmax"]):
            out.append(f"curve row {k} is at d={d!r}")
            return
        for cell, e in zip(row[1:], job["efficiencies"]):
            want = kernel(job["attractiveness"], d, job["kernel"], e)
            if not _close(float(cell), want, abs(want)):
                out.append(f"curve E={e!r} at d={d!r} is {cell}, independent form gives {want!r}")
                return


def check(manifest: dict, workdir: str) -> dict[int, list[str]]:
    """Problems found in each job's outputs, keyed by job index."""
    rng = random.Random(manifest["seed"])
    rasters: dict[str, tuple] = {}  # a raster written by one job is read by the next

    def read(path: str):
        if path not in rasters:
            rasters[path] = read_raster(path)
        return rasters[path]

    problems: dict[int, list[str]] = {}
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for k, job in enumerate(manifest["jobs"]):
            out: list[str] = []
            missing = [path for path in job["outputs"] if not os.path.exists(path)]
            if missing:
                out.append(f"missing output {missing}")
            else:
                kind = job["kind"]
                try:
                    if kind in ("field", "field_parts"):
                        _check_field(job, rng, read, out)
                    elif kind == "isolines":
                        _check_isolines(job, read, out)
                    elif kind == "uniformity_raster":
                        _check_uniformity_raster(job, read, out)
                    elif kind == "uniformity_scene":
                        _check_uniformity_scene(job, out)
                    elif kind == "sweep":
                        _check_sweep(job, out)
                    elif kind == "pgg":
                        _check_pgg(job, rng, out)
                    elif kind == "breakpoint":
                        _check_breakpoint(job, out)
                    elif kind == "huff":
                        _check_huff(job, out)
                    else:
                        _check_curve(job, out)
                except (OSError, ValueError, KeyError, IndexError, TypeError,
                        ArithmeticError) as exc:
                    out.append(f"unreadable output: {type(exc).__name__}: {exc}")
            problems[k] = out
    finally:
        os.chdir(here)
    return problems
