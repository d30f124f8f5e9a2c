"""Benchmark entry point: seeded inputs, timed rounds through the CLI, oracle.

Usage (from the repository root):

    python3 perfbench/run.py --workload raster_export --seed 1 --seconds 34 --trace 0

One run:

1. Set-up, repeated SETUP_REPS times in fresh interpreters: import
   ``isobenefit.cli`` and write the workload's seeded inputs
   (make_inputs.py). ``setup_s`` is the median, timed from process start.
2. Timed rounds until ``--seconds`` is used up: each round is a fresh
   interpreter (worker.py) that runs the whole job list through
   ``isobenefit.cli.main``, with BLAS capped at one thread before numpy is
   imported. Calibration slices timed around and inside every job
   (calibrate.py) scale each job's latency to a reference host speed, and
   each reported job time is a median over rounds. With ``--trace 1``
   untraced and traced rounds alternate, so the per-layer metrics and the
   tracing overhead come from one run.
3. Checks, outside the timed region: every round's outputs must be
   byte-identical to the first round's (traced and untraced alike), the
   last round's outputs must satisfy the independent oracle (oracle.py),
   and the output digests must match those of earlier runs of the same
   sources on the same inputs.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``. A fuller record (provenance, per-round figures, digests,
oracle findings) is written to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import oracle
import tracing
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPS = 9
BLAS_THREADS = 1
MIN_ROUNDS = 4
CHILD_TIMEOUT_S = 150.0


def _args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _source_digest() -> str:
    sha = hashlib.sha256()
    package = os.path.join(ROOT, "src", "isobenefit")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            sha.update(name.encode() + b"\0")
            with open(os.path.join(package, name), "rb") as handle:
                sha.update(handle.read())
    return sha.hexdigest()


def _git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def _run_child(argv: list[str], env: dict, log) -> tuple[int, float]:
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, *argv], env=env, stdout=log,
                              stderr=log, timeout=CHILD_TIMEOUT_S)
        code = done.returncode
    except subprocess.TimeoutExpired:
        code = -9
    return code, time.perf_counter() - start


def _quantiles_ms(latencies: list[float]) -> tuple[float, float]:
    ms = [1000.0 * t for t in latencies]
    return statistics.median(ms), statistics.quantiles(ms, n=10, method="inclusive")[8]


def _set_up(args: argparse.Namespace, env: dict, workdir: str, log) -> tuple[dict, list, bool]:
    """Run the set-up SETUP_REPS times; return the manifest, the times, and
    whether every repetition wrote the same manifest."""
    manifest_path = os.path.join(workdir, "manifest.json")
    times = []
    manifests = set()
    for _ in range(SETUP_REPS):
        code, elapsed = _run_child(
            [os.path.join(BENCH, "make_inputs.py"), args.workload, str(args.seed), workdir],
            env, log)
        if code != 0:
            raise RuntimeError(f"set-up exited with {code}; see {log.name}")
        times.append(elapsed)
        with open(manifest_path, encoding="utf-8") as handle:
            manifests.add(handle.read())
    manifest = json.loads(manifests.pop())
    if not manifest["package"].startswith(os.path.join(ROOT, "src")):
        raise RuntimeError(f"isobenefit was imported from {manifest['package']}, "
                           "not from this checkout")
    return manifest, times, not manifests


def _timed_rounds(args: argparse.Namespace, env: dict, manifest: dict, workdir: str,
                  log) -> tuple[list, list, list]:
    """Run rounds until --seconds is used up. Returns the round results, one
    row of per-job failure flags per round, and the first round's digests."""
    flags = ["0"] if args.trace == 0 else ["0", "1"]
    result_path = os.path.join(WORK, "round.json")
    rounds = []
    failed = []
    first_digests = None
    start = time.perf_counter()
    while True:
        flag = flags[len(rounds) % len(flags)]
        code, _ = _run_child(
            [os.path.join(BENCH, "worker.py"), os.path.join(workdir, "manifest.json"),
             workdir, flag, result_path], env, log)
        if code != 0:
            raise RuntimeError(f"round {len(rounds)} exited with {code}; see {log.name}")
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
        os.unlink(result_path)
        if first_digests is None:
            first_digests = result["digests"]
        failed.append([c != 0 or d != d0 for c, d, d0
                       in zip(result["codes"], result["digests"], first_digests)])
        if flag == "1":
            result["layers"] = tracing.layer_metrics(result["spans"], result["wall_s"])
        del result["spans"]
        rounds.append(result)
        # stop when the next round would end more than half a round past the
        # deadline, so a run measures --seconds on average
        now = time.perf_counter()
        per_round = (now - start) / len(rounds)
        if len(rounds) >= MIN_ROUNDS and now + per_round / 2 > start + args.seconds:
            return rounds, failed, first_digests


def _check_digests(manifest: dict, digests: list, src_sha: str, problems: dict) -> None:
    """Compare output digests with an earlier run of the same sources on the
    same inputs, or store them for the next run."""
    inputs_sha = hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest()
    store = os.path.join(WORK, "results", f"digests-{src_sha[:16]}-{inputs_sha[:16]}.json")
    if not os.path.exists(store):
        with open(store, "w", encoding="utf-8") as handle:
            json.dump(digests, handle)
        return
    with open(store, encoding="utf-8") as handle:
        earlier = json.load(handle)
    for k, (now_d, then_d) in enumerate(zip(digests, earlier)):
        if now_d != then_d:
            problems[k].append("output digest differs from an earlier run "
                               "of these sources on these inputs")


def _values(workload: str, jobs: list, setup: list, rounds: list) -> dict:
    """All metric values of a run. Job timings are scaled to the reference
    host speed; ``wall_s`` sums each job's median over the rounds, and the
    latency percentiles are medians over the rounds of each round's
    percentiles. ``host_wall_s``, the median unscaled round time, is kept
    for the record. Per-layer metrics are medians over the traced rounds."""
    plain = [r for r in rounds if r["trace"] == "0"]
    traced = [r for r in rounds if r["trace"] == "1"]
    scaled = [r["scaled_s"] for r in plain]
    query = [k for k, job in enumerate(jobs)
             if workload != "gravity_queries" or job["kind"] == "breakpoint"]
    quant = [_quantiles_ms([lat[k] for k in query]) for lat in scaled]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(statistics.median(lat[k] for lat in scaled) for k in range(len(jobs))),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024.0 for r in plain),
        "query_p50_ms": statistics.median(q[0] for q in quant),
        "query_p90_ms": statistics.median(q[1] for q in quant),
        "host_wall_s": statistics.median(r["wall_s"] for r in plain),
    }
    if traced:
        for name in traced[0]["layers"]:
            values[name] = statistics.median(r["layers"][name] for r in traced)
        values["trace.overhead_ratio"] = (
            sum(statistics.median(r["scaled_s"][k] for r in traced)
                for k in range(len(jobs))) / values["wall_s"])
    return values


def run(args: argparse.Namespace) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    nproc = len(os.sched_getaffinity(0))
    env = _child_env()
    workdir = os.path.join(WORK, "work")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "children.log"), "w", encoding="utf-8") as log:
        manifest, setup_times, setup_deterministic = _set_up(args, env, workdir, log)
        rounds, failed, digests = _timed_rounds(args, env, manifest, workdir, log)

    # checks outside the timed region
    oracle_start = time.perf_counter()
    problems = oracle.check(manifest, workdir)
    oracle_s = time.perf_counter() - oracle_start
    shutil.rmtree(workdir, ignore_errors=True)
    src_sha = _source_digest()
    _check_digests(manifest, digests, src_sha, problems)
    for row in failed:
        for k, bad in problems.items():
            row[k] = row[k] or bool(bad) or not setup_deterministic

    values = _values(args.workload, manifest["jobs"], setup_times, rounds)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    attempted = sum(len(row) for row in failed)
    n_failed = sum(sum(row) for row in failed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {
            "nproc": nproc,
            "blas_thread_cap": BLAS_THREADS,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas(),
            "git_commit": _git_commit(),
            "source_sha256": src_sha,
            "scene_sha256": manifest["scene_sha256"],
            "package": manifest["package"],
        },
        "correct": n_failed == 0,
        "attempted": attempted,
        "failed": n_failed,
        "error_rate": n_failed / attempted,
        "setup_deterministic": setup_deterministic,
        "oracle_problems": {str(k): v for k, v in problems.items() if v},
        "rounds": [{key: r[key] for key in ("trace", "wall_s", "peak_rss_kb", "codes",
                                            "latencies_s", "scaled_s")}
                   for r in rounds],
        "setup_times_s": setup_times,
        "oracle_s": oracle_s,
        "output_sha256": digests,
        "values": values,
        "traced_rounds": [r["layers"] for r in rounds if r["trace"] == "1"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK, "results", name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return record


def main(argv: list[str]) -> int:
    args = _args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "isobenefit", "cli.py")):
        print(f"error: no package sources under {os.path.join(ROOT, 'src')}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    try:
        record = run(args)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    prov = record["provenance"]
    print(f"{record['workload']} seed={record['seed']} rounds={len(record['rounds'])} "
          f"nproc={prov['nproc']} python={prov['python']} numpy={prov['numpy']} "
          f"blas={prov['blas']} commit={prov['git_commit']}")
    for k, problem in record["oracle_problems"].items():
        print(f"oracle: job {k}: {'; '.join(problem)}")
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
