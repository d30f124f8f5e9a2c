"""One timed round: run a workload's job list through ``isobenefit.cli.main``.

Usage: python3 worker.py MANIFEST WORKDIR TRACE RESULT

Each round is a fresh interpreter, so every round pays the cold first
evaluation (page faults included) that a CLI user pays on every call. The
round deletes the previous round's outputs and runs every job once, one
after another (a closed loop with one client). Calibration slices are timed
around and inside each job (see calibrate.py), and each latency is also
given scaled to the reference host speed; the round's wall time is the sum
of the unscaled latencies. With TRACE=1 the layer
boundaries are wrapped first (see tracing.py), and the spans are written
to RESULT after the last job, outside the timed region. The outputs are
hashed after the round, so the caller can check that all rounds, traced or
not, wrote the same bytes.

RESULT receives the wall time, per-job latencies (unscaled and scaled),
exit codes, digests, spans (traced rounds only) and the process's peak RSS.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback

import calibrate
import tracing


def _digest(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    sha = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


def main(argv: list[str]) -> int:
    manifest_path, workdir, trace, result_path = argv
    with open(manifest_path, encoding="utf-8") as handle:
        jobs = json.load(handle)["jobs"]

    import isobenefit.cli as cli

    os.chdir(workdir)
    for job in jobs:
        for path in job["outputs"]:
            if os.path.exists(path):
                os.unlink(path)
    tracer = None
    if trace == "1":
        tracer = tracing.Tracer()
        tracing.install(tracer)
    sampler = calibrate.Sampler()
    codes = []
    latencies = []
    scaled = []
    before = sampler.edge()
    clock = time.perf_counter
    for job in jobs:
        sampler.start()
        t0 = clock()
        try:
            code = cli.main(job["argv"])
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed job, not a crashed round
            traceback.print_exc()
            code = -1
        latency = clock() - t0
        inside = sampler.stop()
        after = sampler.edge()
        latencies.append(latency)
        scaled.append(calibrate.scaled(latency, inside, before + after))
        codes.append(code)
        before = after
    wall = sum(latencies)
    sys.stdout.flush()

    result = {
        "trace": trace,
        "wall_s": wall,
        "latencies_s": latencies,
        "codes": codes,
        "scaled_s": scaled,
        "digests": [[_digest(p) for p in job["outputs"]] for job in jobs],
        "spans": tracer.spans if tracer is not None else None,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
