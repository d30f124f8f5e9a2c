"""Set-up step, timed from interpreter start: import ``isobenefit.cli`` and
write a workload's seeded inputs plus its manifest.

Usage: python3 make_inputs.py WORKLOAD SEED DIRECTORY
"""

from __future__ import annotations

import json
import os
import sys

import isobenefit.cli  # noqa: F401  (its import is part of set-up time)
import workloads


def main(argv: list[str]) -> int:
    workload, seed, directory = argv
    manifest = workloads.build(workload, int(seed), directory)
    manifest["package"] = os.path.dirname(os.path.abspath(isobenefit.cli.__file__))
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
