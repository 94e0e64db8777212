#!/usr/bin/env python3
"""Records the event-log digest of every workload for a range of seeds.

    python3 perfbench/record_digests.py [--seeds 0-99]

Run from the root of a checkout. Writes perfbench/digests.json, which
perfbench/run.py checks every run against. Re-record only when a change
is meant to alter what the planner decides; a performance change must
leave every digest as it is.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-99", help="inclusive range, e.g. 0-99")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    binary = run.build("untraced")
    if binary is None:
        return 1
    work = os.path.join(run.target_dir(), "work")
    path = os.path.join(run.HERE, "digests.json")
    with open(path) as f:
        table = json.load(f)
    for workload in run.WORKLOADS:
        for seed in range(lo, hi + 1):
            out = subprocess.run(
                [binary, "digest", "--workload", workload, "--seed", str(seed),
                 "--work-dir", work],
                cwd=run.ROOT, check=True, capture_output=True, text=True)
            table.setdefault(workload, {})[str(seed)] = out.stdout.strip()
            run.log(f"{workload} seed {seed}: {out.stdout.strip()}")
    with open(path, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
