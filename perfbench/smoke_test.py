#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload at a tiny scale.

    python3 perfbench/smoke_test.py

Run from the root of a checkout. For each workload and each of
`--trace 0` and `--trace 1`, runs perfbench/run.py at smoke scale and
checks that the last output line parses, has exactly the result keys,
passes its correctness checks, and emits every metric BENCHMARK.json
names for that mode -- no more, no fewer -- each with its declared unit.
It also checks that the ambient-configuration guard refuses to run.
Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, env=None):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=600)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            tag = f"{workload} --trace {trace}"
            out = run(workload, trace)
            if out.returncode != 0:
                failures.append(f"{tag}: exit {out.returncode}\n{out.stderr[-2000:]}")
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{tag}: result keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                failures.append(f"{tag}: correct={result['correct']} attempted={result['attempted']}")
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if emitted != declared[trace]:
                missing = sorted(set(declared[trace]) - set(emitted))
                extra = sorted(set(emitted) - set(declared[trace]))
                units = sorted(k for k in emitted if k in declared[trace]
                               and emitted[k] != declared[trace][k])
                failures.append(f"{tag}: missing {missing}, extra {extra}, unit mismatch {units}")
            for k, v in result["metrics"].items():
                if not isinstance(v["value"], (int, float)):
                    failures.append(f"{tag}: {k} is not a number")
            print(f"ok  {tag}: {len(emitted)} metrics", flush=True)

    guarded = run("chengdu-freeflow", 0, env=dict(os.environ, URPSM_THREADS="2"))
    if guarded.returncode == 0 or guarded.stdout.strip():
        failures.append("the URPSM_* guard let a run through")
    else:
        print("ok  URPSM_* guard refuses to run")

    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
