#!/usr/bin/env python3
"""The repository benchmark: replay one seeded workload and print its metrics.

    python3 perfbench/run.py --workload chengdu-freeflow --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The script builds the benchmark package
(`perfbench/Cargo.toml`) twice from source -- untraced and with the
`traced` feature -- into `$CARGO_TARGET_DIR` (default `.bench_build`),
runs the build the `--trace` flag asks for, checks the outputs, and
prints one JSON object as the last line of standard output:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics of an untraced run. `--trace 1`
reports the per-layer ledger of a traced run, plus the tracing overhead
against a shorter untraced companion run. `--tiny` shrinks every workload
to a smoke scale. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("chengdu-freeflow", "chengdu-rush", "metropolis-ingest")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(variant):
    """Builds one variant; returns the binary path or None on failure."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--target-dir", os.path.join(target_dir(), variant),
    ]
    if variant == "traced":
        cmd += ["--features", "traced"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        log(f"cannot run cargo: {e}")
        return None
    if done.returncode != 0:
        log(f"building the {variant} benchmark failed")
        return None
    return os.path.join(target_dir(), variant, "release", "urpsm-perfbench")


def run_binary(binary, args):
    """Runs the benchmark binary; returns its parsed result line or None."""
    try:
        done = subprocess.run(
            [binary] + args, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
            text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        log(f"{os.path.basename(binary)} {' '.join(args)} timed out")
        return None
    lines = done.stdout.strip().splitlines()
    if not lines:
        log(f"benchmark binary exited {done.returncode} without a result")
        return None
    return json.loads(lines[-1])


def environment():
    def first_line(cmd):
        try:
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            return out.stdout.strip().splitlines()[0] if out.returncode == 0 else "unknown"
        except (OSError, IndexError):
            return "unknown"

    return {
        "commit": first_line(["git", "rev-parse", "HEAD"]),
        "rustc": first_line(["rustc", "--version"]),
        "nproc": os.cpu_count(),
    }


def recorded_digest(workload, seed):
    with open(os.path.join(HERE, "digests.json")) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true", help="smoke scale")
    args = ap.parse_args()

    ambient = sorted(k for k in os.environ if k.startswith("URPSM_"))
    if ambient:
        log(f"refusing to run: {', '.join(ambient)} set; these silently change the workload")
        return 2

    binaries = {v: build(v) for v in ("untraced", "traced")}
    if None in binaries.values():
        return 1
    work = os.path.join(target_dir(), "work")
    common = ["run", "--workload", args.workload, "--seed", str(args.seed),
              "--work-dir", work] + (["--tiny"] if args.tiny else [])

    errors = []
    if args.trace == 0:
        result = run_binary(binaries["untraced"], common + ["--seconds", str(args.seconds)])
        if result is None:
            return 1
        digest = result["info"]["digest"]
    else:
        spans = os.path.join(work, f"spans-{args.workload}-{args.seed}.jsonl")
        result = run_binary(binaries["traced"], common + [
            "--seconds", str(args.seconds), "--setups", "1", "--spans-out", spans])
        companion = run_binary(binaries["untraced"], common + [
            "--seconds", str(max(1.0, args.seconds / 2)), "--setups", "1"])
        if result is None or companion is None:
            return 1
        if not companion["correct"]:
            errors.append("the untraced companion run failed its checks")
        digest = result["info"]["digest"]
        if companion["info"]["digest"] != digest:
            errors.append(f"traced digest {digest} != untraced {companion['info']['digest']}")
        untraced_eps = companion["info"]["throughput_eps"]
        traced_eps = result["info"]["throughput_eps"]
        result["metrics"]["trace.overhead_pct"] = {
            "value": 100.0 * (untraced_eps - traced_eps) / untraced_eps, "unit": "%"}

    if not args.tiny:
        expected = recorded_digest(args.workload, args.seed)
        if expected is not None and expected != digest:
            errors.append(f"event-log digest {digest} != recorded {expected}")
        if expected is None:
            log(f"note: no digest recorded for {args.workload} seed {args.seed}")

    print("# env " + json.dumps(environment()))
    print("# info " + json.dumps(result["info"]))
    for e in errors:
        log(f"check failed: {e}")
    correct = bool(result["correct"]) and not errors
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
