#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload micro --seed 7 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end metrics of BENCHMARK.json, with `--trace 1`
its per-layer metrics. The lines before it start with `#`: per-cell
digests of the simulated statistics, sample counts and notes.

The program is built in release mode into $CARGO_TARGET_DIR (default
`.bench_build`), which also holds the run's scratch result stores.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["micro", "oltp", "service", "crash"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if the file is here."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except FileNotFoundError:
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, help="workload seed (default: the catalogue seed)")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full")
    args = p.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", args.workload,
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--size", args.size,
           "--work-dir", os.path.join(target, "perfbench-work")]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed % 2**64)]
    try:
        run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        fail(f"{args.workload} exited with {run.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result line: {lines[-1]}")
    declared = declared_metrics(args.trace)
    if declared is not None and set(result["metrics"]) != declared:
        fail("metrics differ from BENCHMARK.json: "
             f"missing {sorted(declared - set(result['metrics']))}, "
             f"extra {sorted(set(result['metrics']) - declared)}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
