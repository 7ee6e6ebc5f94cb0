#!/usr/bin/env python3
"""Same-host interleaved A/B of perfbench: a base revision against this tree.

Run from anywhere inside the repository:

    python3 scripts/perf_ab.py BASE_REV [--size tiny|full] [--seconds S]

BASE_REV is checked out into a temporary git worktree. Each side builds
into its own target directory and runs its own `perfbench/run.py --trace 0`
with its own tree as the working directory. For every workload of
BENCHMARK.json it runs one warm-up pair, which is discarded, then 10
pairs, alternating which side runs first. For every end-to-end metric it
prints the base and head medians, the base's quartile distance (IQR) and
the head's wins out of 10 (ties count for neither side), with a verdict:

  REGRESSION  the head median is worse than the base median by more than
              the metric's bound, and the base's IQR/median is within it;
  unresolved  the base's IQR/median is wider than the bound: reported,
              not failed;
  gain        the head wins at least 9 of 10 pairs and the medians differ
              by more than the base IQR;
  ok          otherwise.

A head run reporting `"correct": false`, or more failed operations than
the base run of its pair, fails too. The `# digest` lines of the two sides
are compared and the result printed. Exits 1 on any REGRESSION or
correctness failure.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

PAIRS = 10
GAIN_WINS = 9


def git(root, *args):
    return subprocess.run(["git", "-C", root, *args], check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def run_side(tree, target, workload, args):
    """One perfbench run of `tree`: (result JSON, digest lines)."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--size", args.size, "--seconds", str(args.seconds), "--trace", "0"]
    run = subprocess.run(cmd, cwd=tree, env=env, text=True, stdout=subprocess.PIPE)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.exit(f"perf_ab: {workload} run in {tree} exited with {run.returncode}")
    digests = [line for line in lines if line.startswith("# digest")]
    return json.loads(lines[-1]), digests


def verdict(metric, base, head):
    """(report columns, failed?) for one metric's paired values."""
    higher = metric["better"] == "higher"
    bound = metric["bound"]
    b_med, h_med = statistics.median(base), statistics.median(head)
    q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive")
    iqr = q3 - q1
    spread = iqr / abs(b_med) if b_med else (0.0 if iqr == 0 else float("inf"))
    wins = sum((h > b) if higher else (h < b) for b, h in zip(base, head))
    worse = (b_med - h_med) if higher else (h_med - b_med)
    rel_worse = worse / abs(b_med) if b_med else (0.0 if worse == 0 else float("inf"))
    if wins >= GAIN_WINS and abs(h_med - b_med) > iqr:
        word = "gain"
    elif spread > bound:
        word = "unresolved"
    elif rel_worse > bound:
        word = "REGRESSION"
    else:
        word = "ok"
    cols = [f"{b_med:.6g}", f"{h_med:.6g}", f"{iqr:.4g}", f"{spread:.3f}",
            f"{wins}/{len(base)}", f"{0.0 - rel_worse:+.3f}", word]
    return cols, word == "REGRESSION"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base_rev", metavar="BASE_REV")
    p.add_argument("--size", choices=["full", "tiny"], default="full")
    p.add_argument("--seconds", type=float)
    args = p.parse_args()

    root = git(os.path.dirname(os.path.abspath(__file__)), "rev-parse", "--show-toplevel")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    base_sha = git(root, "rev-parse", "--verify", f"{args.base_rev}^{{commit}}")
    head_desc = git(root, "describe", "--always", "--dirty")

    scratch = tempfile.mkdtemp(prefix="perf_ab.")
    base_tree = os.path.join(scratch, "base")
    sides = {"base": (base_tree, os.path.join(scratch, "base-target")),
             "head": (root, os.path.join(scratch, "head-target"))}
    failures = []
    rows = []
    try:
        git(root, "worktree", "add", "--detach", "--quiet", base_tree, base_sha)
        print(f"perf_ab: base {base_sha[:12]} ({args.base_rev}) vs head {head_desc}; "
              f"--size {args.size} --seconds {args.seconds:g}; "
              f"1 warm-up + {PAIRS} interleaved pairs per workload")
        for w in (w["name"] for w in bench["workloads"]):
            runs = {"base": [], "head": []}
            for i in range(PAIRS + 1):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                pair = {}
                for side in order:
                    print(f"perf_ab: {w} pair {i}/{PAIRS} {side}", file=sys.stderr)
                    pair[side] = run_side(*sides[side], w, args)
                if i == 0:
                    continue  # warm-up: builds, page cache
                for side in runs:
                    runs[side].append(pair[side])
                (b, _), (h, _) = pair["base"], pair["head"]
                if h["correct"] is not True:
                    failures.append(f"{w} pair {i}: head reported correct = {h['correct']}")
                if h["failed"] > b["failed"]:
                    failures.append(f"{w} pair {i}: head failed {h['failed']} of "
                                    f"{h['attempted']}, base {b['failed']}")
            for m in bench["end_to_end"]:
                name = m["name"]
                cols, failed = verdict(
                    m, *[[r["metrics"][name]["value"] for r, _ in runs[s]]
                         for s in ("base", "head")])
                rows.append([w, name, *cols])
                if failed:
                    failures.append(f"{w} {name}: REGRESSION")
            digests = {s: {tuple(d) for _, d in runs[s]} for s in runs}
            same = len(digests["base"]) == 1 and digests["base"] == digests["head"]
            n = len(next(iter(digests["head"])))
            if n:
                rows.append([w, "# digest", "", "", "", "", "", "",
                             f"identical ({n} lines)" if same else "DIFFER"])
    finally:
        subprocess.run(["git", "-C", root, "worktree", "remove", "--force", base_tree],
                       stderr=subprocess.DEVNULL)
        subprocess.run(["git", "-C", root, "worktree", "prune"])
        shutil.rmtree(scratch, ignore_errors=True)

    header = ["workload", "metric", "base med", "head med", "base IQR", "IQR/med",
              "head wins", "better by", "verdict"]
    widths = [max(len(str(r[c])) for r in rows + [header]) for c in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(v).ljust(wd) for v, wd in zip(r, widths)).rstrip())
    for f in failures:
        print(f"FAIL: {f}")
    print(f"perf_ab: {'FAIL' if failures else 'PASS'}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
