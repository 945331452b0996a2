#!/usr/bin/env python3
"""A/B run of the repository benchmark: a head tree against a base tree.

    python3 scripts/perfbench_ab.py --base ../base [--head .]
        [--pairs 5] [--seconds 10] [--seed 1] [--workload W ...]

For every BENCHMARK.json workload (or each --workload given) it runs
--pairs alternating base/head pairs, swapping which side goes first from
one pair to the next. Each run is

    python3 <tree>/perfbench/run.py --workload W --seed S --seconds T --trace 0

with the tree as its working directory, so each tree builds and runs its
own .bench_build. It prints, per workload, each end-to-end metric's base
and head medians, their relative change, the base inter-quartile range
and in how many pairs the head was better, then every pair's base and
head values. It exits 1 when

  * any run fails, is incorrect or reports failed > 0 operations, or
  * any end-to-end metric's head median is worse than the base median by
    more than that metric's bound (a fraction of the base median).

Exits 0 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(tree, workload, seed, seconds):
    """One untraced run; returns (metrics by name, problem or None)."""
    command = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-4000:])
        return {}, f"exited {done.returncode}"
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if not result["correct"]:
        return metrics, "incorrect run"
    if result["failed"] > 0:
        return metrics, f"{result['failed']} of {result['attempted']} failed"
    return metrics, None


def worsening(metric, base, head):
    """How much worse head is than base, as a fraction of base."""
    delta = head - base if metric["better"] == "lower" else base - head
    if base == 0:
        return 0.0 if delta <= 0 else float("inf")
    return delta / abs(base)


def better(metric, base, head):
    """True when head is strictly better than base."""
    return head < base if metric["better"] == "lower" else head > base


def quartile_range(values):
    """(first quartile, third quartile) of values, inclusive method."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base source tree")
    parser.add_argument("--head", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))), help="head source tree")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="run only this workload (repeatable)")
    args = parser.parse_args()
    trees = {"base": os.path.abspath(args.base),
             "head": os.path.abspath(args.head)}

    with open(os.path.join(trees["head"], "BENCHMARK.json")) as f:
        config = json.load(f)
    workloads = args.workload or [w["name"] for w in config["workloads"]]

    problems = []
    for workload in workloads:
        # Each pair's metrics by side; a failed run leaves its side out.
        pairs = []
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            sides = {}
            for side in order:
                metrics, problem = run(trees[side], workload, args.seed,
                                       args.seconds)
                print(f"{workload} pair {pair + 1} {side}: "
                      f"{problem or 'ok'}", file=sys.stderr, flush=True)
                if problem:
                    problems.append(f"{workload}: {side} run {pair + 1}: "
                                    f"{problem}")
                if metrics:
                    sides[side] = metrics
            pairs.append(sides)
        runs = {side: [p[side] for p in pairs if side in p]
                for side in ("base", "head")}
        if not runs["base"] or not runs["head"]:
            problems.append(f"{workload}: no result on one side")
            continue
        complete = [p for p in pairs if len(p) == 2]
        print(f"\n== {workload} ({args.pairs} pairs x {args.seconds:g} s, "
              f"seed {args.seed})")
        print(f"{'metric':<20} {'bound':>6} {'base':>12} {'head':>12} "
              f"{'worse by':>9} {'base IQR':>12} {'head won':>9}")
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            base_values = [r[name] for r in runs["base"]]
            base = statistics.median(base_values)
            head = statistics.median(r[name] for r in runs["head"])
            worse = worsening(metric, base, head)
            q1, q3 = quartile_range(base_values)
            won = sum(better(metric, p["base"][name], p["head"][name])
                      for p in complete)
            verdict = "REGRESSED" if worse > bound else ""
            print(f"{name:<20} {bound:>6} {base:>12.6g} {head:>12.6g} "
                  f"{worse:>+9.3f} {q3 - q1:>12.6g} "
                  f"{f'{won}/{len(complete)}':>9} {verdict}")
            if worse > bound:
                problems.append(
                    f"{workload}: {name} head median {head:.6g} is worse "
                    f"than base {base:.6g} by {worse:.3f} (bound {bound})")
        print("per pair, base / head:")
        for metric in config["end_to_end"]:
            name = metric["name"]
            cells = [f"{p['base'][name]:.6g}/{p['head'][name]:.6g}"
                     if len(p) == 2 else "-" for p in pairs]
            print(f"  {name:<20} " + "  ".join(cells))

    for problem in problems:
        print(f"perfbench_ab: FAIL: {problem}")
    print("perfbench_ab: " + ("FAIL" if problems else "ok"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
