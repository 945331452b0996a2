#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

    python3 perfbench/steadiness.py

Runs two sets of ten runs of one build on every workload (run i of each
set uses seed i, from 1) and prints, per workload and end-to-end
metric, each set's median and quartiles. The spread of a set is
(q3 - q1) / median. A metric is flagged

  SPREAD  when a set's spread exceeds the metric's bound,
  NOISY   when it exceeds a third of the bound (the steadiness target),
  DRIFT   when the medians of two sets differ by more than the bound.

setup_s is held to its bound like every other metric and is called out by
name when flagged. Workloads, bounds, the run length (run_seconds) and the
run command come from BENCHMARK.json. Exits 1 when anything is flagged
SPREAD or DRIFT.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10
SETS = 2


def run_once(config, workload, seed, seconds):
    command = config["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"run failed: {workload} seed {seed}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"incorrect run: {workload} seed {seed}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return statistics.median(values), q1, q3, spread


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    seconds = config["run_seconds"]
    workloads = [w["name"] for w in config["workloads"]]
    metrics = config["end_to_end"]

    raw = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for w in workloads:
            for seed in range(1, RUNS + 1):
                raw[w][s].append(run_once(config, w, seed, seconds))
                print(f"set {s + 1} {w} seed {seed}: done",
                      file=sys.stderr, flush=True)

    failed = False
    for w in workloads:
        print(f"\n== {w} ({SETS} sets x {RUNS} runs, "
              f"{seconds}s each)")
        print(f"{'metric':<20} {'bound':>6}  " + "  ".join(
            f"{'set' + str(s + 1) + ' median':>14} {'q1':>10} {'q3':>10}"
            f" {'spread':>7}" for s in range(SETS)) + "  flags")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = [summary([run[name] for run in raw[w][s]])
                     for s in range(SETS)]
            flags = []
            worst = max(st[3] for st in stats)
            if worst > bound:
                flags.append("SPREAD")
                failed = True
            elif worst > bound / 3:
                flags.append("NOISY")
            medians = [st[0] for st in stats]
            drift = (max(medians) - min(medians)) / abs(medians[0]) \
                if medians[0] else float("inf")
            if drift > bound:
                flags.append("DRIFT")
                failed = True
            if name == "setup_s" and {"SPREAD", "DRIFT"} & set(flags):
                flags.append("<- set-up time")
            cells = "  ".join(f"{st[0]:>14.6g} {st[1]:>10.4g} {st[2]:>10.4g}"
                              f" {st[3]:>7.3f}" for st in stats)
            print(f"{name:<20} {bound:>6}  {cells}  "
                  f"drift={drift:.3f} {' '.join(flags)}")

    print("\nsteadiness: " + ("FLAGGED" if failed else "ok"))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
