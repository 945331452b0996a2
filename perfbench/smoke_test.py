#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json for five seconds, untraced and traced,
and checks that the result line has exactly the contract's keys, that
every end-to-end (untraced) or per-layer (traced) metric is printed once
with its declared unit and a numeric value, and that the correctness gate
ran and passed (the gate itself rejects a non-finite metric and a run
without jobs). It also checks that the benchmark fails, without a
result line, in a directory holding only BENCHMARK.json and perfbench/.
Exits 1 on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# One full henp-staged / henp-fleet window: at about 630 and 430 jobs a
# second it holds the 1,000 samples the p99 gate asks for.
SECONDS = 5


def check(ok, message):
    if not ok:
        print(f"smoke: FAIL: {message}")
        sys.exit(1)


def run(config, cwd, workload, trace):
    command = config["command"] + [
        "--workload", workload, "--seed", "1",
        "--seconds", str(SECONDS), "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)

    for w in config["workloads"]:
        for trace, declared in ((0, config["end_to_end"]),
                                (1, config["per_layer"])):
            what = f"{w['name']} --trace {trace}"
            done = run(config, ROOT, w["name"], trace)
            check(done.returncode == 0,
                  f"{what} exited {done.returncode}:\n{done.stderr}")
            lines = done.stdout.strip().splitlines()
            check("correctness gate: passed" in done.stdout,
                  f"{what}: correctness gate did not report")
            result = json.loads(lines[-1])
            check(sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"], f"{what}: result keys")
            check(result["correct"] is True, f"{what}: not correct")
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  f"{what}: attempted/failed {result['attempted']}/"
                  f"{result['failed']}")
            metrics = result["metrics"]
            check(sorted(metrics) == sorted(m["name"] for m in declared),
                  f"{what}: metric names differ from BENCHMARK.json")
            for m in declared:
                got = metrics[m["name"]]
                check(got["unit"] == m["unit"],
                      f"{what}: {m['name']} unit {got['unit']}")
                check(isinstance(got["value"], (int, float)),
                      f"{what}: {m['name']} value {got['value']}")
            print(f"smoke: ok {what}: {len(metrics)} metrics, "
                  f"{result['attempted']} jobs")

    # Without the program's sources the benchmark must fail cleanly.
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in config["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    done = run(config, bare, config["workloads"][0]["name"], 0)
    check(done.returncode != 0, "bare directory run exited 0")
    check('"correct"' not in done.stdout, "bare directory run printed a result")
    shutil.rmtree(bare)
    print("smoke: ok bare directory fails without a result")
    print("smoke: passed")


if __name__ == "__main__":
    main()
