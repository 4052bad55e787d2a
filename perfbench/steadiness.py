#!/usr/bin/env python3
"""Steadiness check: runs each workload on several seeds and reports, per
end-to-end metric, the spread of its values against the metric's bound in
BENCHMARK.json.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--workload NAME ...] [--out FILE]

Run from the root of a checkout. The spread is the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median. A metric is steady when its spread is below a third of its bound;
setup_s is reported but has no spread requirement. The share of failed
operations must be the same in every run of a workload. Exit code 0 when
every workload is steady and every run was correct, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return (json.loads(out.stdout.strip().splitlines()[-1]),
            time.monotonic() - start)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", help="append each run's JSON line here")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    steady = True
    for workload in workloads:
        results, walls = [], []
        for i in range(args.runs):
            seed = args.first_seed + i
            result, wall = run_once(workload, seed, bench["run_seconds"])
            results.append(result)
            walls.append(wall)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed,
                                        "wall_s": wall, "result": result}) +
                            "\n")
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print("%s: %d runs, correct=%s, failed share %s, wall per run "
              "%.1f-%.1f s" % (workload, len(results), correct, sorted(shares),
                               min(walls), max(walls)))
        steady &= correct and len(shares) == 1
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            ok = name == "setup_s" or spread < bound / 3
            steady &= ok
            print("  %-14s median %14.6g  spread %.3f  bound %.2f  %s" %
                  (name, median, spread, bound, "ok" if ok else "UNSTEADY"))
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
