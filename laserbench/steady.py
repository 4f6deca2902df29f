#!/usr/bin/env python3
"""Steadiness report: runs workloads repeatedly and prints, for every metric,
its median, quartiles and relative spread (the distance between the first
and third quartile over the median), next to the bound BENCHMARK.json sets.

    python3 laserbench/steady.py [--workload <name> ...] [--runs 10]
                                 [--first-seed 1] [--seconds <s>] [--trace 0|1]
                                 [--verbose]

Run it from the root of a source checkout. Each run uses the next seed. The
exit code is 1 when a run fails or is not correct, or when an end-to-end
metric spreads by its bound or more.
"""

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--verbose", action="store_true",
                        help="also print every run's value")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    binary = bench.build()
    ok = True
    for workload in workloads:
        values = {}
        units = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            code, lines = bench.run_binary(binary, workload, seed, args.seconds,
                                           args.trace == 1)
            result = json.loads(lines[-1]) if lines else None
            if code != 0 or result is None or not result["correct"]:
                print("%s seed %d: run failed (exit %d)" % (workload, seed, code))
                ok = False
                continue
            if result["failed"]:
                print("%s seed %d: %d of %d ops failed" %
                      (workload, seed, result["failed"], result["attempted"]))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print("%s seed %d: done" % (workload, seed), file=sys.stderr)

        print("\n%s (%d runs, %g s each)" % (workload, args.runs, args.seconds))
        print("%-36s %14s %14s %14s %8s %6s" %
              ("metric", "q1", "median", "q3", "spread", "bound"))
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(median) if median else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                if spread >= bound:
                    flag, ok = " OVER", False
                elif spread >= bound / 3:
                    flag = " >1/3"
            print("%-36s %14.6g %14.6g %14.6g %7.1f%% %6s%s" %
                  (name + " (" + units[name] + ")", q1, median, q3, 100 * spread,
                   "" if bound is None else "%g" % bound, flag))
            if args.verbose:
                print("    runs: " + " ".join("%.4g" % v for v in vals))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
