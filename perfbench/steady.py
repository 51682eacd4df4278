#!/usr/bin/env python3
"""Steadiness check: is the benchmark quiet enough to judge a change by?

Runs two sets, A and B, of the same build, interleaved A B A B ..., each
run with its own seed (run i of both sets uses seed BASE + i, so the sets
are paired), and prints for every end-to-end metric of every workload:

  * each set's median, quartiles and spread (interquartile distance as a
    share of the median), against a third of the metric's bound — the
    target the benchmark is tuned to — and against the bound itself;
  * the gap between the sets' medians (how much B is worse than A), which
    must stay within the bound.

`setup_s` is exempt from the spread limit (it is gated by the gap only).
Exits 1 if any limit is broken.

    python3 perfbench/steady.py                       # 10 runs x 2 sets
    python3 perfbench/steady.py --workloads study --runs 5 --sets 1
    python3 perfbench/steady.py --out steady.json     # keep raw results

Run it from the repository root with nothing else running.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402


def run_once(benchmark, workload, seed):
    command = benchmark["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(benchmark["run_seconds"]), "--trace", "0"]
    done = subprocess.run(command, cwd=benchlib.ROOT, capture_output=True,
                          text=True, check=False)
    lines = done.stdout.strip().split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit("steady.py: %s seed %d failed (exit %d)"
                         % (workload, seed, done.returncode))
    result = json.loads(lines[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def summarize(benchmark, results, sets):
    """Prints the table; returns True when every limit holds."""
    ok = True
    for workload, by_set in results.items():
        print("== %s" % workload)
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            line = "  %-12s bound %4.2f" % (name, bound)
            medians = []
            for label in sets:
                values = [run[name] for run in by_set[label]]
                q1, q2, q3 = benchlib.quartiles(values)
                spread = benchlib.spread(values)
                medians.append(q2)
                line += " | %s med %.6g q1 %.6g q3 %.6g spread %.4f" % (
                    label, q2, q1, q3, spread)
                if name != "setup_s":
                    if spread > bound:
                        line += " OVER-BOUND"
                        ok = False
                    elif spread > bound / 3:
                        line += " over-target"
            if len(medians) == 2:
                gap = benchlib.worse_by(medians[0], medians[1],
                                        metric["better"])
                line += " | gap %+.4f" % gap
                if gap > bound:
                    line += " GAP-OVER-BOUND"
                    ok = False
            print(line)
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    benchmark = benchlib.load_benchmark()
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser.add_argument("--workloads", nargs="+", default=names,
                        choices=names)
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per set and workload (at least 2)")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--out", help="write the raw per-run metrics here")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    sets = ["A", "B"][:args.sets]
    results = {w: {label: [] for label in sets} for w in args.workloads}
    for i in range(args.runs):
        seed = args.seed_base + i
        # A B, then B A on the next seed: neither set always runs first.
        order = sets if i % 2 == 0 else list(reversed(sets))
        for workload in args.workloads:
            for label in order:
                metrics = run_once(benchmark, workload, seed)
                results[workload][label].append(metrics)
                print("%s %s seed %d: %s" % (
                    workload, label, seed,
                    " ".join("%s=%.6g" % item
                             for item in sorted(metrics.items()))),
                      flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1)
    ok = summarize(benchmark, results, sets)
    print("steady: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
