"""Run the benchmark on two checkouts in alternating pairs and write a BENCH file.

    python3 tools/benchpairs.py --parent PARENT --change CHANGE \\
        --workload pa3dfl-train --pairs 10 --seed 261 --out BENCH_26.json

PARENT and CHANGE are checkout roots (for example `git archive` copies of
two commits, each in its own directory). Each pair runs

    python3 padbench/run.py --workload W --seed S --seconds SECONDS --trace 0

in both checkouts back to back; the parent goes first in even pairs and
the change in odd ones. Every run's end-to-end metrics (the last line
run.py prints) are kept. Per metric the file holds each side's median and
quartiles (linear interpolation, as numpy.percentile), the pairs the
change wins, the change/parent ratio of each pair and two verdicts:

- `nine_in_ten`, for a claimed gain: the change is better in at least 9
  of every 10 pairs, and the medians differ in its favour by more than
  the parent's inter-quartile range;
- `within_bound`, for no regression: `yes` if the change's median is
  worse than the parent's by at most the metric's `bound` (a fraction of
  the parent's median), else `no`; `unresolved` if the parent's
  inter-quartile range is wider than the bound, unless every change run
  is better than every parent run (then `yes`).

Which direction is better, and each bound, come from BENCHMARK.json in
CHANGE.

If OUT exists, the workload's entry is added to it, or replaced, and the
other workloads are kept, so one file can collect several invocations.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys


def run_bench(checkout, workload, seed, seconds):
    """One benchmark run in checkout: (its metrics and verdict, its environment)."""
    cmd = [sys.executable, "padbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {done.returncode} "
                           f"without a result line:\n{done.stderr}")
    last = json.loads(lines[-1])
    run = {name: metric["value"] for name, metric in last["metrics"].items()}
    run.update(correct=last["correct"], attempted=last["attempted"], failed=last["failed"])
    env = next((json.loads(line[len("environment "):]) for line in lines
                if line.startswith("environment ")), None)
    return run, env


def quartiles(values):
    """(q1, median, q3), linear between order statistics."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def within_bound(parent, change, better, bound):
    """'yes', 'no' or 'unresolved': the no-regression verdict of one metric
    whose change median may be worse than the parent's by bound * |parent
    median| (see the module docstring)."""
    q1p, medp, q3p = quartiles(parent)
    sign = 1 if better == "lower" else -1
    if all(sign * (p - c) > 0 for p in parent for c in change):
        return "yes"
    allowed = bound * abs(medp)
    if q3p - q1p > allowed:
        return "unresolved"
    return "yes" if sign * (statistics.median(change) - medp) <= allowed else "no"


def summarize(parent, change, better, bound):
    """Per-side median and quartiles, pair wins and both verdicts."""
    q1p, medp, q3p = quartiles(parent)
    q1c, medc, q3c = quartiles(change)
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    return {
        "parent": {"median": medp, "q1": q1p, "q3": q3p},
        "change": {"median": medc, "q1": q1c, "q3": q3c},
        "better": better,
        "change_better_pairs": wins,
        "change_equal_pairs": sum(p == c for p, c in zip(parent, change)),
        "median_change_rel": (medc - medp) / medp if medp else None,
        "pair_ratios": [c / p if p else None for p, c in zip(parent, change)],
        "nine_in_ten": (wins >= math.ceil(0.9 * len(parent))
                        and sign * (medp - medc) > q3p - q1p),
        "bound": bound,
        "within_bound": within_bound(parent, change, better, bound),
    }


def pairs(parent, change, workload, n, seed, seconds, log=sys.stderr):
    """The workload's entry: every run of both sides and the summary."""
    with open(os.path.join(change, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["end_to_end"]
    runs, envs, first = {"parent": [], "change": []}, {}, []
    for k in range(n):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        first.append(order[0])
        for side in order:
            run, envs[side] = run_bench(parent if side == "parent" else change,
                                        workload, seed, seconds)
            runs[side].append(run)
        print(f"{workload} pair {k}: " + ", ".join(
            f"{side} round_s {runs[side][-1].get('round_s', float('nan')):.4f}"
            for side in ("parent", "change")), file=log, flush=True)
    summary = {m["name"]: summarize([r[m["name"]] for r in runs["parent"]],
                                    [r[m["name"]] for r in runs["change"]], m["better"],
                                    m["bound"])
               for m in declared if all(m["name"] in r for rs in runs.values() for r in rs)}
    return {
        "seed": seed, "pairs": n, "seconds": seconds, "first": first,
        "all_correct": all(r["correct"] for rs in runs.values() for r in rs),
        "environment": envs, "runs": runs, "summary": summary,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent checkout's root")
    parser.add_argument("--change", required=True, help="the change checkout's root")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--out", required=True, help="the BENCH file to write or extend")
    args = parser.parse_args(argv)
    for root in (args.parent, args.change):
        if not os.path.isfile(os.path.join(root, "padbench", "run.py")):
            parser.error(f"no padbench/run.py under {root}")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    entry = pairs(os.path.abspath(args.parent), os.path.abspath(args.change),
                  args.workload, args.pairs, args.seed, args.seconds)
    bench = {"workloads": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            bench = json.load(fh)
    bench["protocol"] = {
        "command": "python3 padbench/run.py --workload <workload> --seed <seed> "
                   "--seconds <seconds> --trace 0",
        "pairs": "each pair runs both checkouts back to back; the parent goes first "
                 "in even pairs and the change in odd ones",
        "rule": "nine_in_ten: the change is better in >= 9 of 10 pairs, and the medians "
                "differ in its favour by more than the parent's inter-quartile range",
        "no_regression": "within_bound: yes if the change median is worse than the parent "
                          "median by at most bound * |parent median|, else no; unresolved "
                          "if the parent's inter-quartile range exceeds that, unless every "
                          "change run is better than every parent run",
    }
    bench["workloads"][args.workload] = entry
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, s in entry["summary"].items():
        print(f"{args.workload} {name}: parent {s['parent']['median']:.6g} "
              f"change {s['change']['median']:.6g}, change better in "
              f"{s['change_better_pairs']}/{args.pairs}, 9-in-10 {s['nine_in_ten']}, "
              f"within bound {s['within_bound']}")
    return 0 if entry["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
