"""Alternate benchmark runs of two checkouts and compare their metrics.

    python3 tools/ab.py PARENT_DIR CHANGE_DIR --workload cell --seeds 1-10

For each seed it runs ``python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0`` once in each checkout, each in a fresh process
started from that checkout's root; T is ``run_seconds`` of the change's
BENCHMARK.json, the run length the benchmark itself uses.  The first seed
runs the parent first, and every later seed swaps the order, so a slow
spell of the machine falls on both sides.  The steal column of /proc/stat
is read around every run.

Per end-to-end metric it prints each side's median and quartiles, the
change of the medians, the number of pairs in which the change read
lower, and a verdict (:func:`verdict`) against the metric's ``bound`` in
the change's BENCHMARK.json; then each side's failed operations and steal
ticks.  Progress goes to standard error, one line per run.  ``--seeds``
takes a range (1-10), a list (1,3,5) or one seed.
"""

import argparse
import json
import os
import subprocess
import sys

import numpy as np


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def steal_ticks():
    """The machine's steal time so far, in ticks, or None without
    /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def run_once(checkout, workload, seed, seconds):
    """One benchmark run in ``checkout``: (its JSON record, steal ticks)."""
    before = steal_ticks()
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    after = steal_ticks()
    if proc.returncode != 0:
        sys.exit("run failed in %s (seed %d):\n%s"
                 % (checkout, seed, proc.stderr[-2000:]))
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    steal = None if before is None or after is None else after - before
    return record, steal


def summary(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return median, q1, q3


def verdict(parent, change, bound, failed):
    """The reading of one lower-is-better metric from paired runs (entry i
    of each side from seed i), ``bound`` the relative worsening allowed and
    ``failed`` the (parent, change) counts of failed operations over the
    runs:

    - "gain": the change fails no more operations than the parent, reads
      lower in at least 9 of 10 pairs, ties counting for neither, and the
      parent's median exceeds the change's by more than the parent's
      quartile distance;
    - "worse": the change's median exceeds the parent's by more than
      ``bound`` of it;
    - "unresolved": the parent's quartile distance is wider than ``bound``
      of its median, unless every change run reads below every parent run;
    - otherwise "same".
    """
    parent, change = np.asarray(parent), np.asarray(change)
    median, q1, q3 = summary(parent)
    gap = median - np.median(change)
    if failed[1] <= failed[0] and np.sum(change < parent) >= 0.9 * parent.size \
            and gap > q3 - q1:
        return "gain"
    if -gap > bound * median:
        return "worse"
    if q3 - q1 > bound * median and not change.max() < parent.min():
        return "unresolved"
    return "same"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    args = parser.parse_args()
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    seconds = benchmark["run_seconds"]
    # every end-to-end metric is lower-is-better
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}

    sides = ("parent", "change")
    runs = {side: [] for side in sides}
    for i, seed in enumerate(args.seeds):
        order = sides if i % 2 == 0 else sides[::-1]
        for side in order:
            record, steal = run_once(getattr(args, side), args.workload,
                                     seed, seconds)
            runs[side].append((record, steal))
            values = " ".join("%s %.4g" % (k, v["value"])
                              for k, v in record["metrics"].items())
            print("seed %d %s: %s, failed %d, steal %s"
                  % (seed, side, values, record["failed"], steal),
                  file=sys.stderr)

    pairs = len(args.seeds)
    print("workload %s, %d pairs, seeds %s, %g s runs"
          % (args.workload, pairs, ",".join(map(str, args.seeds)), seconds))
    print("%-12s %-30s %-30s %8s %-16s %s" % (
        "metric", "parent median [q1, q3]", "change median [q1, q3]",
        "medians", "change lower in", "verdict"))
    failures = [sum(r["failed"] for r, _ in runs[side]) for side in sides]
    for name in runs["parent"][0][0]["metrics"]:
        values = {side: np.array([r["metrics"][name]["value"]
                                  for r, _ in runs[side]]) for side in sides}
        stats = {side: summary(values[side]) for side in sides}
        lower = int(np.sum(values["change"] < values["parent"]))
        print("%-12s %-30s %-30s %+7.1f%% %-16s %s" % (
            name,
            "%.4g [%.4g, %.4g]" % stats["parent"],
            "%.4g [%.4g, %.4g]" % stats["change"],
            100.0 * (stats["change"][0] / stats["parent"][0] - 1.0),
            "%d of %d pairs" % (lower, pairs),
            verdict(values["parent"], values["change"], bounds[name],
                    failures)))
    for side in sides:
        failed = [r["failed"] for r, _ in runs[side]]
        attempted = [r["attempted"] for r, _ in runs[side]]
        steals = [s for _, s in runs[side] if s is not None]
        print("%s: failed %s of %s per run; steal ticks %s (total %s)"
              % (side, failed, attempted[0], steals,
                 sum(steals) if steals else "n/a"))


if __name__ == "__main__":
    main()
