"""Run-to-run spread of the end-to-end metrics, one fresh process per run.

    python3 perfbench/spread.py --workload cell --seeds 1-10

Runs the benchmark once per seed, one run at a time, and prints for each
metric the median and the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound in BENCHMARK.json.  Also prints the share of failed
operations of every run, which must be identical across runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {name: [] for name in bounds}
    shares = []
    for seed in parse_seeds(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed",
                                 str(seed), "--seconds", str(seconds),
                                 "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        shares.append("%d/%d" % (result["failed"], result["attempted"]))
        line = ["seed %3d" % seed, "correct=%s" % result["correct"],
                "failed %s" % shares[-1]]
        for name in bounds:
            v = result["metrics"][name]["value"]
            values[name].append(v)
            line.append("%s %.4f" % (name, v))
        print("  ".join(line), flush=True)

    print("%-12s %10s %10s %8s" % ("metric", "median", "IQR/med", "bound"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print("%-12s %10.4f %10.4f %8.2f" % (name, med, (q3 - q1) / med,
                                            bounds[name]))
    print("failed shares:", " ".join(shares))


if __name__ == "__main__":
    sys.exit(main())
