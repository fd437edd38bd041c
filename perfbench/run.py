"""Run one benchmark workload of the nlhom lab and print its metrics.

    python3 perfbench/run.py --workload cell --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1``
they are the per-layer ones, taken from traced rounds that alternate with
untraced rounds, and the spans are written to ``perfbench/out/``.  Round
details and every failed check go to standard error.
"""

import os
import sys

# One BLAS / OpenMP thread, fixed before numpy loads: see README.md.
THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
#: fewest rounds a run makes: each phase is timed at least three times
MIN_ROUNDS = 3


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "nlhom", "__init__.py")):
        sys.exit("perfbench: no package at %s; run from a source checkout"
                 % SRC)
    sys.path.insert(0, SRC)


def _median(values):
    values = sorted(values)
    k = len(values)
    return 0.5 * (values[(k - 1) // 2] + values[k // 2])


def run_round(workload, tracer=None):
    """One set-up and both phases.  Returns the round record."""
    from tracing import install
    from workloads import clear_fixture_caches

    gc.collect()
    clear_fixture_caches()
    if tracer is not None:
        install(tracer)
    try:
        start = time.perf_counter()
        inputs = workload.setup()
        setup_s = time.perf_counter() - start
        part_I = workload.part_I(inputs)
        part_II = workload.part_II(inputs)
        del inputs
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        "setup_s": setup_s,
        "part_I_s": part_I.seconds,
        "part_II_s": part_II.seconds,
        "wall_s": time.perf_counter() - start,
        "ops": part_I.ops + part_II.ops,
        "op_seconds": {"I": {op.name: op.seconds for op in part_I.ops},
                       "II": {op.name: op.seconds for op in part_II.ops}},
    }


def best_op_seconds(rounds, part):
    """Each operation's time in its fastest round.

    The machine switches speed by about 1.5x in spells of up to tens of
    seconds; an operation's fastest round is its time in the least
    disturbed interval.  A phase time is the sum over its operations.
    """
    names = rounds[0]["op_seconds"][part]
    return {nm: min(r["op_seconds"][part][nm] for r in rounds) for nm in names}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(WORKLOADS)))
    make = WORKLOADS[args.workload]

    # warm-up: every timed function once at small size, untimed
    run_round(make(args.seed, small=True))

    workload = make(args.seed)
    tracer = Tracer() if args.trace else None
    # The round count depends on --seconds and the workload's nominal round
    # length only, never on measured speed, so two commits compared with
    # the same settings take the best of the same number of rounds.
    n_rounds = max(MIN_ROUNDS, int(args.seconds // workload.nominal_round_s))
    rounds = []
    for i in range(n_rounds):
        traced = tracer is not None and i % 2 == 1
        record = run_round(workload, tracer if traced else None)
        record["traced"] = traced
        rounds.append(record)

    attempted = failed = 0
    correct = True
    for i, record in enumerate(rounds):
        print("round %d%s: setup %.4f s, part I %.4f s, part II %.4f s, "
              "wall %.4f s" % (i, " (traced)" if record["traced"] else "",
                               record["setup_s"], record["part_I_s"],
                               record["part_II_s"], record["wall_s"]),
              file=sys.stderr)
        for op in record["ops"]:
            attempted += 1
            if op.problems:
                failed += 1
                known = op.name in workload.known_faults
                correct = correct and known
                print("  %s %s: %s" % ("known fault" if known else "FAILED",
                                       op.name, "; ".join(op.problems)),
                      file=sys.stderr)

    plain = [r for r in rounds if not r["traced"]]
    best = {part: best_op_seconds(plain, part) for part in ("I", "II")}
    for part, ops in best.items():
        for name, seconds in ops.items():
            print("  best part %s %-28s %.4f s" % (part, name, seconds),
                  file=sys.stderr)
    if tracer is None:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": (_median(r["setup_s"] for r in plain), "s"),
            "part_I_s": (sum(best["I"].values()), "s"),
            "part_II_s": (sum(best["II"].values()), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
    else:
        traced = [r for r in rounds if r["traced"]]
        overhead = _median(r["wall_s"] for r in traced) \
            / _median(r["wall_s"] for r in plain) - 1.0
        layers = layer_metrics(tracer, len(traced))
        layers["trace.overhead_pct"] = 100.0 * overhead
        units = layer_units()
        if set(layers) != set(units):
            raise RuntimeError("per-layer metrics differ from BENCHMARK.json:"
                               " %s" % sorted(set(layers) ^ set(units)))
        metrics = {k: (v, units[k]) for k, v in layers.items()}
        write_trace(args, tracer, rounds, overhead)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


def layer_units():
    """Units of the per-layer metrics, as BENCHMARK.json declares them."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def write_trace(args, tracer, rounds, overhead):
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "trace-%s-seed%d.json"
                        % (args.workload, args.seed))
    with open(path, "w") as fh:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "overhead": overhead,
            "span_cost_s": tracer.span_cost(),
            "rounds": [{k: v for k, v in r.items() if k != "ops"}
                       for r in rounds],
            "spans": tracer.spans,
        }, fh)


if __name__ == "__main__":
    main()
