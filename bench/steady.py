"""Run the benchmark repeatedly and report how steady each metric is.

    python3 bench/steady.py --runs 10

Every workload in BENCHMARK.json is run --runs times, with seeds 1, 2, ...
and the run length in BENCHMARK.json.  For every workload and metric this
prints the median and quartiles of the runs (statistics.quantiles, n=4)
and the spread, the distance between the quartiles as a share of the
median.  An end-to-end metric's spread is shown against its bound from
BENCHMARK.json and flagged when it exceeds a third of the bound; the exit
code is 1 if any is flagged or any output was wrong.  With --trace both
(the default) every run is made once untraced and once traced, so one
command prints every end-to-end and per-layer metric of every workload.
Run it from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values, shares = {}, set()
        for i in range(args.runs):
            for trace in traces:
                result = run_once(workload, i + 1, spec["run_seconds"], trace)
                if trace == 0:
                    shares.add((result["failed"], result["attempted"]))
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                if not result["correct"]:
                    ok = False
                    print("%s seed %d: an output was wrong" % (workload, i + 1))
        print("\n%s: %d runs, failed/attempted per untraced run %s"
              % (workload, args.runs, ", ".join("%d/%d" % s for s in sorted(shares)) or "-"))
        print("%-32s %12s %12s %12s %8s %8s" % ("metric", "median", "q1", "q3", "spread", "bound"))
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
            spread = (q3 - q1) / abs(median) if median else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  above a third of the bound"
                ok = False
            print("%-32s %12.6g %12.6g %12.6g %7.2f%% %8s%s" % (
                name, median, q1, q3, 100 * spread,
                "" if bound is None else "%.0f%%" % (100 * bound), flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
