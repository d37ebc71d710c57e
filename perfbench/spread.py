"""Run the benchmark on several seeds and report each metric's median and
spread (interquartile range over median), the figures BENCHMARK.json's
bounds are checked against.

    python3 perfbench/spread.py --workloads strata algebra --seeds 1-10
    python3 perfbench/spread.py --workloads algebra --seeds 1-5 --json out.json
    python3 perfbench/spread.py --workloads strata --seeds 4 --repeat 5

Across seeds the spread mixes the inputs' variation with run-to-run noise;
``--repeat`` runs each seed that many times, so one seed with ``--repeat 5``
shows the run-to-run noise alone.

Run from the repository root; runs are sequential, so they do not compete
for the CPU.  Each run's last stdout line is kept in the ``--json`` file
along with the run context, medians and spreads.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--json", default=None)
    args = p.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    key = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[key]}
    report = {"seconds": seconds, "trace": args.trace, "repeat": args.repeat,
              "workloads": {}}
    for w in args.workloads:
        runs = []
        for seed in [s for s in args.seeds for _ in range(args.repeat)]:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
            t0 = time.time()
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            lines = out.strip().splitlines()
            result = json.loads(lines[-1])
            context = json.loads(lines[-2])["context"]
            missing = set(bounds) - set(result["metrics"])
            if missing or set(result["metrics"]) - set(bounds):
                sys.exit("metric names differ from BENCHMARK.json: %s" % sorted(missing))
            runs.append({"seed": seed, "elapsed_s": time.time() - t0,
                         "context": context, "result": result})
            print("%s seed %d: %.0f s, correct=%s, passes=%d, failed=%d"
                  % (w, seed, runs[-1]["elapsed_s"], result["correct"],
                     context["passes"], result["failed"]), flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            if len(values) < 2:
                continue
            med, sp = spread(values)
            summary[name] = {"median": med, "spread": sp, "bound": bound}
            flag = ""
            if bound is not None and sp > bound / 3:
                flag = "  <-- above a third of the bound"
            print("  %-32s median %-12.6g spread %6.3f%s" % (name, med, sp, flag))
        report["workloads"][w] = {"summary": summary, "runs": runs}
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
