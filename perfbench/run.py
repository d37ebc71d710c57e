"""clustercx benchmark runner.

Run from the repository root::

    python3 perfbench/run.py --workload strata --seed 1 --seconds 40 --trace 0

Workloads: ``strata`` and ``algebra`` (see ``workloads.py``).
For ``--seconds`` seconds run.py starts fresh child processes one
after another (closed loop, one pass each, single-threaded apart from the
``--jobs 2`` op).  A fresh child starts with cold ``lru_cache``s, as a
command-line user does, and its peak RSS is its own.  A few set-up-only
children sample set-up time as well.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
The host's speed swings by up to about 2x within seconds and stays off
for minutes, so each op's time is corrected by the speed measured while
it ran (``speed.py``): its seconds at a fixed reference speed.  An op's
figure is the median of its corrected times over the run's passes; a
command metric sums its ops' figures and ``wall_s`` sums every op's.
``setup_s`` is the median over the set-up samples, each corrected by the
speed the child sampled during its set-up, and ``peak_rss_mb`` the
median over the passes.  With ``--trace 1`` run.py alternates untraced
and traced passes and reports the per-layer metrics (the least over the
traced passes, raw times) plus ``trace.overhead_ratio``.  Spans of the
last traced pass go to ``.perfbench_work/``.  ``correct`` is false when
any op failed its check or when the gate's corrupted-pin self-check went
unnoticed.
"""

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import COMMAND_METRICS, WORKLOADS  # noqa: E402

# (name, unit), in the order BENCHMARK.json lists them.
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")] + [
    (m, "s") for m in COMMAND_METRICS
]

SETUP_SAMPLES = 6     # set-up-only children per run, besides each pass's own
RUN_BUDGET_S = 170    # a run must exit within 180 s
JOBS_PAIR = ("check-ainf poly %d", "check-ainf poly %d jobs2")
RAW, CORRECTED = 2, 3  # columns of a child's op_times rows


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def spawn(root, workdir, args, timeout, setup_only=False, trace=False, spans=None):
    """Run one child; return its report with ``setup_s`` (start until
    READY, timed here) and ``peak_rss_mb`` (its ru_maxrss), or None."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--trace", "1"]
        if spans:
            cmd += ["--spans", spans]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, env=env, text=True)
    timer = threading.Timer(max(timeout, 1.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline().split()
        ready = time.perf_counter()
        rest = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if len(first) != 2 or first[0] != "READY" or proc.returncode != 0:
        return None
    report = {} if setup_only else json.loads(rest.strip().splitlines()[-1])
    report["setup_raw_s"] = ready - t0
    report["setup_s"] = (ready - t0) * float(first[1])
    report["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return report


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "clustercx", "__init__.py")):
        print("run.py: no src/clustercx under %s; run from the repository root" % root,
              file=sys.stderr)
        return 2
    began = time.perf_counter()
    base = os.path.join(root, ".perfbench_work")
    workdir = os.path.join(base, "run-%d" % os.getpid())
    spans = os.path.join(base, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))
    os.makedirs(workdir, exist_ok=True)
    try:
        return measure(args, root, workdir, spans, began)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, root, workdir, spans, began):
    def left():
        return RUN_BUDGET_S - (time.perf_counter() - began)

    setups = []
    problems = []
    for _ in range(SETUP_SAMPLES):
        r = spawn(root, workdir, args, left(), setup_only=True)
        if r is None:
            problems.append("set-up child failed")
        else:
            setups.append(r)

    kinds = (False, True) if args.trace else (False,)
    passes = {k: [] for k in kinds}
    longest = {k: 0.0 for k in kinds}
    deadline = time.perf_counter() + args.seconds
    attempted = failed = 0
    for n in itertools.count():
        kind = kinds[n % len(kinds)]
        started = time.perf_counter()
        if all(passes.values()) and started + longest[kind] > deadline:
            break
        if left() < 2 * longest[kind]:
            break
        r = spawn(root, workdir, args, left(), trace=kind, spans=spans)
        longest[kind] = max(longest[kind], time.perf_counter() - started)
        if r is None:
            attempted += 1
            failed += 1
            problems.append("pass child failed or was stopped")
            if not passes[kind]:
                passes[kind].append(None)
            continue
        passes[kind].append(r)
        setups.append(r)
        attempted += r["attempted"]
        failed += r["failed"]
        problems += r["failures"]
        if r["selfcheck"] is None:
            problems.append("corrupted-pin self-check was not detected")

    plain = [r for r in passes[False] if r]
    traced = [r for r in passes.get(True, []) if r]
    typical = per_op(plain, CORRECTED, statistics.median)
    if args.trace:
        metrics = layer_metrics(traced, plain)
        metrics["fail_ratio"] = failed / attempted if attempted else 1.0
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        metrics = {
            "wall_s": sum(t for _, _, t in typical),
            "setup_s": median([r["setup_s"] for r in setups]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        }
        for m in COMMAND_METRICS:
            metrics[m] = sum(t for _, metric, t in typical if metric == m)
        units = dict(END_TO_END)
    correct = bool(plain) and (traced or not args.trace) and not problems
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(plain),
        "pass_wall_s": [r["wall_s"] for r in plain],
        "setup_samples_s": [r["setup_s"] for r in setups],
        "setup_raw_samples_s": [r["setup_raw_s"] for r in setups],
        "raw_op_median_s": sum(t for _, _, t in per_op(plain, RAW, statistics.median)),
        "op_s": {label: t for label, _, t in typical},
        "traced_passes": len(traced),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "src_lines": src_lines(root),
        "selfcheck_corrupted": [r["selfcheck"] for r in plain + traced][:1],
        "problems": problems[:10],
    }
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


def per_op(passes, col, agg):
    """[label, metric, seconds] per op: ``agg`` over the passes of column
    ``col`` of the op's times.  Every pass runs the same ops in the same
    order."""
    if not passes:
        return []
    ops = [r["op_times"] for r in passes]
    return [[label, metric, agg([p[i][col] for p in ops])]
            for i, (label, metric, _, _) in enumerate(ops[0])]


def layer_metrics(traced, plain):
    """Per-layer values, the least over the traced passes (counts repeat
    exactly from pass to pass), and the ratios the traced run
    adds: tracing overhead, the --jobs 2 speed-up and input distinctness.
    The ratios compare raw times, least over passes."""
    names = [name for name, _, _ in tracing.PER_LAYER]
    out = {}
    for name in names:
        out[name] = min([r["layers"].get(name, 0) for r in traced], default=0.0)
    best = per_op(plain, RAW, min)
    wall = sum(t for _, _, t in best)
    traced_wall = sum(t for _, _, t in per_op(traced, RAW, min))
    out["trace.overhead_ratio"] = traced_wall / wall if wall else 0.0
    times = {label: t for label, _, t in best}
    for q in (5, 4):
        one, two = (p % q for p in JOBS_PAIR)
        if one in times and two in times:
            out["barcx.jobs2_speedup"] = times[one] / times[two]
            break
    r = traced[0] if traced else {"chi_inputs": 0}
    out["labelings.distinct_input_ratio"] = (
        r["chi_distinct"] / r["chi_inputs"] if r["chi_inputs"] else 0.0)
    return out


def src_lines(root):
    """Non-blank lines of src/clustercx, reported next to the timings."""
    total = 0
    pkg = os.path.join(root, "src", "clustercx")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                total += sum(1 for line in fh if line.strip())
    return total


if __name__ == "__main__":
    sys.exit(main())
