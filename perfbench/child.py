"""One benchmark pass in a fresh process.

Started by ``run.py``, not by hand.  The child caps its own address
space, imports clustercx from ``src``, writes the seeded inputs, prints
``READY`` and the host's speed sampled during set-up (``speed.py``; the
parent times set-up up to that line), runs the workload's ops in order,
checks every result and prints one JSON line with the pass's
measurements: per op its raw time and, in an untraced pass, its time
corrected for the host's speed.  Ops run closed-loop: each starts when
the previous one has returned.
"""

import argparse
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PINS = os.path.join(HERE, "pins.json")
sys.path.insert(0, HERE)

import speed  # noqa: E402
import workloads  # noqa: E402

# Address-space ceiling of a pass child.  An op that needs more (such as
# ``tile_complex(6, 1)``, about 4.8 GB) fails with MemoryError as an op
# instead of pushing the machine into swap.
MEM_CEILING_BYTES = 1 << 30


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--spans", default=None)
    return p.parse_args(argv)


def normal(obj):
    return json.loads(json.dumps(obj, sort_keys=True))


def pin_diffs(observed, pins):
    """Labels and keys where an observed summary differs from its pin."""
    out = []
    for label, want in pins.items():
        got = observed.get(label)
        if got is None:
            continue
        out += ["%s: %s" % (label, k) for k in want if got.get(k) != want[k]]
    return out


def judge(op, result, pins):
    """The gate: None when ``result`` passes the op's check and, for a
    pinned op, equals its pin; otherwise what is wrong."""
    try:
        obs = op.check(result)
    except workloads.Mismatch as e:
        return "wrong result: %s" % e
    except Exception as e:  # malformed output is a wrong result
        return "unreadable result: %s: %s" % (type(e).__name__, e)
    if not op.pinned:
        return None
    if op.label not in pins:
        return "no pinned value"
    diffs = pin_diffs({op.label: normal(obs)}, pins)
    return "differs from pin: " + ", ".join(diffs) if diffs else None


def corrupt(pins, seed):
    """A copy of the pins with one value changed, chosen by the seed."""
    rng = random.Random(seed)
    label = rng.choice(sorted(pins))
    key = rng.choice(sorted(pins[label]))
    bad = json.loads(json.dumps(pins))
    value = bad[label][key]
    if isinstance(value, bool):
        bad[label][key] = not value
    elif isinstance(value, int):
        bad[label][key] = value + 1
    elif isinstance(value, str):
        bad[label][key] = value + "0"
    elif isinstance(value, list):
        bad[label][key] = value + [0]
    else:
        bad[label][key] = {"corrupted": value}
    return bad, "%s: %s" % (label, key)


def main(argv=None):
    # set-up time is corrected by the speed sampled from here to READY
    meter = speed.Meter()
    meter.start()
    args = parse_args(argv)
    resource.setrlimit(resource.RLIMIT_AS, (MEM_CEILING_BYTES, MEM_CEILING_BYTES))
    proto = sys.stdout
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import clustercx as cx  # noqa: E402  (path set above)
    import clustercx.cli  # noqa: F401,E402

    os.makedirs(args.workdir, exist_ok=True)
    p = workloads.Pass(cx, args.workload, args.seed, args.workdir)
    meter.stop()
    proto.write("READY %r\n" % meter.speed())
    proto.flush()
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(cx)
    pins = {}
    if os.path.exists(PINS):
        with open(PINS) as fh:
            pins = json.load(fh)

    # the gate is not vacuous: one pinned op, chosen by the seed, is judged
    # a second time against pins with one of its values changed, through
    # the same judge() as every op, and that must be reported
    pinned = [n for n, op in enumerate(p.ops) if op.pinned and op.label in pins]
    probe = random.Random(args.seed).choice(pinned) if pinned else None
    selfcheck = None

    op_times = []
    failures = []
    start = time.perf_counter()
    for idx, op in enumerate(p.ops):
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                tracer.op_id = idx
                tracer.enabled = True
                result = tracer.call("op", op.run, (), {})
            else:
                # an untraced op is timed with the host's speed divided out
                result = meter.time(op.run)
        except MemoryError:
            result, error = None, "memory ceiling hit"
        except Exception as e:  # an op that raises is a failed op; keep going
            result, error = None, "%s: %s" % (type(e).__name__, e)
        else:
            error = None
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
            op_times.append([op.label, op.metric, elapsed, elapsed])
        else:
            op_times.append([op.label, op.metric, meter.raw_s, meter.corrected_s])
        if error is None:
            error = judge(op, result, pins)
        if error is not None:
            failures.append("%s: %s" % (op.label, error))
        if idx == probe and error is None:
            bad, where = corrupt({op.label: pins[op.label]}, args.seed)
            if judge(op, result, bad) is not None:
                selfcheck = where
        del result
    wall = time.perf_counter() - start

    out = {
        "wall_s": wall,
        "op_times": op_times,
        "attempted": len(p.ops),
        "failed": len(failures),
        "failures": failures[:10],
        "selfcheck": selfcheck,
        "chi_inputs": p.chi_inputs,
        "chi_distinct": p.chi_distinct,
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["cli.stdout_bytes"] = p.stdout_bytes
        out["layers"] = layers
        if args.spans:
            tracer.write_spans(args.spans)
    proto.write(json.dumps(out) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
