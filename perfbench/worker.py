"""One cold sample: a fresh interpreter runs one item of one workload.

    python3 perfbench/worker.py --workload W --seed N --item I --t0 T [--trace]
    python3 perfbench/worker.py --workload W --seed N --t0 T --warmup

`--t0` is the parent's `time.monotonic()` taken just before it started this
process; CLOCK_MONOTONIC is system-wide on Linux, so set-up time covers
interpreter start, imports and input generation.  The last line of standard
output is one JSON object.  With `--warmup` the worker stops after set-up
and prints the workload's items; run.py runs it once first, so that
bytecode compilation is not timed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--item", help="item to run; the first one with --warmup")
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--warmup", action="store_true")
    args = ap.parse_args()

    import workloads as wl

    reference = wl.load_reference()
    items = wl.ITEMS[args.workload]
    spec = wl.plan(args.workload, args.seed, reference)[args.item or items[0]]
    inputs = wl.setup(args.workload, spec)
    if args.warmup:
        print(json.dumps({"items": items}))
        return
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    error = None
    outputs = units = None
    with tracer or contextlib.nullcontext():
        t_ready = time.monotonic()
        try:
            outputs, units = wl.run(args.workload, spec, inputs)
        except Exception as exc:  # a failed item is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        t_done = time.monotonic()

    if error is None:
        attempted, failed, problems = wl.check(args.workload, spec, outputs, reference)
    else:
        attempted, failed, problems = 1, 1, [error]
    doc = {
        "item": args.item,
        "setup_s": t_ready - args.t0,
        "wall_s": t_done - t_ready,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "units": units or 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:5],
    }
    if tracer is not None:
        doc["trace"] = tracer.summary()
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
