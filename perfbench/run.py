"""Cold-process benchmark of the strandbox verifier.

    python3 perfbench/run.py --workload gls_sweep --seed 1 --seconds 60 --trace 0

Run from the repository root.  Every sample is a fresh interpreter running
one item of the workload (`worker.py`), one at a time; items are visited in
turn until the next sample would overrun `--seconds`.  Per item the median
over its samples is taken, so

* wall_s       = sum over items of the median time to the item's verdict,
* setup_s      = sum over items of the median time from process start until
                 the inputs are ready (interpreter, imports, input building),
* items_per_s  = work units of one round / wall_s (roots verified, tau steps,
                 Hom computations or component nodes, see README.md),
* peak_rss_mb  = largest median maximum RSS of an item's worker.

With `--trace 1` two traced rounds (every item once) give the per-layer
metrics, which must agree on every count, and untraced samples fill the
rest of the time to give the tracing overhead.  Standard output ends with
one JSON line {"correct", "attempted", "failed", "metrics"}; the line
before it holds the environment and per-item detail.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SAMPLE_TIMEOUT_S = 150

sys.path.insert(0, HERE)
from tracer import LAYERS, WITNESS_FAMILIES  # noqa: E402


class BenchError(RuntimeError):
    pass


def git_sha(root):
    """HEAD's commit read from .git without running git; None outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def environment():
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(ROOT),
        "loadavg_start": os.getloadavg(),
    }


def sample(workload, seed, item=None, trace=False, warmup=False):
    """Run one cold worker and return its JSON document."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    argv = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
    if item is not None:
        argv += ["--item", item]
    if trace:
        argv.append("--trace")
    if warmup:
        argv.append("--warmup")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(argv + ["--t0", repr(t0)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}/{item or 'warm-up'} ran past {SAMPLE_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}/{item or 'warm-up'} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_round(workload, seed, items, trace=False):
    return {item: sample(workload, seed, item, trace=trace) for item in items}


# ---------------------------------------------------------------------------
# end-to-end metrics
# ---------------------------------------------------------------------------

def per_item_medians(samples):
    out = {}
    for item, docs in samples.items():
        out[item] = {key: statistics.median(d[key] for d in docs)
                     for key in ("wall_s", "setup_s", "rss_mb")}
        out[item]["units"] = docs[0]["units"]
        out[item]["samples"] = [d["wall_s"] for d in docs]
    return out


def end_to_end(samples):
    med = per_item_medians(samples)
    wall = sum(m["wall_s"] for m in med.values())
    return {
        "wall_s": (wall, "s"),
        "setup_s": (sum(m["setup_s"] for m in med.values()), "s"),
        "items_per_s": (sum(m["units"] for m in med.values()) / wall, "1/s"),
        "peak_rss_mb": (max(m["rss_mb"] for m in med.values()), "MB"),
    }, med


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def merge_traces(docs):
    """Sum the tracer summaries of one traced round (one per item)."""
    total = {"functions": {}, "stages": {}, "witnesses": {}}
    for doc in docs:
        tr = doc["trace"]
        for key, rec in tr["functions"].items():
            acc = total["functions"].setdefault(key, [0, 0, 0.0, 0.0])
            for k in range(4):
                acc[k] += rec[k]
        for group in ("stages", "witnesses"):
            for key, value in tr[group].items():
                total[group][key] = total[group].get(key, 0) + value
        for key, value in tr.items():
            if not isinstance(value, dict):
                total[key] = total.get(key, 0) + value
    return total


def layer_metrics(t):
    """Per-layer metrics of one merged traced round: (value, unit) by name."""
    fns = t["functions"]

    def fn(key, k):
        return fns.get(key, [0, 0, 0.0, 0.0])[k]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for layer in LAYERS:
        recs = [rec for key, rec in fns.items() if key.split(".")[0] == layer]
        out[f"{layer}.calls"] = (sum(r[1] for r in recs), "count")
        out[f"{layer}.self_s"] = (sum(r[3] for r in recs), "s")
    tau_calls = fn("artrans.tau", 0) + fn("artrans.tau_inv", 0)
    out.update({
        "strings.canonical_string.calls": (fn("strings.canonical_string", 0), "count"),
        "strings.canonical_string.self_s": (fn("strings.canonical_string", 3), "s"),
        "strings.can_append.calls": (fn("strings.can_append", 0), "count"),
        "artrans.tau.calls": (fn("artrans.tau", 0), "count"),
        "artrans.tau_inv.calls": (fn("artrans.tau_inv", 0), "count"),
        "artrans.tau_distinct_ratio": (ratio(t["tau_distinct"], tau_calls), "ratio"),
        "artrans.word_len_mean": (ratio(t["tau_letters"], t["tau_strings"]), "letters"),
        "artrans.ar_seq.calls": (fn("artrans.ar_sequence_starting_at", 0), "count"),
        "artrans.ar_seq_distinct_ratio": (
            ratio(t["ar_distinct"], fn("artrans.ar_sequence_starting_at", 0)), "ratio"),
        "modules.hom.calls": (fn("modules.hom_dim", 0), "count"),
        "modules.hom_unknowns": (t["hom_unknowns"], "count"),
        "modules.build_representation.self_s": (fn("modules.build_representation", 3), "s"),
        "linalg.mat_rank.calls": (fn("linalg.mat_rank", 0), "count"),
        "linalg.mat_rank_cells": (t["mat_rank_cells"], "count"),
        "linalg.mat_rank.self_s": (fn("linalg.mat_rank", 3), "s"),
    })
    for stage in ("roots_s", "witnesses_s", "rigidity_s"):
        out[f"verify.stage.{stage}"] = (t["stages"].get(stage, 0.0), "s")
    for family in WITNESS_FAMILIES:
        out[f"verify.witnesses.{family}"] = (t["witnesses"].get(family, 0), "count")
    out["bench.self_s"] = (t["bench_s"], "s")
    out["trace.bookkeeping_s"] = (t["bookkeeping_s"], "s")
    out["trace.wall_s"] = (t["wall_s"], "s")
    return out


def traced_metrics(traced_rounds, samples):
    """Per-layer metrics, the count self-check, and the tracing overhead.

    Returns (metrics, mismatched count names).  Times are the mean of the
    traced rounds; counts must repeat exactly across them.
    """
    rounds = [layer_metrics(merge_traces(list(r.values()))) for r in traced_rounds]
    first = rounds[0]
    mismatch = sorted(name for name, (value, unit) in first.items()
                      if unit != "s" and any(r[name][0] != value for r in rounds[1:]))
    out = {}
    for name, (value, unit) in first.items():
        if unit == "s":
            value = statistics.fmean(r[name][0] for r in rounds)
        out[name] = (value, unit)
    untraced_wall = end_to_end(samples)[0]["wall_s"][0]
    out["trace.overhead_ratio"] = (out["trace.wall_s"][0] / untraced_wall - 1, "ratio")
    return out, mismatch


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def measure(workload, seed, seconds, trace):
    """Cold samples, items in turn, until the next one would pass the deadline.

    Every item gets at least one sample; the last round may be partial.
    Returns (traced rounds, samples by item).
    """
    start = time.monotonic()
    deadline = start + seconds
    items = sample(workload, seed, warmup=True)["items"]  # also compiles bytecode, untimed
    traced = [run_round(workload, seed, items, trace=True) for _ in range(2)] if trace else []
    samples = {item: [] for item in items}
    last = {}
    for k in itertools.count():
        item = items[k % len(items)]
        if k >= len(items) and time.monotonic() + last[item] > deadline:
            return traced, samples
        t0 = time.monotonic()
        samples[item].append(sample(workload, seed, item))
        last[item] = time.monotonic() - t0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "strandbox", "__init__.py")):
        print(f"no strandbox sources under {ROOT}/src", file=sys.stderr)
        return 2
    env = environment()
    try:
        traced, samples = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    docs = [d for r in traced for d in r.values()] + [d for ds in samples.values() for d in ds]
    attempted = sum(d["attempted"] for d in docs)
    failed = sum(d["failed"] for d in docs)
    problems = [p for d in docs for p in d["problems"]]
    e2e, per_item = end_to_end(samples)
    if args.trace:
        metrics, mismatch = traced_metrics(traced, samples)
        attempted += 1
        failed += bool(mismatch)
        if mismatch:
            problems.append(f"traced rounds disagree on counts: {mismatch}")
    else:
        metrics = e2e
    detail = {
        "env": env,
        "workload": args.workload,
        "seed": args.seed,
        "fail_ratio": failed / attempted,
        "items": per_item,
        "problems": problems[:10],
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
