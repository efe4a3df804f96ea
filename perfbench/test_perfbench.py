"""Tests of the benchmark itself: seeds, reference checks and the tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import itertools
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import strandbox as sb  # noqa: E402
import run as bench  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

REFERENCE = wl.load_reference()


def run_item(workload, seed, item, reference=REFERENCE):
    spec = wl.plan(workload, seed, reference)[item]
    outputs, units = wl.run(workload, spec, wl.setup(workload, spec))
    attempted, failed, problems = wl.check(workload, spec, outputs, reference)
    return attempted, failed, units


def test_plan_is_a_function_of_the_seed():
    for workload in wl.ITEMS:
        assert wl.plan(workload, 7, REFERENCE) == wl.plan(workload, 7, REFERENCE)
        plans = [wl.plan(workload, seed, REFERENCE) for seed in range(8)]
        assert len({repr(p) for p in plans}) > 1, workload
        assert set(plans[0]) == set(wl.ITEMS[workload])


def test_generated_sequences_are_admissible():
    rng = random.Random(0)
    for n in (3, 4, 5):
        for bits in itertools.product("RL", repeat=n - 1):
            o = "".join(bits)
            for polarity in "+-":
                seq = wl.random_admissible_sequence(rng, o, polarity)
                assert sb.is_admissible_sequence(o, seq, polarity), (o, seq, polarity)


def test_node_text_ignores_word_direction():
    assert wl.normal_text("a21~.a32~") == wl.normal_text("a32.a21")
    assert wl.normal_text("triv(2)") == "triv(2)"
    assert wl.node_digest(["a21~.a32~", "e1"]) == wl.node_digest(["e1", "a32.a21"])


def test_corrupted_reference_values_fail():
    seed = 3
    attempted, failed, _ = run_item("hom_dense", seed, "band_dl1")
    assert attempted == len(wl.HOM_LEVELS["band_dl1"]) and failed == 0

    spec = wl.plan("hom_dense", seed, REFERENCE)["band_dl1"]
    bad = copy.deepcopy(REFERENCE)
    bad["hom_dense"][spec["orientation"]]["bands"]["band_dl1"][spec["band"]][2] += 1
    attempted, failed, _ = run_item("hom_dense", seed, "band_dl1", bad)
    assert failed / attempted > 0

    spec = wl.plan("ar_window", seed, REFERENCE)["p1"]
    bad = copy.deepcopy(REFERENCE)
    bad["ar_window"][spec["orientation"]]["p1"]["nodes"] += 1
    attempted, failed, units = run_item("ar_window", seed, "p1", bad)
    assert units > 400 and failed / attempted > 0


def test_tracer_accounts_for_the_traced_time_and_restores_the_library():
    original = sb.verify.tau
    p = sb.build_type_C_algebra(3, "RL")
    with Tracer() as tracer:
        report = sb.check_gls(p, 8)
    assert report.passed
    assert sb.verify.tau is original and sb.check_gls.__module__ == "strandbox.verify"

    t = tracer.summary()
    metrics = bench.layer_metrics(bench.merge_traces([{"trace": t}]))
    self_total = sum(metrics[f"{layer}.self_s"][0] for layer in bench.LAYERS)
    accounted = self_total + t["bench_s"] + t["bookkeeping_s"]
    assert abs(accounted - t["wall_s"]) < 1e-6 * max(1.0, t["wall_s"])
    assert metrics["verify.calls"][0] == 1  # the one entry call
    assert metrics["artrans.tau.calls"][0] > 0
    assert 0 < metrics["artrans.tau_distinct_ratio"][0] < 1
    assert sum(t["witnesses"].values()) > 0


def test_traced_rounds_must_agree_on_counts():
    p = sb.build_type_C_algebra(3, "RR")
    with Tracer() as tracer:
        sb.check_coxeter_compatibility(p, (3, 2, 1), 4)
    docs = [{"n3": {"trace": tracer.summary()}} for _ in range(2)]
    docs[1] = copy.deepcopy(docs[1])
    samples = {"n3": [{"wall_s": 1.0, "setup_s": 0.1, "rss_mb": 20.0, "units": 1}]}
    metrics, mismatch = bench.traced_metrics(docs, samples)
    assert mismatch == []
    assert metrics["artrans.tau_distinct_ratio"][0] == 1.0

    docs[1]["n3"]["trace"]["functions"]["artrans.tau"][0] += 1
    _, mismatch = bench.traced_metrics(docs, samples)
    assert "artrans.tau.calls" in mismatch
