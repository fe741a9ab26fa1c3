"""Tests of the benchmark itself, on small inputs.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys
from time import perf_counter_ns

import pytest

import harness
from spans import END, ID, PARENT, START, TRACE, Tracer, self_times_ns
from workloads import WORKLOADS, Xfer, cycle_rates

from conftest import BENCH_DIR, ROOT

NAMES = sorted(WORKLOADS)


def _run(name, trace=False, seed=3):
    return harness.run(name, seed, 0.05, trace, small=True)


@pytest.mark.parametrize("name", NAMES)
def test_counts_and_digest_repeat_for_one_seed(name):
    first, second = _run(name), _run(name)
    assert first["correct"] and second["correct"], first["failures"] + second["failures"]
    assert first["counts"] == second["counts"]
    assert first["countDetail"] == second["countDetail"]
    assert first["counts"]["credential.verifications.C2"] == 0
    assert first["counts"]["atomicity.mixed"] == 0


def test_counts_depend_on_the_seed():
    assert _run("xfer", seed=3)["countDetail"]["digest"] != \
        _run("xfer", seed=4)["countDetail"]["digest"]


def _check_nesting(spans):
    by_id = {s[ID]: s for s in spans}
    for s in spans:
        assert s[START] <= s[END]
        if s[PARENT] is not None:
            parent = by_id[s[PARENT]]
            assert parent[START] <= s[START] and s[END] <= parent[END]
            assert parent[TRACE] == s[TRACE]
    selfs = self_times_ns(spans)
    assert all(v >= 0 for v in selfs.values())
    return sum(selfs.values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_spans_nest_within_wall_time(name):
    t0 = perf_counter_ns()
    result = _run(name, trace=True)
    wall_ns = perf_counter_ns() - t0
    assert result["correct"], result["failures"]
    t = result["traced"]
    as_lists = [[s["id"], s["parent"], s["trace"], s["name"], s["startNs"], s["endNs"]]
                for s in t["spans"]]
    probe_lists = [[s["id"], s["parent"], s["trace"], s["name"], s["startNs"], s["endNs"]]
                   for s in t["probeSpans"]]
    total_self = _check_nesting(as_lists) + _check_nesting(probe_lists)
    assert total_self <= wall_ns
    assert abs(sum(t["selfMsByLayer"].values()) * 1e6 - _check_nesting(as_lists)) < 1e3
    values = t["perLayer"]
    assert [n for n, _ in harness.PER_LAYER] == list(values)
    for metric, unit in harness.PER_LAYER:
        if unit in ("us", "ms", "s"):
            assert values[metric] > 0, metric


def test_tracer_parents_and_traces():
    tr = Tracer(True)
    with tr.span("bench.a", new_trace=True):
        tr.call("ledger.x", lambda: None)
        with tr.span("bench.b"):
            tr.call("ledger.y", lambda: None)
    with tr.span("bench.c", new_trace=True):
        pass
    a, x, b, y, c = tr.spans
    assert (x[PARENT], b[PARENT], y[PARENT], c[PARENT]) == (a[ID], a[ID], b[ID], None)
    assert a[TRACE] == x[TRACE] == y[TRACE] != c[TRACE]
    assert Tracer(False).call("ledger.z", lambda v: v + 1, 1) == 2


def test_gate_catches_a_replayed_transaction_and_a_wrong_settlement():
    w = WORKLOADS["xfer"](5, Tracer(False), small=True)
    for _ in range(3):
        assert w.step() == []
    assert harness.gate(w)[1] == []
    blocks = w.world.chains["C1"].blocks
    blocks[-1].txs.append(blocks[-2].txs[0])
    failed = harness.gate(w)[1]
    assert any(f.startswith("bench.inputs_valid") for f in failed)
    assert any(f.startswith("ledger.check_all") for f in failed)

    c = WORKLOADS["chan"](5, Tracer(False), small=True)
    assert c.step() == []
    c.channel.settled_payment -= 1
    assert any(f.startswith("bench.channel_settled") for f in harness.gate(c)[1])


def test_xfer_outcomes_follow_fixture_regions():
    w = Xfer(6, Tracer(False), small=True)
    for _ in range(len(w.templates)):
        assert w.step() == []
    assert (w.accepted, w.rejected) == (4, 3)


def test_cycle_rates_take_whole_cycles():
    marks = [(1.0, 2), (2.0, 4), (2.5, 6), (3.0, 8), (9.0, 9)]
    assert cycle_rates(marks, 2) == [2.0, 4.0]
    assert cycle_rates(marks, 5) == [1.0]


def test_block_rate_sums_the_fastest_time_of_each_segment():
    w = WORKLOADS["block"](3, Tracer(False), small=True)
    w.segments = [[0.0, 1.0, 3.0], [10.0, 12.0, 13.0]]
    assert w.best_rate([]) == w.units_per_step / 2.0


def test_setup_s_is_the_fastest_batch():
    result = _run("xfer")
    assert result["metrics"]["setup_s"] == min(result["setupTimesS"])
    assert len(result["setupTimesS"]) >= harness.SETUP_MIN_BATCHES


def test_benchmark_json_lists_the_harness_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == harness.E2E
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == harness.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_result_line_has_exactly_the_listed_metrics():
    result = _run("chan")
    line = harness.result_line(result)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert [k for k in line["metrics"]] == [n for n, _ in harness.E2E]
    assert line["attempted"] >= 1 and line["failed"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "xfer", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
