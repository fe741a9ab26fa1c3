"""Runs one workload: set-up, the timed closed loop, the correctness gate
and, for a traced run, a traced pass of the same seed with probes and floors.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import traceback
from time import perf_counter
from typing import Callable

import cryptography

import floors
from spans import Tracer, layer_self_ms, span_table
from workloads import WORKLOADS, Workload

# end-to-end metrics of every workload, the ones BENCHMARK.json gates.
# README.md maps them to each workload's operations; runs also report the
# p50 and p99 of each timed series and print workload-specific names.
E2E = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
]

# per-layer metrics of a traced run. Names ending in a time unit are the p50
# per call of the span with that name; the rest are counts, floors and the
# tracing overhead.
PER_LAYER = [
    ("primitives.sign.us", "us"),
    ("primitives.verify_sig.us", "us"),
    ("primitives.digest.us", "us"),
    ("primitives.merkle_root.ms", "ms"),
    ("primitives.merkle_prove.ms", "ms"),
    ("primitives.merkle_verify.us", "us"),
    ("canonical.dumps_bytes.tx_us", "us"),
    ("canonical.dumps_bytes.presentation_us", "us"),
    ("ledger.World.ms", "ms"),
    ("ledger.Transaction.make.us", "us"),
    ("ledger.submit_tx.us", "us"),
    ("ledger.seal_block.ms", "ms"),
    ("ledger.relay_chain.us", "us"),
    ("ledger.find_tx.ms", "ms"),
    ("ledger.check_all.ms", "ms"),
    ("ledger.op_log.entries", "count"),
    ("ledger.op_log.cost_units", "units"),
    ("ledger.txs", "count"),
    ("ledger.relay_reject.count", "count"),
    ("identity.did_create.us", "us"),
    ("identity.check_authorization.ms", "ms"),
    ("credential.request.us", "us"),
    ("credential.issue.ms", "ms"),
    ("credential.prove.ms", "ms"),
    ("credential.presentation.bytes", "bytes"),
    ("credential.verifications.C1", "count"),
    ("credential.verifications.C2", "count"),
    ("xauth.make_commitment.ms", "ms"),
    ("xauth.anchor.ms", "ms"),
    ("xauth.spv_prove.ms", "ms"),
    ("xauth.spv_verify.us", "us"),
    ("xauth.authenticate.us", "us"),
    ("xauth.authenticate.accepted", "count"),
    ("xauth.authenticate.rejected", "count"),
    ("xauth.accept_ratio", "ratio"),
    ("xauth.proof.siblings", "count"),
    ("xauth.check_acceptance_soundness.ms", "ms"),
    ("settlement.chan_open.ms", "ms"),
    ("settlement.make_state.us", "us"),
    ("settlement.chan_update.us", "us"),
    ("settlement.chan_lock.us", "us"),
    ("settlement.chan_unlock.us", "us"),
    ("settlement.htlc_lock.us", "us"),
    ("settlement.htlc_unlock.us", "us"),
    ("settlement.updates", "count"),
    ("settlement.onchain_ops", "count"),
    ("atomicity.run_schedule.us", "us"),
    ("atomicity.schedules", "count"),
    ("atomicity.mixed", "count"),
    ("trace.overhead_pct", "%"),
]

NS_IN = {"s": 1e-9, "ms": 1e-6, "us": 1e-3}

SETUP_MIN_BATCHES = 3
SETUP_MIN_SECONDS = 0.5
SETUP_MAX_BATCHES = 50
# a set-up is timed in batches of at least this long, and the batch mean is
# one sample: a single short set-up is mostly cache and allocator jitter
SETUP_BATCH_S = 0.01
# a batch of set-ups is also timed every SETUP_EVERY_S of the timed run, so
# the fastest batch is drawn from the whole run, not one moment before it,
# while those batches take under SETUP_SHARE of the run's wall time
SETUP_EVERY_S = 0.5
SETUP_SHARE = 0.1


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_set_up(cls: type[Workload], seed: int, small: bool) -> tuple[Workload, float]:
    """One batch of set-ups from a collected heap; returns the last build
    and the mean time of one."""
    gc.collect()
    times: list[float] = []
    w = None
    while not times or sum(times) < SETUP_BATCH_S:
        w = None  # drop the previous build so peak memory holds one
        t0 = perf_counter()
        w = cls(seed, Tracer(False), small)
        times.append(perf_counter() - t0)
    return w, statistics.fmean(times)


def set_up(cls: type[Workload], seed: int, small: bool) -> tuple[Workload, list[float]]:
    """Build the workload in several batches before the run."""
    times: list[float] = []
    w = None
    while len(times) < SETUP_MIN_BATCHES or (
        sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_BATCHES
    ):
        w = None
        w, t = timed_set_up(cls, seed, small)
        times.append(t)
    return w, times


def drive(w: Workload, seconds: float, between: Callable[[], None] | None = None) -> dict:
    """The timed closed loop, then untimed steps until the count snapshot.

    Only step time is measured: ``prepare``, ``between`` (called every
    SETUP_EVERY_S of timed steps) and the snapshot run with the clock
    stopped. A step that raises ends the loop as one failed operation.
    """
    tr = w.tr
    elapsed, steps, timed_units = 0.0, 0, 0
    marks: list[tuple[float, int]] = []
    next_between = SETUP_EVERY_S
    failures: list[str] = []
    snapshot = e2e = None
    gc.collect()
    try:
        while e2e is None or snapshot is None:
            timing = e2e is None
            if timing and not w.more(steps, elapsed, seconds):
                e2e, timed_units = w.e2e(), w.units
                e2e["ops_per_s"] = w.best_rate(marks)
                e2e["ops_per_s_run"] = w.units / elapsed
                continue
            if timing and between and elapsed >= next_between:
                between()
                next_between += SETUP_EVERY_S
            w.prepare()
            t0 = perf_counter()
            with tr.span(w.root, new_trace=True):
                failures += w.step()
            if timing:
                elapsed += perf_counter() - t0
                marks.append((elapsed, w.units))
            steps += 1
            if steps == w.snapshot_ops:
                counts, detail = w.counts()
                snapshot = {"counts": counts, "detail": detail, "peakRssMb": peak_rss_mb()}
    except Exception:
        failures.append(f"step {steps} raised:\n{traceback.format_exc()}")
    return {"elapsed": elapsed, "steps": steps, "timedUnits": timed_units,
            "units": w.units, "e2e": e2e, "snapshot": snapshot, "failures": failures}


def gate(w: Workload) -> tuple[int, list[str]]:
    """Run the post-run checks; returns how many ran and which failed."""
    checks = w.checks()
    failures = []
    with w.tr.span("bench.gate", new_trace=True):
        for name, check in checks:
            try:
                w.tr.call(name, check)
            except Exception as exc:
                failures.append(f"{name}: {exc!r}")
    return len(checks), failures


def probe(own: str, seed: int, tr: Tracer) -> list[str]:
    """Run every other workload briefly at a small size, traced, so each
    per-layer metric has a value on every workload."""
    failures: list[str] = []
    for name, cls in WORKLOADS.items():
        if name == own:
            continue
        with tr.span("bench.setup", new_trace=True):
            w = cls(seed, tr, small=True)
        for _ in range(cls.probe_steps):
            w.prepare()
            with tr.span(w.root, new_trace=True):
                failures += [f"probe {name}: {f}" for f in w.step()]
        failures += [f"probe {name}: {f}" for f in gate(w)[1]]
    return failures


def per_layer(counts: dict, floor_values: dict, table: dict, probe_table: dict,
              overhead_pct: float) -> dict[str, float]:
    out = {}
    for name, unit in PER_LAYER:
        if name in counts:
            out[name] = counts[name]
        elif name in floor_values:
            out[name] = floor_values[name]
        elif name == "trace.overhead_pct":
            out[name] = overhead_pct
        else:
            span = name[: -len(unit) - 1]
            out[name] = (table.get(span) or probe_table[span])["p50Ns"] * NS_IN[unit]
    return out


def traced(cls: type[Workload], seed: int, seconds: float, small: bool,
           untraced: dict) -> dict:
    """A traced pass of the same seed, then probes and floors."""
    tr = Tracer(True)
    with tr.span("bench.setup", new_trace=True):
        w = cls(seed, tr, small)
    t0 = perf_counter()
    passed = drive(w, seconds)
    _, gate_failures = gate(w)
    wall_s = perf_counter() - t0
    failures = passed["failures"] + gate_failures
    if passed["snapshot"] and untraced["snapshot"] \
            and passed["snapshot"]["detail"] != untraced["snapshot"]["detail"]:
        failures.append("traced and untraced passes of one seed differ in counts or digest")

    probe_tr = Tracer(True)
    failures += probe(cls.name, seed, probe_tr)
    floor_values = floors.measure(w.floor_inputs())

    overhead_pct = 0.0
    if passed["timedUnits"] and untraced["timedUnits"]:
        overhead_pct = (passed["elapsed"] / passed["timedUnits"]
                        / (untraced["elapsed"] / untraced["timedUnits"]) - 1) * 100
    table, probe_table = span_table(tr.spans), span_table(probe_tr.spans)
    counts = (passed["snapshot"] or untraced["snapshot"])["counts"]
    return {
        "perLayer": per_layer(counts, floor_values, table, probe_table, overhead_pct),
        "selfMsByLayer": layer_self_ms(tr.spans),
        "spanTable": table,
        "probeSpanTable": probe_table,
        "floors": floor_values,
        "tracedWallS": wall_s,
        "tracedE2e": passed["e2e"],
        "failures": failures,
        "spans": tr.to_json(),
        "probeSpans": probe_tr.to_json(),
    }


def run(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    cls = WORKLOADS[name]
    w, setup_times = set_up(cls, seed, small)
    t_start, in_run = perf_counter(), 0.0

    def between() -> None:
        nonlocal in_run
        if in_run < SETUP_SHARE * (perf_counter() - t_start):
            t0 = perf_counter()
            setup_times.append(timed_set_up(cls, seed, small)[1])
            in_run += perf_counter() - t0
    passed = drive(w, seconds, between)
    n_checks, gate_failures = gate(w)
    snapshot = passed["snapshot"] or {"counts": {}, "detail": {}, "peakRssMb": peak_rss_mb()}
    e2e = passed["e2e"] or {}
    metrics = {"setup_s": min(setup_times), "peak_rss_mb": snapshot["peakRssMb"],
               **e2e}
    named = {label: metrics[generic] * scale for label, (generic, scale, _) in cls.NAMED.items()
             if generic in metrics}
    failures = passed["failures"] + gate_failures
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "small": small,
        "environment": environment(),
        "setupTimesS": setup_times,
        "steps": passed["steps"], "timedUnits": passed["timedUnits"],
        "elapsedS": passed["elapsed"],
        "samples": {k: len(v) for k, v in w.samples.items()},
        "metrics": metrics,
        "named": {label: [named[label], unit] for label, (_, _, unit) in cls.NAMED.items()
                  if label in named},
        "counts": snapshot["counts"],
        "countDetail": snapshot["detail"],
        "attempted": passed["units"] + n_checks,
    }
    if trace:
        result["traced"] = traced(cls, seed, seconds, small, passed)
        failures += result["traced"]["failures"]
    result["failures"] = failures
    result["failed"] = len(failures)
    result["failRatio"] = len(failures) / result["attempted"]
    result["correct"] = not failures and passed["e2e"] is not None
    return result


def result_line(result: dict) -> dict:
    """The last line of a run's output: e2e metrics untraced, per-layer traced."""
    if result["trace"]:
        values, units = result["traced"]["perLayer"], dict(PER_LAYER)
    else:
        values, units = result["metrics"], dict(E2E)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values},
    }
