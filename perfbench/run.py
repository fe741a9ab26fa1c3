"""One-command benchmark for xrwa.

    python3 perfbench/run.py --workload xfer --seed 1 --seconds 10 --trace 0

Runs one workload (xfer, block, chan or sweep) against the sources in
``src/`` next to this directory, checks its outputs, and prints each metric
by name with its unit. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The full result, and for a traced run its spans, are written
under ``perfbench/out/``. Exits 1 when any check fails and 2 when the
sources are missing. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")


def _print_table(title: str, rows: dict) -> None:
    print(title)
    for name, (value, unit) in rows.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "xrwa", "__init__.py")):
        print(f"perfbench: no xrwa sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness  # imports xrwa, so only once its sources are on the path

    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(harness.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))

    env = result["environment"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: python {env['python']}, cryptography {env['cryptography']}, "
          f"nproc {env['nproc']}; closed loop, 1 client, 1 thread")
    _print_table("end-to-end", {k: (result["metrics"][k], u) for k, u in harness.E2E
                                if k in result["metrics"]})
    _print_table("end-to-end, by workload name", dict(
        result["named"], ops_per_s_run=(result["metrics"].get("ops_per_s_run", 0.0), "1/s"),
        fail_ratio=(result["failRatio"], "ratio")))
    print(f"  samples {result['samples']}, attempted {result['attempted']}, "
          f"failed {result['failed']}, op-log digest {result['countDetail'].get('digest')}")
    if args.trace:
        t = result["traced"]
        layer_units = dict(harness.PER_LAYER)
        _print_table("per-layer", {k: (v, layer_units[k]) for k, v in t["perLayer"].items()})
        _print_table("self time by layer",
                     {k: (v, "ms") for k, v in t["selfMsByLayer"].items()})
    for failure in result["failures"]:
        print(f"FAILED: {failure}")

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
    if args.trace:
        t = result["traced"]
        with open(stem + ".trace.json", "w") as f:
            json.dump({"spanTable": t["spanTable"], "probeSpanTable": t["probeSpanTable"],
                       "selfMsByLayer": t["selfMsByLayer"], "spans": t.pop("spans"),
                       "probeSpans": t.pop("probeSpans")}, f)
    with open(stem + f"-trace{args.trace}.json", "w") as f:
        json.dump(result, f, indent=1)

    print(json.dumps(harness.result_line(result)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
