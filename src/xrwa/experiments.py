"""Benchmark and scenario experiments with machine-readable reports.

A report separates what is deterministic from what is not: `rows` and
`derived` hold reproducible values (sizes, counts, path lengths, cost
totals) and feed the report fingerprint; `timing` holds machine-dependent
measurements with their repetition counts and dispersion. Reference numbers
from prior measurements ship as annotations for comparison, never as
pass/fail thresholds.

Timing methodology: monotonic clock, warmup iterations excluded, mean and
P95 reported for latency benchmarks; scaling ratios use per-point
best-batch floors over interleaved batches, which resist ambient load far
better than means. Everything runs on one thread.

`EXPERIMENTS` maps each experiment name to its function; the function's
keyword parameters other than `seed` are the experiment's config `params`,
and their defaults are the only ones.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import platform
import random
import time
from dataclasses import dataclass, field
from math import ceil, log2, sqrt
from statistics import fmean, linear_regression, pstdev
from typing import Any, Sequence

from . import canonical, credential, identity, scenarios, settlement
from .costs import DEFAULT_WEIGHTS, format_units
from .errors import ConfigError, InvariantViolation
from .fixtures import FIXTURE_TYPES, fixture_items, issue_fixture_set
from .ledger import World, WorldConfig
from .primitives import (
    DIGEST_ALGORITHM,
    SIGNATURE_SCHEME,
    digest,
    keygen,
    merkle_prove,
    merkle_root,
    merkle_verify,
)

__all__ = [
    "EXPERIMENTS",
    "ScenarioConfig",
    "MetricsReport",
    "bench_vc",
    "bench_spv",
    "cost_compare",
    "e2e",
    "run",
]

REFERENCE_VC_LATENCY = {
    "issuanceMeanMs": 8.16,
    "issuanceP95Ms": 9.04,
    "verificationMeanMs": 0.96,
    "verificationP95Ms": 1.27,
}
REFERENCE_SPV = {
    "fitSlopeUsPerLevel": 0.69,
    "fitInterceptUs": 0.23,
    "verifyUsAt32": 3.75,
    "verifyUsAt8192": 9.27,
}


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 42
    experiment: str = "e2e"
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; expected one of {tuple(EXPERIMENTS)}"
            )
        _check_ints("seed", [self.seed], 0, 2**64 - 1)
        if not isinstance(self.params, dict):
            raise ConfigError(f"params must be an object, got {self.params!r}")
        # `seed` is a top-level key, so it is never one of the params
        accepted = set(inspect.signature(EXPERIMENTS[self.experiment]).parameters) - {"seed"}
        unknown = set(self.params) - accepted
        if unknown:
            raise ConfigError(f"unknown params for {self.experiment}: {sorted(unknown)}")

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None

    @classmethod
    def from_file(cls, path: str) -> "ScenarioConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        return cls.from_dict(data)


@dataclass
class MetricsReport:
    experiment: str
    rows: list[dict]
    derived: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)
    annotations: dict = field(default_factory=dict)
    invariants: dict = field(default_factory=lambda: {"checked": [], "ok": True})
    environment: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.environment:
            self.environment = {
                "digest": DIGEST_ALGORITHM,
                "signature": SIGNATURE_SCHEME,
                "python": platform.python_version(),
            }

    def fingerprint(self) -> str:
        stable = {
            "experiment": self.experiment,
            "rows": self.rows,
            "derived": self.derived,
            "annotations": self.annotations,
            "invariants": self.invariants,
        }
        return canonical.to_hex(digest(canonical.dumps_bytes(stable)))

    def to_json(self) -> dict:
        return {
            "experiment": self.experiment,
            "environment": self.environment,
            "rows": self.rows,
            "derived": self.derived,
            "timing": self.timing,
            "annotations": self.annotations,
            "invariants": self.invariants,
            "fingerprint": self.fingerprint(),
        }

    def rows_csv(self) -> str:
        if not self.rows:
            return ""
        columns: list[str] = []
        for row in self.rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        lines = [",".join(columns)]
        for row in self.rows:
            cells = []
            for col in columns:
                value = row.get(col, "")
                if isinstance(value, float):
                    value = format_units(value)
                elif isinstance(value, (list, dict)):
                    value = json.dumps(value, sort_keys=True).replace(",", ";")
                cells.append(str(value))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _p95(samples: list[float]) -> float:
    ordered = sorted(samples)
    return ordered[max(ceil(0.95 * len(ordered)) - 1, 0)]


def _latency_ms(samples: list[float]) -> dict:
    return {"meanMs": round(fmean(samples), 4), "p95Ms": round(_p95(samples), 4), "samples": len(samples)}


def _check_ints(name: str, values: Any, low: int, high: float = float("inf")) -> None:
    """ConfigError unless `values` is a non-empty list of integers in
    [low, high], a bool not being one; a scalar param is checked as a
    one-item list."""
    if not (
        isinstance(values, (list, tuple))
        and values
        and all(type(v) is int and low <= v <= high for v in values)
    ):
        raise ConfigError(f"{name}: expected integers in [{low}, {high}], got {values!r}")


# ---------------------------------------------------------------- vc bench --

def bench_vc(n_creds: int = 500, iterations: int = 10, seed: int = 42) -> MetricsReport:
    """Issuance/verification latency plus per-type canonical sizes.

    Sizes and counts are deterministic; latency is machine-dependent and
    lands in the timing section. Each of the `iterations` issues and
    verifies `n_creds` credentials on a fresh world.
    """
    _check_ints("n_creds", [n_creds], 1)
    _check_ints("iterations", [iterations], 1)
    sizes = {name: credential.measured_size_kb(c) for name, c in issue_fixture_set().items()}
    rows = [{"type": name, "sizeKb": sizes[name]} for name in FIXTURE_TYPES]
    average = round(sum(sizes.values()) / len(sizes), 2)
    rows.append({"type": "Average", "sizeKb": average})

    issuer = keygen(digest(b"bench-issuer"))
    holder = keygen(digest(b"bench-holder"))
    issue_ms: list[float] = []
    verify_ms: list[float] = []
    for iteration in range(iterations):
        # fresh world per iteration: status lists never accumulate across runs
        world = World(WorldConfig(seed=seed + iteration))
        identity.did_create(world, issuer)
        identity.did_create(world, holder)
        # one warmup op outside the measured loops
        warm = credential.issue(world, credential.request(fixture_items("Gold"), holder), issuer)
        credential.verify(world, credential.prove(warm, holder, credential.selectors_of(warm)))
        for i in range(n_creds):
            items = fixture_items(FIXTURE_TYPES[i % len(FIXTURE_TYPES)])
            req = credential.request(items, holder)
            t0 = time.perf_counter()
            cred = credential.issue(world, req, issuer)
            issue_ms.append((time.perf_counter() - t0) * 1e3)
            pres = credential.prove(cred, holder, credential.selectors_of(cred))
            t0 = time.perf_counter()
            result = credential.verify(world, pres)
            verify_ms.append((time.perf_counter() - t0) * 1e3)
            if not result.ok:
                raise InvariantViolation(f"benchmark verification failed: {result}")

    return MetricsReport(
        experiment="vc_bench",
        rows=rows,
        derived={"largestType": max(sizes, key=sizes.get), "averageKb": average},
        timing={
            "issuance": _latency_ms(issue_ms),
            "verification": _latency_ms(verify_ms),
            "iterations": iterations,
        },
        annotations={
            "reference": REFERENCE_VC_LATENCY,
            "note": "reference latencies are informational, not pass/fail thresholds",
        },
        invariants={"checked": ["every benchmark verification returned ok"], "ok": True},
    )


# --------------------------------------------------------------- spv bench --

def bench_spv(
    sizes: Sequence[int] = tuple(2**k for k in range(5, 14)), reps: int = 10_000, seed: int = 42
) -> MetricsReport:
    """Inclusion-proof verification time across block sizes, with a
    least-squares fit against log2(n)."""
    _check_ints("sizes", sizes, 2, 2**20)
    if len(set(sizes)) < max(len(sizes), 2):
        raise ConfigError(f"a fit against log2(n) needs two distinct sizes, each listed once, got {sizes!r}")
    _check_ints("reps", [reps], 10)
    sizes = list(sizes)
    rng = random.Random(seed)
    rows = []
    fixtures = []
    for n in sizes:
        leaves = [digest(rng.randbytes(16)) for _ in range(n)]
        root = merkle_root(leaves)
        index = rng.randrange(n)
        path = merkle_prove(leaves, index)
        fixtures.append((n, leaves[index], path, root))
        rows.append({"n": n, "pathLength": len(path.siblings)})
        for _ in range(50):  # warmup
            merkle_verify(leaves[index], path, root)

    # batches interleave across sizes so ambient load drift hits every point
    # alike; the per-point floor (best batch) is the low-noise estimator used
    # for the growth ratio, timeit-style; more, shorter batches give the floor
    # more chances to land in a quiet stretch of a loaded host
    batches = min(50, reps)
    per_batch = reps // batches
    batch_means: dict[int, list[float]] = {n: [] for n in sizes}
    for _ in range(batches):
        for n, leaf, path, root in fixtures:
            t0 = time.perf_counter()
            ok = True
            for _ in range(per_batch):
                ok &= merkle_verify(leaf, path, root)
            elapsed = time.perf_counter() - t0
            if not ok:
                raise InvariantViolation(f"SPV verification returned false at n={n}")
            batch_means[n].append(elapsed / per_batch * 1e6)

    means = [fmean(batch_means[n]) for n in sizes]
    floors = [min(batch_means[n]) for n in sizes]
    timing_rows = [
        {
            "n": n,
            "meanUs": round(mean_us, 4),
            "minUs": round(floor_us, 4),
            "batchStdevUs": round(pstdev(batch_means[n], mean_us), 4),
            "reps": per_batch * batches,
        }
        for n, mean_us, floor_us in zip(sizes, means, floors)
    ]

    xs = [log2(n) for n in sizes]
    slope, intercept = linear_regression(xs, means)
    residual = sqrt(fmean([(y - (slope * x + intercept)) ** 2 for x, y in zip(xs, means)]))

    return MetricsReport(
        experiment="spv_bench",
        rows=rows,
        derived={"sizes": sizes},
        timing={
            "points": timing_rows,
            "fit": {
                "slopeUsPerLevel": round(slope, 4),
                "interceptUs": round(intercept, 4),
                "rmsResidualUs": round(residual, 4),
            },
            "growthRatio": round(floors[-1] / floors[0], 4),
            "growthRatioMean": round(means[-1] / means[0], 4),
            "linearNullModelRatio": round(sizes[-1] / sizes[0], 4),
        },
        annotations={
            "reference": REFERENCE_SPV,
            "note": "reference timings are informational, not pass/fail thresholds",
        },
        invariants={"checked": ["every timed verification returned true"], "ok": True},
    )


# ------------------------------------------------------------ cost compare --

def cost_compare(n: Sequence[int] = (1, 2, 5, 10, 100), seed: int = 42) -> MetricsReport:
    """Simulated op counts priced by the calibrated table, per route, for
    each interaction count in `n`."""
    _check_ints("interaction counts n", n, 1)
    rows = []
    crossover = None
    for count in sorted(n):
        htlc_world = scenarios.run_htlc_route(seed, count)
        chan_world = scenarios.run_channel_route(seed, count)
        htlc_total, htlc_ops = settlement.route_cost(htlc_world, settlement.HTLC_KINDS)
        chan_total, chan_ops = settlement.route_cost(chan_world, settlement.CHANNEL_KINDS)
        rows.append(
            {
                "n": count,
                "htlc_total": htlc_total,
                "channel_total": chan_total,
                "htlc_onchain_ops": htlc_ops,
                "channel_onchain_ops": chan_ops,
            }
        )
        if crossover is None and htlc_total > chan_total:
            crossover = count
    w = DEFAULT_WEIGHTS
    return MetricsReport(
        experiment="cost_compare",
        rows=rows,
        derived={
            "crossoverN": crossover,
            # the two calibration totals of the cost table
            "htlcPerInteraction": int(2 * (w["htlc_lock"] + w["htlc_unlock"])),
            "channelConstant": int(2 * (w["chan_open"] + w["chan_lock"] + w["chan_unlock"])),
        },
        annotations={
            "note": "totals are simulated op counts priced by the calibrated table"
        },
        invariants={"checked": ["world audits passed in both routes"], "ok": True},
    )


# -------------------------------------------------------------------- e2e --

def e2e(updates: int = 50, seed: int = 42) -> MetricsReport:
    """The full cross-chain trade on a fresh world."""
    _check_ints("updates", [updates], 0)
    out = scenarios.run_e2e(seed=seed, n_updates=updates)
    world: World = out["world"]
    return MetricsReport(
        experiment="e2e",
        rows=[out["results"]],
        derived={
            "opLogDigest": canonical.to_hex(digest(world.op_log_csv().encode())),
            "worldDigest": canonical.to_hex(world.world_digest()),
            "artifacts": out["proofBundle"],
        },
        invariants={
            "checked": [
                "header chains link",
                "light-client views are prefixes",
                "value and assets conserved",
                "acceptance records trace to relayed anchors",
            ],
            "ok": True,
        },
    )


# -------------------------------------------------------------------- run --

EXPERIMENTS = {"vc_bench": bench_vc, "spv_bench": bench_spv, "cost_compare": cost_compare, "e2e": e2e}


def run(config: ScenarioConfig) -> MetricsReport:
    """Execute one configured experiment on a fresh world."""
    return EXPERIMENTS[config.experiment](seed=config.seed, **config.params)
