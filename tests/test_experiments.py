import dataclasses
import inspect
import json
import sys
from pathlib import Path

import pytest

from xrwa import scenarios
from xrwa.errors import ConfigError
from xrwa.experiments import (
    EXPERIMENTS,
    ScenarioConfig,
    bench_spv,
    bench_vc,
    cost_compare,
    e2e,
    run,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def key_tree(obj):
    if isinstance(obj, dict):
        return {k: key_tree(v) for k, v in sorted(obj.items())}
    if isinstance(obj, list):
        return [key_tree(obj[0])] if obj else []
    return type(obj).__name__


# ---------------------------------------------------------------- config ----

def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError):
        ScenarioConfig(experiment="foo")


def test_unknown_config_keys_rejected():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"experiment": "e2e", "bogus": 1})


def test_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "cost_compare", "seed": 9, "params": {"n": [1, 3]}}))
    config = ScenarioConfig.from_file(str(path))
    assert config.experiment == "cost_compare"
    assert config.seed == 9


@pytest.mark.parametrize(
    "experiment, params",
    [
        ("cost_compare", {"n_values": [1]}),
        ("e2e", {"update": 2}),
        ("spv_bench", {"sizes": [32], "rep": 10}),
        ("vc_bench", {"n_creds": 1, "iterations": 1, "worker": 1}),
    ],
)
def test_unknown_params_rejected(experiment, params):
    with pytest.raises(ConfigError, match="unknown params"):
        run(ScenarioConfig(experiment=experiment, params=params))


@pytest.mark.parametrize(
    "experiment, accepted",
    [
        ("vc_bench", {"n_creds", "iterations"}),
        ("spv_bench", {"sizes", "reps"}),
        ("cost_compare", {"n"}),
        ("e2e", {"updates"}),
    ],
)
def test_params_are_the_signature_minus_seed(experiment, accepted):
    signature = inspect.signature(EXPERIMENTS[experiment])
    assert set(signature.parameters) - {"seed"} == accepted
    # the config's seed is the one default, and `run` always passes it
    seed = signature.parameters["seed"]
    assert (seed.kind, seed.default) == (inspect.Parameter.KEYWORD_ONLY, inspect.Parameter.empty)
    defaults = {name: p.default for name, p in signature.parameters.items() if name != "seed"}
    ScenarioConfig(experiment=experiment, params=defaults)
    with pytest.raises(ConfigError, match="unknown params"):
        ScenarioConfig(experiment=experiment, params={"seed": 1})


def test_config_has_only_seed_experiment_params():
    assert [f.name for f in dataclasses.fields(ScenarioConfig)] == ["seed", "experiment", "params"]
    for key in ("relay_policy", "actors", "workers"):
        with pytest.raises(ConfigError, match=f"unknown config keys: \\['{key}'\\]"):
            ScenarioConfig.from_dict({"experiment": "e2e", key: 1})


@pytest.mark.parametrize(
    "experiment, params",
    [
        ("vc_bench", {"n_creds": 0}),
        ("vc_bench", {"iterations": "2"}),
        ("spv_bench", {"reps": 0}),
        ("spv_bench", {"reps": 9}),
        ("spv_bench", {"sizes": 64}),
        ("cost_compare", {"n": []}),
        ("cost_compare", {"n": [1, 2.5]}),
        ("e2e", {"updates": -1}),
    ],
)
def test_config_file_values_get_the_range_checks(experiment, params):
    with pytest.raises(ConfigError):
        run(ScenarioConfig(experiment=experiment, params=params))


# ------------------------------------------------------------------- e2e ----

def test_e2e_report_happy_path():
    report = run(ScenarioConfig(seed=5))
    row = report.rows[0]
    assert row["acceptanceRecords"] == 1
    assert row["sourceVerifications"] == 1
    assert row["destVerifications"] == 0
    assert row["updates"] == 50
    assert row["channelPhase"] == "Open"
    assert row["buyerHoldsAsset"] and row["sellerPaid"]
    assert report.invariants["ok"]


def test_e2e_determinism_same_seed():
    a = run(ScenarioConfig(seed=11))
    b = run(ScenarioConfig(seed=11))
    assert a.fingerprint() == b.fingerprint()
    assert a.derived["opLogDigest"] == b.derived["opLogDigest"]
    assert a.derived["worldDigest"] == b.derived["worldDigest"]


def test_seed_42_bytes_pinned():
    # the digests were measured before header linkage, length prefixing, the
    # transaction payload and the status and top-proof checks each became one
    # function; the fingerprint moved when proofs dropped their root and the
    # report came to name each audit check_world runs
    report = run(ScenarioConfig(seed=42))
    assert report.fingerprint() == (
        "0x1e92649f02439f1b472be24facf913a907415d7dd9f5cf3dc37f9d31883d616b"
    )
    assert report.derived["opLogDigest"] == (
        "0x10f8501ce78c7c30269a5f42e9081604399ff237e3023d60a42b687456baaadf"
    )
    assert report.derived["worldDigest"] == (
        "0x49dade1124005c6aa88694db6c665a8843b41d5a2736494133c0104c7959b453"
    )
    assert cost_compare(seed=42).fingerprint() == (
        "0x36b812f50dc43fb055cdcea58b5939fdddaf96ac2384d6f29031c99c80f2f3ff"
    )


def test_e2e_report_names_each_audit_check_world_runs():
    """The report lists, in order, the audits `check_world` calls, itself or
    through `World.check_all`, as a profiler sees them run."""
    report = e2e(updates=1, seed=3)
    world = scenarios.run_e2e(seed=3, n_updates=1)["world"]
    ran = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_back.f_code.co_name in ("check_world", "check_all"):
            ran.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        scenarios.check_world(world)
    finally:
        sys.setprofile(None)
    assert report.invariants["checked"] == [name for name in ran if name != "check_all"]
    assert len(report.invariants["checked"]) == 6


def test_e2e_different_seed_different_oplog():
    a = run(ScenarioConfig(seed=11))
    b = run(ScenarioConfig(seed=12))
    assert a.derived["opLogDigest"] != b.derived["opLogDigest"]


# ------------------------------------------------------------ cost compare ----

def test_cost_compare_identities_and_crossover():
    report = cost_compare(n=[1, 2, 5, 10, 100], seed=3)
    by_n = {row["n"]: row for row in report.rows}
    for n in (1, 2, 5, 10, 100):
        assert by_n[n]["htlc_total"] == 465_426 * n
        assert by_n[n]["channel_total"] == 917_253
        assert by_n[n]["htlc_onchain_ops"] == 4 * n
        assert by_n[n]["channel_onchain_ops"] == 6
    assert report.derived["crossoverN"] == 2
    assert by_n[1]["htlc_total"] < by_n[1]["channel_total"]
    assert by_n[2]["htlc_total"] > by_n[2]["channel_total"]


def test_cost_compare_deterministic():
    assert cost_compare([1, 2], seed=4).fingerprint() == cost_compare([1, 2], seed=4).fingerprint()


def test_cost_compare_rejects_bad_n():
    with pytest.raises(ConfigError):
        cost_compare([0], seed=42)


# --------------------------------------------------------------- vc bench ----

def test_vc_bench_measures_n_creds_per_iteration():
    report = bench_vc(n_creds=4, iterations=2, seed=6)
    assert report.timing["issuance"]["samples"] == 8
    assert report.timing["verification"]["samples"] == 8
    assert report.timing["iterations"] == 2


def test_vc_bench_size_rows_shape():
    report = bench_vc(n_creds=4, iterations=1, seed=6)
    types = [row["type"] for row in report.rows]
    assert types == ["Vehicle", "RE", "Gold", "Art", "Bond", "Fund", "IP", "Average"]
    assert report.derived["largestType"] == "RE"
    assert report.annotations["reference"]["issuanceMeanMs"] == 8.16
    assert report.annotations["reference"]["verificationP95Ms"] == 1.27
    assert report.timing["issuance"]["samples"] >= 4


# -------------------------------------------------------------- spv bench ----

def test_spv_bench_path_lengths_exact():
    report = bench_spv(sizes=[2**k for k in range(5, 14)], reps=200, seed=2)
    assert [row["pathLength"] for row in report.rows] == list(range(5, 14))
    assert [row["n"] for row in report.rows] == [2**k for k in range(5, 14)]
    fit = report.timing["fit"]
    assert set(fit) == {"slopeUsPerLevel", "interceptUs", "rmsResidualUs"}
    assert report.annotations["reference"]["verifyUsAt32"] == 3.75
    assert report.timing["linearNullModelRatio"] == 256.0


def test_spv_bench_rejects_out_of_range_sizes():
    with pytest.raises(ConfigError):
        bench_spv(sizes=[1], seed=42)
    with pytest.raises(ConfigError):
        bench_spv(sizes=[2**21], seed=42)


@pytest.mark.parametrize("sizes", [[32], [64, 64], [32, 64, 64]])
def test_spv_bench_needs_two_distinct_sizes(sizes):
    # one distinct size leaves the log2(n) fit with a zero denominator, and a
    # repeated size would pool its batches into one point listed twice
    with pytest.raises(ConfigError, match="two distinct sizes"):
        bench_spv(sizes=sizes, reps=100, seed=42)


def test_spv_bench_reps_floor():
    with pytest.raises(ConfigError, match="reps"):
        bench_spv(sizes=[32, 64], reps=9, seed=42)
    assert bench_spv(sizes=[32, 64], reps=10, seed=42).timing["points"][0]["reps"] == 10


def test_spv_bench_deterministic_rows():
    a = bench_spv(sizes=[32, 64], reps=100, seed=9)
    b = bench_spv(sizes=[32, 64], reps=100, seed=9)
    assert a.rows == b.rows
    assert a.fingerprint() == b.fingerprint()


# ----------------------------------------------------------- report schema ----

@pytest.mark.parametrize(
    "name,builder",
    [
        ("vc_bench", lambda: bench_vc(n_creds=4, iterations=1, seed=42)),
        ("spv_bench", lambda: bench_spv(sizes=[32, 64], reps=100, seed=42)),
        ("cost_compare", lambda: cost_compare(n=[1, 2], seed=42)),
        ("e2e", lambda: run(ScenarioConfig(seed=1))),
    ],
)
def test_report_schema_stable(name, builder):
    golden = json.loads((GOLDEN / f"report_schema_{name}.json").read_text())
    assert key_tree(builder().to_json()) == golden


def test_rows_csv_shape():
    report = cost_compare(n=[1, 2], seed=3)
    lines = report.rows_csv().strip().splitlines()
    assert lines[0] == "n,htlc_total,channel_total,htlc_onchain_ops,channel_onchain_ops"
    assert lines[1].startswith("1,465426,917253")

