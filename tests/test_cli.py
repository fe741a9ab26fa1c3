import functools
import json
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xrwa import canonical, cli, xauth
from xrwa.cli import main
from xrwa.errors import InvariantViolation, MalformedArtifact, NotFound
from xrwa.ledger import Transaction, World, WorldConfig
from xrwa.primitives import digest, keygen, read_field

from mutations import locations, mutate


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def test_run_default_e2e_exit_zero(tmp_path):
    out = tmp_path / "report.json"
    result = invoke("run", "--seed", "7", "--out", str(out))
    assert result.exit_code == 0, result.output
    report = json.loads(out.read_text())
    assert report["rows"][0]["acceptanceRecords"] == 1
    assert report["rows"][0]["destVerifications"] == 0


def test_run_unknown_experiment_exit_two(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "foo"}))
    result = invoke("run", "--config", str(cfg))
    assert result.exit_code == 2
    assert "config error" in result.output


def test_run_chains_key_rejected_exit_two(tmp_path):
    # the e2e scenario always runs on C1 and C2, so a chain list is not a key
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "e2e", "chains": ["A", "B", "Z"]}))
    result = invoke("run", "--config", str(cfg))
    assert result.exit_code == 2
    assert "unknown config keys: ['chains']" in result.output


def test_run_removed_top_level_keys_exit_two(tmp_path):
    # relay_policy and actors changed nothing and are gone
    for key, value in (("relay_policy", 3), ("actors", {"buyer": 9001})):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "e2e", key: value}))
        result = invoke("run", "--config", str(cfg))
        assert result.exit_code == 2
        assert f"unknown config keys: ['{key}']" in result.output


def test_run_seed_with_config_exit_two(tmp_path):
    # the config file sets the seed, so a typed --seed would be dropped silently
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "e2e"}))
    for seed in ("7", "42"):
        result = invoke("run", "--config", str(cfg), "--seed", seed)
        assert result.exit_code == 2
        assert "config error: --seed cannot be given with --config" in result.output


def test_run_config_param(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "e2e", "seed": 21, "params": {"updates": 3}}))
    result = invoke("run", "--config", str(cfg))
    assert result.exit_code == 0, result.output
    row = json.loads(result.output)["rows"][0]
    assert row["updates"] == 3 and row["acceptanceRecords"] == 1


@pytest.mark.parametrize(
    "experiment, params, unknown",
    [
        ("cost_compare", {"n_values": [1]}, "['n_values']"),
        # the actor key seeds are no longer settable
        ("e2e", {"actors": {"buyer": 1}}, "['actors']"),
    ],
)
def test_run_unknown_params_exit_two(tmp_path, experiment, params, unknown):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": experiment, "params": params}))
    result = invoke("run", "--config", str(cfg))
    assert result.exit_code == 2
    assert f"unknown params for {experiment}: {unknown}" in result.output


@pytest.mark.parametrize(
    "config",
    [
        {"seed": True},
        {"experiment": "cost_compare", "params": {"n": [True, 2]}},
        {"experiment": "e2e", "params": {"updates": True}},
    ],
    ids=["seed", "param-item", "scalar-param"],
)
def test_run_bool_for_an_integer_exit_two(tmp_path, config):
    # a JSON true is no integer, though Python's bool is an int
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    result = invoke("run", "--config", str(cfg))
    assert result.exit_code == 2
    assert "expected integers" in result.output


def test_run_malformed_config_exit_two(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    result = invoke("run", "--config", str(cfg))
    assert result.exit_code == 2


def test_run_config_nesting_too_deep_to_decode_exit_two(tmp_path):
    cfg = tmp_path / "deep.json"
    cfg.write_text("[" * 100_000 + "]" * 100_000)
    result = invoke("run", "--config", str(cfg))
    assert result.exit_code == 2
    assert result.output.startswith("config error: cannot read config")


def test_run_twice_identical_nontiming_rows(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert invoke("run", "--seed", "33", "--out", str(out)).exit_code == 0
        outs.append(json.loads(out.read_text()))
    assert outs[0]["rows"] == outs[1]["rows"]
    assert outs[0]["fingerprint"] == outs[1]["fingerprint"]
    assert outs[0]["derived"]["opLogDigest"] == outs[1]["derived"]["opLogDigest"]


@pytest.mark.parametrize("error, code, prefix", [
    (InvariantViolation("conservation broken"), 3, "invariant violation: conservation broken"),
    (NotFound("no such did"), 1, "error: no such did"),
], ids=["invariant-exit-three", "other-error-exit-one"])
def test_run_error_exit_code_and_one_line(monkeypatch, error, code, prefix):
    def failing(config):
        raise error

    monkeypatch.setattr(cli, "run_experiment", failing)
    result = invoke("run", "--seed", "7")
    assert result.exit_code == code
    assert isinstance(result.exception, SystemExit)
    assert result.output == prefix + "\n"


def test_cost_compare_csv_stdout():
    result = invoke("cost-compare", "--n", "1,2", "--format", "csv")
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0].startswith("n,htlc_total,channel_total")
    assert lines[1].split(",")[:3] == ["1", "465426", "917253"]
    assert lines[2].split(",")[:3] == ["2", "930852", "917253"]


def test_cost_compare_bad_n_exit_two():
    assert invoke("cost-compare", "--n", "1,zebra").exit_code == 2
    assert invoke("cost-compare", "--n", "0").exit_code == 2


def test_bench_spv_bad_sizes_exit_two():
    assert invoke("bench-spv", "--sizes", "1,32", "--reps", "100").exit_code == 2


def test_bench_spv_one_distinct_size_exit_two():
    for sizes in ("32", "64,64"):
        result = invoke("bench-spv", "--sizes", sizes, "--reps", "100")
        assert result.exit_code == 2
        assert "two distinct sizes" in result.output


def test_bench_spv_reps_floor_exit_two():
    assert invoke("bench-spv", "--sizes", "32,64", "--reps", "9").exit_code == 2


def test_bench_spv_default_sizes():
    result = invoke("bench-spv", "--reps", "100")
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["derived"]["sizes"] == [2**k for k in range(5, 14)]
    assert [r["pathLength"] for r in report["rows"]] == list(range(5, 14))


def test_bench_spv_quick_json():
    result = invoke("bench-spv", "--sizes", "32,64", "--reps", "100")
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert [r["pathLength"] for r in report["rows"]] == [5, 6]


def test_bench_vc_quick():
    result = invoke("bench-vc", "--creds", "4", "--iterations", "1")
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["derived"]["largestType"] == "RE"
    assert report["timing"]["issuance"]["samples"] == 4
    assert invoke("bench-vc", "--creds", "0").exit_code == 2
    assert invoke("bench-vc", "--workers", "2").exit_code == 2


def test_fixtures_verb_writes_seven_files(tmp_path):
    target = tmp_path / "golden"
    result = invoke("fixtures", "--out", str(target))
    assert result.exit_code == 0
    files = sorted(p.name for p in target.glob("*.json"))
    assert files == ["art.json", "bond.json", "fund.json", "gold.json", "ip.json", "re.json", "vehicle.json"]
    # emitted fixtures are byte-identical to the repo's golden copies
    repo_golden = Path(__file__).resolve().parent.parent / "fixtures"
    for name in files:
        assert (target / name).read_bytes() == (repo_golden / name).read_bytes()


def test_verify_proof_roundtrip_and_tamper(tmp_path):
    out = tmp_path / "report.json"
    assert invoke("run", "--seed", "7", "--out", str(out)).exit_code == 0
    assert invoke("verify-proof", "--bundle", str(out)).exit_code == 0

    report = json.loads(out.read_text())
    report["derived"]["artifacts"]["tx"]["nonce"] += "00"
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(report))
    result = invoke("verify-proof", "--bundle", str(bad))
    assert result.exit_code == 3
    assert "REJECTED" in result.output


def test_verify_proof_missing_keys_exit_two(tmp_path):
    bundle = tmp_path / "empty.json"
    bundle.write_text("{}")
    assert invoke("verify-proof", "--bundle", str(bundle)).exit_code == 2


def test_verify_proof_nesting_too_deep_to_decode_exit_two(tmp_path):
    bundle = tmp_path / "deep.json"
    bundle.write_text("[" * 100_000 + "]" * 100_000)
    result = invoke("verify-proof", "--bundle", str(bundle))
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("config error: cannot read bundle")


def _drop_prev(report):
    del report["derived"]["artifacts"]["headers"][0]["prev"]


def _surrogate_nonce(report):
    report["derived"]["artifacts"]["tx"]["nonce"] += "\ud800"


@pytest.mark.parametrize("mangle, message", [
    (_drop_prev, "missing field 'prev'"),
    (_surrogate_nonce, "field 'tx' holds a string with no UTF-8 form"),
    (lambda report: report.update(derived=[report["derived"]]), "missing field 'proof'"),
], ids=["header-without-prev", "nonce-with-lone-surrogate", "derived-not-an-object"])
def test_verify_proof_malformed_bundle_exit_two_without_traceback(tmp_path, mangle, message):
    out = tmp_path / "report.json"
    assert invoke("run", "--seed", "7", "--out", str(out)).exit_code == 0
    report = json.loads(out.read_text())
    mangle(report)
    bad = tmp_path / "malformed.json"
    bad.write_text(json.dumps(report))
    result = invoke("verify-proof", "--bundle", str(bad))
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.output == f"config error: {message}\n"


# ------------------------------------------------------- bundle mutations ----

@functools.cache
def seed_7_report():
    """`xrwa run --seed 7`: its proof is of a one-transaction block, so the path is empty."""
    result = invoke("run", "--seed", "7")
    assert result.exit_code == 0, result.output
    return result.output


@functools.cache
def multi_tx_bundle():
    """A bare bundle proving the last of seven transactions, which is its own
    sibling at the bottom level, so siblings, sides and leafIndex are there
    to mutate."""
    world = World(WorldConfig(seed=11))
    key = keygen(digest(b"bundle"))
    for i in range(7):
        world.submit_tx("C1", Transaction.make(
            "transfer", {"to": canonical.to_hex(key.pk), "amount": 0}, key, f"b{i}"))
    header = world.seal_block("C1")
    tx = world.chains["C1"].blocks[header.height].txs[6]
    proof = xauth.spv_prove(world, tx.tx_id, ("C1", header.height))
    assert len(proof.path.siblings) == 3
    headers = [b.header.to_json() for b in world.chains["C1"].blocks]
    return json.dumps({"proof": proof.to_json(), "tx": tx.to_json(), "headers": headers})


def artifacts_of(document):
    return document["derived"]["artifacts"] if "derived" in document else document


@settings(max_examples=300)
@given(st.data())
def test_mutated_bundle_refused_without_traceback(tmp_path_factory, data):
    text = data.draw(st.sampled_from([seed_7_report(), multi_tx_bundle()]), label="bundle")
    document = json.loads(text)
    where = data.draw(st.sampled_from(list(locations(artifacts_of(document)))), label="where")
    how = data.draw(st.sampled_from(["delete", "retype", "flip-hex", "surrogate"]), label="how")
    assume(mutate(artifacts_of(document), where, how, data.draw(st.integers(0, 200), label="offset")))
    artifacts = artifacts_of(document)

    try:
        outcome = xauth.offline_verify(*(read_field(artifacts, key, kind) for key, kind in (
            ("proof", dict), ("tx", dict), ("headers", list))))
    except MalformedArtifact:
        outcome = "malformed"
    assert outcome in (False, "malformed")

    bundle = tmp_path_factory.getbasetemp() / "mutated-bundle.json"
    bundle.write_text(json.dumps(document))
    result = invoke("verify-proof", "--bundle", str(bundle))
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert result.exit_code == {True: 0, False: 3, "malformed": 2}[outcome]
