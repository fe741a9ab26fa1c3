import json
from pathlib import Path

from click.testing import CliRunner

from xrwa.cli import main


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
    # relay_policy changed nothing; actors is an e2e param now
    for key, value in (("relay_policy", 3), ("actors", {"buyer": 9001})):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "e2e", key: value}))
        result = invoke("run", "--config", str(cfg))
        assert result.exit_code == 2
        assert f"unknown config keys: ['{key}']" in result.output


def test_run_config_actors_param(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "e2e", "seed": 21, "params": {"actors": {"buyer": 9001}}}))
    result = invoke("run", "--config", str(cfg))
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["rows"][0]["acceptanceRecords"] == 1


def test_run_unknown_params_exit_two(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "cost_compare", "params": {"n_values": [1]}}))
    result = invoke("run", "--config", str(cfg))
    assert result.exit_code == 2
    assert "unknown params for cost_compare: ['n_values']" in result.output


def test_run_malformed_config_exit_two(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    result = invoke("run", "--config", str(cfg))
    assert result.exit_code == 2


def test_run_twice_identical_nontiming_rows(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert invoke("run", "--seed", "33", "--out", str(out)).exit_code == 0
        outs.append(json.loads(out.read_text()))
    assert outs[0]["rows"] == outs[1]["rows"]
    assert outs[0]["fingerprint"] == outs[1]["fingerprint"]
    assert outs[0]["derived"]["opLogDigest"] == outs[1]["derived"]["opLogDigest"]


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
