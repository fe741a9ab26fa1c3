"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -s` to see them,
or execute this file directly)."""

import itertools
import random
import sys
import time
from contextlib import contextmanager

from xrwa import credential, primitives
from xrwa.atomicity import explore_schedules, fuzz_schedules
from xrwa.credential import issue, measured_size_kb, prove, request, revoke, verify
from xrwa.experiments import ScenarioConfig, bench_spv, cost_compare, run
from xrwa.fixtures import FIXTURE_TYPES, fixture_items, fixture_world, issue_fixture_set
from xrwa.scenarios import run_e2e, run_channel_route, run_htlc_route


@contextmanager
def criterion(name, budget_s=None):
    t0 = time.perf_counter()
    detail = {}
    try:
        yield detail
    except BaseException as exc:
        print(f"[FAIL] {name}: {exc}", flush=True)
        raise
    elapsed = time.perf_counter() - t0
    if budget_s is not None:
        assert elapsed < budget_s, f"{name} took {elapsed:.1f}s, budget {budget_s}s"
    extra = f" — {detail['note']}" if "note" in detail else ""
    print(f"[PASS] {name} ({elapsed:.2f}s){extra}", flush=True)


def test_criterion_size_reproduction():
    with criterion("credential-size-band", budget_s=1.0) as detail:
        sizes = {name: measured_size_kb(c) for name, c in issue_fixture_set().items()}
        assert set(sizes) == set(FIXTURE_TYPES)
        assert max(sizes, key=sizes.get) == "RE"
        assert sizes["RE"] > sizes["Art"] > sizes["Fund"]
        average = sum(sizes.values()) / len(sizes)
        assert 7.27 * 0.5 <= average <= 7.27 * 1.5
        detail["note"] = f"avg {average:.2f} KB, RE {sizes['RE']:.2f} > Art {sizes['Art']:.2f} > Fund {sizes['Fund']:.2f}"


def test_criterion_spv_logarithmic_scaling():
    with criterion("spv-logarithmic-scaling", budget_s=120.0) as detail:
        report = bench_spv(sizes=[2**k for k in range(5, 14)], reps=10_000)
        assert [row["pathLength"] for row in report.rows] == list(range(5, 14))
        ratio = report.timing["growthRatio"]
        assert ratio <= 3.1, f"growth ratio {ratio} exceeds 3.1"
        fit = report.timing["fit"]
        detail["note"] = (
            f"ratio {ratio} (linear null {report.timing['linearNullModelRatio']:.0f}); "
            f"fit {fit['slopeUsPerLevel']}*log2(n)+{fit['interceptUs']} us, "
            f"rms residual {fit['rmsResidualUs']} us"
        )


def test_spv_verify_hashes_one_node_per_level(monkeypatch):
    """The timing gate above reads the host's load as well as the code; the
    node digests one verification computes cannot drift."""
    calls = []
    node_digest = primitives.node_digest

    def counting(left, right):
        calls.append(1)
        return node_digest(left, right)

    monkeypatch.setattr(primitives, "node_digest", counting)
    rng = random.Random(42)
    for n in (32, 8192):
        leaves = [primitives.digest(rng.randbytes(16)) for _ in range(n)]
        root = primitives.merkle_root(leaves)
        for index in (0, rng.randrange(n), n - 1):
            path = primitives.merkle_prove(leaves, index)
            calls.clear()
            assert primitives.merkle_verify(leaves[index], path, root)
            assert len(calls) == primitives.path_length(n)


def test_criterion_cost_comparison():
    with criterion("cost-comparison", budget_s=10.0) as detail:
        ns = [1, 2, 5, 10, 100]
        report = cost_compare(n=ns)
        by_n = {row["n"]: row for row in report.rows}
        for n in ns:
            assert by_n[n]["htlc_total"] == 465_426 * n, f"htlc total at n={n}"
            assert by_n[n]["channel_total"] == 917_253, f"channel total at n={n}"
        assert report.derived["crossoverN"] == 2
        detail["note"] = "totals exact for n in {1,2,5,10,100}; crossover at n=2"


def test_criterion_atomicity_model_check():
    with criterion("settlement-atomicity", budget_s=60.0) as detail:
        exhaustive = explore_schedules()
        assert all(not o.mixed for o in exhaustive)
        fuzzed = fuzz_schedules(10_000)
        assert all(not o.mixed for o in fuzzed)
        settled = sum(o.assets_settled for o in exhaustive)
        detail["note"] = (
            f"{len(exhaustive)} exhaustive + {len(fuzzed)} fuzzed schedules, "
            f"0 mixed terminals ({settled} settled, {len(exhaustive) - settled} refunded)"
        )


def test_criterion_no_redundant_verification():
    with criterion("no-redundant-verification") as detail:
        out = run_e2e(seed=42, n_updates=50)
        results = out["results"]
        assert results["sourceVerifications"] == 1
        assert results["destVerifications"] == 0
        assert results["acceptanceRecords"] == 1
        assert results["updates"] == 50
        assert results["settledBatch"]
        detail["note"] = "source verifications = 1, destination = 0"


DISCLOSURE_BY_SECTION = {
    "asset": "asset.assetType",
    "identity": "identity.attributes",
    "compliance": "compliance.sellableRegions",
    "custody": "custody.location",
}

SENTINELS = {
    "identity.identifiers": "SENTINEL-IDENT-93001",
    "compliance.licenseId": "SENTINEL-LICENSE-41188",
    "custody.location": "SENTINEL-VAULT-77215",
    "asset.category": "SENTINEL-CATEGORY-5612",
}


def test_criterion_disclosure_revocation_matrix():
    with criterion("disclosure-and-revocation-matrix") as detail:
        outcomes = {}
        for revoked, disclosed in itertools.product(credential.SECTIONS, repeat=2):
            world, issuer, holder = fixture_world()
            cred = issue(world, request(fixture_items("RE"), holder), issuer)
            revoke(world, cred, revoked, issuer)
            pres = prove(cred, holder, [DISCLOSURE_BY_SECTION[disclosed]])
            result = verify(world, pres)
            expect_fail = revoked == disclosed or revoked == "asset"
            assert result.ok != expect_fail, (revoked, disclosed, str(result))
            outcomes[(revoked, disclosed)] = result.ok

        # minimality byte-scan: no undisclosed sentinel may appear serialized
        world, issuer, holder = fixture_world()
        items = fixture_items("RE")
        items["identity"]["identifiers"][0]["identifierValue"] = SENTINELS["identity.identifiers"]
        items["compliance"]["licenseId"] = SENTINELS["compliance.licenseId"]
        items["custody"]["location"] = SENTINELS["custody.location"]
        items["asset"]["category"] = SENTINELS["asset.category"]
        cred = issue(world, request(items, holder), issuer)
        leaks = 0
        for keep in list(SENTINELS) + [None]:
            pres = prove(cred, holder, [keep] if keep else [])
            blob = pres.serialize()
            for sel, marker in SENTINELS.items():
                present = marker.encode() in blob
                if sel == keep:
                    assert present
                elif present:
                    leaks += 1
        assert leaks == 0
        detail["note"] = "16/16 matrix outcomes correct; 0 sentinel leaks"


def test_criterion_determinism():
    with criterion("determinism") as detail:
        # end-to-end scenario: byte-identical op logs and report rows
        a, b = run_e2e(seed=77, n_updates=50), run_e2e(seed=77, n_updates=50)
        assert a["world"].op_log_csv() == b["world"].op_log_csv()
        assert a["results"] == b["results"]
        # both settlement routes: byte-identical op logs
        assert run_htlc_route(5, 3).op_log_csv() == run_htlc_route(5, 3).op_log_csv()
        assert run_channel_route(5, 3).op_log_csv() == run_channel_route(5, 3).op_log_csv()
        # experiment reports: identical non-timing fingerprints
        r1, r2 = run(ScenarioConfig(seed=13)), run(ScenarioConfig(seed=13))
        assert r1.fingerprint() == r2.fingerprint()
        c1, c2 = cost_compare([1, 2], seed=13), cost_compare([1, 2], seed=13)
        assert c1.fingerprint() == c2.fingerprint()
        detail["note"] = "op logs byte-identical; report fingerprints equal"


def _main() -> int:
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion_") and callable(fn):
            try:
                fn()
            except BaseException:
                failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(_main())
