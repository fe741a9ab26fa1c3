from pathlib import Path

from xrwa import credential
from xrwa.credential import audit_credential, canonical_serialize, measured_size_kb
from xrwa.fixtures import FIXTURE_TYPES, fixture_items, fixture_world, issue_fixture_set

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def test_regenerated_fixtures_match_golden_files_byte_for_byte():
    creds = issue_fixture_set()
    for name, cred in creds.items():
        golden = (GOLDEN_DIR / f"{name.lower()}.json").read_bytes()
        assert canonical_serialize(cred) + b"\n" == golden, name


def _containers(value):
    """Every dict and list inside `value`, itself included."""
    if isinstance(value, (dict, list)):
        yield value
        for inner in value.values() if isinstance(value, dict) else value:
            yield from _containers(inner)


def test_fixture_items_are_fresh_on_every_call():
    # callers mutate what they get; no dict or list may be shared between calls
    for name in FIXTURE_TYPES:
        first, second = fixture_items(name), fixture_items(name)
        assert first == second
        assert not {id(c) for c in _containers(first)} & {id(c) for c in _containers(second)}, name
        for c in list(_containers(first)):
            c.clear()
        assert fixture_items(name) == second, name
    for name, cred in issue_fixture_set().items():
        golden = (GOLDEN_DIR / f"{name.lower()}.json").read_bytes()
        assert canonical_serialize(cred) + b"\n" == golden, name


def test_fixture_set_is_deterministic_across_runs():
    first = {n: canonical_serialize(c) for n, c in issue_fixture_set().items()}
    second = {n: canonical_serialize(c) for n, c in issue_fixture_set().items()}
    assert first == second


def test_every_fixture_audits_clean():
    # issue in one shared world so issuer registry state is available
    world, issuer, holder = fixture_world()
    for name in FIXTURE_TYPES:
        cred = credential.issue(world, credential.request(fixture_items(name), holder), issuer)
        assert audit_credential(world, cred).ok, name


def test_golden_sizes_ordering():
    sizes = {
        name: len((GOLDEN_DIR / f"{name.lower()}.json").read_bytes()) - 1
        for name in FIXTURE_TYPES
    }
    kb = {name: round(raw / 1024, 2) for name, raw in sizes.items()}
    assert max(kb, key=kb.get) == "RE"
    assert kb["RE"] > kb["Art"] > kb["Fund"]


def test_fixture_roundtrip_parse():
    import json

    for name in FIXTURE_TYPES:
        doc = json.loads((GOLDEN_DIR / f"{name.lower()}.json").read_text())
        cred = credential.CompositeCredential.from_json(doc)
        assert measured_size_kb(cred) == round((len(canonical_serialize(cred))) / 1024, 2)
        assert cred.asset["assetType"]
