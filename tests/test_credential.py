import dataclasses
import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xrwa import canonical, credential, identity, xauth
from xrwa.credential import (
    CompositeCredential,
    Presentation,
    audit_credential,
    canonical_serialize,
    issue,
    measured_size_kb,
    prove,
    reinstate,
    request,
    revoke,
    selectors_of,
    suspend,
    verify,
)
from xrwa.errors import (
    BadSignature,
    IssuerDeactivated,
    MalformedArtifact,
    MissingField,
    NotFound,
    NotOwner,
    StatusListFull,
    UnknownSelector,
    XrwaError,
)
from xrwa.fixtures import FIXTURE_TYPES, fixture_items, fixture_world, issue_fixture_set
from xrwa.primitives import digest, keygen, length_prefixed, sign, verify_sig
from xrwa.scenarios import TRANSFER_DISCLOSURE

from mutations import locations, mutate


@pytest.fixture
def setup():
    world, issuer, holder = fixture_world()
    req = request(fixture_items("RE"), holder)
    cred = issue(world, req, issuer)
    return world, issuer, holder, cred


def resign(pres: Presentation, holder) -> Presentation:
    sig = sign(holder.sk, canonical.dumps_bytes(pres.body_json()))
    return dataclasses.replace(pres, holder_sig=sig)


# --------------------------------------------------------------- request ----

def test_request_missing_fields_rejected():
    holder = keygen(digest(b"h1"))
    with pytest.raises(MissingField):
        request({}, holder)
    with pytest.raises(MissingField):
        request({"asset": {"assetType": "Gold"}}, holder)


def test_request_signature_roundtrip():
    holder = keygen(digest(b"h2"))
    req = request(fixture_items("Gold"), holder)
    assert req.verify()
    assert verify_sig(holder.pk, canonical.dumps_bytes(canonical.loads(req.body)), req.sig)


def test_editing_nested_items_after_issue_changes_nothing_signed():
    # a one-level copy shared `tokenBinding` with the caller, so this edit
    # broke the request's signature and the asset section's hash
    world, issuer, holder = fixture_world()
    items = fixture_items("RE")
    req = request(items, holder)
    cred = issue(world, req, issuer)
    items["asset"]["tokenBinding"]["tokenId"] = "9999"
    items["identity"]["attributes"].append({"name": "extra", "value": "1", "unit": ""})
    assert req.verify()
    assert canonical.loads(req.body)["asset"]["tokenBinding"]["tokenId"] == "1234"
    assert audit_credential(world, cred).ok


def test_request_echoes_residential_property_fixture():
    holder = keygen(digest(b"h3"))
    items = fixture_items("RE")
    req = request(items, holder)
    sent = canonical.loads(req.body)
    assert sent["asset"]["assetType"] == "RealEstate"
    assert sent["asset"]["category"] == "Residential"
    tb = sent["asset"]["tokenBinding"]
    assert (tb["standard"], tb["chain"], tb["tokenId"]) == ("ERC-721", "eip155:1", "1234")
    attrs = {a["name"]: (a["value"], a["unit"]) for a in sent["identity"]["attributes"]}
    assert attrs["floorArea"] == ("120", "sqm")
    assert sent["custody"]["auditCycleDays"] == 30


# ----------------------------------------------------------------- issue ----

def test_issue_then_audit_accepts(setup):
    world, _, _, cred = setup
    assert audit_credential(world, cred).ok


def test_unknown_top_key_version_is_a_result_in_audit_and_verify(setup):
    world, _, holder, cred = setup
    top = dataclasses.replace(
        cred.top_proof, issuer_key_version=cred.top_proof.issuer_key_version + 7
    )
    forged = dataclasses.replace(cred, top_proof=top)
    assert audit_credential(world, forged).reason == "IssuerKeyVersionUnknown"
    pres = prove(forged, holder, ["asset.assetId"])
    assert verify(world, pres).reason == "IssuerKeyVersionUnknown"


def test_issue_from_deactivated_issuer_rejected():
    world, issuer, holder = fixture_world()
    doc = identity.did_resolve(world, world.controller_index[canonical.to_hex(issuer.pk)])
    identity.did_deactivate(
        world, doc.did, identity.deactivate_signature(issuer, doc.did, doc.version)
    )
    with pytest.raises(IssuerDeactivated):
        issue(world, request(fixture_items("Gold"), holder), issuer)


def test_issue_bad_request_signature_rejected():
    world, issuer, holder = fixture_world()
    req = request(fixture_items("Gold"), holder)
    forged = dataclasses.replace(req, sig=bytes([req.sig[0] ^ 1]) + req.sig[1:])
    with pytest.raises(BadSignature):
        issue(world, forged, issuer)


@pytest.mark.parametrize(
    "selector",
    [f"{name}.{key}" for name, keys in credential.FIELD_RULES.items() for key in keys],
)
def test_issue_refuses_request_missing_a_schema_field(selector):
    """Nothing fills in a missing field: each FIELD_RULES field left out
    of a request is named by issue's refusal, which allocates no status
    index."""
    world, issuer, holder = fixture_world()
    section, key = selector.split(".", 1)
    items = fixture_items("RE")
    del items[section][key]
    # signed directly: request() itself refuses a missing assetId or assetType
    body = canonical.dumps_bytes(items)
    req = credential.CredentialRequest(body=body, holder_pk=holder.pk, sig=sign(holder.sk, body))
    with pytest.raises(MissingField, match=f"^{selector} is required$"):
        issue(world, req, issuer)
    assert world.status_lists == {}


def signed_request(holder, body: bytes) -> credential.CredentialRequest:
    """A request over `body` as given, past request()'s own checks."""
    return credential.CredentialRequest(body=body, holder_pk=holder.pk, sig=sign(holder.sk, body))


@pytest.mark.parametrize(
    "body",
    [
        b"[1, 2]",
        b"\xff not json",
        canonical.dumps_bytes({**fixture_items("RE"), "custody": ["not", "an", "object"]}),
        canonical.dumps_bytes({**fixture_items("RE"), "asset": "did:xrwa:asset"}),
    ],
    ids=["body-array", "body-not-json", "section-array", "section-string"],
)
def test_issue_refuses_a_body_or_section_that_is_not_an_object(body):
    world, issuer, holder = fixture_world()
    req = signed_request(holder, body)
    assert req.verify()
    with pytest.raises(MalformedArtifact):
        issue(world, req, issuer)
    assert world.status_lists == {}


def test_issued_sections_share_nothing_with_the_request_or_each_other():
    # each issue decodes its own sections from the signed bytes, so editing
    # one credential in place reaches neither its request nor a sibling
    world, issuer, holder = fixture_world()
    req = request(fixture_items("RE"), holder)
    first, second = issue(world, req, issuer), issue(world, req, issuer)
    first.sections["asset"]["tokenBinding"]["tokenId"] = "9999"
    assert second.sections["asset"]["tokenBinding"]["tokenId"] == "1234"
    assert canonical.loads(req.body)["asset"]["tokenBinding"]["tokenId"] == "1234"
    assert audit_credential(world, second).ok
    assert audit_credential(world, first).reason == "HashMismatch"


def _edited(path: str, value):
    """RE fixture items with the value at dotted `path` replaced."""
    def edit(items):
        *parents, last = path.split(".")
        target = items
        for key in parents:
            target = target[int(key)] if isinstance(target, list) else target[key]
        target[last] = value
    return edit


def _edited_ring(items):
    ring = items["identity"]["spatialFootprint"]["geometry"]["coordinates"][0]
    ring[-1] = [0.0, 0.0]


SECTION_CHECKS = [
    ("asset-id-not-a-did", _edited("asset.assetId", "not-a-did"), MissingField,
     "asset.assetId must be a DID"),
    ("asset-id-not-text", _edited("asset.assetId", 7), MissingField, "asset.assetId must be a DID"),
    *[
        (f"token-binding-{key}-empty", _edited(f"asset.tokenBinding.{key}", ""), MissingField,
         f"asset.tokenBinding.{key} must be non-empty")
        for key in ("standard", "chain", "contract", "tokenId")
    ],
    ("token-binding-chain-unqualified", _edited("asset.tokenBinding.chain", "mainnet"), MissingField,
     "namespace:reference"),
    ("schema-version-zero", _edited("identity.schemaVersion", 0), MissingField, "schemaVersion"),
    ("schema-version-text", _edited("identity.schemaVersion", "1"), MissingField, "schemaVersion"),
    ("document-hash-not-hex", _edited("identity.documents.0.hash", "b2385b76"), MissingField,
     "0x-prefixed digest"),
    ("document-hash-short", _edited("identity.documents.0.hash", "0xb2385b76"), MissingField,
     "32-byte digest"),
    ("polygon-ring-open", _edited_ring, MissingField, "polygon rings must close"),
    ("effective-from-not-a-date", _edited("compliance.effectiveFrom", "2024/01/01"), MissingField,
     "effectiveFrom must be an ISO date"),
    ("effective-to-not-a-date", _edited("compliance.effectiveTo", 20301231), MissingField,
     "effectiveTo must be an ISO date"),
    ("effective-window-inverted", _edited("compliance.effectiveFrom", "2999-01-01"), MissingField,
     "must not be after effectiveTo"),
    ("audit-cycle-zero", _edited("custody.auditCycleDays", 0), MissingField, "auditCycleDays"),
    ("audit-cycle-text", _edited("custody.auditCycleDays", "30"), MissingField, "auditCycleDays"),
    ("insurance-hash-short", _edited("custody.insurancePolicyRef.hash", "0x00"), MissingField,
     "insurancePolicyRef.hash must be a 32-byte digest"),
    # a JSON true is no integer, and one string is no list of regions
    ("schema-version-bool", _edited("identity.schemaVersion", True), MissingField,
     "identity.schemaVersion must be an integer >= 1, got True"),
    ("audit-cycle-bool", _edited("custody.auditCycleDays", True), MissingField,
     "custody.auditCycleDays must be an integer >= 1, got True"),
    ("sellable-regions-text", _edited("compliance.sellableRegions", "not SG-listed: US only"),
     MissingField, "compliance.sellableRegions must be a list"),
    ("sellable-regions-number", _edited("compliance.sellableRegions", 5), MissingField,
     "compliance.sellableRegions must be a list"),
    ("sellable-region-number", _edited("compliance.sellableRegions", ["SG", 5]), MissingField,
     r"compliance.sellableRegions\[\] must be text, got 5"),
]


@pytest.mark.parametrize(
    "edit, refusal, message",
    [row[1:] for row in SECTION_CHECKS],
    ids=[row[0] for row in SECTION_CHECKS],
)
def test_issue_refuses_each_invalid_section_value_before_allocating(edit, refusal, message):
    world, issuer, holder = fixture_world()
    items = fixture_items("RE")
    edit(items)
    with pytest.raises(refusal, match=message):
        issue(world, signed_request(holder, canonical.dumps_bytes(items)), issuer)
    assert world.status_lists == {}


def _requested(edit):
    """A maker of `request()` over RE fixture items edited by `edit`."""
    def make(holder):
        items = fixture_items("RE")
        edit(items)
        return request(items, holder)
    return make


def _signed_with_an_escaped_surrogate(holder):
    body = canonical.dumps_bytes(fixture_items("RE")).replace(b'"1234"', b'"\\udc00"')
    return signed_request(holder, body)


MISTYPED_OR_UNENCODABLE = [
    ("token-binding-text", _requested(_edited("asset.tokenBinding", "x")), MissingField,
     "asset.tokenBinding must be an object"),
    ("token-binding-chain-number", _requested(_edited("asset.tokenBinding.chain", 1)), MissingField,
     "namespace:reference"),
    ("spatial-footprint-text", _requested(_edited("identity.spatialFootprint", "x")), MissingField,
     "identity.spatialFootprint must be an object"),
    ("geometry-number", _requested(_edited("identity.spatialFootprint.geometry", 1)), MissingField,
     "geometry must be an object"),
    ("document-text", _requested(_edited("identity.documents", ["x"])), MissingField,
     r"identity.documents\[\] must be an object"),
    ("documents-number", _requested(_edited("identity.documents", 5)), MissingField,
     "identity.documents must be a list"),
    ("insurance-ref-text", _requested(_edited("custody.insurancePolicyRef", "x")), MissingField,
     "custody.insurancePolicyRef must be an object"),
    ("asset-section-text", _requested(_edited("asset", "x")), MalformedArtifact,
     "asset is not an object"),
    ("surrogate-in-a-value", _requested(_edited("asset.tokenBinding.tokenId", "\ud800")),
     MalformedArtifact, "not valid Unicode"),
    ("surrogate-in-a-key", _requested(_edited("identity.custom", {"\udfff": "x"})),
     MalformedArtifact, "not valid Unicode"),
    ("escaped-surrogate-in-a-signed-body", _signed_with_an_escaped_surrogate, MalformedArtifact,
     "lone surrogate"),
]


@pytest.mark.parametrize(
    "make, refusal, message",
    [row[1:] for row in MISTYPED_OR_UNENCODABLE],
    ids=[row[0] for row in MISTYPED_OR_UNENCODABLE],
)
def test_mistyped_or_unencodable_request_refused_before_allocating(make, refusal, message):
    """A value of the wrong type is refused with MissingField, and text
    UTF-8 cannot encode with MalformedArtifact, not with the error the
    first use of the value happened to raise."""
    world, issuer, holder = fixture_world()
    before = {uri: sl.to_json() for uri, sl in world.status_lists.items()}
    with pytest.raises(refusal, match=message):
        issue(world, make(holder), issuer)
    assert {uri: sl.to_json() for uri, sl in world.status_lists.items()} == before


def transfer(world, issuer, holder, cred):
    """The cross-chain path of `cred`: prove TRANSFER_DISCLOSURE, anchor on
    C1, relay, and authenticate on C2."""
    pres = prove(cred, holder, TRANSFER_DISCLOSURE)
    epoch = len(world.chains["C1"].blocks)
    commitment = xauth.make_commitment(
        world, "C1", pres, cred.asset["tokenBinding"], epoch, world.rng.randbytes(16)
    )
    tx_id, header = xauth.anchor(world, "C1", commitment, issuer)
    world.relay_chain("C2", "C1")
    proof = xauth.spv_prove(world, tx_id, ("C1", header.height))
    tx = world.chains["C1"].blocks[header.height].txs[proof.path.leaf_index]
    return xauth.authenticate(world, "C2", tx, proof, pres)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_request_refused_before_allocating_or_issued_sound(data):
    """One key deleted, one value retyped, made a bool or given a lone
    surrogate anywhere in a fixture's items: the request is refused, moving
    no status list, or its credential audits and crosses chains or is
    refused there, never with an error of Python's own."""
    items = fixture_items(data.draw(st.sampled_from(FIXTURE_TYPES), label="fixture"))
    where = data.draw(st.sampled_from(list(locations(items))), label="where")
    how = data.draw(st.sampled_from(["delete", "retype", "bool", "surrogate"]), label="how")
    assume(mutate(items, where, how, data.draw(st.integers(0, 200), label="offset")))
    world, issuer, holder = fixture_world()
    before = {uri: sl.to_json() for uri, sl in world.status_lists.items()}
    try:
        cred = issue(world, request(items, holder), issuer)
    except (MissingField, MalformedArtifact):
        assert {uri: sl.to_json() for uri, sl in world.status_lists.items()} == before
        return
    assert audit_credential(world, cred).ok
    try:
        transfer(world, issuer, holder, cred)
    except XrwaError:
        pass


def _fill_status_lists(world, free, purposes=("Revocation", "Suspension")):
    """Store each of the world's lists of `purposes` with `free` indices left."""
    for uri, status_list in world.status_lists.items():
        if status_list.purpose in purposes:
            world.status_lists[uri] = dataclasses.replace(
                status_list, next_index=credential.STATUS_LIST_CAPACITY - free
            )


@pytest.mark.parametrize("free, purposes", [
    pytest.param(0, ("Revocation", "Suspension"), id="0"),
    pytest.param(3, ("Revocation", "Suspension"), id="3"),
    # the revocation list has room, so only storing both lists after both
    # allocations leaves it as it was
    pytest.param(3, ("Suspension",), id="suspension-only"),
])
def test_status_lists_without_room_for_every_section_refuse_moving_nothing(free, purposes):
    world, issuer, holder = fixture_world()
    issue(world, request(fixture_items("Gold"), holder), issuer)
    _fill_status_lists(world, free, purposes)
    before = {uri: sl.to_json() for uri, sl in world.status_lists.items()}
    with pytest.raises(StatusListFull):
        issue(world, request(fixture_items("Gold"), holder), issuer)
    assert {uri: sl.to_json() for uri, sl in world.status_lists.items()} == before


def test_issue_takes_the_last_status_indices():
    world, issuer, holder = fixture_world()
    issue(world, request(fixture_items("Gold"), holder), issuer)
    _fill_status_lists(world, 4)
    cred = issue(world, request(fixture_items("Gold"), holder), issuer)
    assert [cred.status_ref(s)["statusListIndex"] for s in credential.SECTIONS] == [4092, 4093, 4094, 4095]
    assert audit_credential(world, cred).ok


def test_issue_allocates_distinct_status_indices(setup):
    _, _, _, cred = setup
    indices = [cred.status_ref(s)["statusListIndex"] for s in credential.SECTIONS]
    assert len(set(indices)) == 4


def test_fixture_sizes_track_reported_band():
    sizes = {name: measured_size_kb(cred) for name, cred in issue_fixture_set().items()}
    assert max(sizes, key=sizes.get) == "RE"
    assert sizes["RE"] > sizes["Art"] > sizes["Fund"]
    average = sum(sizes.values()) / len(sizes)
    assert 7.27 * 0.5 <= average <= 7.27 * 1.5
    assert sizes["RE"] > sizes["Gold"]


# --------------------------------------------------------------- serialize ----

def test_canonical_serialize_deterministic(setup):
    _, _, _, cred = setup
    assert canonical_serialize(cred) == canonical_serialize(cred)


def test_serialization_fixpoint(setup):
    _, _, _, cred = setup
    blob = canonical_serialize(cred)
    parsed = CompositeCredential.from_json(canonical.loads(blob))
    assert parsed == cred
    assert canonical_serialize(parsed) == blob


# ----------------------------------------------------------------- prove ----

def test_full_disclosure_equals_full_credential(setup):
    world, _, holder, cred = setup
    pres = prove(cred, holder, selectors_of(cred))
    assert set(pres.disclosed) == set(selectors_of(cred))
    for sel, value in pres.disclosed.items():
        section, key = sel.split(".", 1)
        assert cred.sections[section][key] == value
    assert verify(world, pres).ok


def test_partial_disclosure_hides_other_sections(setup):
    world, _, holder, cred = setup
    pres = prove(cred, holder, ["compliance.sellableRegions"])
    blob = pres.serialize()
    assert b"Vault-example-01" not in blob  # custody location stays hidden
    assert b"floorArea" not in blob  # identity attributes stay hidden
    assert canonical.dumps_bytes(cred.sections["compliance"]["sellableRegions"]) in blob
    assert verify(world, pres).ok


def test_empty_disclosure_proves_existence_only(setup):
    world, _, holder, cred = setup
    pres = prove(cred, holder, [])
    assert set(pres.disclosed) == {"asset.sStatus"}
    assert pres.top_proof == cred.top_proof
    assert verify(world, pres).ok


def test_unknown_selector_rejected(setup):
    _, _, holder, cred = setup
    with pytest.raises(UnknownSelector):
        prove(cred, holder, ["custody.safeWord"])


# ---------------------------------------------------------------- verify ----

def test_verify_post_issue_true(setup):
    world, _, holder, cred = setup
    pres = prove(cred, holder, ["asset.assetType"])
    result = verify(world, pres)
    assert result.ok


def test_presentation_json_states_issuer_once(setup):
    world, _, holder, cred = setup
    pres = prove(cred, holder, ["asset.assetType"])
    doc = pres.to_json()
    assert "issuer" not in doc and doc["proof"]["issuer"] == cred.issuer
    again = Presentation.from_json(canonical.loads(canonical.dumps(doc)))
    assert again == pres and again.issuer == cred.issuer
    assert verify(world, again).ok


def test_verify_mutated_disclosed_value_hash_mismatch(setup):
    world, _, holder, cred = setup
    pres = prove(cred, holder, ["identity.attributes"])
    attrs = [dict(a) for a in pres.disclosed["identity.attributes"]]
    for a in attrs:
        if a["name"] == "floorArea":
            a["value"] = "121"
    tampered = resign(
        dataclasses.replace(pres, disclosed={**pres.disclosed, "identity.attributes": attrs}),
        holder,
    )
    result = verify(world, tampered)
    assert not result.ok
    assert result.reason == "HashMismatch"


def test_verify_wrong_holder_key_rejected(setup):
    world, _, holder, cred = setup
    mallory = keygen(digest(b"mallory"))
    pres = prove(cred, holder, [])
    stolen = resign(dataclasses.replace(pres, holder_pk=mallory.pk), mallory)
    result = verify(world, stolen)
    assert not result.ok


def test_verify_deactivated_issuer(setup):
    world, issuer, holder, cred = setup
    pres = prove(cred, holder, [])
    doc = identity.did_resolve(world, cred.issuer)
    identity.did_deactivate(
        world, cred.issuer, identity.deactivate_signature(issuer, cred.issuer, doc.version)
    )
    result = verify(world, pres)
    assert not result.ok
    assert result.reason == "IssuerDeactivated"


def test_verify_outside_effective_window(setup, monkeypatch):
    world, _, holder, cred = setup
    pres = prove(cred, holder, ["compliance.effectiveFrom", "compliance.effectiveTo"])
    assert verify(world, pres).ok
    monkeypatch.setattr(credential, "CURRENT_DATE", "2026-03-01")
    late = verify(world, pres)
    assert not late.ok and late.reason in ("OutsideEffectiveWindow", "Expired")


def test_verify_expired_credential_rejected(setup, monkeypatch):
    # no compliance window disclosed, so the top proof's expiry alone refuses
    world, _, holder, cred = setup
    pres = prove(cred, holder, ["asset.assetType"])
    monkeypatch.setattr(credential, "CURRENT_DATE", "2026-06-14")
    assert verify(world, pres).ok
    monkeypatch.setattr(credential, "CURRENT_DATE", "2026-06-16")
    assert cred.top_proof.expires < "2026-06-16T00:00:00Z"
    assert verify(world, pres).reason == "Expired"


# ------------------------------------------------------------- revocation ----

DISCLOSURE_BY_SECTION = {
    "asset": "asset.assetType",
    "identity": "identity.attributes",
    "compliance": "compliance.sellableRegions",
    "custody": "custody.location",
}


def test_revocation_matrix_4x4():
    # section independence: revoking section R only affects presentations
    # disclosing R, except the asset section, which is always consulted
    for revoked, disclosed in itertools.product(credential.SECTIONS, repeat=2):
        world, issuer, holder = fixture_world()
        cred = issue(world, request(fixture_items("RE"), holder), issuer)
        revoke(world, cred, revoked, issuer)
        pres = prove(cred, holder, [DISCLOSURE_BY_SECTION[disclosed]])
        result = verify(world, pres)
        expect_fail = revoked == disclosed or revoked == "asset"
        assert result.ok != expect_fail, (revoked, disclosed, str(result))
        if expect_fail:
            assert result.reason == "SectionRevoked"
            assert result.detail == revoked


def test_revoke_4x2_disclosed_vs_other(setup):
    world, issuer, holder, cred = setup
    revoke(world, cred, "compliance", issuer)
    only_identity = prove(cred, holder, ["identity.identifiers"])
    assert verify(world, only_identity).ok
    with_compliance = prove(cred, holder, ["compliance.sellableRegions"])
    result = verify(world, with_compliance)
    assert not result.ok
    assert str(result) == "SectionRevoked(compliance)"


def test_revoke_idempotent_version_still_increments(setup):
    world, issuer, _, cred = setup
    uri = cred.status_ref("custody")["statusListCredential"]
    index = cred.status_ref("custody")["statusListIndex"]
    unrevoked = world.status_lists[uri]
    revoked = revoke(world, cred, "custody", issuer)
    assert world.status_lists[uri] is revoked
    again = revoke(world, cred, "custody", issuer)
    assert world.status_lists[uri] is again
    assert again.version > revoked.version > unrevoked.version
    assert (unrevoked.bit(index), revoked.bit(index), again.bit(index)) == (0, 1, 1)


def test_suspension_set_then_cleared(setup):
    world, issuer, holder, cred = setup
    pres = prove(cred, holder, [])
    index = cred.status_ref("asset")["statusListIndex"]
    susp = suspend(world, cred, "asset", issuer)
    assert susp.uri == credential.status_list_uri(cred.issuer, "Suspension")
    assert verify(world, pres).reason == "SectionSuspended"
    cleared = reinstate(world, cred, "asset", issuer)
    assert world.status_lists[susp.uri] is cleared
    assert (susp.bit(index), cleared.bit(index)) == (1, 0)
    assert verify(world, pres).ok


def test_revocation_bits_one_directional(setup):
    world, issuer, _, cred = setup
    rev_list = revoke(world, cred, "asset", issuer)
    with pytest.raises(ValueError):
        rev_list.with_bit(cred.status_ref("asset")["statusListIndex"], False)


def test_revoke_requires_owner(setup):
    world, _, holder, cred = setup
    outsider = keygen(digest(b"outsider"))
    identity.did_create(world, outsider)
    with pytest.raises(NotOwner):
        revoke(world, cred, "asset", outsider)
    with pytest.raises(BadSignature):
        # a key with no registered did at all
        revoke(world, cred, "asset", keygen(digest(b"nobody")))


def test_revoke_refuses_a_credential_not_in_the_list(setup):
    # unguarded, revoking another issuer's credential set its index in this
    # issuer's list: the unrelated credential at that index read as revoked
    world, issuer, holder, cred = setup
    other = keygen(digest(b"other-issuer"))
    identity.did_create(world, other)
    theirs = issue(world, request(fixture_items("Gold"), holder), other)
    ref = cred.status_ref("asset")
    assert theirs.status_ref("asset")["statusListIndex"] == ref["statusListIndex"]
    unallocated_ref = {**ref, "statusListIndex": world.status_lists[ref["statusListCredential"]].next_index}
    unallocated = dataclasses.replace(
        cred, sections={**cred.sections, "asset": {**cred.sections["asset"], "sStatus": unallocated_ref}}
    )
    before = (world.world_digest(), len(world.op_log))
    for target in (theirs, unallocated):
        for act in (revoke, suspend, reinstate):
            with pytest.raises(NotOwner):
                act(world, target, "asset", issuer)
    assert (world.world_digest(), len(world.op_log)) == before
    assert verify(world, prove(cred, holder, [])).ok
    assert verify(world, prove(theirs, holder, [])).ok


def test_issuer_deactivated_after_issue_fails_verification(setup):
    # lifecycle across modules: issue, deactivate, verify
    world, issuer, holder, cred = setup
    pres = prove(cred, holder, ["asset.assetId"])
    assert verify(world, pres).ok
    doc = identity.did_resolve(world, cred.issuer)
    identity.did_deactivate(
        world, cred.issuer, identity.deactivate_signature(issuer, cred.issuer, doc.version)
    )
    assert verify(world, pres).reason == "IssuerDeactivated"


# ------------------------------------------------------- proof binding fuzz ----

def mutate_value(value):
    if isinstance(value, str):
        return value + "~"
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 1.0
    if isinstance(value, list):
        return value + ["extra"]
    if isinstance(value, dict):
        return {**value, "extra": "field"}
    raise AssertionError(f"unhandled {type(value)}")


def test_field_mutation_flips_section_hash_and_fails_verification(setup):
    world, _, holder, cred = setup
    baseline = cred.section_hashes()
    for sel in selectors_of(cred):
        section, key = sel.split(".", 1)
        sections = {name: dict(body) for name, body in cred.sections.items()}
        sections[section][key] = mutate_value(sections[section][key])
        mutated = dataclasses.replace(cred, sections=sections)
        assert mutated.section_hashes()[section] != baseline[section], sel
        others = [s for s in credential.SECTIONS if s != section]
        assert all(mutated.section_hashes()[o] == baseline[o] for o in others)
        pres = prove(mutated, holder, [sel])
        assert not verify(world, pres).ok, sel


# ------------------------------------------------- disclosure minimality ----

SENTINELS = {
    "identity.identifiers": "SENTINEL-IDENT-93001",
    "compliance.licenseId": "SENTINEL-LICENSE-41188",
    "custody.location": "SENTINEL-VAULT-77215",
    "asset.category": "SENTINEL-CATEGORY-5612",
}


@pytest.fixture(scope="module")
def sentinel_setup():
    world, issuer, holder = fixture_world()
    items = fixture_items("RE")
    items["identity"]["identifiers"][0]["identifierValue"] = SENTINELS["identity.identifiers"]
    items["compliance"]["licenseId"] = SENTINELS["compliance.licenseId"]
    items["custody"]["location"] = SENTINELS["custody.location"]
    items["asset"]["category"] = SENTINELS["asset.category"]
    cred = issue(world, request(items, holder), issuer)
    return world, holder, cred


@settings(max_examples=40)
@given(subset=st.sets(st.sampled_from(sorted(SENTINELS)), max_size=3))
def test_minimality_no_undisclosed_sentinel_bytes(sentinel_setup, subset):
    world, holder, cred = sentinel_setup
    pres = prove(cred, holder, sorted(subset))
    blob = pres.serialize()
    for sel, marker in SENTINELS.items():
        if sel in subset:
            assert marker.encode() in blob
        else:
            assert marker.encode() not in blob
    assert verify(world, pres).ok


def test_verify_rejects_out_of_range_status_index(setup):
    world, _, holder, cred = setup
    pres = prove(cred, holder, [])
    ref = dict(pres.disclosed["asset.sStatus"])
    ref["statusListIndex"] = 4096
    # re-committing a mutated sStatus also breaks the hash, so check the
    # status gate directly
    from xrwa.credential import status_clear

    failure = status_clear(world, ref, "asset")
    assert failure is not None and failure.reason == "StatusIndexOutOfRange"


@pytest.mark.parametrize(
    "entry",
    [{"statusListCredential": ["urn"]}, {"statusListIndex": "0"}, {"statusListIndex": True},
     {"statusListIndex": -1}, {"statusPurpose": None}],
    ids=["list-not-text", "index-text", "index-bool", "index-negative", "purpose-null"],
)
def test_status_entry_that_breaks_the_status_row_is_missing_field(setup, entry):
    # a list as the list's uri used to raise a bare TypeError, and True
    # passed for index 1 of the list
    world, issuer, holder, cred = setup
    ref = {**cred.status_ref("asset"), **entry}
    failure = credential.status_clear(world, ref, "asset")
    assert failure is not None and failure.reason == "MissingField" and "asset.sStatus." in failure.detail
    edited = dataclasses.replace(
        cred, sections={**cred.sections, "asset": {**cred.sections["asset"], "sStatus": ref}}
    )
    before = (world.world_digest(), len(world.op_log))
    for act in (revoke, suspend, reinstate):
        with pytest.raises(MissingField, match="asset.sStatus"):
            act(world, edited, "asset", issuer)
    assert (world.world_digest(), len(world.op_log)) == before


@pytest.mark.parametrize("selector, value", [
    ("compliance.effectiveFrom", 5),
    ("compliance.effectiveTo", ["2030-12-31"]),
    ("asset.tokenBinding", {"chain": "eip155:1"}),
])
def test_verify_refuses_a_disclosed_value_that_breaks_its_row(monkeypatch, selector, value):
    # an issuer-signed credential that never passed issue's checks, such as
    # one read back with from_json; `now < 5` used to raise a bare TypeError
    monkeypatch.setattr(credential, "_validate_sections", lambda sections: None)
    world, issuer, holder = fixture_world()
    items = fixture_items("RE")
    section, key = selector.split(".")
    items[section][key] = value
    cred = issue(world, request(items, holder), issuer)
    result = verify(world, prove(cred, holder, [selector]))
    assert result.reason == "MissingField" and result.detail.startswith(selector)


# ------------------------------------------------ issuer-authority checks ----

def flip_first_byte(raw: bytes) -> bytes:
    return bytes([raw[0] ^ 1]) + raw[1:]


def with_proof(cred, name, **changes):
    """The credential with one of its five proofs ("top" or a section) changed."""
    if name == "top":
        return dataclasses.replace(cred, top_proof=dataclasses.replace(cred.top_proof, **changes))
    proofs = dict(cred.section_proofs)
    proofs[name] = dataclasses.replace(proofs[name], **changes)
    return dataclasses.replace(cred, section_proofs=proofs)


@pytest.mark.parametrize("name", [*credential.SECTIONS, "top"])
def test_audit_flipped_proof_signature_names_the_proof(setup, name):
    world, _, _, cred = setup
    proof = cred.top_proof if name == "top" else cred.section_proofs[name]
    forged = with_proof(cred, name, proof_value=flip_first_byte(proof.proof_value))
    result = audit_credential(world, forged)
    assert (result.reason, result.detail) == ("BadIssuerSignature", name)


def test_issuer_signature_covers_the_stated_proof_purpose(setup):
    world, _, holder, cred = setup
    pres = prove(cred, holder, ["asset.assetId"])
    top = dataclasses.replace(pres.top_proof, proof_purpose="authentication")
    result = verify(world, resign(dataclasses.replace(pres, top_proof=top), holder))
    assert (result.reason, result.detail) == ("BadIssuerSignature", "top")
    for name in [*credential.SECTIONS, "top"]:
        result = audit_credential(world, with_proof(cred, name, proof_purpose="authentication"))
        assert (result.reason, result.detail) == ("BadIssuerSignature", name)


@pytest.mark.parametrize("name", credential.SECTIONS)
def test_audit_section_proof_naming_foreign_issuer_is_mismatch(setup, name):
    world, _, _, cred = setup
    foreign, _ = identity.did_create(world, keygen(digest(b"foreign-issuer")))
    result = audit_credential(world, with_proof(cred, name, issuer=foreign.text))
    assert (result.reason, result.detail) == ("IssuerMismatch", name)


@pytest.mark.parametrize("name", credential.SECTIONS)
def test_audit_unknown_section_key_version_reads_key_version_unknown(setup, name):
    # the same reason the top proof gives for a key version the issuer never had
    world, _, _, cred = setup
    proof = cred.section_proofs[name]
    forged = with_proof(cred, name, issuer_key_version=proof.issuer_key_version + 7)
    result = audit_credential(world, forged)
    assert (result.reason, result.detail) == ("IssuerKeyVersionUnknown", cred.issuer)


def test_audit_section_proof_naming_unregistered_issuer_is_mismatch(setup):
    world, _, _, cred = setup
    stranger = "did:xrwa:" + digest(b"never-registered").hex()
    result = audit_credential(world, with_proof(cred, "custody", issuer=stranger))
    assert (result.reason, result.detail) == ("IssuerMismatch", "custody")


def test_audit_and_verify_read_issuer_status(setup):
    world, issuer, holder, cred = setup
    stranger = "did:xrwa:" + digest(b"never-registered").hex()
    unknown = verify(world, prove(with_proof(cred, "top", issuer=stranger), holder, []))
    assert (unknown.reason, unknown.detail) == ("IssuerUnknown", stranger)
    pres = prove(cred, holder, ["asset.assetId"])
    doc = identity.did_resolve(world, cred.issuer)
    identity.did_deactivate(
        world, cred.issuer, identity.deactivate_signature(issuer, cred.issuer, doc.version)
    )
    for result in (verify(world, pres), audit_credential(world, cred)):
        assert (result.reason, result.detail) == ("IssuerDeactivated", cred.issuer)


def test_issue_from_unregistered_key_not_found(setup):
    world, _, holder, _ = setup
    with pytest.raises(NotFound):
        issue(world, request(fixture_items("Gold"), holder), keygen(digest(b"nobody")))


# ------------------------------------------------------ kept commitments ----

def _counting(calls, name, real):
    """`real`, appending `name` to `calls` on each call."""
    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)
    return wrapper


def test_stage_encodings_pinned_and_prove_recomputes_no_commitment(setup, monkeypatch):
    # one canonical encoding per field is made once, by issue; prove encodes
    # only the body its holder signs
    world, issuer, holder, _ = setup
    items = fixture_items("RE")
    calls = []
    monkeypatch.setattr(canonical, "dumps_bytes", _counting(calls, "dumps_bytes", canonical.dumps_bytes))
    for name in ("field_digest", "section_hash_from_digests", "section_commitments"):
        monkeypatch.setattr(credential, name, _counting(calls, name, getattr(credential, name)))
    stages = {}

    def stage(name, fn, *args):
        calls.clear()
        out = fn(*args)
        stages[name] = calls.count("dumps_bytes")
        return out

    req = stage("request", request, items, holder)
    cred = stage("issue", issue, world, req, issuer)
    pres = stage("prove", prove, cred, holder, TRANSFER_DISCLOSURE)
    assert calls == ["dumps_bytes"]
    assert stage("verify", verify, world, pres).ok
    assert stages == {"request": 1, "issue": 34, "prove": 1, "verify": 10}


@pytest.mark.parametrize("disclosure", [TRANSFER_DISCLOSURE, []], ids=["transfer", "none"])
@pytest.mark.parametrize("asset_type", FIXTURE_TYPES)
def test_prove_from_kept_commitments_equals_prove_from_json(asset_type, disclosure):
    world, issuer, holder = fixture_world()
    cred = issue(world, request(fixture_items(asset_type), holder), issuer)
    rebuilt = CompositeCredential.from_json(canonical.loads(canonical_serialize(cred)))
    assert "_commitments" not in vars(rebuilt)
    assert rebuilt == cred
    kept = prove(cred, holder, disclosure).serialize()
    assert prove(rebuilt, holder, disclosure).serialize() == kept
    assert verify(world, Presentation.from_json(canonical.loads(kept))).ok


def test_commitments_follow_the_docstring_formula(setup):
    _, _, _, cred = setup
    kept = cred.commitments()
    nonce = cred.disclosure_nonce
    assert sorted(kept.salts) == selectors_of(cred)
    for name in credential.SECTIONS:
        fds = kept.digests[name]
        for sel, fd in fds.items():
            salt = digest(b"xrwa/salt/v1" + nonce + sel.encode())[:16]
            value = cred.sections[name][sel.split(".", 1)[1]]
            encoded = canonical.dumps_bytes(value)
            expected = digest(
                b"xrwa/field/v1"
                + length_prefixed(salt)
                + length_prefixed(sel.encode())
                + length_prefixed(encoded)
            )
            assert kept.salts[sel] == salt
            assert fd == expected == credential.field_digest(sel, value, salt)
        acc = b"xrwa/section/v1" + b"".join(
            length_prefixed(sel.encode()) + fds[sel] for sel in sorted(fds)
        )
        assert kept.hashes[name] == digest(acc) == credential.section_hash_from_digests(fds)
    assert kept.hashes == cred.section_hashes()


def test_mutating_a_presentation_leaves_the_next_prove(setup):
    world, _, holder, cred = setup
    first = prove(cred, holder, TRANSFER_DISCLOSURE)
    expected = first.serialize()
    first.disclosed["asset.assetId"] = "did:xrwa:ffff"
    first.disclosed["asset.tokenBinding"]["tokenId"] = "9999"
    first.disclosed["identity.attributes"][0]["value"] = "1"
    first.disclosed["compliance.sellableRegions"].append("XX")
    first.field_salts["asset.assetId"] = b"\x00" * 16
    for digests in first.section_digests.values():
        for sel in digests:
            digests[sel] = b"\x00" * 32
    first.section_digests["asset"]["asset.extra"] = b"\x01" * 32
    first.section_hashes["custody"] = b"\x00" * 32
    again = prove(cred, holder, TRANSFER_DISCLOSURE)
    assert again.serialize() == expected
    assert verify(world, again).ok
    assert audit_credential(world, cred).ok


@pytest.mark.parametrize("sel", TRANSFER_DISCLOSURE)
def test_in_place_edit_of_a_disclosed_field_fails_verify(setup, sel):
    world, _, holder, cred = setup
    section, key = sel.split(".", 1)
    cred.sections[section][key] = mutate_value(cred.sections[section][key])
    result = verify(world, prove(cred, holder, TRANSFER_DISCLOSURE))
    assert (result.reason, result.detail) == ("HashMismatch", sel)


def test_in_place_edit_of_any_field_fails_audit():
    world, issuer, holder = fixture_world()
    for sel in selectors_of(issue(world, request(fixture_items("RE"), holder), issuer)):
        cred = issue(world, request(fixture_items("RE"), holder), issuer)
        section, key = sel.split(".", 1)
        cred.sections[section][key] = mutate_value(cred.sections[section][key])
        result = audit_credential(world, cred)
        assert (result.reason, result.detail) == ("HashMismatch", section), sel


# ---------------------------------------------------- malformed artifacts ----

_MISSING = object()


def _mangled(doc, path, value):
    *parents, key = path
    for p in parents:
        doc = doc[p]
    if value is _MISSING:
        del doc[key]
    else:
        doc[key] = value


MALFORMED_PROOFS = {
    "no-issuer": (("issuer",), _MISSING),
    "key-version-as-text": (("issuerKeyVersion",), "1"),
    "key-version-as-bool": (("issuerKeyVersion",), True),
    "section-hash-not-hex": (("sectionHash",), "0xzz"),
    "proof-value-without-0x": (("proofValue",), "00" * 64),
}
MALFORMED_CREDENTIALS = {
    "no-holder-pk": (("holderPk",), _MISSING),
    "no-section-proof": (("custody", "sProof"), _MISSING),
    "section-as-list": (("asset",), []),
    "id-as-int": (("id",), 7),
    "nonce-not-hex": (("disclosureNonce",), "0xq0"),
    "top-proof-hash-not-hex": (("proof", "sectionHash"), "0x0"),
}
MALFORMED_PRESENTATIONS = {
    "no-holder-signature": (("holderSignature",), _MISSING),
    "disclosed-as-list": (("disclosed",), []),
    "section-digests-as-text": (("sectionDigests", "asset"), "0x00"),
    "salt-not-hex": (("fieldSalts", "asset.assetId"), "salt"),
    "section-hash-as-int": (("sectionHashes", "custody"), 7),
    "proof-no-expiry": (("proof", "expires"), _MISSING),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PROOFS))
def test_malformed_section_proof_refused_by_from_json(setup, case):
    data = setup[3].section_proofs["asset"].to_json()
    _mangled(data, *MALFORMED_PROOFS[case])
    with pytest.raises(MalformedArtifact):
        credential.SectionProof.from_json(data)


@pytest.mark.parametrize("case", sorted(MALFORMED_CREDENTIALS))
def test_malformed_credential_refused_by_from_json(setup, case):
    doc = canonical.loads(canonical_serialize(setup[3]))
    _mangled(doc, *MALFORMED_CREDENTIALS[case])
    with pytest.raises(MalformedArtifact):
        CompositeCredential.from_json(doc)


@pytest.mark.parametrize("case", sorted(MALFORMED_PRESENTATIONS))
def test_malformed_presentation_refused_by_from_json(setup, case):
    _, _, holder, cred = setup
    data = canonical.loads(prove(cred, holder, TRANSFER_DISCLOSURE).serialize())
    _mangled(data, *MALFORMED_PRESENTATIONS[case])
    with pytest.raises(MalformedArtifact):
        Presentation.from_json(data)
