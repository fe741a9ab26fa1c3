import dataclasses
import hashlib
import random
import struct

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xrwa import canonical, credential, identity, xauth
from xrwa.errors import (
    AnchorNotFromIssuer,
    BadSignature,
    CommitmentMismatch,
    InvalidPresentation,
    InvariantViolation,
    IssuerDeactivated,
    JurisdictionBlocked,
    MalformedArtifact,
    MissingField,
    NotFound,
    Revoked,
    SpvFailed,
    TxNotInBlock,
    XrwaError,
)
from xrwa.fixtures import FIXTURE_TYPES, fixture_items, fixture_world
from xrwa.ledger import Transaction, World, WorldConfig
from xrwa.primitives import digest, keygen, sign
from xrwa.scenarios import TRANSFER_DISCLOSURE, check_world

from mutations import locations, mutate

XFER_DISCLOSURE = [
    "asset.assetId",
    "asset.assetType",
    "asset.tokenBinding",
    "compliance.sellableRegions",
    "identity.attributes",
]


@pytest.fixture
def flow():
    """World with an issued credential and a cross-chain-ready presentation."""
    world, issuer, holder = fixture_world()
    cred = credential.issue(world, credential.request(fixture_items("RE"), holder), issuer)
    pres = credential.prove(cred, holder, XFER_DISCLOSURE)
    return world, issuer, holder, cred, pres


def anchored(world, issuer, pres, cred):
    epoch = len(world.chains["C1"].blocks)
    nonce = world.rng.randbytes(16)
    commitment = xauth.make_commitment(
        world, "C1", pres, cred.asset["tokenBinding"], epoch, nonce
    )
    tx_id, header = xauth.anchor(world, "C1", commitment, issuer)
    world.relay_chain("C2", "C1")
    proof = xauth.spv_prove(world, tx_id, ("C1", header.height))
    block = world.chains["C1"].blocks[header.height]
    tx = next(t for t in block.txs if t.tx_id == tx_id)
    return commitment, tx, proof


def unchecked_commitment(world, pres):
    """The commitment `anchored` makes over `pres`, built without
    make_commitment's source-side verification."""
    return xauth.Commitment(
        asset_id=pres.disclosed["asset.assetId"],
        cred_digest=xauth.disclosed_subset_digest(pres),
        token_binding_digest=xauth.token_binding_digest(pres.disclosed["asset.tokenBinding"]),
        epoch=len(world.chains["C1"].blocks),
        nonce=world.rng.randbytes(16),
    )


# ------------------------------------------------------------ commitment ----

def test_commitment_deterministic_and_epoch_sensitive(flow):
    world, _, _, cred, pres = flow
    nonce = b"\x05" * 16
    tb = cred.asset["tokenBinding"]
    c1 = xauth.make_commitment(world, "C1", pres, tb, 3, nonce)
    c2 = xauth.make_commitment(world, "C1", pres, tb, 3, nonce)
    c3 = xauth.make_commitment(world, "C1", pres, tb, 4, nonce)
    assert c1.commitment_digest() == c2.commitment_digest()
    assert c1.commitment_digest() != c3.commitment_digest()


def test_commitment_matches_independent_encoder(flow):
    # second encoder: rebuild the byte layout with struct packing
    world, _, _, cred, pres = flow
    nonce = b"\x09" * 16
    c = xauth.make_commitment(world, "C1", pres, cred.asset["tokenBinding"], 7, nonce)

    def lp(b):
        return struct.pack(">I", len(b)) + b

    aid = c.asset_id.encode()
    oracle = hashlib.sha256(
        b"xrwa/commit/v1"
        + lp(aid)
        + lp(c.cred_digest)
        + lp(c.token_binding_digest)
        + struct.pack(">Q", 7)
        + lp(nonce)
    ).digest()
    assert c.commitment_digest() == oracle


def test_commitment_requires_verifying_presentation(flow):
    world, _, holder, cred, pres = flow
    mutated = dataclasses.replace(pres, disclosed={**pres.disclosed, "asset.assetId": "did:xrwa:ffff"})
    with pytest.raises(InvalidPresentation):
        xauth.make_commitment(world, "C1", mutated, cred.asset["tokenBinding"], 1, b"\x01" * 16)


def test_commitment_requires_disclosed_binding_fields(flow):
    world, _, holder, cred, _ = flow
    thin = credential.prove(cred, holder, ["identity.attributes"])
    with pytest.raises(InvalidPresentation):
        xauth.make_commitment(world, "C1", thin, cred.asset["tokenBinding"], 1, b"\x01" * 16)


def test_commitment_binding_no_collisions_across_subsets(flow):
    world, _, holder, cred, _ = flow
    rng = random.Random(0xC0)
    selectors = credential.selectors_of(cred)
    by_subset = {}
    for _ in range(200):
        subset = rng.sample(selectors, rng.randrange(0, len(selectors)))
        pres = credential.prove(cred, holder, subset)
        key = canonical.dumps(pres.disclosed)
        d = xauth.disclosed_subset_digest(pres)
        # same effective disclosure must map to the same digest, and
        # distinct disclosures must never collide
        assert by_subset.setdefault(key, d) == d
    digests = list(by_subset.values())
    assert len(set(digests)) == len(digests)


# ---------------------------------------------------------------- anchor ----

def test_anchor_places_tx_exactly_once(flow):
    world, issuer, _, cred, pres = flow
    commitment, tx, proof = anchored(world, issuer, pres, cred)
    block = world.chains["C1"].blocks[proof.height]
    hits = [t for t in block.txs if t.tx_id == tx.tx_id]
    assert len(hits) == 1
    assert world.op_log[-0 - 1].op_kind != "anchor"  # relay ops logged after
    anchor_entries = [r for r in world.op_log if r.op_kind == "anchor"]
    assert [r.tx_id for r in anchor_entries] == [canonical.to_hex(tx.tx_id)]


def test_two_commitments_one_block_both_provable(flow):
    world, issuer, holder, cred, pres = flow
    tb = cred.asset["tokenBinding"]
    c1 = xauth.make_commitment(world, "C1", pres, tb, 1, b"\x01" * 16)
    c2 = xauth.make_commitment(world, "C1", pres, tb, 2, b"\x02" * 16)
    id1, _ = xauth.anchor(world, "C1", c1, issuer, seal=False)
    id2, header = xauth.anchor(world, "C1", c2, issuer, seal=True)
    world.relay_chain("C2", "C1")
    block = world.chains["C1"].blocks[header.height]
    assert len(block.txs) == 2
    for tx_id in (id1, id2):
        proof = xauth.spv_prove(world, tx_id, ("C1", header.height))
        tx = next(t for t in block.txs if t.tx_id == tx_id)
        assert xauth.spv_verify(world, "C2", tx, proof)


def test_anchor_requires_active_issuer(flow):
    world, issuer, _, cred, pres = flow
    commitment = xauth.make_commitment(
        world, "C1", pres, cred.asset["tokenBinding"], 1, b"\x03" * 16
    )
    doc = identity.did_resolve(world, cred.issuer)
    identity.did_deactivate(
        world, cred.issuer, identity.deactivate_signature(issuer, cred.issuer, doc.version)
    )
    with pytest.raises(IssuerDeactivated):
        xauth.anchor(world, "C1", commitment, issuer)


# ------------------------------------------------------------- spv prove ----

def test_prove_single_tx_block_empty_path(flow):
    world, issuer, _, cred, pres = flow
    _, tx, proof = anchored(world, issuer, pres, cred)
    assert proof.path.siblings == ()
    assert world.header_at(proof.chain, proof.height).merkle_root == tx.tx_id


def test_prove_wrong_header_ref(flow):
    world, issuer, _, cred, pres = flow
    _, tx, proof = anchored(world, issuer, pres, cred)
    with pytest.raises(TxNotInBlock):
        xauth.spv_prove(world, tx.tx_id, ("C1", 0))


def test_prove_8192_tx_block_path_length_13():
    world = World(WorldConfig(seed=8))
    key = keygen(digest(b"bulk"))
    world.mint("C1", key.pk, 1)
    for i in range(8192):
        world.submit_tx(
            "C1",
            Transaction.make("transfer", {"to": canonical.to_hex(key.pk), "amount": 0}, key, f"n{i}"),
        )
    header = world.seal_block("C1")
    target = world.chains["C1"].blocks[header.height].txs[5000]
    proof = xauth.spv_prove(world, target.tx_id, ("C1", header.height))
    assert len(proof.path.siblings) == 13
    world.relay_chain("C2", "C1")
    assert xauth.spv_verify(world, "C2", target, proof)


# ------------------------------------------------------------ spv verify ----

def test_verify_requires_relayed_header(flow):
    world, issuer, _, cred, pres = flow
    epoch = len(world.chains["C1"].blocks)
    commitment = xauth.make_commitment(
        world, "C1", pres, cred.asset["tokenBinding"], epoch, b"\x04" * 16
    )
    tx_id, header = xauth.anchor(world, "C1", commitment, issuer)
    proof = xauth.spv_prove(world, tx_id, ("C1", header.height))
    block = world.chains["C1"].blocks[header.height]
    tx = block.txs[0]
    assert not xauth.spv_verify(world, "C2", tx, proof)  # header not relayed yet
    world.relay_chain("C2", "C1")
    assert xauth.spv_verify(world, "C2", tx, proof)


def test_verify_mutation_fuzz_1000_trials(flow):
    world, issuer, _, cred, pres = flow
    _, tx, proof = anchored(world, issuer, pres, cred)
    # fresh block with several txs so the path is non-empty
    key = keygen(digest(b"fuzz"))
    world.mint("C1", key.pk, 1)
    for i in range(16):
        world.submit_tx(
            "C1",
            Transaction.make("transfer", {"to": canonical.to_hex(key.pk), "amount": 0}, key, f"f{i}"),
        )
    header = world.seal_block("C1")
    world.relay_chain("C2", "C1")
    block = world.chains["C1"].blocks[header.height]
    target = block.txs[7]
    good = xauth.spv_prove(world, target.tx_id, ("C1", header.height))
    assert xauth.spv_verify(world, "C2", target, good)

    rng = random.Random(0xF0)
    for _ in range(1000):
        if rng.random() < 0.5:
            # flip one bit of the tx payload (via the nonce field)
            mutated_tx = dataclasses.replace(target, nonce=target.nonce + "x")
            assert not xauth.spv_verify(world, "C2", mutated_tx, good)
        else:
            pos = rng.randrange(len(good.path.siblings))
            sibs = list(good.path.siblings)
            h = sibs[pos]
            byte = rng.randrange(32)
            sibs[pos] = h[:byte] + bytes([h[byte] ^ (1 << rng.randrange(8))]) + h[byte + 1 :]
            bad_path = dataclasses.replace(good, path=dataclasses.replace(good.path, siblings=tuple(sibs)))
            assert not xauth.spv_verify(world, "C2", target, bad_path)


# ------------------------------------------------------------ authenticate ----

def test_full_happy_path_c1_to_c2(flow):
    world, issuer, _, cred, pres = flow
    _, tx, proof = anchored(world, issuer, pres, cred)
    record = xauth.authenticate(world, "C2", tx, proof, pres)
    assert record.dest_chain == "C2"
    assert record.asset_id == cred.asset["assetId"]
    assert "spv" in record.checks_passed
    assert "commitment" in record.checks_passed
    assert "jurisdiction" in record.checks_passed
    assert xauth.has_acceptance(world, "C2", cred.asset["assetId"])
    xauth.check_acceptance_soundness(world)


def test_mutated_presentation_after_anchor_rejected(flow):
    world, issuer, holder, cred, pres = flow
    _, tx, proof = anchored(world, issuer, pres, cred)
    attrs = [dict(a) for a in pres.disclosed["identity.attributes"]]
    for a in attrs:
        if a["name"] == "floorArea":
            a["value"] = "121"
    mutated = dataclasses.replace(pres, disclosed={**pres.disclosed, "identity.attributes": attrs})
    mutated = dataclasses.replace(
        mutated, holder_sig=sign(holder.sk, canonical.dumps_bytes(mutated.body_json()))
    )
    with pytest.raises(CommitmentMismatch):
        xauth.authenticate(world, "C2", tx, proof, mutated)


def test_authenticate_counts_zero_dest_verifications(flow):
    world, issuer, _, cred, pres = flow
    _, tx, proof = anchored(world, issuer, pres, cred)
    xauth.authenticate(world, "C2", tx, proof, pres)
    assert world.verify_counts.get("C1", 0) == 1  # make_commitment, source side
    assert world.verify_counts.get("C2", 0) == 0


def test_authenticate_spv_failure(flow):
    world, issuer, _, cred, pres = flow
    epoch = len(world.chains["C1"].blocks)
    commitment = xauth.make_commitment(
        world, "C1", pres, cred.asset["tokenBinding"], epoch, b"\x06" * 16
    )
    tx_id, header = xauth.anchor(world, "C1", commitment, issuer)
    proof = xauth.spv_prove(world, tx_id, ("C1", header.height))
    tx = world.chains["C1"].blocks[header.height].txs[0]
    with pytest.raises(SpvFailed):  # nothing relayed
        xauth.authenticate(world, "C2", tx, proof, pres)


def test_authenticate_revoked_section(flow):
    world, issuer, _, cred, pres = flow
    _, tx, proof = anchored(world, issuer, pres, cred)
    credential.revoke(world, cred, "compliance", issuer)
    with pytest.raises(Revoked):
        xauth.authenticate(world, "C2", tx, proof, pres)


def test_authenticate_jurisdiction_blocked():
    # the Vehicle fixture is sellable in EU, UK and CH; C2 is in SG
    world = World(WorldConfig(seed=77))
    issuer = keygen(digest(b"fixture-issuer"))
    holder = keygen(digest(b"fixture-holder"))
    identity.did_create(world, issuer)
    identity.did_create(world, holder)
    cred = credential.issue(world, credential.request(fixture_items("Vehicle"), holder), issuer)
    pres = credential.prove(cred, holder, XFER_DISCLOSURE)
    _, tx, proof = anchored(world, issuer, pres, cred)
    with pytest.raises(JurisdictionBlocked):
        xauth.authenticate(world, "C2", tx, proof, pres)


@pytest.mark.parametrize(
    "regions", ["not SG-listed: US only", 5, {"SG": "listed"}, ["SG", 5]],
    ids=["text", "number", "object", "number-item"],
)
def test_authenticate_refuses_sellable_regions_that_are_not_a_list_of_text(monkeypatch, regions):
    # a credential read back with from_json was never checked by issue; on a
    # string, "SG" in regions is a substring test, which passed on C2
    monkeypatch.setattr(credential, "_validate_sections", lambda sections: None)
    world, issuer, holder = fixture_world()
    items = fixture_items("RE")
    items["compliance"]["sellableRegions"] = regions
    cred = credential.issue(world, credential.request(items, holder), issuer)
    pres = credential.prove(cred, holder, XFER_DISCLOSURE)
    # make_commitment's own verify refuses these values, so anchor without it
    tx, proof = _sealed_anchor(world, unchecked_commitment(world, pres).to_body(), issuer)
    with pytest.raises(MissingField, match="compliance.sellableRegions"):
        xauth.authenticate(world, "C2", tx, proof, pres)
    assert not world.acceptance_records.get("C2")


MUTATED_SELECTORS = [*TRANSFER_DISCLOSURE, "compliance.effectiveFrom", "compliance.effectiveTo"]


def breaks_its_row(selector, value):
    section, key = selector.split(".")
    try:
        credential._check(credential.FIELD_RULES[section][key], value, selector)
    except MissingField:
        return True
    return False


@settings(max_examples=200)
@given(st.data())
def test_mutated_disclosed_value_refused_by_its_row_or_accepted(data):
    """One key deleted, one value retyped, made a bool or given a lone
    surrogate under a disclosed field of a fixture, issued past issue's
    checks: verify returns a result, MissingField whenever a disclosed value
    breaks its row, and authenticate of an anchor made without the source
    check accepts or refuses with an XrwaError, MissingField for such a
    value, recording nothing."""
    items = fixture_items(data.draw(st.sampled_from(FIXTURE_TYPES), label="fixture"))
    where = data.draw(st.sampled_from(
        [at for at in locations(items) if ".".join(map(str, at[:2])) in MUTATED_SELECTORS]
    ), label="where")
    how = data.draw(st.sampled_from(["delete", "retype", "bool", "surrogate"]), label="how")
    assume(mutate(items, where, how, data.draw(st.integers(0, 200), label="offset")))
    world, issuer, holder = fixture_world()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(credential, "_validate_sections", lambda sections: None)
        try:
            cred = credential.issue(world, credential.request(items, holder), issuer)
        except XrwaError:
            return
    pres = credential.prove(cred, holder, [s for s in MUTATED_SELECTORS if s in credential.selectors_of(cred)])
    result = credential.verify(world, pres)
    broken = any(breaks_its_row(sel, value) for sel, value in pres.disclosed.items() if "sStatus" not in sel)
    assert (result.reason == "MissingField") == broken
    if "asset.tokenBinding" not in pres.disclosed:
        return
    tx, proof = _sealed_anchor(world, unchecked_commitment(world, pres).to_body(), issuer)
    ops_before = len(world.op_log)
    try:
        xauth.authenticate(world, "C2", tx, proof, pres)
    except XrwaError as refusal:
        assert isinstance(refusal, MissingField) or not broken
        assert world.acceptance_records["C2"] == [] and len(world.op_log) == ops_before
    else:
        assert not broken


def test_authenticate_undisclosed_compliance_flagged(flow):
    world, issuer, holder, cred, _ = flow
    pres = credential.prove(cred, holder, ["asset.assetId", "asset.tokenBinding"])
    _, tx, proof = anchored(world, issuer, pres, cred)
    record = xauth.authenticate(world, "C2", tx, proof, pres)
    assert "compliance-unverified" in record.checks_passed
    assert "jurisdiction" not in record.checks_passed


def test_proof_json_roundtrip(flow):
    world, issuer, _, cred, pres = flow
    _, tx, proof = anchored(world, issuer, pres, cred)
    blob = canonical.dumps(proof.to_json())
    again = xauth.SpvProof.from_json(canonical.loads(blob))
    assert again == proof
    assert xauth.spv_verify(world, "C2", tx, again)


def test_anchor_nonce_unique_per_asset_epoch(flow):
    world, issuer, _, cred, pres = flow
    tb = cred.asset["tokenBinding"]
    nonce = b"\x0c" * 16
    c = xauth.make_commitment(world, "C1", pres, tb, 9, nonce)
    xauth.anchor(world, "C1", c, issuer)
    world.relay_chain("C2", "C1")
    with pytest.raises(CommitmentMismatch):
        xauth.anchor(world, "C1", c, issuer)
    # different nonce, same asset and epoch: fine
    c2 = xauth.make_commitment(world, "C1", pres, tb, 9, b"\x0d" * 16)
    xauth.anchor(world, "C1", c2, issuer)


@pytest.mark.parametrize("seal", [True, False])
def test_a_slot_anchored_twice_fails_audit(flow, seal):
    # with the cache cleared, anchor lets a second tx, sealed or pending,
    # carry a slot a sealed anchor already carries
    world, issuer, _, cred, pres = flow
    c = xauth.make_commitment(world, "C1", pres, cred.asset["tokenBinding"], 9, b"\x0c" * 16)
    xauth.anchor(world, "C1", c, issuer)
    world.relay_chain("C2", "C1")
    check_world(world)
    world.anchor_nonces.clear()
    xauth.anchor(world, "C1", c, issuer, seal=seal)
    world.relay_chain("C2", "C1")
    world.check_all()  # the ledger alone cannot tell
    with pytest.raises(InvariantViolation, match="two anchor txs carry the slot"):
        check_world(world)


def test_a_cached_slot_no_anchor_carries_fails_audit(flow):
    world, issuer, _, cred, pres = flow
    anchored(world, issuer, pres, cred)
    check_world(world)
    world.anchor_nonces.add((cred.asset["assetId"], 9, b"\x0c" * 16))
    with pytest.raises(InvariantViolation, match="holds a slot no anchor tx carries"):
        check_world(world)


def test_authenticate_after_issuer_deactivated_rejected(flow):
    world, issuer, _, cred, pres = flow
    _, tx, proof = anchored(world, issuer, pres, cred)
    doc = identity.did_resolve(world, cred.issuer)
    identity.did_deactivate(
        world, cred.issuer, identity.deactivate_signature(issuer, cred.issuer, doc.version)
    )
    with pytest.raises(IssuerDeactivated):
        xauth.authenticate(world, "C2", tx, proof, pres)
    assert not xauth.has_acceptance(world, "C2", cred.asset["assetId"])


def test_key_rotated_away_refused_by_issue_anchor_and_revoke(flow):
    world, issuer, holder, cred, pres = flow
    commitment = xauth.make_commitment(
        world, "C1", pres, cred.asset["tokenBinding"], 1, b"\x0e" * 16
    )
    successor = keygen(digest(b"rotated-issuer"))
    doc = identity.did_resolve(world, cred.issuer)
    rotated = dataclasses.replace(
        doc,
        version=doc.version + 1,
        controller_pk=successor.pk,
        verification_methods=(("key-1", successor.pk),),
    )
    identity.did_update(world, cred.issuer, rotated, identity.update_signature(issuer, rotated))
    with pytest.raises(NotFound):
        credential.issue(world, credential.request(fixture_items("Gold"), holder), issuer)
    with pytest.raises(IssuerDeactivated):
        xauth.anchor(world, "C1", commitment, issuer)
    before = world.world_digest()
    for act in (credential.revoke, credential.suspend, credential.reinstate):
        with pytest.raises(BadSignature):
            act(world, cred, "asset", issuer)
    assert world.world_digest() == before
    # the successor key holds the same authority at the new key version
    again = credential.issue(world, credential.request(fixture_items("Gold"), holder), successor)
    assert again.issuer == cred.issuer and again.top_proof.issuer_key_version == rotated.version
    xauth.anchor(world, "C1", commitment, successor)
    credential.revoke(world, cred, "asset", successor)


# ------------------------------------------------------- anchor sender ----

def forged_commitment(world, pres):
    """A presentation with edited asset and region fields, and a commitment
    over it that only someone skipping make_commitment can build."""
    tb = dict(pres.disclosed["asset.tokenBinding"], tokenId="999")
    forged = dataclasses.replace(pres, disclosed={
        **pres.disclosed,
        "asset.assetId": "did:xrwa:forged-asset",
        "asset.tokenBinding": tb,
        "compliance.sellableRegions": ["SG"],
    })
    commitment = xauth.Commitment(
        asset_id="did:xrwa:forged-asset",
        cred_digest=xauth.disclosed_subset_digest(forged),
        token_binding_digest=xauth.token_binding_digest(tb),
        epoch=len(world.chains["C1"].blocks),
        nonce=b"\x0f" * 16,
    )
    return forged, commitment


def test_forged_anchor_from_key_without_did_refused(flow):
    world, _, _, _, pres = flow
    _, commitment = forged_commitment(world, pres)
    forger = keygen(digest(b"forger"))
    tx = Transaction.make("anchor", commitment.to_body(), forger, "forged-0")
    ops_before = len(world.op_log)
    with pytest.raises(IssuerDeactivated):
        world.submit_tx("C1", tx)
    assert world.chains["C1"].pending == [] and len(world.op_log) == ops_before
    with pytest.raises(IssuerDeactivated):
        xauth.anchor(world, "C1", commitment, forger)
    assert world.anchor_nonces == set() and world.chains["C1"].pending == []
    assert len(world.op_log) == ops_before


def test_anchor_from_another_did_controller_not_from_issuer(flow):
    world, _, holder, _, pres = flow
    forged, commitment = forged_commitment(world, pres)
    tx_id, header = xauth.anchor(world, "C1", commitment, holder)
    world.relay_chain("C2", "C1")
    proof = xauth.spv_prove(world, tx_id, ("C1", header.height))
    tx = world.chains["C1"].blocks[header.height].txs[0]
    with pytest.raises(AnchorNotFromIssuer):
        xauth.authenticate(world, "C2", tx, proof, forged)
    assert world.acceptance_records["C2"] == []


def test_issuer_swapped_after_deactivation_refused(flow):
    world, issuer, holder, cred, pres = flow
    _, tx, proof = anchored(world, issuer, pres, cred)
    doc = identity.did_resolve(world, cred.issuer)
    identity.did_deactivate(
        world, cred.issuer, identity.deactivate_signature(issuer, cred.issuer, doc.version)
    )
    with pytest.raises(IssuerDeactivated):
        xauth.authenticate(world, "C2", tx, proof, pres)
    # the commitment does not cover the issuer, so naming the holder's
    # active DID as issuer still matches it; the anchor's sender does not
    holder_did = world.controller_index[canonical.to_hex(holder.pk)]
    swapped = dataclasses.replace(
        pres, top_proof=dataclasses.replace(pres.top_proof, issuer=holder_did)
    )
    with pytest.raises(AnchorNotFromIssuer):
        xauth.authenticate(world, "C2", tx, proof, swapped)
    assert world.acceptance_records["C2"] == []


def test_commitment_carried_by_non_anchor_tx_refused(flow):
    world, issuer, _, cred, pres = flow
    commitment = xauth.make_commitment(
        world, "C1", pres, cred.asset["tokenBinding"], 1, b"\x10" * 16
    )
    # submit_tx takes any kind the cost table weighs
    tx_id = world.submit_tx(
        "C1", Transaction.make("acceptance", commitment.to_body(), issuer, "acceptance-0")
    )
    header = world.seal_block("C1")
    world.relay_chain("C2", "C1")
    proof = xauth.spv_prove(world, tx_id, ("C1", header.height))
    tx = world.chains["C1"].blocks[header.height].txs[0]
    with pytest.raises(AnchorNotFromIssuer):
        xauth.authenticate(world, "C2", tx, proof, pres)


def test_proven_transfer_refused_before_its_body_is_read(flow):
    world, issuer, holder, cred, pres = flow
    world.mint("C1", holder.pk, 1)
    tx = Transaction.make(
        "transfer", {"to": canonical.to_hex(issuer.pk), "amount": 1}, holder, "transfer-0"
    )
    tx_id = world.submit_tx("C1", tx)
    header = world.seal_block("C1")
    world.relay_chain("C2", "C1")
    proof = xauth.spv_prove(world, tx_id, ("C1", header.height))
    ops_before = len(world.op_log)
    with pytest.raises(AnchorNotFromIssuer):
        xauth.authenticate(world, "C2", tx, proof, pres)
    assert world.acceptance_records["C2"] == [] and len(world.op_log) == ops_before


def _bare_asset_id(body):
    return {"assetId": 5}


def _negative_epoch(body):
    return {**body, "epoch": -1}


def _digest_not_hex(body):
    return {**body, "credDigest": "0xzz"}


@pytest.mark.parametrize("mangle", [_bare_asset_id, _negative_epoch, _digest_not_hex])
def test_anchor_body_not_a_commitment_refused_before_anything_is_logged(flow, mangle):
    world, issuer, _, cred, pres = flow
    commitment = xauth.make_commitment(
        world, "C1", pres, cred.asset["tokenBinding"], 1, b"\x11" * 16
    )
    tx = Transaction.make("anchor", mangle(commitment.to_body()), issuer, world.next_nonce())
    tx_id = world.submit_tx("C1", tx)
    header = world.seal_block("C1")
    world.relay_chain("C2", "C1")
    proof = xauth.spv_prove(world, tx_id, ("C1", header.height))
    ops_before = len(world.op_log)
    with pytest.raises(MalformedArtifact):
        xauth.authenticate(world, "C2", tx, proof, pres)
    assert world.acceptance_records["C2"] == [] and len(world.op_log) == ops_before


def test_anchors_whose_body_is_no_commitment_pass_the_audit(flow):
    # such a body carries no slot and vouches for no acceptance; a digest
    # that is a list made the carrier lookup raise TypeError
    world, issuer, _, cred, pres = flow
    commitment, tx, proof = anchored(world, issuer, pres, cred)
    xauth.authenticate(world, "C2", tx, proof, pres)
    body = commitment.to_body()
    for mangled in (_bare_asset_id(body), _negative_epoch(body), _digest_not_hex(body),
                    {**body, "commitmentDigest": [body["commitmentDigest"]]}):
        world.submit_tx("C1", Transaction.make("anchor", mangled, issuer, world.next_nonce()))
    world.seal_block("C1")
    check_world(world)


# ------------------------------------------------------------- refusals ----

def _commit_with_nonce(size):
    def step(world, cred, pres, holder):
        return lambda: xauth.make_commitment(world, "C1", pres, cred.asset["tokenBinding"], 1, b"\x01" * size)
    return step


def _commit_with_nonce_of(nonce):
    def step(world, cred, pres, holder):
        return lambda: xauth.make_commitment(world, "C1", pres, cred.asset["tokenBinding"], 1, nonce)
    return step


def _commit_binding_undisclosed(world, cred, pres, holder):
    thin = credential.prove(cred, holder, ["asset.assetId"])
    return lambda: xauth.make_commitment(world, "C1", thin, cred.asset["tokenBinding"], 1, b"\x01" * 16)


def _commit_binding_differs(world, cred, pres, holder):
    other = dict(cred.asset["tokenBinding"], tokenId="999")
    return lambda: xauth.make_commitment(world, "C1", pres, other, 1, b"\x01" * 16)


def _commit_at_epoch(epoch):
    def step(world, cred, pres, holder):
        return lambda: xauth.make_commitment(world, "C1", pres, cred.asset["tokenBinding"], epoch, b"\x01" * 16)
    return step


COMMITMENT_REFUSALS = [
    ("nonce-short", _commit_with_nonce(15), "nonce must be 16 bytes"),
    ("nonce-long", _commit_with_nonce(17), "nonce must be 16 bytes"),
    # sixteen of anything that is not bytes is no nonce; anchor used to raise a bare error
    ("nonce-text", _commit_with_nonce_of("\x01" * 16), "nonce must be 16 bytes"),
    ("nonce-list", _commit_with_nonce_of([1] * 16), "nonce must be 16 bytes"),
    ("nonce-bytearray", _commit_with_nonce_of(bytearray(16)), "nonce must be 16 bytes"),
    # from_body refuses the same epochs; anchor used to raise a bare error
    ("epoch-negative", _commit_at_epoch(-1), "epoch -1 does not fit 8 unsigned bytes"),
    ("epoch-fractional", _commit_at_epoch(1.5), "epoch 1.5 does not fit"),
    ("epoch-too-wide", _commit_at_epoch(1 << 64), "does not fit 8 unsigned bytes"),
    ("binding-undisclosed", _commit_binding_undisclosed, "tokenBinding must be disclosed"),
    ("binding-differs", _commit_binding_differs, "does not match the disclosed one"),
]


@pytest.mark.parametrize(
    "make_step, message",
    [row[1:] for row in COMMITMENT_REFUSALS],
    ids=[row[0] for row in COMMITMENT_REFUSALS],
)
def test_make_commitment_refusal_moves_nothing(flow, make_step, message):
    world, _, holder, cred, pres = flow
    step = make_step(world, cred, pres, holder)
    before = (world.world_digest(), world.op_log_csv())
    with pytest.raises(InvalidPresentation, match=message):
        step()
    assert (world.world_digest(), world.op_log_csv()) == before


def _sealed_anchor(world, body, issuer):
    """An anchor of `body` sent by `issuer`, sealed on C1 and relayed to C2:
    the (tx, proof) pair authenticate reads."""
    tx_id = world.submit_tx("C1", Transaction.make("anchor", body, issuer, world.next_nonce()))
    header = world.seal_block("C1")
    world.relay_chain("C2", "C1")
    proof = xauth.spv_prove(world, tx_id, ("C1", header.height))
    return world.chains["C1"].blocks[header.height].txs[0], proof


def _stored_digest_not_recomputing(world, issuer, holder, cred, pres):
    commitment = xauth.make_commitment(world, "C1", pres, cred.asset["tokenBinding"], 1, b"\x12" * 16)
    body = {**commitment.to_body(), "commitmentDigest": canonical.to_hex(bytes(32))}
    return (*_sealed_anchor(world, body, issuer), pres)


def _asset_id_differs(world, issuer, holder, cred, pres):
    _, tx, proof = anchored(world, issuer, pres, cred)
    gold = credential.issue(world, credential.request(fixture_items("Gold"), holder), issuer)
    return tx, proof, credential.prove(gold, holder, XFER_DISCLOSURE)


def _binding_digest_differs(world, issuer, holder, cred, pres):
    commitment = xauth.Commitment(
        asset_id=cred.asset["assetId"],
        cred_digest=xauth.disclosed_subset_digest(pres),
        token_binding_digest=xauth.token_binding_digest(dict(cred.asset["tokenBinding"], tokenId="999")),
        epoch=1,
        nonce=b"\x13" * 16,
    )
    return (*_sealed_anchor(world, commitment.to_body(), issuer), pres)


AUTHENTICATE_REFUSALS = [
    ("stored-digest-not-recomputing", _stored_digest_not_recomputing, "does not recompute"),
    ("asset-id-differs", _asset_id_differs, "asset id differs"),
    ("binding-digest-differs", _binding_digest_differs, "token binding differs"),
]


@pytest.mark.parametrize(
    "make_anchor, message",
    [row[1:] for row in AUTHENTICATE_REFUSALS],
    ids=[row[0] for row in AUTHENTICATE_REFUSALS],
)
def test_authenticate_commitment_refusal_moves_nothing(flow, make_anchor, message):
    world, issuer, holder, cred, pres = flow
    tx, proof, presented = make_anchor(world, issuer, holder, cred, pres)
    before = (world.world_digest(), world.op_log_csv())
    with pytest.raises(CommitmentMismatch, match=message):
        xauth.authenticate(world, "C2", tx, proof, presented)
    assert (world.world_digest(), world.op_log_csv()) == before
    assert world.acceptance_records["C2"] == []


def inject_anchor(world, commitment, sender, logged=True):
    """Seal an anchor of `commitment` on C1 the way submit_tx would, minus
    its sender check, and log it only when `logged`."""
    tx = Transaction.make("anchor", commitment.to_body(), sender, "injected-0")
    world.chains["C1"].pending.append(tx)
    world.chains["C1"].pending_ids.append(tx.tx_id)
    world.chains["C1"].sender_nonces.add((tx.sender, tx.nonce))
    if logged:
        world.log_op("C1", "anchor", tx_id=tx.tx_id)
    world.seal_block("C1")


def inject_acceptance(world, pres, commitment):
    """Append the record authenticate would write on C2, minus its checks."""
    world.acceptance_records["C2"].append(xauth.AcceptanceRecord(
        credential_id=pres.credential_id,
        asset_id=commitment.asset_id,
        source_chain="C1",
        dest_chain="C2",
        accepted_at=world.clock,
        commitment_digest=commitment.commitment_digest(),
        checks_passed=("spv", "commitment", "issuer_active", "status_clear", "jurisdiction"),
    ))


def test_injected_anchor_from_key_without_did_fails_audit(flow):
    world, _, _, _, pres = flow
    forged, commitment = forged_commitment(world, pres)
    inject_anchor(world, commitment, keygen(digest(b"forger")))
    world.relay_chain("C2", "C1")
    inject_acceptance(world, forged, commitment)
    world.check_all()  # the ledger alone cannot tell
    with pytest.raises(InvariantViolation, match="sent by no DID controller"):
        xauth.check_acceptance_soundness(world)


def test_injected_acceptance_without_anchor_fails_audit(flow):
    world, _, _, _, pres = flow
    forged, commitment = forged_commitment(world, pres)
    inject_acceptance(world, forged, commitment)
    world.check_all()
    with pytest.raises(InvariantViolation, match="has no anchor tx on C1"):
        xauth.check_acceptance_soundness(world)


def test_injected_unlogged_anchor_fails_audit(flow):
    world, issuer, _, _, pres = flow
    forged, commitment = forged_commitment(world, pres)
    inject_anchor(world, commitment, issuer, logged=False)
    world.relay_chain("C2", "C1")
    inject_acceptance(world, forged, commitment)
    world.check_all()
    with pytest.raises(InvariantViolation, match="missing from op log"):
        xauth.check_acceptance_soundness(world)


def test_injected_acceptance_of_unrelayed_anchor_fails_audit(flow):
    world, issuer, _, _, pres = flow
    forged, commitment = forged_commitment(world, pres)
    xauth.anchor(world, "C1", commitment, issuer)  # logged and sealed, never relayed
    inject_acceptance(world, forged, commitment)
    world.check_all()
    with pytest.raises(InvariantViolation, match="never relayed to C2"):
        xauth.check_acceptance_soundness(world)


# ------------------------------------------------------------ proof position ----

def moved(proof_json, leaf_index):
    return dict(proof_json, leafIndex=leaf_index)


@pytest.mark.parametrize("leaf_index", [2, 7, -1, 8], ids=["index-2", "index-7", "index-negative", "index-8"])
def test_moved_proof_position_rejected(leaf_index):
    """The last of seven leaves is its own sibling at the bottom level, so at
    index 7 the same hashes put a copy of the node on its left, which the
    padding check refuses; at index 2 they miss the root, and -1 and 8 lie
    outside the tree."""
    world = World(WorldConfig(seed=8))
    key = keygen(digest(b"positions"))
    world.mint("C1", key.pk, 1)
    for i in range(7):
        world.submit_tx(
            "C1",
            Transaction.make("transfer", {"to": canonical.to_hex(key.pk), "amount": 0}, key, f"p{i}"),
        )
    header = world.seal_block("C1")
    world.relay_chain("C2", "C1")
    target = world.chains["C1"].blocks[header.height].txs[6]
    good = xauth.spv_prove(world, target.tx_id, ("C1", header.height))
    headers = [h.to_json() for h in world.relayed[("C2", "C1")]]
    assert xauth.spv_verify(world, "C2", target, good)
    assert xauth.offline_verify(good.to_json(), target.to_json(), headers)

    bad = moved(good.to_json(), leaf_index)
    assert not xauth.spv_verify(world, "C2", target, xauth.SpvProof.from_json(bad))
    assert not xauth.offline_verify(bad, target.to_json(), headers)


def test_padding_position_proof_rejected():
    """In a three-transaction block the last transaction is its own sibling
    at the bottom level, so the same hashes at index 3, both siblings on the
    left, would reach the root; both verifiers refuse it."""
    world = World(WorldConfig(seed=9))
    key = keygen(digest(b"padding"))
    world.mint("C1", key.pk, 1)
    for i in range(3):
        world.submit_tx(
            "C1",
            Transaction.make("transfer", {"to": canonical.to_hex(key.pk), "amount": 0}, key, f"q{i}"),
        )
    header = world.seal_block("C1")
    world.relay_chain("C2", "C1")
    target = world.chains["C1"].blocks[header.height].txs[2]
    good = xauth.spv_prove(world, target.tx_id, ("C1", header.height))
    headers = [h.to_json() for h in world.relayed[("C2", "C1")]]
    assert good.path.siblings[0] == target.tx_id

    padded = moved(good.to_json(), leaf_index=3)
    assert [padded["leafIndex"] >> k & 1 for k in range(len(padded["path"]))] == [1, 1]
    assert not xauth.spv_verify(world, "C2", target, xauth.SpvProof.from_json(padded))
    assert not xauth.offline_verify(padded, target.to_json(), headers)


@pytest.mark.parametrize("mangle", [
    lambda p: p.pop("leafIndex"),
    lambda p: p.update(height="1"),
    lambda p: p.update(path={}),
    lambda p: p["path"].__setitem__(0, {"hash": p["path"][0]}),
    lambda p: p["path"].__setitem__(0, 1),
    lambda p: p["path"].__setitem__(0, p["path"][0][2:]),
], ids=[
    "no-leaf-index", "height-text", "path-dict", "sibling-object",
    "sibling-int", "sibling-no-prefix",
])
def test_malformed_spv_proof_refused_by_from_json(mangle):
    world = World(WorldConfig(seed=9))
    key = keygen(digest(b"malformed"))
    world.mint("C1", key.pk, 1)
    for i in range(3):
        world.submit_tx(
            "C1",
            Transaction.make("transfer", {"to": canonical.to_hex(key.pk), "amount": 0}, key, f"m{i}"),
        )
    header = world.seal_block("C1")
    target = world.chains["C1"].blocks[header.height].txs[0]
    proof = xauth.spv_prove(world, target.tx_id, ("C1", header.height)).to_json()
    headers = [b.header.to_json() for b in world.chains["C1"].blocks]
    mangle(proof)
    with pytest.raises(MalformedArtifact):
        xauth.SpvProof.from_json(proof)
    with pytest.raises(MalformedArtifact):
        xauth.offline_verify(proof, target.to_json(), headers)


def test_proof_json_carries_only_path_and_header_place():
    """A proof names its header and carries the sibling digests and the leaf
    index; no root and no sides, which the verifier derives."""
    world = World(WorldConfig(seed=9))
    key = keygen(digest(b"shape"))
    world.mint("C1", key.pk, 1)
    for i in range(5):
        world.submit_tx(
            "C1",
            Transaction.make("transfer", {"to": canonical.to_hex(key.pk), "amount": 0}, key, f"s{i}"),
        )
    header = world.seal_block("C1")
    target = world.chains["C1"].blocks[header.height].txs[3]
    proof = xauth.spv_prove(world, target.tx_id, ("C1", header.height)).to_json()
    assert sorted(proof) == ["chain", "height", "leafIndex", "path"]
    assert len(proof["path"]) == 3
    assert all(isinstance(h, str) and len(canonical.from_hex(h)) == 32 for h in proof["path"])
