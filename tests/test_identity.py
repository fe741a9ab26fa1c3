import dataclasses
import itertools

import pytest

from xrwa import identity
from xrwa.errors import (
    AlreadyDeactivated,
    BadSignature,
    Deactivated,
    DuplicateController,
    InvariantViolation,
    MalformedArtifact,
    NotFound,
    VersionSkew,
)
from xrwa.ledger import World, WorldConfig
from xrwa.primitives import KeyPair, digest, keygen
from xrwa import canonical


@pytest.fixture
def world():
    return World(WorldConfig(seed=5))


def kp(tag):
    return keygen(digest(b"identity-test-" + tag))


def test_create_then_resolve_reads_own_write(world):
    did, doc = identity.did_create(world, kp(b"a"))
    assert identity.did_resolve(world, did.text) == doc
    assert doc.version == 1
    assert doc.status == "Active"


def test_did_suffix_recomputable_from_stored_v1(world):
    did, doc = identity.did_create(world, kp(b"b"))
    recomputed = digest(canonical.dumps_bytes(doc.binding_json())).hex()
    assert did.id_string == recomputed
    assert did.text == f"did:xrwa:{recomputed}"


def test_thousand_seeds_no_did_collisions():
    world = World(WorldConfig(seed=6))
    dids = set()
    for i in range(1000):
        did, _ = identity.did_create(world, kp(str(i).encode()))
        dids.add(did.text)
    assert len(dids) == 1000


def test_duplicate_controller_rejected(world):
    identity.did_create(world, kp(b"dup"))
    with pytest.raises(DuplicateController):
        identity.did_create(world, kp(b"dup"))


def test_resolve_unknown_not_found(world):
    with pytest.raises(NotFound):
        identity.did_resolve(world, "did:xrwa:deadbeef")


def bump(doc, controller=None, version=None):
    return dataclasses.replace(
        doc,
        version=doc.version + 1 if version is None else version,
        controller_pk=doc.controller_pk if controller is None else controller.pk,
        verification_methods=(
            doc.verification_methods
            if controller is None
            else (("key-1", controller.pk),)
        ),
    )


def test_three_updates_resolve_version_four(world):
    controller = kp(b"c")
    did, doc = identity.did_create(world, controller)
    for _ in range(3):
        new_doc = bump(doc)
        sig = identity.update_signature(controller, new_doc)
        doc = identity.did_update(world, did.text, new_doc, sig)
    assert identity.did_resolve(world, did.text).version == 4


def test_stale_version_rejected(world):
    controller = kp(b"d")
    did, doc = identity.did_create(world, controller)
    stale = bump(doc, version=1)
    with pytest.raises(VersionSkew):
        identity.did_update(world, did.text, stale, identity.update_signature(controller, stale))


def test_non_controller_update_rejected(world):
    controller, mallory = kp(b"e"), kp(b"f")
    did, doc = identity.did_create(world, controller)
    new_doc = bump(doc)
    with pytest.raises(BadSignature):
        identity.did_update(world, did.text, new_doc, identity.update_signature(mallory, new_doc))


def test_controller_rotation_locks_out_old_key(world):
    old, new = kp(b"g"), kp(b"h")
    did, doc = identity.did_create(world, old)
    rotated = bump(doc, controller=new)
    identity.did_update(world, did.text, rotated, identity.update_signature(old, rotated))
    # old key attempts a further update
    stale = bump(rotated)
    with pytest.raises(BadSignature):
        identity.did_update(world, did.text, stale, identity.update_signature(old, stale))
    # new key succeeds
    identity.did_update(world, did.text, stale, identity.update_signature(new, stale))
    assert identity.did_resolve(world, did.text).version == 3


def test_deactivate_then_resolve_shows_status(world):
    controller = kp(b"i")
    did, doc = identity.did_create(world, controller)
    sig = identity.deactivate_signature(controller, did.text, doc.version)
    identity.did_deactivate(world, did.text, sig)
    resolved = identity.did_resolve(world, did.text)
    assert resolved.status == "Deactivated"


def test_double_deactivate_rejected(world):
    controller = kp(b"j")
    did, doc = identity.did_create(world, controller)
    sig = identity.deactivate_signature(controller, did.text, doc.version)
    identity.did_deactivate(world, did.text, sig)
    with pytest.raises(AlreadyDeactivated):
        identity.did_deactivate(world, did.text, sig)


def test_forged_deactivation_rejected(world):
    controller, mallory = kp(b"k"), kp(b"l")
    did, doc = identity.did_create(world, controller)
    sig = identity.deactivate_signature(mallory, did.text, doc.version)
    with pytest.raises(BadSignature):
        identity.did_deactivate(world, did.text, sig)
    assert identity.did_resolve(world, did.text).status == "Active"


def test_update_after_deactivate_rejected(world):
    controller = kp(b"m")
    did, doc = identity.did_create(world, controller)
    identity.did_deactivate(
        world, did.text, identity.deactivate_signature(controller, did.text, doc.version)
    )
    new_doc = bump(doc)
    with pytest.raises(Deactivated):
        identity.did_update(world, did.text, new_doc, identity.update_signature(controller, new_doc))


def test_foreign_methods_parse_as_opaque():
    ion = identity.Did.parse("did:ion:EiAaxyzcredential123")
    web = identity.Did.parse("did:web:issuer.example.org:class:RE-RESIDENCE")
    assert ion.method == "ion"
    assert web.method == "web"
    assert web.text == "did:web:issuer.example.org:class:RE-RESIDENCE"
    with pytest.raises(ValueError):
        identity.Did.parse("not-a-did")


def test_authorization_audit_replays_clean(world):
    controller, successor = kp(b"audit-a"), kp(b"audit-b")
    did, doc = identity.did_create(world, controller)
    rotated = bump(doc, controller=successor)
    identity.did_update(world, did.text, rotated, identity.update_signature(controller, rotated))
    identity.did_deactivate(
        world, did.text, identity.deactivate_signature(successor, did.text, rotated.version)
    )
    identity.check_authorization(world)


def test_authorization_audit_catches_tampered_registry(world):
    controller = kp(b"audit-c")
    did, doc = identity.did_create(world, controller)
    new_doc = bump(doc)
    identity.did_update(world, did.text, new_doc, identity.update_signature(controller, new_doc))
    # forge a head change behind the registry's back
    entry = world.did_registry[did.text]
    world.did_registry[did.text] = dataclasses.replace(entry, versions=entry.versions + (bump(new_doc),))
    with pytest.raises(InvariantViolation, match="2 head changes, 1 authorizations"):
        identity.check_authorization(world)


@pytest.mark.parametrize("forged, message", [
    (0, "unauthorized update to version 2"),
    (1, "unauthorized deactivation"),
])
def test_authorization_audit_catches_a_forged_authorization(world, forged, message):
    controller, successor, forger = kp(b"forge-a"), kp(b"forge-b"), kp(b"forge-c")
    did, doc = identity.did_create(world, controller)
    rotated = bump(doc, controller=successor)
    identity.did_update(world, did.text, rotated, identity.update_signature(controller, rotated))
    identity.did_deactivate(
        world, did.text, identity.deactivate_signature(successor, did.text, rotated.version)
    )
    identity.check_authorization(world)
    # each change keeps its action but carries the forger's signature
    entry = world.did_registry[did.text]
    authorizations = list(entry.authorizations)
    action, _ = authorizations[forged]
    sig = (
        identity.update_signature(forger, rotated)
        if action == "update"
        else identity.deactivate_signature(forger, did.text, rotated.version)
    )
    authorizations[forged] = (action, sig)
    world.did_registry[did.text] = dataclasses.replace(entry, authorizations=tuple(authorizations))
    with pytest.raises(InvariantViolation, match=message):
        identity.check_authorization(world)


def test_update_naming_another_did_refused_and_moves_nothing(world):
    a, b = kp(b"name-a"), kp(b"name-b")
    did_a, doc_a = identity.did_create(world, a)
    did_b, _ = identity.did_create(world, b)
    before = (world.world_digest(), world.op_log_csv())
    renamed = dataclasses.replace(bump(doc_a), did=did_b.text)
    with pytest.raises(BadSignature, match="names a different did"):
        identity.did_update(world, did_a.text, renamed, identity.update_signature(a, renamed))
    assert (world.world_digest(), world.op_log_csv()) == before


def test_update_cannot_take_another_dids_controller_key(world):
    # taken, B's key would issue as A, and read as IssuerDeactivated once A rotated away
    a, b = kp(b"take-a"), kp(b"take-b")
    did_a, doc_a = identity.did_create(world, a)
    did_b, _ = identity.did_create(world, b)
    before = (world.world_digest(), dict(world.controller_index), len(world.op_log))
    taking = bump(doc_a, controller=b)
    with pytest.raises(DuplicateController):
        identity.did_update(world, did_a.text, taking, identity.update_signature(a, taking))
    assert (world.world_digest(), dict(world.controller_index), len(world.op_log)) == before
    assert identity.controlled_did(world, b.pk) == did_b.text
    keeping = bump(doc_a)
    identity.did_update(world, did_a.text, keeping, identity.update_signature(a, keeping))
    assert identity.controlled_did(world, a.pk) == did_a.text
    identity.check_authorization(world)


@pytest.mark.parametrize("step", ["create", "update"])
@pytest.mark.parametrize("not_a_key", [bytearray, bytes.hex, lambda pk: pk[:31]], ids=["bytearray", "str", "31-bytes"])
def test_controller_key_that_is_not_an_account_key_refused_and_moves_nothing(world, step, not_a_key):
    # a stored bytearray key would lock its DID: no later update or deactivation would verify
    a = kp(b"key-a")
    did_a, doc_a = identity.did_create(world, a)
    key = not_a_key(kp(b"key-b").pk)
    before = (world.world_digest(), dict(world.did_registry), world.op_log_csv())
    with pytest.raises(MalformedArtifact, match="account key"):
        if step == "create":
            identity.did_create(world, KeyPair(pk=key, sk=a.sk))
        else:
            new_doc = dataclasses.replace(bump(doc_a), controller_pk=key)
            # a str key has no canonical encoding, so nothing can sign its document
            sig = bytes(64) if type(key) is str else identity.update_signature(a, new_doc)
            identity.did_update(world, did_a.text, new_doc, sig)
    assert (world.world_digest(), dict(world.did_registry), world.op_log_csv()) == before


def test_controller_index_is_a_view_of_the_active_heads(world):
    a, b, c = kp(b"view-a"), kp(b"view-b"), kp(b"view-c")
    did_a, doc_a = identity.did_create(world, a)
    did_b, _ = identity.did_create(world, b)
    rotated = bump(doc_a, controller=c)
    identity.did_update(world, did_a.text, rotated, identity.update_signature(a, rotated))
    identity.did_deactivate(world, did_b.text, identity.deactivate_signature(b, did_b.text, 1))
    # the deactivated DID's key controls nothing, so it may found a new DID
    did_d, _ = identity.did_create(world, b)
    # A rotated to C, B deactivated: the active heads are A on C and D on B
    assert world.controller_index == {canonical.to_hex(c.pk): did_a.text, canonical.to_hex(b.pk): did_d.text}
    with pytest.raises(AttributeError):
        world.controller_index = {}
    identity.check_authorization(world)


def test_authorization_audit_catches_two_active_dids_on_one_key(world):
    a = kp(b"inj-a")
    did_a, doc_a = identity.did_create(world, a)
    identity.did_create(world, kp(b"inj-b"))
    identity.check_authorization(world)
    # a created DID needs no authorization, so only the one-key rule can catch this
    twin = dataclasses.replace(doc_a, did="did:xrwa:twin")
    world.did_registry[twin.did] = identity.DidEntry(versions=(twin,))
    with pytest.raises(InvariantViolation):
        identity.check_authorization(world)


def test_update_cannot_smuggle_deactivation(world):
    controller = kp(b"audit-d")
    did, doc = identity.did_create(world, controller)
    sneaky = dataclasses.replace(bump(doc), status="Deactivated")
    with pytest.raises(BadSignature):
        identity.did_update(world, did.text, sneaky, identity.update_signature(controller, sneaky))


# ------------------------------------------------- lifecycle model check ----

def run_sequence(ops):
    """Drive one op sequence against a fresh registry, returning observations."""
    world = World(WorldConfig(seed=9))
    controller = kp(b"model")
    did, doc = identity.did_create(world, controller)
    versions_seen = [identity.did_resolve(world, did.text).version]
    for op in ops:
        head = identity.did_resolve(world, did.text)
        if op == "update":
            new_doc = bump(head)
            try:
                identity.did_update(
                    world, did.text, new_doc, identity.update_signature(controller, new_doc)
                )
            except Deactivated:
                pass
        elif op == "deactivate":
            sig = identity.deactivate_signature(controller, did.text, head.version)
            try:
                identity.did_deactivate(world, did.text, sig)
            except AlreadyDeactivated:
                pass
        versions_seen.append(identity.did_resolve(world, did.text).version)
    return world, did, versions_seen


def test_model_check_all_sequences_up_to_length_five():
    for length in range(0, 6):
        for ops in itertools.product(["update", "deactivate", "resolve"], repeat=length):
            world, did, versions = run_sequence(ops)
            # version monotonicity
            assert versions == sorted(versions)
            head = identity.did_resolve(world, did.text)
            if "deactivate" in ops:
                assert head.status == "Deactivated"
                # absorption: nothing changes after the first deactivate
                after = versions[ops.index("deactivate") + 1 :]
                assert all(v == after[0] for v in after)
            else:
                assert head.status == "Active"
                assert head.version == 1 + ops.count("update")
