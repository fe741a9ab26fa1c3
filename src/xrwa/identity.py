"""Decentralized identifier lifecycle over the world registry.

Identifiers under the native "xrwa" method support create / resolve /
update / deactivate; the suffix of a native identifier is the hex digest of
its version-1 document, so anyone can recheck the binding. Foreign methods
("did:ion:...", "did:web:...") parse and are stored as opaque strings only.

Deactivated identifiers still resolve, with their status visible: verifiers
must be able to distinguish revoked from never-existed, so "non-resolvable"
is realized as "unusable for authorization" rather than as deletion.

A key controls at most one DID: `did_create` and `did_update` refuse a
controller key that another DID holds (`DuplicateController`), and a key
that is not an account key (`ledger.account`: 32 `bytes`) with
`MalformedArtifact`. The registry is the one record of key control:
`World.controller_index` is a view that maps each active head's controller
key to its DID, built on each read.

The registry is world-level state hosted on `REGISTRY_CHAIN`, the first
chain, where DID and credential status-list operations are logged. A
registry entry (`DidEntry`) is a frozen value: each lifecycle step stores a
new entry in `World.did_registry` and never edits one.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from . import canonical
from .errors import (
    AlreadyDeactivated,
    BadSignature,
    Deactivated,
    DuplicateController,
    InvariantViolation,
    IssuerDeactivated,
    NotFound,
    VersionSkew,
)
from .ledger import CHAINS, World, account
from .primitives import KeyPair, digest, sign, verify_sig

__all__ = [
    "Did",
    "DidDocument",
    "DidEntry",
    "REGISTRY_CHAIN",
    "did_create",
    "did_resolve",
    "did_update",
    "did_deactivate",
    "controlled_did",
    "issuer_status",
    "update_signature",
    "deactivate_signature",
    "check_authorization",
]

NATIVE_METHOD = "xrwa"


@dataclass(frozen=True)
class Did:
    method: str
    id_string: str

    @property
    def text(self) -> str:
        return f"did:{self.method}:{self.id_string}"

    @classmethod
    def parse(cls, text: str) -> "Did":
        parts = text.split(":", 2)
        if len(parts) != 3 or parts[0] != "did" or not parts[1] or not parts[2]:
            raise ValueError(f"not a did: {text!r}")
        return cls(method=parts[1], id_string=parts[2])


@dataclass(frozen=True)
class DidDocument:
    did: str
    controller_pk: bytes
    verification_methods: tuple[tuple[str, bytes], ...]
    service_endpoints: tuple[tuple[str, str, str], ...]
    version: int
    status: str  # "Active" | "Deactivated"

    def to_json(self) -> dict:
        return {
            "did": self.did,
            "controllerPk": canonical.to_hex(self.controller_pk),
            "verificationMethods": [
                {"id": kid, "publicKey": canonical.to_hex(pk)}
                for kid, pk in self.verification_methods
            ],
            "serviceEndpoints": [
                {"id": sid, "type": typ, "uri": uri}
                for sid, typ, uri in self.service_endpoints
            ],
            "version": self.version,
            "status": self.status,
        }

    def binding_json(self) -> dict:
        """Document body without the did field, used to derive the suffix."""
        body = self.to_json()
        del body["did"]
        return body

    def canonical_bytes(self) -> bytes:
        return canonical.dumps_bytes(self.to_json())


@dataclass(frozen=True)
class DidEntry:
    versions: tuple[DidDocument, ...]
    # (action, signature) per head change after creation, kept for audit
    authorizations: tuple[tuple[str, bytes], ...] = ()

    @property
    def head(self) -> DidDocument:
        return self.versions[-1]

    def to_json(self) -> dict:
        return {
            "versions": [doc.to_json() for doc in self.versions],
            "authorizations": [
                {"action": action, "sig": canonical.to_hex(sig)}
                for action, sig in self.authorizations
            ],
        }


REGISTRY_CHAIN = CHAINS[0]


def _entry(world: World, did: str) -> DidEntry:
    entry = world.did_registry.get(did)
    if entry is None:
        raise NotFound(f"no document for {did}")
    return entry


def _deactivate_message(did: str, version: int) -> bytes:
    return canonical.dumps_bytes({"deactivate": did, "version": version})


def did_create(world: World, keypair: KeyPair) -> tuple[Did, DidDocument]:
    bound = world.controller_index.get(account(keypair.pk))
    if bound is not None:
        raise DuplicateController(f"controller key already bound to {bound}")
    seed_doc = DidDocument(
        did="",
        controller_pk=keypair.pk,
        verification_methods=(("key-1", keypair.pk),),
        service_endpoints=(),
        version=1,
        status="Active",
    )
    suffix = digest(canonical.dumps_bytes(seed_doc.binding_json())).hex()
    did = Did(method=NATIVE_METHOD, id_string=suffix)
    doc = dataclasses.replace(seed_doc, did=did.text)
    world.did_registry[did.text] = DidEntry(versions=(doc,))
    world.log_op(REGISTRY_CHAIN, "did_create", descriptor={"did": did.text})
    return did, doc


def did_resolve(world: World, did: str) -> DidDocument:
    return _entry(world, did).head


def resolve_version(world: World, did: str, version: int) -> DidDocument:
    for doc in _entry(world, did).versions:
        if doc.version == version:
            return doc
    raise NotFound(f"{did} has no version {version}")


def controlled_did(world: World, pk: bytes) -> str:
    """The active DID whose current controller key is `pk`.

    Raises IssuerDeactivated when the DID that `pk` controls is deactivated
    and NotFound when `pk` controls none; a key that `did_update` rotated
    away controls none.
    """
    did = world.controller_index.get(canonical.to_hex(pk))
    if did is not None:
        return did
    for text, entry in world.did_registry.items():
        if entry.head.controller_pk == pk:
            raise IssuerDeactivated(f"issuer did {text} is deactivated")
    raise NotFound("key controls no registered did")


def issuer_status(world: World, did: str) -> Optional[str]:
    """Why `did` cannot act as an issuer ("IssuerUnknown" when it is not
    registered, "IssuerDeactivated" when its head is deactivated), or None."""
    try:
        head = _entry(world, did).head
    except NotFound:
        return "IssuerUnknown"
    return None if head.status == "Active" else "IssuerDeactivated"


def update_signature(keypair: KeyPair, new_doc: DidDocument) -> bytes:
    return sign(keypair.sk, new_doc.canonical_bytes())


def did_update(world: World, did: str, new_doc: DidDocument, controller_sig: bytes) -> DidDocument:
    entry = _entry(world, did)
    head = entry.head
    if head.status != "Active":
        raise Deactivated(f"{did} is deactivated")
    if new_doc.version != head.version + 1:
        raise VersionSkew(
            f"expected version {head.version + 1}, update carries {new_doc.version}"
        )
    if new_doc.did != did:
        raise BadSignature("update document names a different did")
    if new_doc.status != "Active":
        raise BadSignature("updates cannot change lifecycle status")
    key = account(new_doc.controller_pk)
    if not verify_sig(head.controller_pk, new_doc.canonical_bytes(), controller_sig):
        raise BadSignature("update not authorized by the current controller")
    bound = world.controller_index.get(key, did)
    if bound != did:
        raise DuplicateController(f"controller key already bound to {bound}")
    world.did_registry[did] = DidEntry(
        entry.versions + (new_doc,), entry.authorizations + (("update", controller_sig),)
    )
    world.log_op(REGISTRY_CHAIN, "did_update", descriptor={"did": did, "v": new_doc.version})
    return new_doc


def deactivate_signature(keypair: KeyPair, did: str, version: int) -> bytes:
    return sign(keypair.sk, _deactivate_message(did, version))


def did_deactivate(world: World, did: str, controller_sig: bytes) -> None:
    entry = _entry(world, did)
    head = entry.head
    if head.status != "Active":
        raise AlreadyDeactivated(f"{did} is already deactivated")
    if not verify_sig(head.controller_pk, _deactivate_message(did, head.version), controller_sig):
        raise BadSignature("deactivation not authorized by the current controller")
    world.did_registry[did] = DidEntry(
        entry.versions[:-1] + (dataclasses.replace(head, status="Deactivated"),),
        entry.authorizations + (("deactivate", controller_sig),),
    )
    world.log_op(REGISTRY_CHAIN, "did_deactivate", descriptor={"did": did})


def check_authorization(world: World) -> None:
    """Audit: no two active heads share a controller key, and every head
    change carries a signature verifying under the controller key it
    replaced (or deactivated)."""
    keys = [canonical.to_hex(e.head.controller_pk) for e in world.did_registry.values() if e.head.status == "Active"]
    if len(set(keys)) != len(keys):
        raise InvariantViolation("two active dids share a controller key")
    for did, entry in world.did_registry.items():
        deactivated = entry.head.status == "Deactivated"
        transitions = len(entry.versions) - 1 + (1 if deactivated else 0)
        if transitions != len(entry.authorizations):
            raise InvariantViolation(f"{did}: {transitions} head changes, {len(entry.authorizations)} authorizations")
        for prev, cur, (action, sig) in zip(entry.versions, entry.versions[1:], entry.authorizations):
            live = cur if cur.status == "Active" else dataclasses.replace(cur, status="Active")
            if action != "update" or not verify_sig(prev.controller_pk, live.canonical_bytes(), sig):
                raise InvariantViolation(f"{did}: unauthorized update to version {cur.version}")
        if deactivated:
            action, sig = entry.authorizations[-1]
            message = _deactivate_message(did, entry.head.version)
            if action != "deactivate" or not verify_sig(entry.head.controller_pk, message, sig):
                raise InvariantViolation(f"{did}: unauthorized deactivation")
