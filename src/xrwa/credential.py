"""Composite credentials for tokenized real-world assets.

A credential has four sections (asset, identity, compliance, custody), each
independently revocable and provable, plus a top-level proof over the four
section hashes. Section bodies are canonical JSON objects using camelCase
field names; the canonical serialization is also what size measurements run
over. `FIELD_RULES` is the schema, one table of every section field and its
type: a request carries every one of them, nothing fills in a missing one,
and `issue` refuses an incomplete or mistyped request with MissingField
before it allocates anything. A request is the bytes its holder signed
(`CredentialRequest.body`); `issue` checks the signature over them, then
decodes fresh sections from them, so nothing issued can drift from what was
signed or share with its caller.

Selective disclosure is a hash-commitment scheme, not zero knowledge:

- every top-level section field gets a per-field digest
  fd = digest("xrwa/field/v1" | salt | selector | canonical(value)),
  with the salt derived from a per-credential secret nonce;
- a section hash commits to the selector-sorted sequence of field digests;
- the top proof signs digest(asset_hash | identity_hash | compliance_hash |
  custody_hash) along with the credential id and holder binding;
- a presentation reveals (salt, value) for chosen selectors and bare field
  digests for the rest, so undisclosed values never appear in its bytes.

`issue` keeps the salts, field digests and section hashes it computed on the
credential it returns, and `prove` reads them instead of re-encoding every
field; only the verifier recomputes (`verify`, and `audit_credential`, which
recomputes from the sections).

Revocation and suspension live in issuer-owned status lists held by the
world. Each section is allocated one index, valid in both of the issuer's
lists (revocation flips one way; suspension is reversible). `revoke`,
`suspend` and `reinstate` name a section and act on the lists its status
entry names, which must be the acting issuer's own. The asset
section is always consulted during verification regardless of disclosure,
since it carries the token binding that gives the credential meaning.

Dates are ISO-8601 strings compared lexicographically after syntactic
validation; there is no timezone arithmetic anywhere in this module.
"""

from __future__ import annotations

import functools
import hashlib
import re
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, NamedTuple, Optional

from . import canonical
from .errors import (
    BadSignature,
    IssuerDeactivated,
    MalformedArtifact,
    MissingField,
    NotFound,
    NotOwner,
    StatusListFull,
    UnknownSelector,
)
from .identity import REGISTRY_CHAIN, Did, controlled_did, did_resolve, issuer_status, resolve_version
from .ledger import World
from .primitives import KeyPair, digest, length_prefixed, read_field, sign, verify_sig

__all__ = [
    "SECTIONS",
    "StatusList",
    "status_list_uri",
    "SectionProof",
    "CredentialRequest",
    "CompositeCredential",
    "Presentation",
    "VerifyResult",
    "request",
    "issue",
    "prove",
    "verify",
    "status_clear",
    "consulted_status",
    "revoke",
    "suspend",
    "reinstate",
    "audit_credential",
    "canonical_serialize",
    "measured_size_kb",
    "selectors_of",
]

_FIELD_DOMAIN = b"xrwa/field/v1"
_SALT_DOMAIN = b"xrwa/salt/v1"
_SECTION_DOMAIN = b"xrwa/section/v1"

# A field's rule is (kind, test or None, what): its value's type must be
# `kind` exactly (a bool is not an int), and `test`, if any, must return a
# true value without raising ValueError; `what` names the rule in a refusal.
# A dict states an object's required fields, a one-item list the rule every
# item of a list meets.
_TEXT = (str, None, "text")
_NON_EMPTY = (str, bool, "non-empty text")
_DID = (str, Did.parse, "a DID")
_DIGEST = (str, lambda v: len(canonical.from_hex(v)) == 32, "a 32-byte digest, as 0x-prefixed digest hex")
_DATE = (str, re.compile(r"^\d{4}-\d{2}-\d{2}$").match, "an ISO date (YYYY-MM-DD)")
_POSITIVE = (int, lambda v: v >= 1, "an integer >= 1")
_LIST = (list, None, "a list")

FIELD_RULES: dict[str, dict] = {
    "asset": {
        "assetId": _DID,
        "assetType": _NON_EMPTY,
        "category": _TEXT,
        "classDid": _DID,
        "tokenBinding": {
            "standard": _NON_EMPTY,
            "chain": (str, lambda v: ":" in v, "non-empty namespace:reference"),
            "contract": _NON_EMPTY,
            "tokenId": _NON_EMPTY,
        },
    },
    "identity": {
        "schemaVersion": _POSITIVE,
        "identitySchema": _TEXT,
        "identifiers": _LIST,
        "taxonomies": _LIST,
        # an optional geometry too, checked with the rules across fields
        "spatialFootprint": {"encoding": _TEXT, "granularity": _TEXT},
        "documents": [{"hash": _DIGEST}],
        "relations": _LIST,
        "attributes": _LIST,
        "custom": {},
    },
    "compliance": {
        "licenseId": _TEXT,
        "sellableRegions": [_TEXT],
        "restrictions": [_TEXT],
        "effectiveFrom": _DATE,
        "effectiveTo": _DATE,
        "regulatorDid": _DID,
    },
    "custody": {
        "custodianDid": _DID,
        "location": _TEXT,
        "policy": _TEXT,
        "auditCycleDays": _POSITIVE,
        "insurancePolicyRef": {"hash": _DIGEST},
    },
}

SECTIONS = tuple(FIELD_RULES)

STATUS_LIST_CAPACITY = 4096


# ------------------------------------------------------------ status lists --

@functools.lru_cache(maxsize=256)
def status_list_uri(issuer_did: str, purpose: str) -> str:
    """Where the issuer's status list of `purpose` ("Revocation" or
    "Suspension") lives in `World.status_lists`; a pure function of its two
    strings, so recent answers are kept."""
    suffix = Did.parse(issuer_did).id_string[:16]
    return f"urn:xrwa:status:{suffix}:{purpose.lower()}"


@dataclass
class StatusList:
    """Issuer-owned bit list; one bit per allocated section index."""

    issuer: str
    purpose: str  # "Revocation" | "Suspension"
    bits: bytearray = field(default_factory=lambda: bytearray(STATUS_LIST_CAPACITY // 8))
    version: int = 1
    next_index: int = 0

    @property
    def uri(self) -> str:
        return status_list_uri(self.issuer, self.purpose)

    def fork(self) -> "StatusList":
        """The copy `World.fork` keeps: the same list with its own bits."""
        return StatusList(self.issuer, self.purpose, bytearray(self.bits), self.version, self.next_index)

    def bit(self, index: int) -> int:
        if not 0 <= index < STATUS_LIST_CAPACITY:
            raise IndexError(f"status index {index} outside list")
        return (self.bits[index // 8] >> (index % 8)) & 1

    def set_bit(self, index: int) -> None:
        self.bits[index // 8] |= 1 << (index % 8)
        self.version += 1

    def clear_bit(self, index: int) -> None:
        if self.purpose == "Revocation":
            raise ValueError("revocation bits are one-directional")
        self.bits[index // 8] &= ~(1 << (index % 8))
        self.version += 1

    def allocate(self, count: int) -> int:
        """The first of the next `count` indices, or StatusListFull, moving nothing."""
        if self.next_index + count > STATUS_LIST_CAPACITY:
            raise StatusListFull(f"{self.uri} has fewer than {count} of {STATUS_LIST_CAPACITY} entries left")
        self.next_index += count
        return self.next_index - count

    def to_json(self) -> dict:
        return {
            "issuer": self.issuer,
            "purpose": self.purpose,
            "bits": canonical.to_hex(bytes(self.bits)),
            "version": self.version,
            "nextIndex": self.next_index,
        }


def _issuer_lists(world: World, issuer_did: str) -> tuple[StatusList, StatusList]:
    """Fetch or create the issuer's revocation and suspension lists."""

    def fetch(purpose: str) -> StatusList:
        uri = status_list_uri(issuer_did, purpose)
        if uri not in world.status_lists:
            world.status_lists[uri] = StatusList(issuer=issuer_did, purpose=purpose)
        return world.status_lists[uri]

    return fetch("Revocation"), fetch("Suspension")


# ------------------------------------------------- commitments and hashing --

class Commitments(NamedTuple):
    """What a credential commits to: each selector's salt, each section's
    field digests (selector to digest) and each section's hash."""

    salts: dict[str, bytes]
    digests: dict[str, dict[str, bytes]]
    hashes: dict[str, bytes]


def field_digest(selector: str, value: Any, salt: bytes) -> bytes:
    h = hashlib.sha256(_FIELD_DOMAIN)
    h.update(length_prefixed(salt))
    h.update(length_prefixed(selector.encode("utf-8")))
    h.update(length_prefixed(canonical.dumps_bytes(value)))
    return h.digest()


def section_hash_from_digests(digests: Mapping[str, bytes]) -> bytes:
    h = hashlib.sha256(_SECTION_DOMAIN)
    for selector in sorted(digests):
        h.update(length_prefixed(selector.encode("utf-8")))
        h.update(digests[selector])
    return h.digest()


def section_commitments(sections: Mapping[str, Mapping[str, Any]], nonce: bytes) -> Commitments:
    """Salt, field digest and section hash of every field of every section;
    a salt is digest(_SALT_DOMAIN | nonce | selector)[:16]."""
    salter = hashlib.sha256(_SALT_DOMAIN + nonce)
    salts: dict[str, bytes] = {}
    digests: dict[str, dict[str, bytes]] = {}
    for name in SECTIONS:
        field_digests = digests[name] = {}
        for key, value in sections[name].items():
            if key == "sProof":
                continue
            selector = f"{name}.{key}"
            h = salter.copy()
            h.update(selector.encode("utf-8"))
            salt = salts[selector] = h.digest()[:16]
            field_digests[selector] = field_digest(selector, value, salt)
    hashes = {name: section_hash_from_digests(d) for name, d in digests.items()}
    return Commitments(salts, digests, hashes)


def top_hash(section_hashes: Mapping[str, bytes]) -> bytes:
    return digest(b"".join(section_hashes[s] for s in SECTIONS))


# ------------------------------------------------------------------ proofs --

@dataclass(frozen=True)
class SectionProof:
    issuer: str
    issued: str
    expires: str
    section_hash: bytes
    proof_value: bytes
    issuer_key_version: int
    proof_purpose: str = "assertionMethod"

    def to_json(self) -> dict:
        return {
            "issuer": self.issuer,
            "issued": self.issued,
            "expires": self.expires,
            "proofPurpose": self.proof_purpose,
            "sectionHash": canonical.to_hex(self.section_hash),
            "proofValue": canonical.to_hex(self.proof_value),
            "issuerKeyVersion": self.issuer_key_version,
        }

    @classmethod
    def from_json(cls, data: dict) -> "SectionProof":
        """Raises `MalformedArtifact` on a field `read_field` refuses."""
        return cls(
            issuer=read_field(data, "issuer", str),
            issued=read_field(data, "issued", str),
            expires=read_field(data, "expires", str),
            section_hash=read_field(data, "sectionHash", bytes),
            proof_value=read_field(data, "proofValue", bytes),
            issuer_key_version=read_field(data, "issuerKeyVersion", int),
            proof_purpose=read_field(data, "proofPurpose", str),
        )

    def message(self, credential_id: str, section: str, holder_pk: Optional[bytes] = None) -> bytes:
        """What the issuer signs: this proof's fields under the credential id
        and the section name ("top" for the top proof, which also binds the
        holder key)."""
        body = {
            "credentialId": credential_id,
            "expires": self.expires,
            "issued": self.issued,
            "issuer": self.issuer,
            "issuerKeyVersion": self.issuer_key_version,
            "proofPurpose": self.proof_purpose,
            "section": section,
            "sectionHash": canonical.to_hex(self.section_hash),
        }
        if holder_pk is not None:
            body["holderPk"] = canonical.to_hex(holder_pk)
        return canonical.dumps_bytes(body)


# -------------------------------------------------------------- credential --

@dataclass(frozen=True)
class CredentialRequest:
    """A holder's signature over `body`, the canonical encoding of its sections."""

    body: bytes
    holder_pk: bytes
    sig: bytes

    def verify(self) -> bool:
        return verify_sig(self.holder_pk, self.body, self.sig)

    def sections(self) -> dict[str, dict]:
        """Each of `SECTIONS` freshly decoded from `body`, a missing one
        empty; `MalformedArtifact` unless body and sections are objects and
        their text can be encoded again."""
        try:
            items = canonical.loads(self.body)
        except ValueError:  # not JSON, or not UTF-8
            items = None
        sections = {name: items.get(name, {}) for name in SECTIONS} if isinstance(items, dict) else None
        if sections is None or not all(isinstance(section, dict) for section in sections.values()):
            raise MalformedArtifact("request body is not an object of section objects")
        # valid UTF-8 holds no lone surrogate, but a \u escape can decode to
        # one, which issue could not encode once it had allocated indices
        if b"\\u" in self.body:
            try:
                canonical.dumps_bytes(sections)
            except UnicodeEncodeError:
                raise MalformedArtifact("request body escapes a lone surrogate") from None
        return sections


@dataclass(frozen=True)
class CompositeCredential:
    """Issued four-section credential; `sections` maps name to body dict
    (body includes sStatus, excludes sProof)."""

    id: str
    holder_pk: bytes
    disclosure_nonce: bytes
    sections: dict[str, dict]
    section_proofs: dict[str, SectionProof]
    top_proof: SectionProof

    @property
    def asset(self) -> dict:
        return self.sections["asset"]

    @property
    def issuer(self) -> str:
        return self.top_proof.issuer

    def commitments(self) -> Commitments:
        """The salts, field digests and section hashes `issue` computed, kept
        on the instance outside the dataclass fields, so `==`, `to_json` and
        `dataclasses.replace` ignore them; a credential built another way
        computes them from its sections on first use and keeps them. An
        in-place edit of `sections` leaves them as issued: `verify` refuses
        an edited value disclosed under its issued digest."""
        kept = self.__dict__.get("_commitments")
        if kept is None:
            kept = section_commitments(self.sections, self.disclosure_nonce)
            object.__setattr__(self, "_commitments", kept)
        return kept

    def section_hashes(self) -> dict[str, bytes]:
        """Recomputed from the sections on every call."""
        return section_commitments(self.sections, self.disclosure_nonce).hashes

    def status_ref(self, section: str) -> dict:
        return self.sections[section]["sStatus"]

    def to_json(self) -> dict:
        doc: dict[str, Any] = {"id": self.id}
        for name in SECTIONS:
            body = dict(self.sections[name])
            body["sProof"] = self.section_proofs[name].to_json()
            doc[name] = body
        doc["holderPk"] = canonical.to_hex(self.holder_pk)
        doc["disclosureNonce"] = canonical.to_hex(self.disclosure_nonce)
        doc["proof"] = self.top_proof.to_json()
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "CompositeCredential":
        """Raises `MalformedArtifact` on a field `read_field` refuses."""
        sections = {}
        proofs = {}
        for name in SECTIONS:
            body = dict(read_field(doc, name, dict))
            proofs[name] = SectionProof.from_json(read_field(body, "sProof", dict))
            del body["sProof"]
            sections[name] = body
        return cls(
            id=read_field(doc, "id", str),
            holder_pk=read_field(doc, "holderPk", bytes),
            disclosure_nonce=read_field(doc, "disclosureNonce", bytes),
            sections=sections,
            section_proofs=proofs,
            top_proof=SectionProof.from_json(read_field(doc, "proof", dict)),
        )


def canonical_serialize(cred: CompositeCredential) -> bytes:
    return canonical.dumps_bytes(cred.to_json())


def measured_size_kb(cred: CompositeCredential) -> float:
    return round(len(canonical_serialize(cred)) / 1024, 2)


def selectors_of(cred: CompositeCredential) -> list[str]:
    out = []
    for name in SECTIONS:
        out.extend(f"{name}.{key}" for key in cred.sections[name] if key != "sProof")
    return sorted(out)


# -------------------------------------------------------------- validation --

def _check(rules: Any, value: Any, where: str) -> None:
    """MissingField unless `value`, found at `where`, meets `rules`, a node
    of `FIELD_RULES`."""
    if type(rules) is dict:
        if type(value) is not dict:
            raise MissingField(f"{where} must be an object, got {value!r}")
        for key, rule in rules.items():
            if key not in value:
                raise MissingField(f"{where}.{key} is required")
            _check(rule, value[key], f"{where}.{key}")
    elif type(rules) is list:
        if type(value) is not list:
            raise MissingField(f"{where} must be a list, got {value!r}")
        for item in value:
            _check(rules[0], item, f"{where}[]")
    else:
        kind, test, what = rules
        try:
            ok = type(value) is kind and (test is None or test(value))
        except ValueError:
            ok = False
        if not ok:
            raise MissingField(f"{where} must be {what}, got {value!r}")


def _validate_sections(sections: Mapping[str, Mapping[str, Any]]) -> None:
    for name, rules in FIELD_RULES.items():
        _check(rules, sections[name], name)
    comp = sections["compliance"]
    if comp["effectiveFrom"] > comp["effectiveTo"]:
        raise MissingField("compliance.effectiveFrom must not be after effectiveTo")
    where = "identity.spatialFootprint.geometry"
    geometry = sections["identity"]["spatialFootprint"].get("geometry", {})
    _check({}, geometry, where)
    if geometry.get("type") == "Polygon":
        _check({"coordinates": [(list, None, "a ring of points")]}, geometry, where)
        if any(ring and ring[0] != ring[-1] for ring in geometry["coordinates"]):
            raise MissingField("polygon rings must close (first point == last point)")


# -------------------------------------------------------------- operations --

def request(items: Mapping[str, Any], holder: KeyPair) -> CredentialRequest:
    """Holder-signed canonical request for a credential over `items`, a map
    of section name to section content, encoded once. Refuses items whose
    asset type or id breaks its `FIELD_RULES` row with MissingField, and
    text UTF-8 cannot encode, such as a lone surrogate, with
    MalformedArtifact."""
    asset = items.get("asset") or {}
    if not isinstance(asset, dict):
        raise MalformedArtifact("request section asset is not an object")
    _check({key: FIELD_RULES["asset"][key] for key in ("assetType", "assetId")}, asset, "asset")
    try:
        body = canonical.dumps_bytes(dict(items))
    except UnicodeEncodeError:
        raise MalformedArtifact("request items hold text that is not valid Unicode") from None
    return CredentialRequest(body=body, holder_pk=holder.pk, sig=sign(holder.sk, body))


def issue(world: World, req: CredentialRequest, issuer: KeyPair) -> CompositeCredential:
    """Issue a four-section credential against a holder request.

    Decodes the sections from the signed body once the signature holds,
    allocates one status-list index per section, computes per-field
    commitments, keeps them on the credential (`commitments`), and signs
    four section proofs plus the top proof.
    """
    issuer_did = controlled_did(world, issuer.pk)
    key_version = did_resolve(world, issuer_did).version
    if not req.verify():
        raise BadSignature("request signature does not verify under holder key")

    sections = req.sections()
    _validate_sections(sections)
    revocation, suspension = _issuer_lists(world, issuer_did)
    first = revocation.allocate(len(SECTIONS))
    if suspension.allocate(len(SECTIONS)) != first:
        raise StatusListFull("status list index spaces diverged")
    for index, name in enumerate(SECTIONS, first):
        sections[name]["sStatus"] = {
            "statusPurpose": "Revocation",
            "statusListCredential": revocation.uri,
            "statusListIndex": index,
        }

    nonce = world.rng.randbytes(32)
    cred_id = "did:xrwa:" + digest(
        b"xrwa/credid/v1" + nonce + issuer_did.encode() + sections["asset"]["assetId"].encode()
    ).hex()

    issued = world.config.current_date + "T00:00:00Z"
    year = int(world.config.current_date[:4])
    expires = f"{year + 1}{world.config.current_date[4:]}T00:00:00Z"

    commitments = section_commitments(sections, nonce)
    hashes = {**commitments.hashes, "top": top_hash(commitments.hashes)}
    proofs = {}
    for name, section_hash in hashes.items():
        proof = SectionProof(
            issuer=issuer_did,
            issued=issued,
            expires=expires,
            section_hash=section_hash,
            proof_value=b"",
            issuer_key_version=key_version,
        )
        message = proof.message(cred_id, name, req.holder_pk if name == "top" else None)
        # the proof has not escaped, so filling in its frozen field is safe
        object.__setattr__(proof, "proof_value", sign(issuer.sk, message))
        proofs[name] = proof
    top_proof = proofs.pop("top")
    cred = CompositeCredential(
        id=cred_id,
        holder_pk=req.holder_pk,
        disclosure_nonce=nonce,
        sections=sections,
        section_proofs=proofs,
        top_proof=top_proof,
    )
    object.__setattr__(cred, "_commitments", commitments)
    return cred


# ------------------------------------------------------------ presentation --

def _hex_map(data: dict) -> dict[str, bytes]:
    """The bytes of every 0x-hex value of a decoded JSON object."""
    return {key: read_field(data, key, bytes) for key in data}


@dataclass(frozen=True)
class Presentation:
    credential_id: str
    holder_pk: bytes
    disclosed: dict[str, Any]
    field_salts: dict[str, bytes]
    section_digests: dict[str, dict[str, bytes]]
    section_hashes: dict[str, bytes]
    top_proof: SectionProof
    holder_sig: bytes

    @property
    def issuer(self) -> str:
        return self.top_proof.issuer

    def body_json(self) -> dict:
        return {
            "credentialId": self.credential_id,
            "holderPk": canonical.to_hex(self.holder_pk),
            "disclosed": self.disclosed,
            "fieldSalts": {k: canonical.to_hex(v) for k, v in self.field_salts.items()},
            "sectionDigests": {
                sec: {k: canonical.to_hex(v) for k, v in digests.items()}
                for sec, digests in self.section_digests.items()
            },
            "sectionHashes": {k: canonical.to_hex(v) for k, v in self.section_hashes.items()},
            "proof": self.top_proof.to_json(),
        }

    def to_json(self) -> dict:
        out = self.body_json()
        out["holderSignature"] = canonical.to_hex(self.holder_sig)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Presentation":
        """Raises `MalformedArtifact` on a field `read_field` refuses."""
        digests = read_field(data, "sectionDigests", dict)
        return cls(
            credential_id=read_field(data, "credentialId", str),
            holder_pk=read_field(data, "holderPk", bytes),
            disclosed=read_field(data, "disclosed", dict),
            field_salts=_hex_map(read_field(data, "fieldSalts", dict)),
            section_digests={sec: _hex_map(read_field(digests, sec, dict)) for sec in digests},
            section_hashes=_hex_map(read_field(data, "sectionHashes", dict)),
            top_proof=SectionProof.from_json(read_field(data, "proof", dict)),
            holder_sig=read_field(data, "holderSignature", bytes),
        )

    def serialize(self) -> bytes:
        return canonical.dumps_bytes(self.to_json())


def _json_copy(value: Any) -> Any:
    """A copy of a decoded JSON value that shares no dict or list with it."""
    if isinstance(value, dict):
        return {key: _json_copy(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_json_copy(item) for item in value]
    return value


def _consulted_sections(selectors: Iterable[str]) -> set[str]:
    """The sections whose sStatus a presentation carries and a verifier
    consults: asset, and every section with a disclosed field."""
    return {sel.split(".", 1)[0] for sel in selectors} | {"asset"}


def prove(cred: CompositeCredential, holder: KeyPair, disclosure: Iterable[str]) -> Presentation:
    """Build a presentation disclosing exactly the selected fields, plus the
    sStatus of every consulted section (`_consulted_sections`), from the
    credential's kept commitments (`CompositeCredential.commitments`)."""
    kept = cred.commitments()
    requested = set(disclosure)
    unknown = requested.difference(kept.salts)
    if unknown:
        raise UnknownSelector(f"no such fields: {sorted(unknown)}")

    touched = _consulted_sections(requested)
    effective = requested | {f"{section}.sStatus" for section in touched}
    disclosed: dict[str, Any] = {}
    salts: dict[str, bytes] = {}
    for sel in sorted(effective):
        section, key = sel.split(".", 1)
        disclosed[sel] = _json_copy(cred.sections[section][key])
        salts[sel] = kept.salts[sel]

    # fresh dicts and lists throughout, so the presentation never aliases the
    # credential or its kept commitments
    presentation = Presentation(
        credential_id=cred.id,
        holder_pk=cred.holder_pk,
        disclosed=disclosed,
        field_salts=salts,
        section_digests={sec: dict(kept.digests[sec]) for sec in sorted(touched)},
        section_hashes=dict(kept.hashes),
        top_proof=cred.top_proof,
        holder_sig=b"",
    )
    # the presentation has not escaped, so filling in its frozen field is safe
    sig = sign(holder.sk, canonical.dumps_bytes(presentation.body_json()))
    object.__setattr__(presentation, "holder_sig", sig)
    return presentation


# ------------------------------------------------------------ verification --

@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: Optional[str] = None
    detail: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return f"{self.reason}({self.detail})" if self.detail else str(self.reason)


def _fail(reason: str, detail: Optional[str] = None) -> VerifyResult:
    return VerifyResult(ok=False, reason=reason, detail=detail)


def status_clear(world: World, status_ref: Mapping[str, Any], section: str) -> Optional[VerifyResult]:
    rev_uri = status_ref["statusListCredential"]
    index = status_ref["statusListIndex"]
    revocation = world.status_lists.get(rev_uri)
    if revocation is None:
        return _fail("StatusListMissing", section)
    if not isinstance(index, int) or not 0 <= index < revocation.next_index:
        return _fail("StatusIndexOutOfRange", section)
    if revocation.bit(index):
        return _fail("SectionRevoked", section)
    suspension = world.status_lists.get(status_list_uri(revocation.issuer, "Suspension"))
    if suspension is not None and suspension.bit(index):
        return _fail("SectionSuspended", section)
    return None


def consulted_status(world: World, presentation: Presentation) -> Optional[VerifyResult]:
    """First status failure among the consulted sections
    (`_consulted_sections`), or None when all of them are clear."""
    for section in sorted(_consulted_sections(presentation.disclosed)):
        ref = presentation.disclosed.get(f"{section}.sStatus")
        if ref is None:
            return _fail("StatusListMissing", section)
        failure = status_clear(world, ref, section)
        if failure is not None:
            return failure
    return None


def _proof_failure(
    world: World,
    proof: SectionProof,
    credential_id: str,
    section: str,
    holder_pk: Optional[bytes],
) -> Optional[VerifyResult]:
    """Issuer status, key version and signature of one proof; the first
    failure, or None when the proof holds."""
    status = issuer_status(world, proof.issuer)
    if status is not None:
        return _fail(status, proof.issuer)
    try:
        issuer_doc = resolve_version(world, proof.issuer, proof.issuer_key_version)
    except NotFound:
        return _fail("IssuerKeyVersionUnknown", proof.issuer)
    message = proof.message(credential_id, section, holder_pk)
    if not verify_sig(issuer_doc.controller_pk, message, proof.proof_value):
        return _fail("BadIssuerSignature", section)
    return None


def verify(world: World, presentation: Presentation, chain: Optional[str] = None) -> VerifyResult:
    """Full presentation verification; False results carry a structured reason.

    Checks, in order: hash consistency of every disclosed field and section,
    the top proof binding, issuer signature and registry status, holder
    signature, status bits of consulted sections (disclosed plus asset), and
    disclosed effective windows against the world's current date.

    Counts as one full credential-signature verification on `chain`.
    """
    world.count_verification(chain)

    # field digests of disclosed values must match the committed digests
    for sel, value in presentation.disclosed.items():
        section = sel.split(".", 1)[0]
        digests = presentation.section_digests.get(section)
        if digests is None or sel not in digests:
            return _fail("HashMismatch", sel)
        salt = presentation.field_salts.get(sel)
        if salt is None or field_digest(sel, value, salt) != digests[sel]:
            return _fail("HashMismatch", sel)

    # disclosed sections' hashes must recompute from their digest lists
    for section, digests in presentation.section_digests.items():
        if section_hash_from_digests(digests) != presentation.section_hashes.get(section):
            return _fail("HashMismatch", section)

    if set(presentation.section_hashes) != set(SECTIONS):
        return _fail("HashMismatch", "sectionHashes")
    if top_hash(presentation.section_hashes) != presentation.top_proof.section_hash:
        return _fail("HashMismatch", "top")

    failure = _proof_failure(
        world, presentation.top_proof, presentation.credential_id, "top", presentation.holder_pk
    )
    if failure is not None:
        return failure

    if not verify_sig(
        presentation.holder_pk,
        canonical.dumps_bytes(presentation.body_json()),
        presentation.holder_sig,
    ):
        return _fail("BadHolderSignature")

    now = world.config.current_date
    if presentation.top_proof.expires < now + "T00:00:00Z":
        return _fail("Expired")

    failure = consulted_status(world, presentation)
    if failure is not None:
        return failure

    frm = presentation.disclosed.get("compliance.effectiveFrom")
    to = presentation.disclosed.get("compliance.effectiveTo")
    if frm is not None and now < frm:
        return _fail("OutsideEffectiveWindow", f"not effective until {frm}")
    if to is not None and now > to:
        return _fail("OutsideEffectiveWindow", f"lapsed {to}")

    return VerifyResult(ok=True)


def audit_credential(world: World, cred: CompositeCredential) -> VerifyResult:
    """Verify the full credential in place: all four section proofs, then the
    top proof, each against its recomputed hash, the credential's issuer and
    the issuer's key. Counts as one full local verification."""
    world.count_verification(None)
    hashes = cred.section_hashes()
    hashes["top"] = top_hash(hashes)
    proofs = {**cred.section_proofs, "top": cred.top_proof}
    for name, section_hash in hashes.items():
        proof = proofs[name]
        if proof.section_hash != section_hash:
            return _fail("HashMismatch", name)
        if proof.issuer != cred.issuer:
            return _fail("IssuerMismatch", name)
        failure = _proof_failure(
            world, proof, cred.id, name, cred.holder_pk if name == "top" else None
        )
        if failure is not None:
            return failure
    return VerifyResult(ok=True)


# -------------------------------------------------------------- revocation --

def _status_change(
    world: World, cred: CompositeCredential, section: str, issuer: KeyPair, purpose: str, op: str
) -> StatusList:
    """Flip the section's bit in the issuer's list of `purpose` ("revoke"
    sets it, "reinstate" clears it) once `issuer` is shown to control an
    active DID and the section's status entry to name an allocated index of
    that DID's revocation list; a refusal moves nothing."""
    try:
        owner_did = controlled_did(world, issuer.pk)
    except (NotFound, IssuerDeactivated):
        raise BadSignature("key controls no active did") from None
    ref = cred.status_ref(section)
    index = ref["statusListIndex"]
    revocation = world.status_lists.get(status_list_uri(owner_did, "Revocation"))
    if revocation is None or ref["statusListCredential"] != revocation.uri:
        raise NotOwner(f"{section} status entry names no list of {owner_did}")
    if not isinstance(index, int) or not 0 <= index < revocation.next_index:
        raise NotOwner(f"{section} status index {index!r} was never allocated in {revocation.uri}")
    status_list = world.status_lists[status_list_uri(owner_did, purpose)]
    if op == "revoke":
        status_list.set_bit(index)
    else:
        status_list.clear_bit(index)
    world.log_op(
        REGISTRY_CHAIN, op,
        descriptor={"list": status_list.uri, "index": index, "v": status_list.version},
    )
    return status_list


def revoke(world: World, cred: CompositeCredential, section: str, issuer: KeyPair) -> StatusList:
    """Set the section's revocation bit, which nothing clears (idempotent on
    the bit; the list version still increments)."""
    return _status_change(world, cred, section, issuer, "Revocation", "revoke")


def suspend(world: World, cred: CompositeCredential, section: str, issuer: KeyPair) -> StatusList:
    """Set the section's suspension bit; `reinstate` clears it."""
    return _status_change(world, cred, section, issuer, "Suspension", "revoke")


def reinstate(world: World, cred: CompositeCredential, section: str, issuer: KeyPair) -> StatusList:
    """Clear the section's suspension bit."""
    return _status_change(world, cred, section, issuer, "Suspension", "reinstate")
