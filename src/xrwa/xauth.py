"""Cross-chain authentication: anchor once, prove inclusion, accept elsewhere.

The source chain carries a commitment transaction binding an asset id, the
digest of a presentation's disclosed subset, the token binding, an epoch
(source-chain height at anchoring) and a nonce. A destination chain that has
accepted the source header via relay can then authenticate the asset from
the compact inclusion proof alone.

The destination side performs digest and commitment recomputation plus
status and registry lookups only; it never re-runs credential signature
verification. That work happens exactly once, on the source chain, inside
``make_commitment``. What ties the unsigned presentation to that work is the
anchor's sender: ``authenticate`` accepts only an ``anchor`` transaction sent
by the current controller key of the presentation's issuer (the issuer of
its top proof), so a commitment anchored by anyone else vouches for nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from . import canonical
from .credential import Presentation, check_disclosed, consulted_status, verify as verify_presentation
from .errors import (
    AnchorNotFromIssuer,
    CommitmentMismatch,
    InvalidPresentation,
    InvariantViolation,
    IssuerDeactivated,
    JurisdictionBlocked,
    MalformedArtifact,
    Revoked,
    SpvFailed,
    TxNotInBlock,
)
from .identity import issuer_status
from .ledger import Block, BlockHeader, ChainId, Transaction, World, header_links
from .primitives import (
    KeyPair,
    MerklePath,
    digest,
    length_prefixed,
    merkle_path,
    merkle_verify,
    read_field,
    verify_sig,
)

__all__ = [
    "Commitment",
    "SpvProof",
    "AcceptanceRecord",
    "disclosed_subset_digest",
    "token_binding_digest",
    "make_commitment",
    "anchor",
    "spv_prove",
    "spv_verify",
    "authenticate",
    "has_acceptance",
]

_COMMIT_DOMAIN = b"xrwa/commit/v1"
_SUBSET_DOMAIN = b"xrwa/subset/v1"

NONCE_SIZE = 16


def disclosed_subset_digest(presentation: Presentation) -> bytes:
    """Digest of the disclosed subset: credential id, disclosed fields, and
    the four section hashes (so the subset pins one specific credential)."""
    body = {
        "credentialId": presentation.credential_id,
        "disclosed": presentation.disclosed,
        "sectionHashes": {
            k: canonical.to_hex(v) for k, v in sorted(presentation.section_hashes.items())
        },
    }
    return digest(_SUBSET_DOMAIN + canonical.dumps_bytes(body))


def token_binding_digest(token_binding: dict) -> bytes:
    return digest(canonical.dumps_bytes(token_binding))


def _epoch_fits(epoch: Any) -> bool:
    """An epoch is an int that a commitment encodes in 8 unsigned bytes."""
    return type(epoch) is int and 0 <= epoch < 1 << 64


@dataclass(frozen=True)
class Commitment:
    """Anchor payload: fixed-order, length-prefixed fields under a domain tag."""

    asset_id: str
    cred_digest: bytes
    token_binding_digest: bytes
    epoch: int
    nonce: bytes

    def commitment_digest(self) -> bytes:
        return digest(
            _COMMIT_DOMAIN
            + length_prefixed(self.asset_id.encode("utf-8"))
            + length_prefixed(self.cred_digest)
            + length_prefixed(self.token_binding_digest)
            + self.epoch.to_bytes(8, "big")
            + length_prefixed(self.nonce)
        )

    @property
    def slot(self) -> tuple[str, int, bytes]:
        """The (asset id, epoch, nonce) that one anchor at most may carry."""
        return (self.asset_id, self.epoch, self.nonce)

    def to_body(self) -> dict:
        return {
            "assetId": self.asset_id,
            "credDigest": canonical.to_hex(self.cred_digest),
            "tokenBindingDigest": canonical.to_hex(self.token_binding_digest),
            "epoch": self.epoch,
            "nonce": canonical.to_hex(self.nonce),
            "commitmentDigest": canonical.to_hex(self.commitment_digest()),
        }

    @classmethod
    def from_body(cls, body: dict) -> "Commitment":
        """Raises `MalformedArtifact` on a field `read_field` refuses or an
        epoch outside 8 unsigned bytes, `CommitmentMismatch` when the stored
        digest does not recompute."""
        c = cls(
            asset_id=read_field(body, "assetId", str),
            cred_digest=read_field(body, "credDigest", bytes),
            token_binding_digest=read_field(body, "tokenBindingDigest", bytes),
            epoch=read_field(body, "epoch", int),
            nonce=read_field(body, "nonce", bytes),
        )
        if not _epoch_fits(c.epoch):
            raise MalformedArtifact(f"field 'epoch' {c.epoch} does not fit 8 unsigned bytes")
        if canonical.to_hex(c.commitment_digest()) != read_field(body, "commitmentDigest", str):
            raise CommitmentMismatch("stored commitment digest does not recompute")
        return c


@dataclass(frozen=True)
class SpvProof:
    """Inclusion proof against one specific header of one chain. It names
    the header but carries no root: every verifier reads the root of the
    header it trusts, through `reaches`."""

    path: MerklePath
    chain: ChainId
    height: int

    def reaches(self, header: BlockHeader, leaf: bytes) -> bool:
        """The inclusion rule both verifiers share: `header` is on this
        proof's chain and the path leads from `leaf` to its root."""
        return header.chain == self.chain and merkle_verify(leaf, self.path, header.merkle_root)

    def to_json(self) -> dict:
        return {
            "path": self.path.to_json(),
            "chain": self.chain,
            "height": self.height,
            "leafIndex": self.path.leaf_index,
        }

    @classmethod
    def from_json(cls, data: dict) -> "SpvProof":
        """Raises `MalformedArtifact` on a field `read_field` refuses or a
        path entry that is not 0x-hex."""
        return cls(
            path=MerklePath.from_json(read_field(data, "path", list), read_field(data, "leafIndex", int)),
            chain=read_field(data, "chain", str),
            height=read_field(data, "height", int),
        )


@dataclass(frozen=True)
class AcceptanceRecord:
    credential_id: str
    asset_id: str
    source_chain: ChainId
    dest_chain: ChainId
    accepted_at: int
    commitment_digest: bytes
    checks_passed: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "credentialId": self.credential_id,
            "assetId": self.asset_id,
            "sourceChain": self.source_chain,
            "destChain": self.dest_chain,
            "acceptedAt": self.accepted_at,
            "commitmentDigest": canonical.to_hex(self.commitment_digest),
            "checksPassed": list(self.checks_passed),
        }


def make_commitment(
    world: World,
    source_chain: ChainId,
    presentation: Presentation,
    token_binding: dict,
    epoch: int,
    nonce: bytes,
) -> Commitment:
    """Source-side commitment over a locally verified presentation.

    This is the single full credential verification in a cross-chain
    transfer; it is counted against `source_chain`.
    """
    if type(nonce) is not bytes or len(nonce) != NONCE_SIZE:
        raise InvalidPresentation(f"nonce must be {NONCE_SIZE} bytes")
    if not _epoch_fits(epoch):
        raise InvalidPresentation(f"epoch {epoch!r} does not fit 8 unsigned bytes")
    result = verify_presentation(world, presentation, chain=source_chain)
    if not result.ok:
        raise InvalidPresentation(f"presentation fails local verification: {result}")
    asset_id = presentation.disclosed.get("asset.assetId")
    if asset_id is None:
        raise InvalidPresentation("asset.assetId must be disclosed for anchoring")
    disclosed_tb = presentation.disclosed.get("asset.tokenBinding")
    if disclosed_tb is None:
        raise InvalidPresentation("asset.tokenBinding must be disclosed for anchoring")
    if disclosed_tb != token_binding:
        raise InvalidPresentation("token binding does not match the disclosed one")
    return Commitment(
        asset_id=asset_id,
        cred_digest=disclosed_subset_digest(presentation),
        token_binding_digest=token_binding_digest(token_binding),
        epoch=epoch,
        nonce=nonce,
    )


def anchor(
    world: World,
    chain: ChainId,
    commitment: Commitment,
    issuer: KeyPair,
    seal: bool = True,
) -> tuple[bytes, Optional[BlockHeader]]:
    """Submit the commitment transaction; by default seal it into a block and
    return the containing header. `World.submit_tx` refuses the anchor when
    `issuer` controls no active DID; a refused anchor takes no nonce slot."""
    # a nonce may serve one (asset, epoch) pair only
    slot = commitment.slot
    if slot in world.anchor_nonces:
        raise CommitmentMismatch(
            f"nonce already anchored for {commitment.asset_id} at epoch {commitment.epoch}"
        )
    tx = Transaction.make("anchor", commitment.to_body(), issuer, world.next_nonce())
    tx_id = world.submit_tx(chain, tx)
    world.anchor_nonces.add(slot)
    header = world.seal_block(chain) if seal else None
    return tx_id, header


def spv_prove(world: World, tx_id: bytes, header_ref: tuple[ChainId, int]) -> SpvProof:
    """Inclusion proof of `tx_id` in a sealed block. The path is read from
    the tree the block kept when it was sealed, so proving hashes nothing;
    verifiers read the root from the header, so a proof read from an
    edited tree fails `spv_verify`."""
    chain, height = header_ref
    world.header_at(chain, height)  # UnknownChain for a chain or height with no block
    block = world.chains[chain].blocks[height]
    try:
        index = block.tx_ids.index(tx_id)
    except ValueError:
        raise TxNotInBlock(f"tx not in {chain} block {height}") from None
    return SpvProof(path=merkle_path(block.levels, index), chain=chain, height=height)


def spv_verify(world: World, observer_chain: ChainId, tx: Transaction, proof: SpvProof) -> bool:
    """True iff the observer accepted the proof's header via relay and the
    proof reaches it from the tx id (`SpvProof.reaches`)."""
    header = world.relayed_header_at(observer_chain, proof.chain, proof.height)
    return header is not None and proof.reaches(header, tx.tx_id)


def authenticate(
    world: World,
    dest_chain: ChainId,
    tx: Transaction,
    proof: SpvProof,
    presentation: Presentation,
) -> AcceptanceRecord:
    """Destination-side acceptance: digest and commitment recomputation plus
    status and registry lookups, the issuer's among them: `tx` must be an
    anchor sent by the current controller key of the presentation's issuer.
    No credential signatures are re-verified.

    A disclosed value that breaks its row raises MissingField
    (`credential.check_disclosed`). An undisclosed compliance section does
    not block acceptance; the record is flagged compliance-unverified instead.
    Every failed check raises, so a record has passed them all.
    """
    if not spv_verify(world, dest_chain, tx, proof):
        raise SpvFailed("inclusion proof does not verify against relayed headers")
    if tx.kind != "anchor":
        # only an anchor's body is a commitment
        raise AnchorNotFromIssuer(f"a {tx.kind} transaction anchors nothing")

    commitment = Commitment.from_body(tx.body)
    asset_id = presentation.disclosed.get("asset.assetId")
    disclosed_tb = presentation.disclosed.get("asset.tokenBinding")
    if asset_id != commitment.asset_id:
        raise CommitmentMismatch("disclosed asset id differs from anchored commitment")
    if disclosed_subset_digest(presentation) != commitment.cred_digest:
        raise CommitmentMismatch("disclosed subset digest differs from anchored commitment")
    if disclosed_tb is None or token_binding_digest(disclosed_tb) != commitment.token_binding_digest:
        raise CommitmentMismatch("token binding differs from anchored commitment")
    check_disclosed(presentation.disclosed)

    status = issuer_status(world, presentation.issuer)
    if status is not None:
        raise IssuerDeactivated(f"{status}({presentation.issuer})")
    sender_did = world.controller_index.get(canonical.to_hex(tx.sender))
    if sender_did != presentation.issuer:
        raise AnchorNotFromIssuer(
            f"anchor from the controller of {sender_did} vouches not for {presentation.issuer}"
        )

    failure = consulted_status(world, presentation)
    if failure is not None:
        raise Revoked(str(failure))

    regions = presentation.disclosed.get("compliance.sellableRegions")
    if regions is None:
        compliance = "compliance-unverified"
    else:
        dest_jurisdiction = world.config.jurisdiction(dest_chain)
        if dest_jurisdiction not in regions:
            raise JurisdictionBlocked(
                f"{dest_jurisdiction} not in disclosed sellable regions {regions}"
            )
        compliance = "jurisdiction"

    record = AcceptanceRecord(
        credential_id=presentation.credential_id,
        asset_id=commitment.asset_id,
        source_chain=proof.chain,
        dest_chain=dest_chain,
        accepted_at=world.clock,
        commitment_digest=commitment.commitment_digest(),
        checks_passed=("spv", "commitment", "issuer_active", "status_clear", compliance),
    )
    world.acceptance_records[dest_chain].append(record)
    world.log_op(dest_chain, "acceptance", descriptor=record.to_json())
    return record


def has_acceptance(world: World, chain: ChainId, asset_id: str) -> bool:
    return any(r.asset_id == asset_id for r in world.acceptance_records.get(chain, []))


def offline_verify(proof_json: dict, tx_json: dict, headers_json: list[dict]) -> bool:
    """Standalone proof check from serialized artifacts, no world required:
    validates header linkage from genesis, the transaction's signature
    under its sender, which the id does not cover, and inclusion in the
    referenced header (`SpvProof.reaches`)."""
    headers = [BlockHeader.from_json(h) for h in headers_json]
    if not headers or not all(
        header_links(prev, cur) for prev, cur in zip([None, *headers], headers)
    ):
        return False
    proof = SpvProof.from_json(proof_json)
    if not 0 <= proof.height < len(headers):
        return False
    tx = Transaction.from_json(tx_json)
    payload = tx.payload_bytes()
    return verify_sig(tx.sender, payload, tx.sig) and proof.reaches(headers[proof.height], digest(payload))


def check_acceptance_soundness(world: World) -> None:
    """Audit: every acceptance record must trace back to an anchor tx in a
    source-chain block whose header the destination accepted via relay, with
    its id as stored in `Block.tx_ids` (which `check_all` checks) in the op
    log, sent by a key that controlled some version of a registered DID.
    And the anchor-slot cache: no two anchor txs on any chain, sealed or
    pending, carry one `Commitment.slot`, and `world.anchor_nonces` holds
    only slots that anchors carry. An anchor whose body is no commitment
    carries no slot and vouches for no acceptance."""
    anchor_log_ids = {
        rec.tx_id for rec in world.op_log if rec.op_kind == "anchor"
    }
    controller_keys = {
        doc.controller_pk for entry in world.did_registry.values() for doc in entry.versions
    }
    # one pass over every anchor; a commitment fixes its slot, so two
    # carriers of one commitment fail the slot check
    carriers: dict[tuple[ChainId, str], tuple[Block, int]] = {}
    slots: set[tuple[str, int, bytes]] = set()
    for chain, state in world.chains.items():
        sealed = [(block, index, tx) for block in state.blocks for index, tx in enumerate(block.txs)]
        for block, index, tx in [*sealed, *((None, -1, tx) for tx in state.pending)]:
            if tx.kind != "anchor":
                continue
            try:
                slot = Commitment.from_body(tx.body).slot
            except (MalformedArtifact, CommitmentMismatch):
                continue
            if slot in slots:
                raise InvariantViolation(f"two anchor txs carry the slot of {slot[0]} at epoch {slot[1]}")
            slots.add(slot)
            if block is not None:
                carriers[(chain, tx.body["commitmentDigest"])] = (block, index)
    if not world.anchor_nonces <= slots:
        raise InvariantViolation("anchor nonce cache holds a slot no anchor tx carries")
    for dest, records in world.acceptance_records.items():
        for rec in records:
            wanted = canonical.to_hex(rec.commitment_digest)
            carrier = carriers.get((rec.source_chain, wanted))
            if carrier is None:
                raise InvariantViolation(
                    f"acceptance {wanted} has no anchor tx on {rec.source_chain}"
                )
            block, index = carrier
            if canonical.to_hex(block.tx_ids[index]) not in anchor_log_ids:
                raise InvariantViolation(f"anchor tx {wanted} missing from op log")
            if block.txs[index].sender not in controller_keys:
                raise InvariantViolation(f"anchor tx {wanted} was sent by no DID controller")
            if world.relayed_header_at(dest, rec.source_chain, block.header.height) != block.header:
                raise InvariantViolation(
                    f"anchor block for {wanted} was never relayed to {dest}"
                )
