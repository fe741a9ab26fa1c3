"""Deterministic in-process simulation of independent blockchains.

A World holds the two chains of `CHAINS` (blocks, pending pool, balances,
asset holdings, contract states), one logical clock, per-observer relayed
header views, and an append-only operation log with cost units. Replaying a
scenario from the same seed reproduces the op log byte for byte.

There is no consensus layer: a header is valid when it extends a chain by
exactly one height with correct prev linkage from genesis. One canonical
chain per ChainId; forks and reorgs do not exist here.

A World is single-writer. Mutations are serialized through the owning
scenario; snapshots are plain data and safe to share across threads.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass, field
from typing import Any, Optional

from . import canonical, costs
from .errors import (
    BadSignature,
    EmptyPool,
    InsufficientBalance,
    InvariantViolation,
    IssuerDeactivated,
    ReplayedTransaction,
    UnknownChain,
)
from .primitives import KeyPair, digest, keygen, merkle_levels, read_field, sign, verify_sig

__all__ = [
    "ChainId",
    "CHAINS",
    "JURISDICTIONS",
    "GENESIS_PREV",
    "header_links",
    "Transaction",
    "BlockHeader",
    "Block",
    "OpRecord",
    "WorldConfig",
    "World",
]

ChainId = str

# every world has exactly these chains
CHAINS: tuple[ChainId, ...] = ("C1", "C2")

# the jurisdiction of each chain, checked against an asset's disclosed sellable regions
JURISDICTIONS: dict[ChainId, str] = {"C1": "US", "C2": "SG"}

GENESIS_PREV = b"\x00" * 32


# ------------------------------------------------------------ transactions --

@dataclass(frozen=True)
class Transaction:
    """Signed ledger transaction; payload is a tagged union by `kind`."""

    kind: str  # "transfer" | "anchor" | "genesis"
    body: dict
    sender: bytes
    nonce: str
    sig: bytes

    def payload(self) -> dict:
        return {
            "kind": self.kind,
            "body": self.body,
            "sender": canonical.to_hex(self.sender),
            "nonce": self.nonce,
        }

    def payload_bytes(self) -> bytes:
        return canonical.dumps_bytes(self.payload())

    @property
    def tx_id(self) -> bytes:
        return digest(self.payload_bytes())

    @classmethod
    def make(cls, kind: str, body: dict, keypair: KeyPair, nonce: str) -> "Transaction":
        tx = cls(kind=kind, body=body, sender=keypair.pk, nonce=nonce, sig=b"")
        # sign what payload() encodes; tx has not escaped, so filling in the
        # frozen sig field here is safe
        object.__setattr__(tx, "sig", sign(keypair.sk, tx.payload_bytes()))
        return tx

    def to_json(self) -> dict:
        out = self.payload()
        out["sig"] = canonical.to_hex(self.sig)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Transaction":
        """Raises `MalformedArtifact` on a field `read_field` refuses."""
        return cls(
            kind=read_field(data, "kind", str),
            body=read_field(data, "body", dict),
            sender=read_field(data, "sender", bytes),
            nonce=read_field(data, "nonce", str),
            sig=read_field(data, "sig", bytes),
        )


# ------------------------------------------------------------------ blocks --

@dataclass(frozen=True)
class BlockHeader:
    chain: ChainId
    height: int
    prev: bytes
    merkle_root: bytes
    timestamp: int

    def to_json(self) -> dict:
        return {
            "chain": self.chain,
            "height": self.height,
            "prev": canonical.to_hex(self.prev),
            "merkleRoot": canonical.to_hex(self.merkle_root),
            "timestamp": self.timestamp,
        }

    @classmethod
    def from_json(cls, data: dict) -> "BlockHeader":
        """Raises `MalformedArtifact` on a field `read_field` refuses."""
        return cls(
            chain=read_field(data, "chain", str),
            height=read_field(data, "height", int),
            prev=read_field(data, "prev", bytes),
            merkle_root=read_field(data, "merkleRoot", bytes),
            timestamp=read_field(data, "timestamp", int),
        )

    def header_digest(self) -> bytes:
        """The digest of the header's canonical encoding, computed on the
        first call and kept on the instance outside the dataclass fields,
        so `==`, `to_json` and `asdict` ignore it. The fields are frozen,
        so the kept digest cannot go stale."""
        kept = self.__dict__.get("_digest")
        if kept is None:
            kept = digest(canonical.dumps_bytes(self.to_json()))
            object.__setattr__(self, "_digest", kept)
        return kept


def header_links(prev: BlockHeader | None, header: BlockHeader) -> bool:
    """True iff `header` is a genesis header (when `prev` is None) or extends
    `prev` on the same chain by one height with `prev`'s digest as its link."""
    if prev is None:
        return header.height == 0 and header.prev == GENESIS_PREV
    return (
        header.chain == prev.chain
        and header.height == prev.height + 1
        and header.prev == prev.header_digest()
    )


@dataclass
class Block:
    """Sealed transactions and the Merkle tree over the ids the ledger
    verified at submit. `levels` is `merkle_levels(tx_ids)`, kept from
    sealing so a proof reads its path instead of rehashing the block; its
    first level is `tx_ids`, where `tx_ids[i]` is the id of `txs[i]` and
    the leaf at index i, and its last holds the header's root. The tree
    stays out of `World.snapshot()`; `check_header_chains` rebuilds it."""

    header: BlockHeader
    txs: list[Transaction]
    levels: list[list[bytes]]

    @property
    def tx_ids(self) -> list[bytes]:
        return self.levels[0]


class OpRecord:
    """One op-log entry. `tx_id` is 0x-hex: of the transaction's id, or of
    the digest of the canonical encoding of the op-tagged descriptor
    `{"op": op_kind, **descriptor}`.

    The id is computed when `tx_id` is first read and kept; until then the
    entry holds the raw 32-byte id or its own op-tagged dict, which that
    read drops. So a world nobody reports on, such as a schedule's fork,
    never encodes or hashes its entries. A fork shares its origin's entries,
    and the id is the same whichever world reads it first. Descriptors hold
    only str, int and list values built by this package; an unencodable one
    would raise when the entry is read, not when it is logged."""

    __slots__ = ("tick", "chain", "op_kind", "cost_units", "_id")

    def __init__(self, tick: int, chain: ChainId, op_kind: str, cost_units: float,
                 source: bytes | dict):
        self.tick = tick
        self.chain = chain
        self.op_kind = op_kind
        self.cost_units = cost_units
        self._id: bytes | dict | str = source

    @property
    def tx_id(self) -> str:
        source = self._id
        if type(source) is str:
            return source
        if type(source) is dict:
            source = digest(canonical.dumps_bytes(source))
        self._id = canonical.to_hex(source)
        return self._id

    def csv_row(self) -> str:
        return f"{self.tick},{self.chain},{self.op_kind},{costs.format_units(self.cost_units)},{self.tx_id}"


@dataclass
class _ChainState:
    blocks: list[Block] = field(default_factory=list)
    pending: list[Transaction] = field(default_factory=list)
    pending_ids: list[bytes] = field(default_factory=list)
    # (sender, nonce) of every transaction accepted, pending or sealed
    sender_nonces: set[tuple[bytes, str]] = field(default_factory=set)
    balances: dict[str, int] = field(default_factory=dict)
    holdings: dict[str, set[str]] = field(default_factory=dict)
    contracts: dict[str, Any] = field(default_factory=dict)
    minted_value: int = 0
    minted_assets: set[str] = field(default_factory=set)

    def fork(self) -> "_ChainState":
        """A copy sharing the sealed blocks and nothing that can change.
        Each contract is rebuilt from its own fields, a shallow copy without
        the `copy` module: settlement rebinds a contract's fields and never
        edits a value one holds."""
        return _ChainState(
            blocks=list(self.blocks),
            pending=list(self.pending),
            pending_ids=list(self.pending_ids),
            sender_nonces=set(self.sender_nonces),
            balances=dict(self.balances),
            holdings={k: set(v) for k, v in self.holdings.items()},
            contracts={cid: type(c)(**vars(c)) for cid, c in self.contracts.items()},
            minted_value=self.minted_value,
            minted_assets=set(self.minted_assets),
        )


# ------------------------------------------------------------------- world --

@dataclass(frozen=True)
class WorldConfig:
    seed: int = 42
    current_date: str = "2025-06-15"

    def jurisdiction(self, chain: ChainId) -> str:
        return JURISDICTIONS[chain]


class World:
    """Single-writer simulation state shared by every protocol module."""

    def __init__(self, config: WorldConfig | None = None):
        self.config = config or WorldConfig()
        self.clock = 0
        self._rng = random.Random(self.config.seed)
        self._rng_shared = False
        self.chains: dict[ChainId, _ChainState] = {c: _ChainState() for c in CHAINS}
        self.relayed: dict[tuple[ChainId, ChainId], list[BlockHeader]] = {}
        self.op_log: list[OpRecord] = []

        # registries owned by the identity / credential / xauth / settlement modules
        self.did_registry: dict[str, Any] = {}
        self.controller_index: dict[str, str] = {}
        self.status_lists: dict[str, Any] = {}
        self.acceptance_records: dict[ChainId, list[Any]] = {c: [] for c in CHAINS}
        self.asset_origins: dict[str, ChainId] = {}
        self.channels: dict[str, Any] = {}  # by id; not in snapshot(), so no digest moves

        self.anchor_nonces: set[tuple[str, int, bytes]] = set()

        # instrumentation: full credential-signature verifications per chain
        self.verify_counts: dict[str, int] = {}

        self.treasury = keygen(digest(b"xrwa/treasury/" + str(self.config.seed).encode()))
        for chain in CHAINS:
            self._seal_genesis(chain)

    def fork(self) -> "World":
        """An independent copy: what either world does after the fork leaves
        the other as it was.

        The sealed `Block` objects are shared, with `config` and `treasury`.
        A chain only ever appends sealed blocks and never edits one, so
        sharing them is safe and makes a fork cost the mutable state alone:
        balances, holdings, contracts, pending pool, registries and op log
        are copied. The op log's entries are shared; each computes its id
        once, whichever world reads it first (`OpRecord`). The generator is
        shared until either world draws (see `rng`), so a fork that never
        draws never copies it.

        Nothing here goes through the `copy` module: contracts
        (`_ChainState.fork`) and channels are rebuilt from their own fields,
        so a channel is bound to its legs by id in any world, and each registry
        entry copies itself with its own `fork()`, which gives a `DidEntry`
        new lists and a `StatusList` a new bytearray; an empty registry
        costs nothing."""
        other = object.__new__(World)
        other.config = self.config
        other.treasury = self.treasury
        other.clock = self.clock
        other._rng = self._rng
        other._rng_shared = self._rng_shared = True
        other.chains = {label: state.fork() for label, state in self.chains.items()}
        other.relayed = {pair: list(view) for pair, view in self.relayed.items()}
        other.op_log = list(self.op_log)
        other.did_registry = {did: entry.fork() for did, entry in self.did_registry.items()}
        other.controller_index = dict(self.controller_index)
        other.status_lists = {uri: sl.fork() for uri, sl in self.status_lists.items()}
        other.acceptance_records = {c: list(recs) for c, recs in self.acceptance_records.items()}
        other.asset_origins = dict(self.asset_origins)
        other.channels = {cid: type(ch)(**vars(ch)) for cid, ch in self.channels.items()}
        other.anchor_nonces = set(self.anchor_nonces)
        other.verify_counts = dict(self.verify_counts)
        return other

    # -- plumbing ------------------------------------------------------------

    def _chain(self, chain: ChainId) -> _ChainState:
        try:
            return self.chains[chain]
        except KeyError:
            raise UnknownChain(f"unknown chain {chain!r}") from None

    @property
    def rng(self) -> random.Random:
        """The world's generator. Draw through `world.rng` (or `next_nonce`)
        and do not keep the generator object across a fork: a world and its
        forks share one generator until one of them draws, and the first
        access of a sharing world gives it a private copy here, so each world
        draws the stream it would have drawn had the fork copied it."""
        if self._rng_shared:
            # a constant seed spares drawing one from the OS; setstate replaces it
            private = random.Random(0)
            private.setstate(self._rng.getstate())
            self._rng, self._rng_shared = private, False
        return self._rng

    def next_nonce(self) -> str:
        return self.rng.randbytes(8).hex()

    def log_op(self, chain: ChainId, op_kind: str, tx_id: bytes | None = None,
               descriptor: dict | None = None) -> OpRecord:
        """Append one op-log entry, costing it from the calibration table;
        a kind the table does not weigh is refused before anything is
        appended. Without `tx_id`, the entry keeps its own op-tagged copy of
        `descriptor` and hashes it when its `tx_id` is first read (see
        `OpRecord`)."""
        source = tx_id if tx_id is not None else {"op": op_kind, **(descriptor or {})}
        rec = OpRecord(self.clock, chain, op_kind, costs.weight(op_kind), source)
        self.op_log.append(rec)
        return rec

    def count_verification(self, chain: Optional[ChainId]) -> None:
        key = chain if chain is not None else "local"
        self.verify_counts[key] = self.verify_counts.get(key, 0) + 1

    # -- accounts and assets ---------------------------------------------------

    def mint(self, chain: ChainId, pk: bytes, amount: int) -> None:
        """World-setup mint; the only operation allowed to create value."""
        state = self._chain(chain)
        key = canonical.to_hex(pk)
        state.balances[key] = state.balances.get(key, 0) + amount
        state.minted_value += amount
        self.log_op(chain, "mint", descriptor={"to": key, "amount": amount})

    def mint_asset(self, chain: ChainId, pk: bytes, asset_id: str) -> None:
        """World-setup asset grant; records the asset's origin chain."""
        state = self._chain(chain)
        key = canonical.to_hex(pk)
        state.holdings.setdefault(key, set()).add(asset_id)
        state.minted_assets.add(asset_id)
        self.asset_origins.setdefault(asset_id, chain)
        self.log_op(chain, "mint", descriptor={"to": key, "asset": asset_id})

    def burn_asset(self, chain: ChainId, pk: bytes, asset_id: str) -> None:
        """Remove an asset from a chain entirely (migration bookkeeping)."""
        self.take_asset(chain, pk, asset_id)
        self._chain(chain).minted_assets.discard(asset_id)
        self.log_op(chain, "burn", descriptor={"asset": asset_id})

    def balance(self, chain: ChainId, pk: bytes) -> int:
        return self._chain(chain).balances.get(canonical.to_hex(pk), 0)

    def assets_of(self, chain: ChainId, pk: bytes) -> set[str]:
        return set(self._chain(chain).holdings.get(canonical.to_hex(pk), set()))

    def debit(self, chain: ChainId, pk: bytes, amount: int) -> None:
        state = self._chain(chain)
        key = canonical.to_hex(pk)
        if state.balances.get(key, 0) < amount:
            raise InsufficientBalance(f"{key} holds {state.balances.get(key, 0)} < {amount}")
        state.balances[key] = state.balances.get(key, 0) - amount

    def credit(self, chain: ChainId, pk: bytes, amount: int) -> None:
        state = self._chain(chain)
        key = canonical.to_hex(pk)
        state.balances[key] = state.balances.get(key, 0) + amount

    def take_asset(self, chain: ChainId, pk: bytes, asset_id: str) -> None:
        state = self._chain(chain)
        held = state.holdings.get(canonical.to_hex(pk), set())
        if asset_id not in held:
            raise InsufficientBalance(f"account does not hold asset {asset_id}")
        held.discard(asset_id)

    def give_asset(self, chain: ChainId, pk: bytes, asset_id: str) -> None:
        state = self._chain(chain)
        state.holdings.setdefault(canonical.to_hex(pk), set()).add(asset_id)

    # -- genesis and blocks ------------------------------------------------------

    def _seal_genesis(self, chain: ChainId) -> None:
        tx = Transaction.make(
            "genesis", {"chain": chain}, self.treasury, nonce=f"genesis-{chain}"
        )
        state = self._chain(chain)
        levels = merkle_levels([tx.tx_id])
        header = BlockHeader(
            chain=chain,
            height=0,
            prev=GENESIS_PREV,
            merkle_root=levels[-1][0],
            timestamp=self.clock,
        )
        state.blocks.append(Block(header=header, txs=[tx], levels=levels))
        state.sender_nonces.add((tx.sender, tx.nonce))

    def submit_tx(self, chain: ChainId, tx: Transaction) -> bytes:
        """Verify and apply `tx`, queue it for the next block and return its
        id. The signature is checked over the same bytes that are hashed
        into the id, so the id the block keeps is the one verified here. An
        anchor is refused unless its sender controls an active DID, a
        transfer unless its amount is a non-negative int, and a kind the cost
        table does not weigh; each before anything moves."""
        state = self._chain(chain)
        payload = tx.payload_bytes()
        if not verify_sig(tx.sender, payload, tx.sig):
            raise BadSignature("transaction signature does not verify under sender")
        costs.weight(tx.kind)
        pair = (tx.sender, tx.nonce)
        if pair in state.sender_nonces:
            raise ReplayedTransaction(f"{chain} already accepted nonce {tx.nonce!r} from this sender")
        sender = canonical.to_hex(tx.sender)
        if tx.kind == "anchor" and sender not in self.controller_index:
            raise IssuerDeactivated("anchoring key controls no active did")
        if tx.kind == "transfer":
            amount = tx.body["amount"]
            if type(amount) is not int or amount < 0:
                raise InsufficientBalance(f"transfer amount {amount!r} is not a non-negative int")
            if state.balances.get(sender, 0) < amount:
                raise InsufficientBalance(
                    f"sender holds {state.balances.get(sender, 0)} < {amount}"
                )
            dest = tx.body["to"]
            state.balances[sender] = state.balances.get(sender, 0) - amount
            state.balances[dest] = state.balances.get(dest, 0) + amount
        tx_id = digest(payload)
        state.pending.append(tx)
        state.pending_ids.append(tx_id)
        state.sender_nonces.add(pair)
        self.log_op(chain, tx.kind, tx_id=tx_id)
        return tx_id

    def seal_block(self, chain: ChainId) -> BlockHeader:
        state = self._chain(chain)
        if not state.pending:
            raise EmptyPool(f"no pending transactions on {chain}")
        self.clock += 1
        prev = state.blocks[-1].header.header_digest()
        levels = merkle_levels(state.pending_ids)
        header = BlockHeader(
            chain=chain,
            height=len(state.blocks),
            prev=prev,
            merkle_root=levels[-1][0],
            timestamp=self.clock,
        )
        state.blocks.append(Block(header=header, txs=state.pending, levels=levels))
        state.pending, state.pending_ids = [], []
        return header

    def advance_clock(self, ticks: int) -> int:
        if ticks < 1:
            raise ValueError("clock can only move forward by at least one tick")
        self.clock += ticks
        return self.clock

    def find_tx(self, chain: ChainId, tx_id: bytes) -> tuple[Block, int] | None:
        for block in self._chain(chain).blocks:
            try:
                return block, block.tx_ids.index(tx_id)
            except ValueError:
                continue
        return None

    def header_at(self, chain: ChainId, height: int) -> BlockHeader:
        blocks = self._chain(chain).blocks
        if not 0 <= height < len(blocks):
            raise UnknownChain(f"{chain} has no header at height {height}")
        return blocks[height].header

    # -- light-client relay ---------------------------------------------------

    def relay_header(self, observer: ChainId, observed: ChainId, header: BlockHeader) -> bool:
        """Accept iff the header is labelled `observed` and links onto the
        observer's view (see `header_links`). Rejection is a False return."""
        self._chain(observer)
        self._chain(observed)
        view = self.relayed.setdefault((observer, observed), [])
        ok = header.chain == observed and header_links(view[-1] if view else None, header)
        kind = "relay_header" if ok else "relay_reject"
        self.log_op(observer, kind, descriptor={"observed": observed, "height": header.height})
        if ok:
            view.append(header)
        return ok

    def relayed_header_at(self, observer: ChainId, observed: ChainId, height: int) -> BlockHeader | None:
        view = self.relayed.get((observer, observed), [])
        if 0 <= height < len(view):
            return view[height]
        return None

    def relay_chain(self, observer: ChainId, observed: ChainId) -> int:
        """Relay every not-yet-relayed header of `observed`; returns count accepted."""
        view = self.relayed.get((observer, observed), [])
        accepted = 0
        for block in self._chain(observed).blocks[len(view):]:
            if self.relay_header(observer, observed, block.header):
                accepted += 1
        return accepted

    # -- export and audits ------------------------------------------------------

    def op_log_csv(self) -> str:
        out = io.StringIO()
        out.write("tick,chain,op_kind,cost_units,tx_id\n")
        for rec in self.op_log:
            out.write(rec.csv_row() + "\n")
        return out.getvalue()

    def snapshot(self) -> dict:
        chains: dict[str, Any] = {}
        for label, state in self.chains.items():
            chains[label] = {
                "headers": [b.header.to_json() for b in state.blocks],
                "txCounts": [len(b.txs) for b in state.blocks],
                "pending": [tx.to_json() for tx in state.pending],
                "balances": dict(sorted(state.balances.items())),
                "holdings": {k: sorted(v) for k, v in sorted(state.holdings.items())},
                "contracts": {
                    cid: c.to_json() for cid, c in sorted(state.contracts.items())
                },
                "mintedValue": state.minted_value,
                "mintedAssets": sorted(state.minted_assets),
            }
        return {
            "clock": self.clock,
            "chains": chains,
            "relayed": {
                f"{obs}<-{src}": [h.header_digest().hex() for h in view]
                for (obs, src), view in sorted(self.relayed.items())
            },
            "didRegistry": {
                did: entry.to_json() for did, entry in sorted(self.did_registry.items())
            },
            "statusLists": {
                uri: sl.to_json() for uri, sl in sorted(self.status_lists.items())
            },
            "acceptance": {
                chain: [r.to_json() for r in recs]
                for chain, recs in sorted(self.acceptance_records.items())
            },
        }

    def world_digest(self) -> bytes:
        return digest(canonical.dumps_bytes(self.snapshot()))

    def check_header_chains(self) -> None:
        """Audit every chain: header linkage from genesis, each block's stored
        ids, kept Merkle tree and header root against the tree rebuilt from
        ids recomputed from its transactions, and no (sender, nonce) pair in
        more than one sealed transaction."""
        for label, state in self.chains.items():
            prev = None
            pairs: set[tuple[bytes, str]] = set()
            for k, block in enumerate(state.blocks):
                if not header_links(prev, block.header):
                    raise InvariantViolation(f"broken header linkage on {label} at {k}")
                prev = block.header
                ids = [tx.tx_id for tx in block.txs]
                if block.tx_ids != ids:
                    raise InvariantViolation(f"stored tx ids disagree on {label} at {k}")
                levels = merkle_levels(ids)
                if block.levels != levels:
                    raise InvariantViolation(f"kept Merkle tree disagrees on {label} at {k}")
                if block.header.merkle_root != levels[-1][0]:
                    raise InvariantViolation(
                        f"header root mismatch on {label} at {block.header.height}"
                    )
                for tx in block.txs:
                    pair = (tx.sender, tx.nonce)
                    if pair in pairs:
                        raise InvariantViolation(f"replayed transaction on {label} at {k}")
                    pairs.add(pair)

    def check_light_client_prefix(self) -> None:
        for (observer, observed), view in self.relayed.items():
            truth = [b.header for b in self._chain(observed).blocks]
            if len(view) > len(truth) or view != truth[: len(view)]:
                raise InvariantViolation(
                    f"relayed view {observer}<-{observed} is not a prefix of the chain"
                )

    def check_conservation(self) -> None:
        for label, state in self.chains.items():
            total = sum(state.balances.values())
            assets: list[str] = []
            for held in state.holdings.values():
                assets.extend(held)
            for contract in state.contracts.values():
                total += contract.escrowed_value
                assets.extend(contract.escrowed_assets)
            if total != state.minted_value:
                raise InvariantViolation(
                    f"value not conserved on {label}: {total} != {state.minted_value}"
                )
            if sorted(assets) != sorted(state.minted_assets):
                raise InvariantViolation(f"asset multiset not conserved on {label}")

    def check_all(self) -> None:
        self.check_header_chains()
        self.check_light_client_prefix()
        self.check_conservation()
