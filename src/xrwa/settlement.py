"""Hash-timelock escrow and the two-chain settlement channel.

One hash-timelock rule governs every lock, an HtlcLock and each channel
leg alike: a Locked lock is claimed with a preimage whose digest is its
hash condition strictly before its timeout (`_check_claim`), or refunded
at or after the timeout (`_check_refund`). Each channel leg is a contract
on its own chain, so `chan_refund` refunds the one leg it names.
A hash condition is 32 bytes, the size of a digest; `htlc_lock` and
`chan_lock` refuse any other with MalformedArtifact before anything moves.
A step acts only on a lock or channel its world holds (`_held`): handed
the template of a fork, say, it refuses with ValueError before anything
moves in either world.
No step lets a party assert that time has passed: a refund is judged at
the world's clock, and a date `at` can only narrow a claim (`_dated`
needs clock <= at, and `_check_claim` needs at < timeout). `htlc_lock`
refuses a beneficiary that is not a 32-byte key (`ledger.account`) before
it escrows anything. A claim pays out before it marks the lock Unlocked,
so a payout the ledger refuses leaves the lock Locked and refundable.
A timeout and a date are ticks, each `ledger.is_natural` like the clock;
any other is refused before anything moves (`PastTimeout`, or
`BadTimeouts` for a channel lock).
A lock that is not Locked raises NotLocked, which is a WrongPhase, so
channel callers catch both as WrongPhase.

An HtlcLock escrows exactly one value or one asset. Escrow leaves a
contract exactly once. The ledger's movers refuse an escrowed value or
a deposit that is not an amount (`ledger.is_natural`) before anything
moves, and `_check_conserves` a signed net payment by the same rule.

A Channel pairs two contracts: a funds leg (buyer's deposit) on C1 and an
assets leg (seller's asset set) on C2, the two chains of `ledger.CHAINS`,
with the ids `<channel id>-funds` and `<channel id>-assets`. The channel is
world state: `chan_open` registers it in `World.channels`, and each step
that touches a leg reads both legs from the world once (`_legs`). A
signed off-chain state is its batch and its net payment, under the channel
id and a strictly increasing sequence number: `batch` is every deposited
asset the buyer should own so far and `net_payment` everything the seller
should have been paid so far, both cumulative from open. The rest of the
allocation follows from the deposits, so an update is checked only for a
batch of deposited assets named once, a payment within the deposit, and no
step back from what was settled. Locking installs the hash condition and
the timeouts on the legs themselves, t1 on the funds leg and t2 < t1 on the
assets leg (funds leg lives longer, giving the seller a reaction window of
t1 - t2 ticks once the preimage is public); the channel keeps no copy. It
does keep every hash condition its rounds were locked under and refuses to
lock under one again, since an earlier round may have made its preimage
public. The reveal, the redeem and the close each pay the latest state's
unsettled delta on one leg and record it settled in the same step, so a
leg's escrow plus what was settled from it is always the deposit. Once both
legs resolve the channel re-enters Open with its sequence preserved, so it
needs no reopening. A refund cancels the lock without moving anything.

Settlement state is values: a leg's `escrowed_assets` and a channel's
`settled_assets` and `used_hash_conds` are frozensets that settlement
rebinds and never edits, and an HtlcLock's `escrow` is never changed after
`htlc_lock`. So a shallow copy of a contract or a channel shares nothing
that can change. `World.fork` makes that copy, a new instance of the same
class with a copy of its instance dict, and a fork's channel is read from
`fork.channels` with no rebinding.

All on-chain steps are logged with the calibrated weights of `costs`;
state updates are purely off-chain and log nothing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Optional

from . import canonical
from .errors import (
    BadSignature,
    BadTimeouts,
    ConservationViolation,
    Expired,
    InsufficientBalance,
    MalformedArtifact,
    NotLocked,
    NotYetExpired,
    PastTimeout,
    ReusedHashLock,
    StaleSeq,
    UnauthenticatedAsset,
    WrongPhase,
    WrongPreimage,
)
from .ledger import CHAINS, ChainId, World, account, is_natural
from .primitives import KeyPair, digest, sign, verify_sig
from .xauth import has_acceptance

__all__ = [
    "HtlcLock",
    "ChannelState",
    "ChannelLeg",
    "Channel",
    "htlc_lock",
    "htlc_unlock",
    "htlc_refund",
    "chan_open",
    "make_state",
    "sign_state",
    "chan_update",
    "chan_lock",
    "chan_unlock",
    "chan_refund",
    "chan_close",
    "reveal_on_assets_leg",
    "redeem_on_funds_leg",
    "route_cost",
]


# -------------------------------------------------------------------- htlc --

@dataclass
class HtlcLock:
    contract_id: str
    chain: ChainId
    depositor: bytes
    beneficiary: bytes
    escrow: dict  # {"value": int} or {"asset": str}
    hash_cond: bytes
    timeout: int
    state: str = "Locked"

    @property
    def escrowed_value(self) -> int:
        return self.escrow.get("value", 0) if self.state == "Locked" else 0

    @property
    def escrowed_assets(self) -> tuple[str, ...]:
        if self.state == "Locked" and "asset" in self.escrow:
            return (self.escrow["asset"],)
        return ()

    def to_json(self) -> dict:
        return {
            "kind": "htlc",
            "chain": self.chain,
            "depositor": canonical.to_hex(self.depositor),
            "beneficiary": canonical.to_hex(self.beneficiary),
            "escrow": self.escrow,
            "hashCond": canonical.to_hex(self.hash_cond),
            "timeout": self.timeout,
            "state": self.state,
        }


def _take_escrow(world: World, chain: ChainId, owner: bytes, escrow: dict) -> None:
    keys = escrow.keys() if isinstance(escrow, dict) else ()
    if keys == {"value"}:
        world.debit(chain, owner, escrow["value"])
    elif keys == {"asset"}:
        world.take_asset(chain, owner, escrow["asset"])
    else:
        raise InsufficientBalance("escrow must name exactly one value or one asset")


def _release_escrow(world: World, chain: ChainId, receiver: bytes, escrow: dict) -> None:
    if "value" in escrow:
        world.credit(chain, receiver, escrow["value"])
    else:
        world.give_asset(chain, receiver, escrow["asset"])


def _check_hash_cond(hash_cond: Any) -> None:
    """Raise MalformedArtifact unless `hash_cond` is 32 bytes, the size of
    the digest a claim's preimage must hash to."""
    if type(hash_cond) is not bytes or len(hash_cond) != 32:
        raise MalformedArtifact(f"a hash condition is 32 bytes, got {hash_cond!r}")


def _held(registry: dict, key: str, obj: Any, kind: str) -> None:
    """Raise ValueError unless `registry` holds `obj` under `key`. A lock or
    channel of another world, such as the template of a fork, is refused so,
    not with WrongPhase, which schedule callers ignore."""
    if registry.get(key) is not obj:
        raise ValueError(f"{key} is not a {kind} of this world")


def _derived_id(prefix: str, fields: dict) -> str:
    """A contract or channel id: `prefix` and 16 hex digits of the digest of
    the canonical encoding of `fields`."""
    return prefix + digest(canonical.dumps_bytes(fields)).hex()[:16]


def htlc_lock(
    world: World,
    chain: ChainId,
    depositor: bytes,
    beneficiary: bytes,
    escrow: dict,
    hash_cond: bytes,
    timeout: int,
) -> HtlcLock:
    if not is_natural(timeout) or timeout <= world.clock:
        raise PastTimeout(f"timeout {timeout!r} is not a tick after clock {world.clock}")
    account(beneficiary)  # before the escrow, which would move value first
    _check_hash_cond(hash_cond)
    _take_escrow(world, chain, depositor, escrow)
    contract_id = _derived_id("htlc-", {
        "chain": chain,
        "depositor": canonical.to_hex(depositor),
        "hashCond": canonical.to_hex(hash_cond),
        "n": len(world.chains[chain].contracts),
    })
    lock = HtlcLock(
        contract_id=contract_id,
        chain=chain,
        depositor=depositor,
        beneficiary=beneficiary,
        escrow=dict(escrow),
        hash_cond=hash_cond,
        timeout=timeout,
    )
    world.chains[chain].contracts[contract_id] = lock
    world.log_op(chain, "htlc_lock", descriptor={"contract": contract_id})
    return lock


def _check_claim(lock: HtlcLock | ChannelLeg, preimage: bytes, at: int) -> None:
    """Raise unless the lock is Locked, `preimage` opens it and `at` is
    strictly before its timeout. Only `bytes` opens a lock: a preimage of
    another type (a bytearray, str or None, say) is refused unhashed."""
    if lock.state != "Locked":
        raise NotLocked(f"{lock.contract_id} is {lock.state}")
    if type(preimage) is not bytes or digest(preimage) != lock.hash_cond:
        raise WrongPreimage("preimage does not hash to the lock condition")
    if at >= lock.timeout:
        raise Expired(f"claim at {at} not strictly before timeout {lock.timeout}")


def _check_refund(lock: HtlcLock | ChannelLeg, clock: int) -> None:
    """Raise unless the lock is Locked and `clock` is at or after its timeout."""
    if lock.state != "Locked":
        raise NotLocked(f"{lock.contract_id} is {lock.state}")
    if clock < lock.timeout:
        raise NotYetExpired(f"refund at {clock} before timeout {lock.timeout}")


def _dated(world: World, at: Optional[int]) -> int:
    """The tick a claim acts at: the world's clock, or `at`, which may not be
    before the clock. A later date only brings the claim's timeout nearer."""
    if at is None:
        return world.clock
    if not is_natural(at) or at < world.clock:
        raise PastTimeout(f"step dated {at!r} is not a tick at or after clock {world.clock}")
    return at


def htlc_unlock(world: World, lock: HtlcLock, preimage: bytes, at: Optional[int] = None) -> None:
    _held(world.chains[lock.chain].contracts, lock.contract_id, lock, "contract")
    _check_claim(lock, preimage, _dated(world, at))
    _release_escrow(world, lock.chain, lock.beneficiary, lock.escrow)
    lock.state = "Unlocked"
    world.log_op(lock.chain, "htlc_unlock", descriptor={"contract": lock.contract_id})


def htlc_refund(world: World, lock: HtlcLock) -> None:
    _held(world.chains[lock.chain].contracts, lock.contract_id, lock, "contract")
    _check_refund(lock, world.clock)
    lock.state = "Refunded"
    _release_escrow(world, lock.chain, lock.depositor, lock.escrow)
    world.log_op(lock.chain, "htlc_refund", descriptor={"contract": lock.contract_id})


# ----------------------------------------------------------------- channel --

@dataclass(frozen=True)
class ChannelState:
    """Signed off-chain state; allocation is cumulative from channel open."""

    channel_id: str
    seq: int
    batch: list[str]
    net_payment: int
    sig_a: bytes = b""
    sig_b: bytes = b""

    def body_json(self) -> dict:
        return {
            "channelId": self.channel_id,
            "seq": self.seq,
            "batch": self.batch,
            "netPayment": self.net_payment,
        }

    def canonical_bytes(self) -> bytes:
        return canonical.dumps_bytes(self.body_json())

    def state_digest(self) -> bytes:
        return digest(self.canonical_bytes())


@dataclass
class ChannelLeg:
    contract_id: str
    chain: ChainId
    escrowed_value: int = 0
    escrowed_assets: frozenset[str] = frozenset()
    committed_digest: Optional[bytes] = None
    hash_cond: Optional[bytes] = None
    timeout: Optional[int] = None
    state: str = "Idle"  # Idle | Locked | Unlocked | Refunded

    def to_json(self) -> dict:
        return {
            "kind": "channel-leg",
            "chain": self.chain,
            "escrowedValue": self.escrowed_value,
            "escrowedAssets": sorted(self.escrowed_assets),
            "committed": canonical.to_hex(self.committed_digest) if self.committed_digest else None,
            "hashCond": canonical.to_hex(self.hash_cond) if self.hash_cond else None,
            "timeout": self.timeout,
            "lockState": self.state,
        }


@dataclass
class Channel:
    channel_id: str
    buyer_pk: bytes
    seller_pk: bytes
    deposit_value: int
    deposit_assets: tuple[str, ...]
    latest: ChannelState
    settled_assets: frozenset[str] = frozenset()
    settled_payment: int = 0
    phase: str = "Open"  # Open | Locked | Closed
    # every hash condition a round of this channel was locked under
    used_hash_conds: frozenset[bytes] = frozenset()


# the chains of each channel's funds leg and assets leg
_FUNDS_CHAIN, _ASSETS_CHAIN = CHAINS


def _legs(world: World, channel: Channel) -> tuple[ChannelLeg, ChannelLeg]:
    """The (funds, assets) legs `world` holds for `channel`, which must be
    a channel of `world` (`_held`)."""
    channel_id = channel.channel_id
    _held(world.channels, channel_id, channel, "channel")
    chains = world.chains
    return (
        chains[_FUNDS_CHAIN].contracts[channel_id + "-funds"],
        chains[_ASSETS_CHAIN].contracts[channel_id + "-assets"],
    )


def sign_state(party: KeyPair, state: ChannelState) -> bytes:
    return sign(party.sk, state.canonical_bytes())


def _cosign(
    channel_id: str, seq: int, batch: list[str], net_payment: int, buyer: KeyPair, seller: KeyPair
) -> ChannelState:
    state = ChannelState(channel_id=channel_id, seq=seq, batch=sorted(batch), net_payment=net_payment)
    return dataclasses.replace(
        state, sig_a=sign_state(buyer, state), sig_b=sign_state(seller, state)
    )


def make_state(
    channel: Channel,
    batch: list[str],
    net_payment: int,
    buyer: KeyPair,
    seller: KeyPair,
) -> ChannelState:
    """Construct and co-sign the next cumulative state."""
    return _cosign(channel.channel_id, channel.latest.seq + 1, batch, net_payment, buyer, seller)


def chan_open(
    world: World,
    buyer: KeyPair,
    seller: KeyPair,
    deposit_value: int,
    deposit_assets: list[str],
) -> Channel:
    """Escrow both deposits and open the channel with a co-signed state 0.

    Every deposited asset must be recognized on the asset chain: either
    authenticated cross-chain (an acceptance record exists) or locally
    issued there.
    """
    for asset in deposit_assets:
        if not has_acceptance(world, _ASSETS_CHAIN, asset) and world.asset_origins.get(asset) != _ASSETS_CHAIN:
            raise UnauthenticatedAsset(f"{asset} not authenticated or issued on {_ASSETS_CHAIN}")
    if len(set(deposit_assets)) != len(deposit_assets) or not world.assets_of(
        _ASSETS_CHAIN, seller.pk
    ).issuperset(deposit_assets):
        raise InsufficientBalance(f"seller must hold each deposited asset once on {_ASSETS_CHAIN}")
    # the debit checks the amount and the balance before it moves anything,
    # and the checks above leave no take that can fail, so a refusal moves nothing
    world.debit(_FUNDS_CHAIN, buyer.pk, deposit_value)
    for asset in deposit_assets:
        world.take_asset(_ASSETS_CHAIN, seller.pk, asset)

    channel_id = _derived_id("chan-", {
        "buyer": canonical.to_hex(buyer.pk),
        "seller": canonical.to_hex(seller.pk),
        "assets": sorted(deposit_assets),
        "value": deposit_value,
        "nonce": world.next_nonce(),
    })
    # the ids `_legs` reads the legs back by
    for leg in (
        ChannelLeg(channel_id + "-funds", _FUNDS_CHAIN, escrowed_value=deposit_value),
        ChannelLeg(channel_id + "-assets", _ASSETS_CHAIN, escrowed_assets=frozenset(deposit_assets)),
    ):
        world.chains[leg.chain].contracts[leg.contract_id] = leg

    channel = world.channels[channel_id] = Channel(
        channel_id=channel_id,
        buyer_pk=buyer.pk,
        seller_pk=seller.pk,
        deposit_value=deposit_value,
        deposit_assets=tuple(sorted(deposit_assets)),
        latest=_cosign(channel_id, 0, [], 0, buyer, seller),
    )
    world.log_op(_FUNDS_CHAIN, "chan_open", descriptor={"channel": channel_id})
    world.log_op(_ASSETS_CHAIN, "chan_open", descriptor={"channel": channel_id})
    return channel


def _check_conserves(channel: Channel, state: ChannelState) -> None:
    batch = set(state.batch)
    if len(batch) != len(state.batch) or not batch <= set(channel.deposit_assets):
        raise ConservationViolation("batch must name deposited assets, each once")
    if not (is_natural(state.net_payment) and state.net_payment <= channel.deposit_value):
        raise ConservationViolation("net payment must be an int between zero and the deposit")
    if not batch >= channel.settled_assets:
        raise ConservationViolation("proposed batch would un-settle delivered assets")
    if state.net_payment < channel.settled_payment:
        raise ConservationViolation("proposed payment below what is already settled")


def chan_update(channel: Channel, proposed: ChannelState) -> None:
    """Apply a co-signed off-chain state; zero on-chain operations."""
    if channel.phase != "Open":
        raise WrongPhase(f"channel is {channel.phase}")
    if proposed.channel_id != channel.channel_id:
        raise BadSignature("state names a different channel")
    if proposed.seq != channel.latest.seq + 1:
        raise StaleSeq(f"expected seq {channel.latest.seq + 1}, got {proposed.seq}")
    try:
        body = proposed.canonical_bytes()
    except (TypeError, ValueError):  # a set batch, say: no party can have signed it
        raise BadSignature("state has no canonical encoding") from None
    if not verify_sig(channel.buyer_pk, body, proposed.sig_a):
        raise BadSignature("buyer signature invalid")
    if not verify_sig(channel.seller_pk, body, proposed.sig_b):
        raise BadSignature("seller signature invalid")
    _check_conserves(channel, proposed)
    channel.latest = proposed


def chan_lock(world: World, channel: Channel, hash_cond: bytes, t1: int, t2: int) -> None:
    """Commit the latest state on both contracts under hash-locked conditions."""
    funds, assets = _legs(world, channel)
    if channel.phase != "Open":
        raise WrongPhase(f"channel is {channel.phase}")
    if not (is_natural(t1) and is_natural(t2) and t1 > t2 > world.clock):
        raise BadTimeouts(f"need ticks t1 > t2 > clock, got t1={t1!r} t2={t2!r} clock={world.clock}")
    if not channel.latest.sig_a or not channel.latest.sig_b:
        raise BadSignature("latest state is not co-signed")
    _check_hash_cond(hash_cond)
    if hash_cond in channel.used_hash_conds:
        # an earlier round may have made its preimage public
        raise ReusedHashLock("an earlier round of this channel used this hash condition")
    channel.used_hash_conds = channel.used_hash_conds | {hash_cond}
    committed = channel.latest.state_digest()
    for leg, timeout in ((funds, t1), (assets, t2)):
        leg.committed_digest = committed
        leg.hash_cond = hash_cond
        leg.timeout = timeout
        leg.state = "Locked"
    channel.phase = "Locked"
    world.log_op(funds.chain, "chan_lock", descriptor={"channel": channel.channel_id})
    world.log_op(assets.chain, "chan_lock", descriptor={"channel": channel.channel_id})


def _pay_assets(world: World, leg: ChannelLeg, assets: list[str], to: bytes) -> None:
    leg.escrowed_assets = leg.escrowed_assets.difference(assets)
    for asset in assets:
        world.give_asset(leg.chain, to, asset)


def _pay_value(world: World, leg: ChannelLeg, amount: int, to: bytes) -> None:
    # the mover first, so that a refusal leaves the leg as it was
    world.credit(leg.chain, to, amount)
    leg.escrowed_value -= amount


def _settle_assets(world: World, channel: Channel, leg: ChannelLeg) -> None:
    """Give the buyer the latest batch's unsettled assets and record them."""
    delta = set(channel.latest.batch) - channel.settled_assets
    _pay_assets(world, leg, sorted(delta), channel.buyer_pk)
    channel.settled_assets |= delta


def _settle_payment(world: World, channel: Channel, leg: ChannelLeg) -> None:
    """Pay the seller the latest net payment's unsettled rest and record it."""
    delta = channel.latest.net_payment - channel.settled_payment
    _pay_value(world, leg, delta, channel.seller_pk)
    channel.settled_payment += delta


def _claim_leg(world: World, channel: Channel, name: str, preimage: bytes, at: Optional[int]) -> None:
    """Claim leg `name` with `preimage` at `at`, paying the latest state's unsettled delta."""
    funds, assets = _legs(world, channel)
    leg, settle = (assets, _settle_assets) if name == "assets" else (funds, _settle_payment)
    _check_claim(leg, preimage, _dated(world, at))
    settle(world, channel, leg)
    leg.state = "Unlocked"
    world.log_op(leg.chain, "chan_unlock", descriptor={"channel": channel.channel_id, "leg": name})
    _maybe_reopen(channel, funds, assets)


def reveal_on_assets_leg(world: World, channel: Channel, preimage: bytes, at: Optional[int] = None) -> None:
    """Buyer reveals the preimage on the asset contract, taking the committed
    batch delta. The preimage becomes public knowledge on-chain."""
    _claim_leg(world, channel, "assets", preimage, at)


def redeem_on_funds_leg(world: World, channel: Channel, preimage: bytes, at: Optional[int] = None) -> None:
    """Seller redeems the aggregated payment on the funds contract with the
    now-public preimage; allowed strictly before t1."""
    _claim_leg(world, channel, "funds", preimage, at)


def _maybe_reopen(channel: Channel, funds: ChannelLeg, assets: ChannelLeg) -> None:
    """Once both legs resolved, re-enter Open with the sequence preserved."""
    if funds.state == "Locked" or assets.state == "Locked":
        return
    for leg in (funds, assets):
        leg.committed_digest = None
        leg.hash_cond = None
        leg.timeout = None
        leg.state = "Idle"
    channel.phase = "Open"


def chan_unlock(world: World, channel: Channel, preimage: bytes, at: Optional[int] = None) -> None:
    """Cooperative settlement: reveal on the asset chain, then redeem the
    payment on the funds chain, both at the same tick."""
    at = _dated(world, at)
    reveal_on_assets_leg(world, channel, preimage, at)
    redeem_on_funds_leg(world, channel, preimage, at)


def chan_refund(world: World, channel: Channel, leg: str) -> None:
    """Refund leg `leg`, "assets" or "funds", once the world's clock is at
    or after its timeout; any other leg is a ValueError. Escrow stays in the
    channel and the committed assignment is reverted."""
    funds, assets = _legs(world, channel)
    if leg not in ("assets", "funds"):
        raise ValueError(f"unknown leg {leg!r}; expected 'assets' or 'funds'")
    lock = assets if leg == "assets" else funds
    _check_refund(lock, world.clock)
    lock.state = "Refunded"
    world.log_op(lock.chain, "chan_refund", descriptor={"channel": channel.channel_id, "leg": leg})
    _maybe_reopen(channel, funds, assets)


def chan_close(world: World, channel: Channel) -> dict:
    """Cooperative close: execute the latest co-signed state's outstanding
    delta, then return residual deposits to their original owners."""
    funds, assets = _legs(world, channel)
    if channel.phase != "Open":
        raise WrongPhase(f"channel is {channel.phase}")
    _settle_assets(world, channel, assets)
    _settle_payment(world, channel, funds)
    residual_assets = sorted(assets.escrowed_assets)
    residual_value = funds.escrowed_value
    _pay_assets(world, assets, residual_assets, channel.seller_pk)
    _pay_value(world, funds, residual_value, channel.buyer_pk)

    channel.phase = "Closed"
    world.log_op(funds.chain, "chan_close", descriptor={"channel": channel.channel_id})
    world.log_op(assets.chain, "chan_close", descriptor={"channel": channel.channel_id})
    return {
        "buyerAssets": sorted(channel.settled_assets),
        "sellerPayment": channel.settled_payment,
        "buyerResidualValue": residual_value,
        "sellerResidualAssets": residual_assets,
    }


# -------------------------------------------------------------- route cost --

HTLC_KINDS = ("htlc_lock", "htlc_unlock", "htlc_refund")
CHANNEL_KINDS = ("chan_open", "chan_lock", "chan_unlock", "chan_refund", "chan_close")


def route_cost(world: World, kinds: tuple[str, ...]) -> tuple[float, int]:
    """Cost units and count of the op-log entries whose kind is in `kinds`."""
    units = [rec.cost_units for rec in world.op_log if rec.op_kind in kinds]
    return sum(units), len(units)
