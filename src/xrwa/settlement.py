"""Hash-timelock escrow and the two-chain settlement channel.

One hash-timelock rule governs every lock, an HtlcLock and each channel
leg alike: a Locked lock is claimed with a preimage whose digest is its
hash condition strictly before its timeout (`_claim`), or refunded at or
after the timeout (`_check_refund`, which `_refund` applies; `chan_refund`
applies it to every named leg before refunding any).
No step lets a party assert that time has passed: a refund is judged at
the world's clock, and a date `at` can only narrow a claim (`_dated`
needs clock <= at, and `_claim` needs at < timeout).
A lock that is not Locked raises NotLocked, which is a WrongPhase, so
channel callers catch both as WrongPhase.

An HtlcLock escrows exactly one value or one asset. Escrow leaves a
contract exactly once.

A Channel pairs two contracts: a funds leg (buyer's deposit) on C1 and an
assets leg (seller's asset set) on C2, the two chains of `ledger.CHAINS`,
with the ids `<channel id>-funds` and `<channel id>-assets`. The channel is
world state: `chan_open` registers it in `World.channels`, and each step
that touches a leg reads both legs from the world once (`_legs`), refusing
a channel the world does not hold with ValueError. A
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
public. Both settlement paths and the close pay out through `_pay_assets`
and `_pay_value`. A settlement executes only the delta between the
committed state and what previous settlements already moved, then the
channel re-enters Open with its sequence preserved, so further updates and
settlements need no reopening. A refund cancels the lock without moving
anything; the channel likewise continues.

Settlement state is values: a leg's `escrowed_assets` and a channel's
`settled_assets` and `used_hash_conds` are frozensets that settlement
rebinds and never edits, and an HtlcLock's `escrow` is never changed after
`htlc_lock`. So a shallow copy of a contract or a channel shares nothing
that can change. `World.fork` makes that copy by calling the class on its
own fields (`type(c)(**vars(c))`), so every field a contract or a channel
holds is an `__init__` field, and a fork's channel is read from
`fork.channels` with no rebinding.

All on-chain steps are logged with the calibrated weights of `costs`;
state updates are purely off-chain and log nothing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from . import canonical
from .errors import (
    BadSignature,
    BadTimeouts,
    ConservationViolation,
    Expired,
    InsufficientBalance,
    NotLocked,
    NotYetExpired,
    PastTimeout,
    ReusedHashLock,
    StaleSeq,
    UnauthenticatedAsset,
    WrongPhase,
    WrongPreimage,
)
from .ledger import CHAINS, ChainId, World
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
    if escrow.keys() == {"value"}:
        if escrow["value"] < 0:
            raise InsufficientBalance("escrow value must be non-negative")
        world.debit(chain, owner, escrow["value"])
    elif escrow.keys() == {"asset"}:
        world.take_asset(chain, owner, escrow["asset"])
    else:
        raise InsufficientBalance("escrow must name exactly one value or one asset")


def _release_escrow(world: World, chain: ChainId, receiver: bytes, escrow: dict) -> None:
    if "value" in escrow:
        world.credit(chain, receiver, escrow["value"])
    else:
        world.give_asset(chain, receiver, escrow["asset"])


def htlc_lock(
    world: World,
    chain: ChainId,
    depositor: bytes,
    beneficiary: bytes,
    escrow: dict,
    hash_cond: bytes,
    timeout: int,
) -> HtlcLock:
    if timeout <= world.clock:
        raise PastTimeout(f"timeout {timeout} is not after clock {world.clock}")
    _take_escrow(world, chain, depositor, escrow)
    contract_id = "htlc-" + digest(
        canonical.dumps_bytes(
            {
                "chain": chain,
                "depositor": canonical.to_hex(depositor),
                "hashCond": canonical.to_hex(hash_cond),
                "n": len(world.chains[chain].contracts),
            }
        )
    ).hex()[:16]
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


def _claim(lock: HtlcLock | ChannelLeg, preimage: bytes, at: int) -> None:
    """Unlock a Locked lock with the preimage, strictly before its timeout."""
    if lock.state != "Locked":
        raise NotLocked(f"{lock.contract_id} is {lock.state}")
    if digest(preimage) != lock.hash_cond:
        raise WrongPreimage("preimage does not hash to the lock condition")
    if at >= lock.timeout:
        raise Expired(f"claim at {at} not strictly before timeout {lock.timeout}")
    lock.state = "Unlocked"


def _check_refund(lock: HtlcLock | ChannelLeg, clock: int) -> None:
    """Raise unless the lock is Locked and `clock` is at or after its timeout."""
    if lock.state != "Locked":
        raise NotLocked(f"{lock.contract_id} is {lock.state}")
    if clock < lock.timeout:
        raise NotYetExpired(f"refund at {clock} before timeout {lock.timeout}")


def _refund(lock: HtlcLock | ChannelLeg, clock: int) -> None:
    """Refund a Locked lock at or after its timeout."""
    _check_refund(lock, clock)
    lock.state = "Refunded"


def _dated(world: World, at: Optional[int]) -> int:
    """The tick a claim acts at: the world's clock, or `at`, which may not be
    before the clock. A later date only brings the claim's timeout nearer."""
    if at is None:
        return world.clock
    if at < world.clock:
        raise PastTimeout(f"step dated {at} is before clock {world.clock}")
    return at


def htlc_unlock(world: World, lock: HtlcLock, preimage: bytes, at: Optional[int] = None) -> None:
    _claim(lock, preimage, _dated(world, at))
    _release_escrow(world, lock.chain, lock.beneficiary, lock.escrow)
    world.log_op(lock.chain, "htlc_unlock", descriptor={"contract": lock.contract_id})


def htlc_refund(world: World, lock: HtlcLock) -> None:
    _refund(lock, world.clock)
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


def _legs(world: World, channel: Channel) -> tuple[ChannelLeg, ChannelLeg]:
    """The (funds, assets) legs `world` holds for `channel`. A channel that
    `world.channels` does not hold, such as the template of a fork, is
    refused with ValueError, not WrongPhase, which schedule callers ignore."""
    if world.channels.get(channel.channel_id) is not channel:
        raise ValueError(f"{channel.channel_id} is not a channel of this world")
    chain_funds, chain_assets = CHAINS
    return (
        world.chains[chain_funds].contracts[channel.channel_id + "-funds"],
        world.chains[chain_assets].contracts[channel.channel_id + "-assets"],
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
    chain_funds, chain_assets = CHAINS
    if deposit_value < 0:
        raise InsufficientBalance("deposit value must be non-negative")
    for asset in deposit_assets:
        if not has_acceptance(world, chain_assets, asset) and world.asset_origins.get(asset) != chain_assets:
            raise UnauthenticatedAsset(f"{asset} not authenticated or issued on {chain_assets}")
    if len(set(deposit_assets)) != len(deposit_assets) or not world.assets_of(
        chain_assets, seller.pk
    ).issuperset(deposit_assets):
        raise InsufficientBalance(f"seller must hold each deposited asset once on {chain_assets}")
    # the debit checks the balance before it moves anything, and the checks
    # above leave no take that can fail, so a refusal moves nothing
    world.debit(chain_funds, buyer.pk, deposit_value)
    for asset in deposit_assets:
        world.take_asset(chain_assets, seller.pk, asset)

    channel_id = "chan-" + digest(
        canonical.dumps_bytes(
            {
                "buyer": canonical.to_hex(buyer.pk),
                "seller": canonical.to_hex(seller.pk),
                "assets": sorted(deposit_assets),
                "value": deposit_value,
                "nonce": world.next_nonce(),
            }
        )
    ).hex()[:16]
    # the ids `_legs` reads the legs back by
    for leg in (
        ChannelLeg(channel_id + "-funds", chain_funds, escrowed_value=deposit_value),
        ChannelLeg(channel_id + "-assets", chain_assets, escrowed_assets=frozenset(deposit_assets)),
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
    world.log_op(chain_funds, "chan_open", descriptor={"channel": channel_id})
    world.log_op(chain_assets, "chan_open", descriptor={"channel": channel_id})
    return channel


def _check_conserves(channel: Channel, state: ChannelState) -> None:
    batch = set(state.batch)
    if len(batch) != len(state.batch) or not batch <= set(channel.deposit_assets):
        raise ConservationViolation("batch must name deposited assets, each once")
    if not 0 <= state.net_payment <= channel.deposit_value:
        raise ConservationViolation("net payment must lie between zero and the deposit")
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
    body = proposed.canonical_bytes()
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
    if not (t1 > t2 > world.clock):
        raise BadTimeouts(f"need t1 > t2 > clock, got t1={t1} t2={t2} clock={world.clock}")
    if not channel.latest.sig_a or not channel.latest.sig_b:
        raise BadSignature("latest state is not co-signed")
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


def _delta_assets(channel: Channel) -> list[str]:
    return sorted(set(channel.latest.batch) - channel.settled_assets)


def _delta_payment(channel: Channel) -> int:
    return channel.latest.net_payment - channel.settled_payment


def _pay_assets(world: World, leg: ChannelLeg, assets: list[str], to: bytes) -> None:
    leg.escrowed_assets = leg.escrowed_assets.difference(assets)
    for asset in assets:
        world.give_asset(leg.chain, to, asset)


def _pay_value(world: World, leg: ChannelLeg, amount: int, to: bytes) -> None:
    leg.escrowed_value -= amount
    world.credit(leg.chain, to, amount)


def reveal_on_assets_leg(world: World, channel: Channel, preimage: bytes, at: Optional[int] = None) -> None:
    """Buyer reveals the preimage on the asset contract, taking the committed
    batch delta. The preimage becomes public knowledge on-chain."""
    funds, assets = _legs(world, channel)
    at = _dated(world, at)
    _claim(assets, preimage, at)
    _pay_assets(world, assets, _delta_assets(channel), channel.buyer_pk)
    world.log_op(assets.chain, "chan_unlock", descriptor={"channel": channel.channel_id, "leg": "assets"})
    _maybe_reopen(channel, funds, assets)


def redeem_on_funds_leg(world: World, channel: Channel, preimage: bytes, at: Optional[int] = None) -> None:
    """Seller redeems the aggregated payment on the funds contract with the
    now-public preimage; allowed strictly before t1."""
    funds, assets = _legs(world, channel)
    at = _dated(world, at)
    _claim(funds, preimage, at)
    _pay_value(world, funds, _delta_payment(channel), channel.seller_pk)
    world.log_op(funds.chain, "chan_unlock", descriptor={"channel": channel.channel_id, "leg": "funds"})
    _maybe_reopen(channel, funds, assets)


def _maybe_reopen(channel: Channel, funds: ChannelLeg, assets: ChannelLeg) -> None:
    """Once both legs resolved, fold the outcome into the cumulative settled
    totals and re-enter Open with the sequence preserved."""
    if funds.state == "Locked" or assets.state == "Locked":
        return
    if assets.state == "Unlocked":
        channel.settled_assets = frozenset(channel.latest.batch)
    if funds.state == "Unlocked":
        channel.settled_payment = channel.latest.net_payment
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


def chan_refund(world: World, channel: Channel, leg: Optional[str] = None) -> None:
    """Refund one leg (leg="assets" or "funds") or, with no leg named, both,
    once the world's clock is at or after each one's timeout; every named
    leg is checked before any is refunded. Escrow stays in the channel and
    the committed assignment is reverted."""
    funds, assets = _legs(world, channel)
    legs = {"assets": assets, "funds": funds}
    if leg:
        if leg not in legs:
            raise ValueError(f"unknown leg {leg!r}; expected 'assets' or 'funds'")
        legs = {leg: legs[leg]}
    for lock in legs.values():
        _check_refund(lock, world.clock)
    for name, lock in legs.items():
        _refund(lock, world.clock)
        world.log_op(lock.chain, "chan_refund", descriptor={"channel": channel.channel_id, "leg": name})
    _maybe_reopen(channel, funds, assets)


def chan_close(world: World, channel: Channel) -> dict:
    """Cooperative close: execute the latest co-signed state's outstanding
    delta, then return residual deposits to their original owners."""
    funds, assets = _legs(world, channel)
    if channel.phase != "Open":
        raise WrongPhase(f"channel is {channel.phase}")
    payment_out = _delta_payment(channel)
    _pay_assets(world, assets, _delta_assets(channel), channel.buyer_pk)
    _pay_value(world, funds, payment_out, channel.seller_pk)
    residual_assets = sorted(assets.escrowed_assets)
    residual_value = funds.escrowed_value
    _pay_assets(world, assets, residual_assets, channel.seller_pk)
    _pay_value(world, funds, residual_value, channel.buyer_pk)

    channel.phase = "Closed"
    world.log_op(funds.chain, "chan_close", descriptor={"channel": channel.channel_id})
    world.log_op(assets.chain, "chan_close", descriptor={"channel": channel.channel_id})
    return {
        "buyerAssets": sorted(channel.latest.batch),
        "sellerPayment": channel.settled_payment + payment_out,
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
