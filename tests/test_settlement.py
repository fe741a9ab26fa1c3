import copy
import dataclasses
import hashlib
import inspect
import json
import random
import types

import pytest

from xrwa import atomicity, canonical, ledger, primitives, settlement
from xrwa.atomicity import explore_schedules, fuzz_schedules, run_schedule, Schedule
from xrwa.costs import DEFAULT_WEIGHTS
from xrwa.errors import (
    BadSignature,
    BadTimeouts,
    ConservationViolation,
    CostTableError,
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
from xrwa.ledger import World, WorldConfig
from xrwa.primitives import digest, keygen
from xrwa.settlement import (
    chan_close,
    chan_lock,
    chan_open,
    chan_refund,
    chan_unlock,
    chan_update,
    htlc_lock,
    htlc_refund,
    htlc_unlock,
    make_state,
    route_cost,
    sign_state,
)
from xrwa.scenarios import run_channel_route, run_htlc_route

from test_ledger import _unsnapshotted

ALICE = keygen(digest(b"settle-alice"))
BOB = keygen(digest(b"settle-bob"))
RHO = digest(b"settle-preimage")
H_RHO = digest(RHO)


@pytest.fixture
def world():
    w = World(WorldConfig(seed=13))
    w.mint("C1", ALICE.pk, 1_000)
    w.mint("C2", BOB.pk, 500)
    w.mint_asset("C2", BOB.pk, "did:xrwa:asset-x")
    w.mint_asset("C2", BOB.pk, "did:xrwa:asset-y")
    w.mint_asset("C2", BOB.pk, "did:xrwa:asset-z")
    return w


# ------------------------------------------------------------------ htlc ----

def test_htlc_lock_escrows_value(world):
    lock = htlc_lock(world, "C1", ALICE.pk, BOB.pk, {"value": 300}, H_RHO, timeout=5)
    assert world.balance("C1", ALICE.pk) == 700
    assert lock.escrowed_value == 300
    world.check_conservation()


def test_htlc_lock_timeout_must_be_future(world):
    with pytest.raises(PastTimeout):
        htlc_lock(world, "C1", ALICE.pk, BOB.pk, {"value": 1}, H_RHO, timeout=world.clock)


def test_htlc_lock_requires_funds(world):
    with pytest.raises(InsufficientBalance):
        htlc_lock(world, "C1", ALICE.pk, BOB.pk, {"value": 10_000}, H_RHO, timeout=5)


def test_htlc_unlock_correct_preimage_before_timeout(world):
    lock = htlc_lock(world, "C1", ALICE.pk, BOB.pk, {"value": 300}, H_RHO, timeout=5)
    htlc_unlock(world, lock, RHO, at=3)
    assert lock.state == "Unlocked"
    assert world.balance("C1", BOB.pk) == 300
    world.check_conservation()


def test_htlc_unlock_at_timeout_expired(world):
    lock = htlc_lock(world, "C1", ALICE.pk, BOB.pk, {"value": 300}, H_RHO, timeout=5)
    with pytest.raises(Expired):
        htlc_unlock(world, lock, RHO, at=5)


def test_htlc_unlock_wrong_preimage(world):
    lock = htlc_lock(world, "C1", ALICE.pk, BOB.pk, {"value": 300}, H_RHO, timeout=5)
    with pytest.raises(WrongPreimage):
        htlc_unlock(world, lock, b"nope", at=1)
    assert lock.state == "Locked"


def test_htlc_refund_boundaries(world):
    lock = htlc_lock(world, "C1", ALICE.pk, BOB.pk, {"value": 300}, H_RHO, timeout=5)
    world.advance_clock(4)
    with pytest.raises(NotYetExpired):
        htlc_refund(world, lock)
    world.advance_clock(1)
    htlc_refund(world, lock)
    assert lock.state == "Refunded"
    assert world.balance("C1", ALICE.pk) == 1_000
    with pytest.raises(NotLocked):
        htlc_unlock(world, lock, RHO)


@pytest.mark.parametrize("chain, escrow", [("C1", {"value": 300}), ("C2", {"asset": "did:xrwa:asset-x"})])
def test_htlc_claim_to_a_beneficiary_that_is_no_key_moves_nothing(world, chain, escrow):
    depositor, beneficiary = (ALICE.pk, BOB.pk) if chain == "C1" else (BOB.pk, ALICE.pk)
    before = (world.world_digest(), len(world.op_log))
    with pytest.raises(MalformedArtifact, match="32 bytes"):
        htlc_lock(world, chain, depositor, b"\x00", escrow, H_RHO, timeout=5)
    assert (world.world_digest(), len(world.op_log)) == before
    # a claim pays out before it marks the lock, so a Locked lock whose
    # beneficiary is no key stays Locked when the payout is refused
    lock = htlc_lock(world, chain, depositor, beneficiary, escrow, H_RHO, timeout=5)
    lock.beneficiary = b"\x00"
    before = (world.world_digest(), len(world.op_log))
    with pytest.raises(MalformedArtifact, match="32 bytes"):
        htlc_unlock(world, lock, RHO, at=1)
    assert (world.world_digest(), len(world.op_log)) == before
    world.check_all()
    # the lock stayed Locked, so its depositor gets the escrow back
    world.advance_clock(5)
    htlc_refund(world, lock)
    assert (world.balance("C1", ALICE.pk), world.assets_of("C2", BOB.pk)) == (
        1_000, {"did:xrwa:asset-x", "did:xrwa:asset-y", "did:xrwa:asset-z"}
    )
    world.check_all()


def test_htlc_asset_escrow_roundtrip(world):
    lock = htlc_lock(world, "C2", BOB.pk, ALICE.pk, {"asset": "did:xrwa:asset-x"}, H_RHO, timeout=7)
    assert "did:xrwa:asset-x" not in world.assets_of("C2", BOB.pk)
    htlc_unlock(world, lock, RHO, at=2)
    assert "did:xrwa:asset-x" in world.assets_of("C2", ALICE.pk)
    world.check_conservation()


def test_htlc_escrow_names_one_value_or_one_asset(world):
    # an escrow naming both would take only one of them but report both
    for escrow in ({"value": 5, "asset": "did:xrwa:asset-x"}, {}, {"asset": "did:xrwa:asset-x", "memo": 1}):
        with pytest.raises(InsufficientBalance):
            htlc_lock(world, "C2", BOB.pk, ALICE.pk, escrow, H_RHO, timeout=5)
    assert world.balance("C2", BOB.pk) == 500
    assert "did:xrwa:asset-x" in world.assets_of("C2", BOB.pk)
    assert world.chains["C2"].contracts == {}
    world.check_conservation()


def test_symmetric_swap_setup_with_staggered_timeouts(world):
    # classic atomic-swap shape: funds on C1 under t1, asset on C2 under t2 < t1
    l1 = htlc_lock(world, "C1", ALICE.pk, BOB.pk, {"value": 400}, H_RHO, timeout=10)
    l2 = htlc_lock(world, "C2", BOB.pk, ALICE.pk, {"asset": "did:xrwa:asset-y"}, H_RHO, timeout=6)
    world.advance_clock(7)  # past t2, before t1
    assert world.clock == 7
    with pytest.raises(NotYetExpired):
        htlc_refund(world, l1)
    assert l1.state == "Locked"
    htlc_refund(world, l2)
    world.advance_clock(5)
    assert world.clock == 12
    htlc_refund(world, l1)
    assert l1.state == l2.state == "Refunded"
    assert world.balance("C1", ALICE.pk) == 1_000
    assert "did:xrwa:asset-y" in world.assets_of("C2", BOB.pk)
    world.check_conservation()


# --------------------------------------------------------------- channel ----

def open_channel(world, assets=("did:xrwa:asset-x", "did:xrwa:asset-y")):
    return chan_open(world, ALICE, BOB, 600, list(assets))


def legs(world, ch):
    """The channel's (funds, assets) leg contracts as `world` holds them."""
    return (
        world.chains["C1"].contracts[ch.channel_id + "-funds"],
        world.chains["C2"].contracts[ch.channel_id + "-assets"],
    )


def test_chan_open_escrows_both_sides(world):
    ch = open_channel(world)
    assert world.balance("C1", ALICE.pk) == 400
    assert world.assets_of("C2", BOB.pk) == {"did:xrwa:asset-z"}
    assert ch.phase == "Open"
    funds, assets = legs(world, ch)
    assert funds.hash_cond is None and assets.hash_cond is None  # no hash-locked condition at open
    assert world.channels == {ch.channel_id: ch}
    assert len([r for r in world.op_log if r.op_kind == "chan_open"]) == 2
    world.check_conservation()


@pytest.mark.parametrize(
    "value, assets",
    [
        (600, ["did:xrwa:asset-x", "did:xrwa:asset-x"]),  # the same asset twice
        (600, ["did:xrwa:asset-x", "did:xrwa:asset-w"]),  # seller lacks one
        (10_000, ["did:xrwa:asset-x"]),  # buyer lacks the value
    ],
)
def test_chan_open_refused_moves_nothing(world, value, assets):
    world.mint_asset("C2", ALICE.pk, "did:xrwa:asset-w")
    before = (world.balance("C1", ALICE.pk), world.assets_of("C2", BOB.pk), world.assets_of("C2", ALICE.pk))
    with pytest.raises(InsufficientBalance):
        chan_open(world, ALICE, BOB, value, assets)
    assert (world.balance("C1", ALICE.pk), world.assets_of("C2", BOB.pk), world.assets_of("C2", ALICE.pk)) == before
    assert world.chains["C1"].contracts == {} and world.chains["C2"].contracts == {}
    world.check_conservation()


def test_chan_open_zero_value_one_sided(world):
    ch = chan_open(world, ALICE, BOB, 0, ["did:xrwa:asset-x"])
    assert ch.deposit_value == 0


def test_chan_open_unauthenticated_asset_rejected(world):
    world.mint_asset("C1", BOB.pk, "did:xrwa:foreign")  # origin C1, not C2
    world.give_asset("C2", BOB.pk, "did:xrwa:foreign")
    world.chains["C2"].minted_assets.add("did:xrwa:foreign")
    with pytest.raises(UnauthenticatedAsset):
        chan_open(world, ALICE, BOB, 10, ["did:xrwa:foreign"])


def test_hundred_updates_cost_nothing_onchain(world):
    ch = open_channel(world)
    before = len(world.op_log)
    for i in range(100):
        state = make_state(ch, batch=["did:xrwa:asset-x"], net_payment=i + 1, buyer=ALICE, seller=BOB)
        chan_update(ch, state)
    assert len(world.op_log) == before
    assert ch.latest.seq == 100


def test_stale_seq_rejected(world):
    ch = open_channel(world)
    state = make_state(ch, batch=[], net_payment=1, buyer=ALICE, seller=BOB)
    stale = make_state(ch, batch=[], net_payment=2, buyer=ALICE, seller=BOB)
    chan_update(ch, state)
    with pytest.raises(StaleSeq):
        chan_update(ch, stale)


def test_update_foreign_asset_conservation_violation(world):
    ch = open_channel(world)
    bad = make_state(ch, batch=["did:xrwa:asset-z"], net_payment=1, buyer=ALICE, seller=BOB)
    with pytest.raises(ConservationViolation):
        chan_update(ch, bad)


def test_update_bad_signature_rejected(world):
    ch = open_channel(world)
    state = make_state(ch, batch=[], net_payment=5, buyer=ALICE, seller=BOB)
    forged = dataclasses.replace(state, sig_b=sign_state(ALICE, state))
    with pytest.raises(BadSignature):
        chan_update(ch, forged)


def test_state_signs_only_its_batch_and_payment(world):
    ch = open_channel(world)
    state = make_state(ch, batch=["did:xrwa:asset-y"], net_payment=5, buyer=ALICE, seller=BOB)
    assert set(state.body_json()) == {"channelId", "seq", "batch", "netPayment"}
    assert [f.name for f in dataclasses.fields(state)] == [
        "channel_id", "seq", "batch", "net_payment", "sig_a", "sig_b",
    ]


def test_update_conservation_fuzz_against_oracle(world):
    # randomized proposals; a hand-rolled conservation oracle decides validity
    ch = open_channel(world)
    rng = random.Random(0x5E)
    assets = list(ch.deposit_assets)
    accepted = rejected = 0
    for _ in range(120):
        batch = rng.sample(assets + ["did:xrwa:rogue"], rng.randrange(0, 3))
        if batch and rng.random() < 0.2:
            batch.append(batch[0])  # names one asset twice
        net = rng.randrange(-50, 700)
        state = settlement.ChannelState(
            channel_id=ch.channel_id, seq=ch.latest.seq + 1, batch=sorted(batch), net_payment=net
        )
        state = dataclasses.replace(
            state, sig_a=sign_state(ALICE, state), sig_b=sign_state(BOB, state)
        )
        oracle_ok = (
            0 <= net <= ch.deposit_value
            and set(batch) <= set(assets)
            and len(set(batch)) == len(batch)
        )
        try:
            chan_update(ch, state)
            accepted += 1
            assert oracle_ok
        except ConservationViolation:
            rejected += 1
            assert not oracle_ok
    assert accepted > 10 and rejected > 10


def locked_channel(world, net=250, batch=("did:xrwa:asset-x",), t1=8, t2=5):
    ch = open_channel(world)
    state = make_state(ch, batch=list(batch), net_payment=net, buyer=ALICE, seller=BOB)
    chan_update(ch, state)
    chan_lock(world, ch, H_RHO, t1, t2)
    return ch


def test_lock_requires_strict_timeout_order(world):
    ch = open_channel(world)
    state = make_state(ch, batch=[], net_payment=1, buyer=ALICE, seller=BOB)
    chan_update(ch, state)
    with pytest.raises(BadTimeouts):
        chan_lock(world, ch, H_RHO, 5, 5)
    with pytest.raises(BadTimeouts):
        chan_lock(world, ch, H_RHO, 3, 5)


def test_lock_freezes_updates(world):
    ch = locked_channel(world)
    assert ch.phase == "Locked"
    late = make_state(ch, batch=[], net_payment=9, buyer=ALICE, seller=BOB)
    with pytest.raises(WrongPhase):
        chan_update(ch, late)


def test_lock_commits_same_digest_on_both_legs(world):
    ch = locked_channel(world)
    funds, assets = legs(world, ch)
    assert funds.committed_digest == assets.committed_digest
    assert funds.committed_digest == ch.latest.state_digest()


def _htlc_lock_with(escrow):
    def arm(world):
        return lambda: htlc_lock(world, "C1", ALICE.pk, BOB.pk, escrow, H_RHO, timeout=5)
    return arm


def _claim_with(step, preimage):
    def arm(world):
        if step is htlc_unlock:
            target = htlc_lock(world, "C1", ALICE.pk, BOB.pk, {"value": 100}, H_RHO, timeout=5)
        else:
            target = locked_channel(world)
        return lambda: step(world, target, preimage)
    return arm


_CLAIM_STEPS = (htlc_unlock, settlement.reveal_on_assets_leg, settlement.redeem_on_funds_leg, chan_unlock)
_WRONG_PREIMAGES = {"str": "r", "None": None, "int": 5, "bytearray": bytearray(RHO)}
_WRONG_ESCROWS = {"None": None, "list": [1], "str": "value"}


@pytest.mark.parametrize("arm, refusal", [
    *(pytest.param(_htlc_lock_with(escrow), InsufficientBalance, id=f"htlc_lock-escrow-{name}")
      for name, escrow in _WRONG_ESCROWS.items()),
    *(pytest.param(_claim_with(step, preimage), WrongPreimage, id=f"{step.__name__}-preimage-{name}")
      for step in _CLAIM_STEPS for name, preimage in _WRONG_PREIMAGES.items()),
])
def test_wrong_type_escrow_or_preimage_refused_before_anything_moves(world, arm, refusal):
    # an escrow that is no dict used to raise AttributeError, a preimage of
    # text, None or an int TypeError, and a bytearray holding the preimage paid out
    act = arm(world)
    before = (world.world_digest(), world.op_log_csv(), _unsnapshotted(world))
    with pytest.raises(refusal):
        act()
    assert (world.world_digest(), world.op_log_csv(), _unsnapshotted(world)) == before


def test_partial_settlement_without_closure(world):
    ch = chan_open(world, ALICE, BOB, 600, ["did:xrwa:asset-x", "did:xrwa:asset-y", "did:xrwa:asset-z"])
    s1 = make_state(ch, batch=["did:xrwa:asset-x", "did:xrwa:asset-y"], net_payment=200, buyer=ALICE, seller=BOB)
    chan_update(ch, s1)
    chan_lock(world, ch, H_RHO, 8, 5)
    chan_unlock(world, ch, RHO, at=2)
    # buyer holds the settled batch on the asset chain
    assert world.assets_of("C2", ALICE.pk) == {"did:xrwa:asset-x", "did:xrwa:asset-y"}
    assert world.balance("C1", BOB.pk) == 200
    # channel re-enters Open with seq preserved and the residual negotiable
    assert ch.phase == "Open"
    assert ch.latest.seq == 1
    s2 = make_state(
        ch,
        batch=["did:xrwa:asset-x", "did:xrwa:asset-y", "did:xrwa:asset-z"],
        net_payment=290,
        buyer=ALICE,
        seller=BOB,
    )
    chan_update(ch, s2)
    rho2 = digest(b"second-preimage")
    chan_lock(world, ch, digest(rho2), 12, 10)
    chan_unlock(world, ch, rho2, at=9)
    assert world.assets_of("C2", ALICE.pk) == {"did:xrwa:asset-x", "did:xrwa:asset-y", "did:xrwa:asset-z"}
    assert world.balance("C1", BOB.pk) == 290
    world.check_conservation()


def test_reused_hash_lock_refused(world):
    """Round 1 reveals RHO on chain; locking round 2 under its digest again
    would let the seller redeem the new payment with the public preimage
    and leave the buyer's new batch to refund."""
    ch = chan_open(world, ALICE, BOB, 1_000, ["did:xrwa:asset-x", "did:xrwa:asset-y"])
    first = make_state(ch, batch=["did:xrwa:asset-x"], net_payment=400, buyer=ALICE, seller=BOB)
    chan_update(ch, first)
    chan_lock(world, ch, H_RHO, 8, 5)
    chan_unlock(world, ch, RHO, at=1)
    both = ["did:xrwa:asset-x", "did:xrwa:asset-y"]
    chan_update(ch, make_state(ch, batch=both, net_payment=900, buyer=ALICE, seller=BOB))
    ops_before = len(world.op_log)
    with pytest.raises(ReusedHashLock):
        chan_lock(world, ch, H_RHO, world.clock + 8, world.clock + 5)
    assert ch.phase == "Open" and len(world.op_log) == ops_before
    assert [leg.state for leg in legs(world, ch)] == ["Idle", "Idle"]
    # a fresh preimage settles round 2 on both legs
    rho2 = digest(b"round-two-preimage")
    chan_lock(world, ch, digest(rho2), world.clock + 8, world.clock + 5)
    chan_unlock(world, ch, rho2, at=world.clock + 1)
    assert (ch.settled_assets, ch.settled_payment) == (set(both), 900)
    world.check_conservation()


def test_unlock_after_t2_expired(world):
    ch = locked_channel(world, t1=8, t2=5)
    with pytest.raises(Expired):
        chan_unlock(world, ch, RHO, at=5)
    world.advance_clock(8)
    chan_refund(world, ch, leg="assets")
    chan_refund(world, ch, leg="funds")
    assert ch.phase == "Open"


def test_second_unlock_same_preimage_wrong_phase(world):
    ch = locked_channel(world)
    chan_unlock(world, ch, RHO, at=1)
    with pytest.raises(WrongPhase):
        chan_unlock(world, ch, RHO, at=1)


def test_unlock_wrong_preimage(world):
    ch = locked_channel(world)
    with pytest.raises(WrongPreimage):
        chan_unlock(world, ch, b"guess", at=1)


def test_refund_c2_at_t2_then_c1_before_t1_rejected(world):
    ch = locked_channel(world, t1=8, t2=5)
    world.advance_clock(5)
    chan_refund(world, ch, leg="assets")
    with pytest.raises(NotYetExpired):
        chan_refund(world, ch, leg="funds")
    world.advance_clock(3)
    chan_refund(world, ch, leg="funds")
    assert ch.phase == "Open"


def test_step_dated_before_the_clock_refused(world):
    # unguarded, a reveal dated 0 after the clock passed both timeouts took
    # the assets, the honest seller's redeem then expired and the buyer
    # refunded the funds leg: a mixed round that check_all passed
    ch = locked_channel(world, t1=4, t2=2)
    world.advance_clock(10)
    before = (world.world_digest(), world.op_log_csv())
    with pytest.raises(PastTimeout):
        settlement.reveal_on_assets_leg(world, ch, RHO, at=0)
    assert (world.world_digest(), world.op_log_csv()) == before
    chan_refund(world, ch, leg="assets")
    chan_refund(world, ch, leg="funds")
    assert ch.phase == "Open" and ch.settled_assets == frozenset()

    # the dated claim below would pass its lock's timeout check
    lock = htlc_lock(world, "C1", ALICE.pk, BOB.pk, {"value": 300}, H_RHO, timeout=world.clock + 2)
    world.advance_clock(5)
    with pytest.raises(PastTimeout):
        htlc_unlock(world, lock, RHO, at=lock.timeout - 1)
    assert lock.state == "Locked"
    htlc_refund(world, lock)
    assert lock.state == "Refunded"


def test_htlc_refund_refused_at_every_clock_before_timeout(world):
    # a refund dated at the timeout with the clock at 0 would take the
    # escrow back and leave the beneficiary's claim to raise NotLocked
    assert "at" not in inspect.signature(htlc_refund).parameters
    assert "at" not in inspect.signature(chan_refund).parameters
    lock = htlc_lock(world, "C1", ALICE.pk, BOB.pk, {"value": 300}, H_RHO, timeout=5)
    for clock in range(5):
        if clock:
            world.advance_clock(1)
        assert world.clock == clock
        before = (world.world_digest(), world.op_log_csv())
        with pytest.raises(NotYetExpired):
            htlc_refund(world, lock)
        assert (world.world_digest(), world.op_log_csv()) == before
    htlc_unlock(world, lock, RHO)
    assert lock.state == "Unlocked" and world.balance("C1", BOB.pk) == 300
    world.check_all()


def test_funds_leg_refund_refused_inside_the_sellers_window():
    # a funds-leg refund dated t1 with the clock at 0 would leave the buyer
    # with the assets and the seller's redeem at 2 to raise NotLocked
    template_world, template, preimage = atomicity._locked_channel(0)
    world = template_world.fork()
    ch = world.channels[template.channel_id]
    world.advance_clock(1)
    settlement.reveal_on_assets_leg(world, ch, preimage)
    with pytest.raises(TypeError):
        chan_refund(world, ch, at=4, leg="funds")
    for clock in (1, 2, 3):
        if clock > 1:
            world.advance_clock(1)
        assert world.clock == clock
        with pytest.raises(NotYetExpired):
            chan_refund(world, ch, leg="funds")
    settlement.redeem_on_funds_leg(world, ch, preimage)
    assert ch.phase == "Open" and ch.settled_payment == 600
    assert world.assets_of("C2", atomicity._BUYER.pk) == {ch.deposit_assets[0]}
    assert world.balance("C1", atomicity._SELLER.pk) == 600
    world.check_all()


@pytest.mark.parametrize("leg", ["asset", ""])
def test_refund_unknown_leg_name_rejected(world, leg):
    # a refund names its one leg, and only "assets" or "funds" names one
    ch = locked_channel(world, t1=8, t2=5)
    world.advance_clock(8)
    with pytest.raises(ValueError):
        chan_refund(world, ch, leg=leg)
    with pytest.raises(TypeError):
        chan_refund(world, ch)
    assert [leg.state for leg in legs(world, ch)] == ["Locked", "Locked"]
    assert not [r for r in world.op_log if r.op_kind == "chan_refund"]


def test_refund_restores_pre_lock_assignment(world):
    ch = locked_channel(world, net=250, batch=("did:xrwa:asset-x",), t1=8, t2=5)
    holdings_before = {
        "buyer": world.assets_of("C2", ALICE.pk),
        "seller": world.assets_of("C2", BOB.pk),
        "escrow": set(legs(world, ch)[1].escrowed_assets),
    }
    world.advance_clock(8)
    chan_refund(world, ch, leg="assets")
    chan_refund(world, ch, leg="funds")
    assert world.assets_of("C2", ALICE.pk) == holdings_before["buyer"]
    assert world.assets_of("C2", BOB.pk) == holdings_before["seller"]
    assert set(legs(world, ch)[1].escrowed_assets) == holdings_before["escrow"]
    assert ch.settled_payment == 0 and not ch.settled_assets
    world.check_conservation()


def test_refund_then_three_more_update_rounds(world):
    ch = locked_channel(world, t1=8, t2=5)
    world.advance_clock(8)
    chan_refund(world, ch, leg="assets")
    chan_refund(world, ch, leg="funds")
    for i in range(3):
        state = make_state(ch, batch=["did:xrwa:asset-y"], net_payment=100 + i, buyer=ALICE, seller=BOB)
        chan_update(ch, state)
    assert ch.latest.seq == 4


def test_close_immediately_after_open_returns_deposits(world):
    ch = open_channel(world)
    chan_close(world, ch)
    assert world.balance("C1", ALICE.pk) == 1_000
    assert world.assets_of("C2", BOB.pk) == {"did:xrwa:asset-x", "did:xrwa:asset-y", "did:xrwa:asset-z"}
    assert ch.phase == "Closed"
    world.check_conservation()


def test_close_while_locked_rejected(world):
    ch = locked_channel(world)
    with pytest.raises(WrongPhase):
        chan_close(world, ch)


def test_update_after_close_rejected(world):
    ch = open_channel(world)
    chan_close(world, ch)
    state = make_state(ch, batch=[], net_payment=1, buyer=ALICE, seller=BOB)
    with pytest.raises(WrongPhase):
        chan_update(ch, state)


def test_close_honors_latest_state(world):
    ch = open_channel(world)
    state = make_state(ch, batch=["did:xrwa:asset-x"], net_payment=150, buyer=ALICE, seller=BOB)
    chan_update(ch, state)
    summary = chan_close(world, ch)
    assert world.balance("C1", BOB.pk) == 150
    assert world.assets_of("C2", ALICE.pk) == {"did:xrwa:asset-x"}
    assert summary["sellerPayment"] == 150
    world.check_conservation()


def test_single_release_audit(world):
    # every escrow is released to exactly one destination exactly once
    ch = locked_channel(world, net=100, batch=("did:xrwa:asset-x",))
    chan_unlock(world, ch, RHO, at=1)
    chan_close(world, ch)
    unlock_ops = [r for r in world.op_log if r.op_kind == "chan_unlock"]
    close_ops = [r for r in world.op_log if r.op_kind == "chan_close"]
    assert len(unlock_ops) == 2 and len(close_ops) == 2
    world.check_conservation()
    total = world.balance("C1", ALICE.pk) + world.balance("C1", BOB.pk)
    assert total == 1_000


def test_settled_totals_account_for_the_escrow_at_every_step(world):
    # each payout records itself: what a leg escrows and what the channel
    # has settled from it add up to the deposit after every step, mid-round
    # included, and after close the settled totals are what was received
    ch = open_channel(world)
    funds, assets = legs(world, ch)

    def holds():
        assert funds.escrowed_value + ch.settled_payment == ch.deposit_value
        assert assets.escrowed_assets | ch.settled_assets == set(ch.deposit_assets)
        world.check_conservation()

    holds()
    chan_update(ch, make_state(ch, batch=["did:xrwa:asset-x"], net_payment=250, buyer=ALICE, seller=BOB))
    holds()
    chan_lock(world, ch, H_RHO, 8, 5)
    holds()
    settlement.reveal_on_assets_leg(world, ch, RHO)
    assert ch.phase == "Locked" and ch.settled_assets == {"did:xrwa:asset-x"}
    holds()
    settlement.redeem_on_funds_leg(world, ch, RHO)
    assert ch.phase == "Open" and ch.settled_payment == 250
    holds()
    # a second round, refunded: nothing moves and nothing is recorded
    chan_update(ch, make_state(ch, batch=list(ch.deposit_assets), net_payment=500, buyer=ALICE, seller=BOB))
    holds()
    chan_lock(world, ch, digest(b"second-round"), 8, 5)
    holds()
    world.advance_clock(8)
    chan_refund(world, ch, leg="assets")
    chan_refund(world, ch, leg="funds")
    assert ch.phase == "Open" and (ch.settled_assets, ch.settled_payment) == ({"did:xrwa:asset-x"}, 250)
    holds()
    summary = chan_close(world, ch)
    assert ch.settled_assets == world.assets_of("C2", ALICE.pk) == set(ch.deposit_assets)
    assert ch.settled_payment == world.balance("C1", BOB.pk) == summary["sellerPayment"] == 500
    assert summary["buyerAssets"] == sorted(ch.settled_assets)
    world.check_conservation()


def _settled_channel(world):
    """A channel whose first round settled asset-x for 250."""
    ch = locked_channel(world, net=250, batch=("did:xrwa:asset-x",))
    chan_unlock(world, ch, RHO)
    return ch


def _update_stepping_back(batch, net):
    def refused(world):
        ch = _settled_channel(world)
        return lambda: chan_update(ch, make_state(ch, batch=batch, net_payment=net, buyer=ALICE, seller=BOB))
    return refused


def _update_naming_another_channel(world):
    ch = open_channel(world)
    state = settlement.ChannelState(channel_id="chan-elsewhere", seq=ch.latest.seq + 1, batch=[], net_payment=5)
    other = dataclasses.replace(state, sig_a=sign_state(ALICE, state), sig_b=sign_state(BOB, state))
    return lambda: chan_update(ch, other)


def _update_with_bad_buyer_signature(world):
    ch = open_channel(world)
    state = make_state(ch, batch=[], net_payment=5, buyer=ALICE, seller=BOB)
    return lambda: chan_update(ch, dataclasses.replace(state, sig_a=sign_state(BOB, state)))


def _lock_twice(world):
    ch = locked_channel(world)
    return lambda: chan_lock(world, ch, digest(b"another-round"), 9, 6)


def _lock_with_latest_missing_a_signature(world):
    ch = open_channel(world)
    chan_update(ch, make_state(ch, batch=[], net_payment=5, buyer=ALICE, seller=BOB))
    ch.latest = dataclasses.replace(ch.latest, sig_b=b"")
    return lambda: chan_lock(world, ch, H_RHO, 8, 5)


def _open_with_deposit(value):
    return lambda world: lambda: chan_open(world, ALICE, BOB, value, ["did:xrwa:asset-x"])


def _htlc_escrowing(value):
    return lambda world: lambda: htlc_lock(world, "C1", ALICE.pk, BOB.pk, {"value": value}, H_RHO, timeout=5)


def _htlc_timing_out(timeout):
    return lambda world: lambda: htlc_lock(world, "C1", ALICE.pk, BOB.pk, {"value": 5}, H_RHO, timeout=timeout)


def _lock_timing_out(t1, t2):
    def refused(world):
        ch = open_channel(world)
        return lambda: chan_lock(world, ch, H_RHO, t1, t2)
    return refused


def _htlc_unlock_dated(at):
    def refused(world):
        lock = htlc_lock(world, "C1", ALICE.pk, BOB.pk, {"value": 5}, H_RHO, timeout=5)
        return lambda: htlc_unlock(world, lock, RHO, at=at)
    return refused


def _chan_unlock_dated(at):
    def refused(world):
        ch = locked_channel(world)
        return lambda: chan_unlock(world, ch, RHO, at=at)
    return refused


def _update_paying(net):
    def refused(world):
        ch = open_channel(world)
        return lambda: chan_update(ch, make_state(ch, batch=[], net_payment=net, buyer=ALICE, seller=BOB))
    return refused


SETTLEMENT_REFUSALS = [
    ("update-unsettles-assets", _update_stepping_back([], 300), ConservationViolation, "un-settle"),
    ("update-below-settled-payment", _update_stepping_back(["did:xrwa:asset-x"], 100),
     ConservationViolation, "below what is already settled"),
    ("update-names-another-channel", _update_naming_another_channel, BadSignature, "different channel"),
    ("update-bad-buyer-signature", _update_with_bad_buyer_signature, BadSignature, "buyer signature"),
    ("lock-already-locked", _lock_twice, WrongPhase, "is Locked"),
    ("lock-latest-not-cosigned", _lock_with_latest_missing_a_signature, BadSignature, "not co-signed"),
    ("open-negative-deposit", _open_with_deposit(-1), InsufficientBalance, "is not a non-negative int"),
    ("htlc-negative-escrow", _htlc_escrowing(-1), InsufficientBalance, "is not a non-negative int"),
    # an amount is a non-negative int: a fraction, a bool or text is none
    ("open-fractional-deposit", _open_with_deposit(2.5), InsufficientBalance, "is not a non-negative int"),
    ("open-bool-deposit", _open_with_deposit(True), InsufficientBalance, "is not a non-negative int"),
    ("htlc-fractional-escrow", _htlc_escrowing(2.5), InsufficientBalance, "is not a non-negative int"),
    ("htlc-text-escrow", _htlc_escrowing("3"), InsufficientBalance, "is not a non-negative int"),
    ("update-fractional-payment", _update_paying(2.5), ConservationViolation, "net payment"),
    # a tick is a non-negative int as well: a timeout or a step's date too
    ("htlc-fractional-timeout", _htlc_timing_out(5.5), PastTimeout, "timeout 5.5 is not a tick"),
    ("htlc-bool-timeout", _htlc_timing_out(True), PastTimeout, "timeout True is not a tick"),
    ("htlc-text-timeout", _htlc_timing_out("5"), PastTimeout, "timeout '5' is not a tick"),
    ("lock-fractional-timeout", _lock_timing_out(5.5, 2), BadTimeouts, "t1=5.5"),
    ("lock-bool-timeout", _lock_timing_out(5, True), BadTimeouts, "t2=True"),
    ("htlc-unlock-fractional-date", _htlc_unlock_dated(1.5), PastTimeout, "step dated 1.5 is not a tick"),
    ("chan-unlock-fractional-date", _chan_unlock_dated(1.5), PastTimeout, "step dated 1.5 is not a tick"),
]


@pytest.mark.parametrize(
    "make_step, refusal, message",
    [row[1:] for row in SETTLEMENT_REFUSALS],
    ids=[row[0] for row in SETTLEMENT_REFUSALS],
)
def test_settlement_refusal_moves_nothing(world, make_step, refusal, message):
    step = make_step(world)
    channels = {cid: dict(vars(ch)) for cid, ch in world.channels.items()}
    before = (world.world_digest(), world.op_log_csv())
    with pytest.raises(refusal, match=message):
        step()
    assert (world.world_digest(), world.op_log_csv()) == before
    assert {cid: vars(ch) for cid, ch in world.channels.items()} == channels


def test_offchain_zero_cost_1_vs_1000_updates():
    logs = []
    for n_updates in (1, 1000):
        w = World(WorldConfig(seed=21))
        w.mint("C1", ALICE.pk, 1_000)
        w.mint_asset("C2", BOB.pk, "did:xrwa:asset-x")
        ch = chan_open(w, ALICE, BOB, 600, ["did:xrwa:asset-x"])
        for i in range(n_updates):
            chan_update(ch, make_state(ch, batch=[], net_payment=(i % 7), buyer=ALICE, seller=BOB))
        chan_lock(w, ch, H_RHO, 8, 5)
        chan_unlock(w, ch, RHO, at=1)
        logs.append(w.op_log_csv())
    assert logs[0] == logs[1]


# ------------------------------------------------------------ route bytes ----

# measured before the claim/refund rule, the channel lock and the escrow
# payout each became one function
ROUTE_PINS = [
    (run_htlc_route, 1,
     "0xc5367cca8804a2e27f91f502c1b46145dd50e5cd80a8d28891a4fb4c79e43ffb",
     "0xcfad3dd7db4bf1875c9c169258e52ef8a51d715377bb68d671b23e6b3cf794a5"),
    (run_channel_route, 1,
     "0x5da291f364281ac9ad27627ba19dbfa2bbe9d8b577b20dbc01830a9bb7f4d32f",
     "0xe6427a328c92dad288dca870486d7bb2e5b2287568fd4501a407771853b95241"),
    (run_htlc_route, 5,
     "0x9659c3612b0e1cc8d198e8343408a8baf6db398cf4a6006dea05db4b59442e31",
     "0x3b6973eecfd4b4973317bbe20d0b1af55cf016fcb8f2b17dd6c8a1774b022e76"),
    (run_channel_route, 5,
     "0x05b3a95e74e3c899956829eeebf4eb8cd30e4c18fd05cde4d1a863460ad8b743",
     "0x89ba0d03c3d047e659864a58fbc6a87d6b0990e7eff8da089f8ab06a13022ef4"),
]


@pytest.mark.parametrize("route, n, world_hex, op_log_hex", ROUTE_PINS)
def test_route_bytes_pinned(route, n, world_hex, op_log_hex):
    w = route(42, n)
    assert canonical.to_hex(w.world_digest()) == world_hex
    assert canonical.to_hex(digest(w.op_log_csv().encode())) == op_log_hex


# ------------------------------------------------------------- cost table ----

def test_default_cost_table_calibration():
    w = DEFAULT_WEIGHTS
    assert 2 * (w["htlc_lock"] + w["htlc_unlock"]) == 465_426
    assert 2 * (w["chan_open"] + w["chan_lock"] + w["chan_unlock"]) == 917_253
    for kind in settlement.HTLC_KINDS + settlement.CHANNEL_KINDS + ("anchor", "acceptance"):
        assert w[kind] > 0, kind


def test_unknown_op_kind_has_no_cost_weight(world):
    before = list(world.op_log)
    with pytest.raises(CostTableError):
        world.log_op("C1", "teleport")
    assert world.op_log == before


def test_route_cost_full_htlc_interaction(world):
    # one interaction: both chains lock, both unlock
    l1 = htlc_lock(world, "C1", ALICE.pk, BOB.pk, {"value": 100}, H_RHO, timeout=9)
    l2 = htlc_lock(world, "C2", BOB.pk, ALICE.pk, {"asset": "did:xrwa:asset-x"}, H_RHO, timeout=6)
    htlc_unlock(world, l2, RHO, at=2)
    htlc_unlock(world, l1, RHO, at=3)
    assert route_cost(world, settlement.HTLC_KINDS)[0] == 465_426
    assert route_cost(world, settlement.CHANNEL_KINDS)[0] == 0


def test_route_cost_full_channel_lifecycle(world):
    ch = locked_channel(world, net=100)
    chan_unlock(world, ch, RHO, at=1)
    assert route_cost(world, settlement.CHANNEL_KINDS)[0] == 917_253
    assert route_cost(world, settlement.HTLC_KINDS)[0] == 0
    kinds = [rec.op_kind for rec in world.op_log]
    assert kinds.count("chan_open") == 2
    assert kinds.count("chan_lock") == 2
    assert kinds.count("chan_unlock") == 2


# -------------------------------------------------------------- atomicity ----

def test_schedule_no_reveal_both_refunded():
    out = run_schedule(Schedule(None, 0, 2, 4, False))
    assert not out.assets_settled and not out.funds_settled


def test_schedule_prompt_reveal_both_settled():
    out = run_schedule(Schedule(1, 0, None, None, False))
    assert out.assets_settled and out.funds_settled


def test_schedule_late_reveal_rejected_then_refunds():
    out = run_schedule(Schedule(3, 0, 2, 4, True))  # reveal after t2=2
    assert not out.assets_settled and not out.funds_settled


def test_exhaustive_interleavings_no_mixed_outcomes():
    outcomes = explore_schedules()
    assert len(outcomes) == 6 * 3 * 6 * 6 * 2
    mixed = [o for o in outcomes if o.mixed]
    assert mixed == []
    # both terminal classes are actually reachable
    assert any(o.assets_settled and o.funds_settled for o in outcomes)
    assert any(not o.assets_settled and not o.funds_settled for o in outcomes)


def test_fuzzed_schedules_no_mixed_outcomes_small():
    outcomes = fuzz_schedules(500)
    assert all(not o.mixed for o in outcomes)


def outcomes_digest(outcomes):
    h = hashlib.sha256()
    for o in outcomes:
        s = o.schedule
        h.update(
            f"{s.reveal_tick},{s.seller_delay},{s.refund_assets_at},{s.refund_funds_at},"
            f"{s.refunds_first},{o.assets_settled},{o.funds_settled}\n".encode()
        )
    return h.hexdigest()


def template_state(seed):
    world, channel, preimage = atomicity._locked_channel(seed)
    return (
        world.world_digest(), world.op_log_csv(), world.rng.getstate(),
        dataclasses.asdict(channel), preimage,
    )


def test_sweep_outcomes_pinned_and_templates_untouched():
    before = {seed: template_state(seed) for seed in range(17)}
    # digests of every outcome, in order, from building each schedule's
    # locked channel afresh
    assert outcomes_digest(explore_schedules()) == (
        "c00b5d4405901240133540f88e2e33466a9e802de9a90fda8b83327429dcc7a6"
    )
    assert outcomes_digest(fuzz_schedules(2_000)) == (
        "28f3d73cd34f69d840cdd7c38ff100e0276c0f0de4776a6dc8306f7d2ea5dcc4"
    )
    assert {seed: template_state(seed) for seed in range(17)} == before
    world, channel, _ = atomicity._locked_channel(0)
    assert channel.phase == "Locked" and legs(world, channel)[0].state == "Locked"
    world.check_all()


def test_two_rounds_on_a_fork_leave_the_template_untouched():
    """Round 1 settles and round 2 refunds on a fork of the sweep's template;
    the template's world and channel read as they did before."""
    world, template, preimage = atomicity._locked_channel(0)
    before = (world.world_digest(), world.op_log_csv(), dataclasses.asdict(template))
    fork = world.fork()
    ch = fork.channels[template.channel_id]
    buyer, seller = atomicity._BUYER, atomicity._SELLER
    settlement.reveal_on_assets_leg(fork, ch, preimage, at=1)
    settlement.redeem_on_funds_leg(fork, ch, preimage, at=1)
    assert ch.phase == "Open" and ch.settled_payment == 600
    chan_update(ch, make_state(ch, batch=list(ch.deposit_assets), net_payment=900, buyer=buyer, seller=seller))
    with pytest.raises(ReusedHashLock):
        chan_lock(fork, ch, digest(preimage), 8, 6)
    chan_lock(fork, ch, digest(b"round-two-on-a-fork"), 8, 6)
    fork.advance_clock(8)
    chan_refund(fork, ch, leg="assets")
    chan_refund(fork, ch, leg="funds")
    assert ch.phase == "Open" and ch.latest.seq == 2
    assert (ch.settled_assets, ch.settled_payment) == ({ch.deposit_assets[0]}, 600)
    fork.check_all()
    assert (world.world_digest(), world.op_log_csv(), dataclasses.asdict(template)) == before


def test_sibling_forks_of_the_template_step_apart():
    """Two schedules' steps, interleaved tick by tick on two forks of the
    sweep's template, each end as `run_schedule` ends that schedule alone,
    and the template reads as it did before."""
    settles = Schedule(reveal_tick=1, seller_delay=1, refund_assets_at=None, refund_funds_at=None,
                       refunds_first=False)
    refunds = Schedule(reveal_tick=None, seller_delay=0, refund_assets_at=2, refund_funds_at=3,
                       refunds_first=True)
    world, template, preimage = atomicity._locked_channel(0)
    before = (world.world_digest(), world.op_log_csv(), dataclasses.asdict(template))
    a, b = world.fork(), world.fork()
    ch_a, ch_b = a.channels[template.channel_id], b.channels[template.channel_id]
    for t in range(5):
        if t:
            a.advance_clock(1)
            b.advance_clock(1)
        if t == 1:
            settlement.reveal_on_assets_leg(a, ch_a, preimage)
        if t == 2:
            # the assets leg `a` claimed a tick ago is still Locked in `b`
            chan_refund(b, ch_b, leg="assets")
            settlement.redeem_on_funds_leg(a, ch_a, preimage)
        if t == 3:
            with pytest.raises(NotYetExpired):
                chan_refund(b, ch_b, leg="funds")
    for fork, ch in ((a, ch_a), (b, ch_b)):
        fork.advance_clock(5 - fork.clock)
        for leg in ("assets", "funds"):
            try:
                chan_refund(fork, ch, leg=leg)
            except WrongPhase:
                pass
        fork.check_conservation()
    buyer, seller = atomicity._BUYER.pk, atomicity._SELLER.pk
    ends = [(bool(fork.assets_of("C2", buyer)), fork.balance("C1", seller) > 0) for fork in (a, b)]
    alone = [(o.assets_settled, o.funds_settled) for o in (run_schedule(settles), run_schedule(refunds))]
    assert ends == alone == [(True, True), (False, False)]
    assert (world.world_digest(), world.op_log_csv(), dataclasses.asdict(template)) == before


def test_fork_refuses_the_template_contracts():
    """A channel or an HTLC is stepped in the world that holds it. Handed
    the template of a fork, a reveal in the fork used to claim the
    template's assets leg while it paid the assets out in the fork, and an
    HTLC claim paid the fork's beneficiary while it marked the template's
    lock Unlocked."""
    sweep_world, sweep_template, preimage = atomicity._locked_channel(0)
    world = sweep_world.fork()
    template = world.channels[sweep_template.channel_id]
    world.mint("C1", ALICE.pk, 100)
    lock = htlc_lock(world, "C1", ALICE.pk, BOB.pk, {"value": 40}, H_RHO, timeout=5)
    fork = world.fork()

    def state():
        return (
            world.world_digest(), world.op_log_csv(), fork.world_digest(), fork.op_log_csv(),
            dataclasses.asdict(template), dataclasses.asdict(lock),
        )

    before = state()
    # each step refuses before it reads the clock or the phase, so the
    # refusal is never a WrongPhase that a schedule would ignore
    for step in (
        lambda: settlement.reveal_on_assets_leg(fork, template, preimage),
        lambda: settlement.redeem_on_funds_leg(fork, template, preimage),
        lambda: chan_unlock(fork, template, preimage),
        lambda: chan_refund(fork, template, leg="assets"),
        lambda: chan_lock(fork, template, digest(b"another-round"), 8, 6),
        lambda: chan_close(fork, template),
        lambda: htlc_unlock(fork, lock, RHO),
        lambda: htlc_refund(fork, lock),
    ):
        with pytest.raises(ValueError, match="not a (channel|contract) of this world"):
            step()
    assert state() == before
    # the fork's own copies of the channel and the lock settle
    chan_unlock(fork, fork.channels[template.channel_id], preimage)
    assert fork.channels[template.channel_id].settled_payment == 600
    htlc_unlock(fork, fork.chains["C1"].contracts[lock.contract_id], RHO)
    assert fork.balance("C1", BOB.pk) == 40
    fork.check_all()
    assert template.phase == "Locked" and legs(world, template)[1].state == "Locked"
    assert lock.state == "Locked" and world.balance("C1", BOB.pk) == 0
    world.check_all()


def test_sweep_builds_each_channel_once_and_each_key_object_once(monkeypatch):
    built = []
    real = primitives.Ed25519PrivateKey

    class Counting:
        @staticmethod
        def from_private_bytes(sk):
            built.append(sk)
            return real.from_private_bytes(sk)

    monkeypatch.setattr(primitives, "Ed25519PrivateKey", Counting)
    primitives._private_key.cache_clear()
    atomicity._locked_channel.cache_clear()
    outcomes = explore_schedules()
    assert len(outcomes) == 1296
    assert atomicity._locked_channel.cache_info().misses == 1
    # buyer, seller and the world's treasury, one key object each
    world = atomicity._locked_channel(0)[0]
    assert len(built) <= 3
    assert set(built) <= {atomicity._BUYER.sk, atomicity._SELLER.sk, world.treasury.sk}


def test_sweep_builds_one_generator_and_no_fork_copies_it(monkeypatch):
    built = []

    class Counting(random.Random):
        def __init__(self, seed):
            built.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(ledger, "random", types.SimpleNamespace(Random=Counting))
    atomicity._locked_channel.cache_clear()
    outcomes = explore_schedules()
    assert len(outcomes) == 1296
    # the template's own: no schedule draws, so no fork takes a private copy
    assert built == [atomicity._locked_channel(0)[0].config.seed]


def _counting(calls, name, real):
    """`real`, appending `name` to `calls` on each call."""
    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)
    return wrapper


def test_sweep_builds_no_json_encoder_and_calls_no_copy_function(monkeypatch):
    calls = []
    monkeypatch.setattr(json.JSONEncoder, "__init__", _counting(calls, "JSONEncoder", json.JSONEncoder.__init__))
    monkeypatch.setattr(copy, "copy", _counting(calls, "copy", copy.copy))
    monkeypatch.setattr(copy, "deepcopy", _counting(calls, "deepcopy", copy.deepcopy))
    atomicity._locked_channel.cache_clear()
    outcomes = explore_schedules()
    assert len(outcomes) == 1296
    # the template's mints, open, update and lock included
    assert calls == []


def test_warm_sweep_encodes_and_hashes_no_op_log_entry(monkeypatch):
    # the op-log entries of a thrown-away schedule world are never read, so
    # their descriptors are neither encoded nor hashed
    explore_schedules()
    calls = []
    monkeypatch.setattr(canonical, "dumps_bytes", _counting(calls, "dumps_bytes", canonical.dumps_bytes))
    monkeypatch.setattr(ledger, "digest", _counting(calls, "digest", ledger.digest))
    assert len(explore_schedules()) == 1296
    assert calls == []
