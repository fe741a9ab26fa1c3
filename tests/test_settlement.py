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
    chan_refund(world, ch)
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


def test_refund_both_legs_refused_before_t1_moves_nothing(world):
    # past t2 but before t1: the assets leg could refund, the funds leg cannot
    ch = locked_channel(world, t1=8, t2=5)
    world.advance_clock(6)
    with pytest.raises(NotYetExpired):
        chan_refund(world, ch)
    assert [leg.state for leg in legs(world, ch)] == ["Locked", "Locked"]
    assert not [r for r in world.op_log if r.op_kind == "chan_refund"]
    world.advance_clock(2)
    chan_refund(world, ch)
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
    chan_refund(world, ch)
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
    template_world, template, preimage = atomicity._locked_channel(0, 4, 2)
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


def test_refund_unknown_leg_name_rejected(world):
    ch = locked_channel(world, t1=8, t2=5)
    world.advance_clock(8)
    with pytest.raises(ValueError):
        chan_refund(world, ch, leg="asset")
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
    chan_refund(world, ch)
    assert world.assets_of("C2", ALICE.pk) == holdings_before["buyer"]
    assert world.assets_of("C2", BOB.pk) == holdings_before["seller"]
    assert set(legs(world, ch)[1].escrowed_assets) == holdings_before["escrow"]
    assert ch.settled_payment == 0 and not ch.settled_assets
    world.check_conservation()


def test_refund_then_three_more_update_rounds(world):
    ch = locked_channel(world, t1=8, t2=5)
    world.advance_clock(8)
    chan_refund(world, ch)
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
    outcomes = explore_schedules(t1=4, t2=2, window=5)
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


def template_state(seed, t1=4, t2=2):
    world, channel, preimage = atomicity._locked_channel(seed, t1, t2)
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
    world, channel, _ = atomicity._locked_channel(0, 4, 2)
    assert channel.phase == "Locked" and legs(world, channel)[0].state == "Locked"
    world.check_all()


def test_two_rounds_on_a_fork_leave_the_template_untouched():
    """Round 1 settles and round 2 refunds on a fork of the sweep's template;
    the template's world and channel read as they did before."""
    world, template, preimage = atomicity._locked_channel(0, 4, 2)
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
    chan_refund(fork, ch)
    assert ch.phase == "Open" and ch.latest.seq == 2
    assert (ch.settled_assets, ch.settled_payment) == ({ch.deposit_assets[0]}, 600)
    fork.check_all()
    assert (world.world_digest(), world.op_log_csv(), dataclasses.asdict(template)) == before


def test_fork_refuses_the_template_channel():
    """A channel is stepped in the world that holds it. Handed the template
    of a fork, a reveal in the fork used to claim the template's assets leg
    while it paid the assets out in the fork."""
    world, template, preimage = atomicity._locked_channel(0, 4, 2)
    fork = world.fork()
    before = (
        world.world_digest(), world.op_log_csv(), fork.world_digest(), fork.op_log_csv(),
        dataclasses.asdict(template),
    )
    # each step refuses before it reads the clock or the phase, so the
    # refusal is never a WrongPhase that a schedule would ignore
    for step in (
        lambda: settlement.reveal_on_assets_leg(fork, template, preimage),
        lambda: settlement.redeem_on_funds_leg(fork, template, preimage),
        lambda: chan_unlock(fork, template, preimage),
        lambda: chan_refund(fork, template),
        lambda: chan_lock(fork, template, digest(b"another-round"), 8, 6),
        lambda: chan_close(fork, template),
    ):
        with pytest.raises(ValueError, match="not a channel of this world"):
            step()
    after = (
        world.world_digest(), world.op_log_csv(), fork.world_digest(), fork.op_log_csv(),
        dataclasses.asdict(template),
    )
    assert after == before
    # the fork's own copy of the channel settles
    chan_unlock(fork, fork.channels[template.channel_id], preimage)
    assert fork.channels[template.channel_id].settled_payment == 600
    assert template.phase == "Locked" and legs(world, template)[1].state == "Locked"


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
    world = atomicity._locked_channel(0, 4, 2)[0]
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
    assert built == [atomicity._locked_channel(0, 4, 2)[0].config.seed]


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
