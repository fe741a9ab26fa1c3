"""Schedule exploration for the two-leg settlement lock.

Drives the real channel implementation through adversarial timing
schedules: when (or whether) the buyer reveals the preimage, how long the
seller waits to redeem, and when refunds are attempted on each leg. A run
is mixed when exactly one side of the trade settled: the buyer took the
asset batch but the seller's payment leg was refunded, or vice versa.

The protocol's liveness assumption is built in: an honest seller redeems
within t1 - t2 ticks of the preimage becoming public (that gap is exactly
what the staggered timeouts buy). Within that assumption the checker
explores, exhaustively on a small window, every reveal tick, every seller
delay up to the gap, every refund landing tick per leg, and both
within-tick orderings; refund attempts before eligibility are rejected
without changing state, so only the first effective attempt per leg needs
enumerating.

Only the seed and the two timeouts shape the locked channel a schedule
starts from, so it is built once per `(seed, t1, t2)`: a template world in
which the channel is opened, updated under both signatures and locked.
Each schedule runs on a `World.fork` of that template, whose copy of the
channel it reads from the fork's channel registry, ticks the fork's clock
once per step and drives the real settlement functions undated; the
template itself is never touched.
A schedule's outcome is read from what the chains hold at its end: the
buyer's assets on C2 and the seller's balance on C1.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Optional

from . import settlement
from .errors import Expired, NotYetExpired, WrongPhase, WrongPreimage
from .ledger import World, WorldConfig
from .primitives import digest, keygen

__all__ = ["Schedule", "Outcome", "run_schedule", "explore_schedules", "fuzz_schedules"]

_BUYER = keygen(digest(b"atomicity-buyer"))
_SELLER = keygen(digest(b"atomicity-seller"))


@dataclass(frozen=True)
class Schedule:
    reveal_tick: Optional[int]
    seller_delay: int
    refund_assets_at: Optional[int]
    refund_funds_at: Optional[int]
    refunds_first: bool


@dataclass(frozen=True)
class Outcome:
    schedule: Schedule
    assets_settled: bool
    funds_settled: bool

    @property
    def mixed(self) -> bool:
        return self.assets_settled != self.funds_settled


@functools.lru_cache(maxsize=128)
def _locked_channel(seed: int, t1: int, t2: int):
    """The template a schedule forks: world, locked channel and preimage.
    Cached, so callers must not mutate what it returns."""
    world = World(WorldConfig(seed=seed))
    world.mint("C1", _BUYER.pk, 1_000)
    assets = ["did:xrwa:atomic-a1", "did:xrwa:atomic-a2"]
    for a in assets:
        world.mint_asset("C2", _SELLER.pk, a)
    channel = settlement.chan_open(world, _BUYER, _SELLER, 1_000, assets)
    state = settlement.make_state(channel, batch=[assets[0]], net_payment=600, buyer=_BUYER, seller=_SELLER)
    settlement.chan_update(channel, state)
    preimage = digest(b"atomicity-preimage" + seed.to_bytes(4, "big"))
    settlement.chan_lock(world, channel, digest(preimage), t1, t2)
    return world, channel, preimage


def run_schedule(schedule: Schedule, t1: int = 4, t2: int = 2, window: int = 5, seed: int = 0) -> Outcome:
    template_world, template, preimage = _locked_channel(seed, t1, t2)
    world = template_world.fork()
    channel = world.channels[template.channel_id]
    redeem_at: Optional[int] = None

    def try_refunds(t: int) -> None:
        for leg_name, refund_at in (
            ("assets", schedule.refund_assets_at),
            ("funds", schedule.refund_funds_at),
        ):
            if refund_at == t:
                try:
                    settlement.chan_refund(world, channel, leg=leg_name)
                except (NotYetExpired, WrongPhase):
                    pass

    for t in range(window):
        if t:
            world.advance_clock(1)
        if schedule.refunds_first:
            try_refunds(t)
        if schedule.reveal_tick == t:
            try:
                settlement.reveal_on_assets_leg(world, channel, preimage)
                redeem_at = t + schedule.seller_delay
            except (Expired, WrongPhase, WrongPreimage):
                pass
        if redeem_at == t:
            try:
                settlement.redeem_on_funds_leg(world, channel, preimage)
            except (Expired, WrongPhase):
                pass
        if not schedule.refunds_first:
            try_refunds(t)

    # anything still locked is refunded at its timeout; every timeout is at
    # most `max(window, t1)`, so a leg still Locked cannot raise NotYetExpired
    world.advance_clock(max(window, t1) - world.clock)
    for leg_name in ("assets", "funds"):
        try:
            settlement.chan_refund(world, channel, leg=leg_name)
        except WrongPhase:
            pass

    world.check_conservation()
    return Outcome(
        schedule=schedule,
        assets_settled=bool(world.assets_of("C2", _BUYER.pk)),
        funds_settled=world.balance("C1", _SELLER.pk) > 0,
    )


def explore_schedules(t1: int = 4, t2: int = 2, window: int = 5) -> list[Outcome]:
    """Exhaustive sweep; returns every outcome (callers assert none mixed)."""
    ticks = list(range(window)) + [None]
    outcomes = []
    for reveal, delay, ra, rf, first in itertools.product(
        ticks, range(t1 - t2 + 1), ticks, ticks, (False, True)
    ):
        schedule = Schedule(
            reveal_tick=reveal,
            seller_delay=delay,
            refund_assets_at=ra,
            refund_funds_at=rf,
            refunds_first=first,
        )
        outcomes.append(run_schedule(schedule, t1=t1, t2=t2, window=window))
    return outcomes


def fuzz_schedules(
    n: int, t1: int = 4, t2: int = 2, window: int = 5, seed: int = 0xA70
) -> list[Outcome]:
    rng = random.Random(seed)
    ticks = list(range(window)) + [None]
    outcomes = []
    for i in range(n):
        schedule = Schedule(
            reveal_tick=rng.choice(ticks),
            seller_delay=rng.randrange(t1 - t2 + 1),
            refund_assets_at=rng.choice(ticks),
            refund_funds_at=rng.choice(ticks),
            refunds_first=rng.random() < 0.5,
        )
        outcomes.append(run_schedule(schedule, t1=t1, t2=t2, window=window, seed=i % 17))
    return outcomes
