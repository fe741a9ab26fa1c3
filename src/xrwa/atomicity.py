"""Schedule exploration for the two-leg settlement lock.

Drives the real channel implementation through adversarial timing
schedules: when (or whether) the buyer reveals the preimage, how long the
seller waits to redeem, and when refunds are attempted on each leg. A run
is mixed when exactly one side of the trade settled: the buyer took the
asset batch but the seller's payment leg was refunded, or vice versa.

The protocol's liveness assumption is built in: an honest seller redeems
within T1 - T2 ticks of the preimage becoming public (that gap is exactly
what the staggered timeouts buy). Within that assumption the checker
explores, exhaustively on a small window, every reveal tick, every seller
delay up to the gap, every refund landing tick per leg, and both
within-tick orderings; refund attempts before eligibility are rejected
without changing state, so only the first effective attempt per leg needs
enumerating.

Every schedule runs under the same timeouts `T1` and `T2` and spans
`WINDOW` ticks, so only the seed shapes the locked channel a schedule
starts from, and it is built once per seed: a template world in which the
channel is opened, updated under both signatures and locked.
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
from typing import NamedTuple, Optional

from . import canonical, settlement
from .errors import Expired, NotYetExpired, WrongPhase, WrongPreimage
from .ledger import World, WorldConfig
from .primitives import digest, keygen

__all__ = ["Schedule", "Outcome", "run_schedule", "explore_schedules", "fuzz_schedules"]

_BUYER = keygen(digest(b"atomicity-buyer"))
_SELLER = keygen(digest(b"atomicity-seller"))
# the account keys an outcome is read under (`World.assets_of`, `World.balance`)
_BUYER_ACCOUNT = canonical.to_hex(_BUYER.pk)
_SELLER_ACCOUNT = canonical.to_hex(_SELLER.pk)

# the funds leg's and the assets leg's timeouts, and the ticks a schedule spans
T1, T2, WINDOW = 4, 2, 5


@dataclass(frozen=True)
class Schedule:
    reveal_tick: Optional[int]
    seller_delay: int
    refund_assets_at: Optional[int]
    refund_funds_at: Optional[int]
    refunds_first: bool


class Outcome(NamedTuple):
    schedule: Schedule
    assets_settled: bool
    funds_settled: bool

    @property
    def mixed(self) -> bool:
        return self.assets_settled != self.funds_settled


@functools.lru_cache(maxsize=128)
def _locked_channel(seed: int):
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
    settlement.chan_lock(world, channel, digest(preimage), T1, T2)
    return world, channel, preimage


def _try_refunds(world: World, channel: settlement.Channel,
                 refunds: tuple[tuple[str, Optional[int]], ...], t: int) -> None:
    """Attempt the refund of each `(leg, tick)` of `refunds` that lands at `t`."""
    for leg, refund_at in refunds:
        if refund_at == t:
            try:
                settlement.chan_refund(world, channel, leg=leg)
            except (NotYetExpired, WrongPhase):
                pass


def run_schedule(schedule: Schedule, seed: int = 0) -> Outcome:
    """Run `schedule` on a fork of the seed's template and read its outcome.
    The fork is audited with `World.check_conservation` alone, not the whole
    `scenarios.check_world`, because every schedule of a sweep runs it."""
    template_world, template, preimage = _locked_channel(seed)
    world = template_world.fork()
    channel = world.channels[template.channel_id]
    refunds = (("assets", schedule.refund_assets_at), ("funds", schedule.refund_funds_at))
    redeem_at: Optional[int] = None

    for t in range(WINDOW):
        if t:
            world.advance_clock(1)
        if schedule.refunds_first:
            _try_refunds(world, channel, refunds, t)
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
            _try_refunds(world, channel, refunds, t)

    # anything still locked is refunded at its timeout; every timeout is at
    # most `max(WINDOW, T1)`, so a leg still Locked cannot raise NotYetExpired
    world.advance_clock(max(WINDOW, T1) - world.clock)
    for leg_name in ("assets", "funds"):
        try:
            settlement.chan_refund(world, channel, leg=leg_name)
        except WrongPhase:
            pass

    world.check_conservation()
    return Outcome(
        schedule,
        bool(world.chains["C2"].holdings.get(_BUYER_ACCOUNT)),
        world.chains["C1"].balances.get(_SELLER_ACCOUNT, 0) > 0,
    )


def explore_schedules() -> list[Outcome]:
    """Exhaustive sweep; returns every outcome (callers assert none mixed)."""
    ticks = list(range(WINDOW)) + [None]
    outcomes = []
    for reveal, delay, ra, rf, first in itertools.product(
        ticks, range(T1 - T2 + 1), ticks, ticks, (False, True)
    ):
        schedule = Schedule(
            reveal_tick=reveal,
            seller_delay=delay,
            refund_assets_at=ra,
            refund_funds_at=rf,
            refunds_first=first,
        )
        outcomes.append(run_schedule(schedule))
    return outcomes


def fuzz_schedules(n: int) -> list[Outcome]:
    rng = random.Random(0xA70)
    ticks = list(range(WINDOW)) + [None]
    outcomes = []
    for i in range(n):
        schedule = Schedule(
            reveal_tick=rng.choice(ticks),
            seller_delay=rng.randrange(T1 - T2 + 1),
            refund_assets_at=rng.choice(ticks),
            refund_funds_at=rng.choice(ticks),
            refunds_first=rng.random() < 0.5,
        )
        outcomes.append(run_schedule(schedule, seed=i % 17))
    return outcomes
