"""Executable scenarios: the full cross-chain trade and the two settlement
routes used for cost comparison, and `check_world`, the audits a sound
world passes.

Each scenario builds its own fresh world from a seed, so runs are
reproducible byte for byte, and replaying with the same seed yields an
identical op log. Each ends with `check_world`.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import credential, identity, settlement, xauth
from .fixtures import fixture_items
from .ledger import World, WorldConfig
from .primitives import KeyPair, digest, keygen

__all__ = [
    "Parties",
    "build_parties",
    "check_world",
    "WORLD_AUDITS",
    "TRANSFER_DISCLOSURE",
    "run_e2e",
    "run_htlc_route",
    "run_channel_route",
]

# fields a presentation discloses when an asset crosses chains: enough to
# rebuild the anchored commitment plus the compliance region list
TRANSFER_DISCLOSURE = [
    "asset.assetId",
    "asset.assetType",
    "asset.tokenBinding",
    "compliance.sellableRegions",
    "identity.attributes",
]

# value paid per asset in the cost-comparison settlement routes
PRICE_EACH = 1_000


@dataclass(frozen=True)
class Parties:
    issuer: KeyPair
    holder: KeyPair  # asset owner; the seller in settlement scenarios
    buyer: KeyPair


# every world audit, in the order `check_world` runs them
WORLD_AUDITS = (*World.LEDGER_AUDITS, xauth.check_acceptance_soundness, identity.check_authorization)


def check_world(world: World) -> None:
    """Every world audit, so a sound world passes this one call: the ledger's
    linkage, light-client, conservation and account audits (`World.check_all`),
    each acceptance traced to a relayed anchor, and each DID head change
    authorized. Raises `InvariantViolation` at the first that fails."""
    for audit in WORLD_AUDITS:
        audit(world)


def build_parties(world: World, seed: int) -> Parties:
    def key_for(name: str) -> KeyPair:
        return keygen(digest(b"actor-" + name.encode() + b"-" + seed.to_bytes(8, "big")))

    parties = Parties(issuer=key_for("issuer"), holder=key_for("holder"), buyer=key_for("buyer"))
    identity.did_create(world, parties.issuer)
    identity.did_create(world, parties.holder)
    return parties


def run_e2e(seed: int, n_updates: int) -> dict:
    """Full trade: issue on the source chain, anchor, relay, authenticate on
    the destination, migrate the asset, then open a channel, negotiate
    off-chain, and settle one batch without closing the channel."""
    source, dest = "C1", "C2"
    world = World(WorldConfig(seed=seed))
    parties = build_parties(world, seed)
    world.mint(source, parties.buyer.pk, 1_000_000)

    request = credential.request(fixture_items("RE"), parties.holder)
    cred = credential.issue(world, request, parties.issuer)
    asset_id = cred.asset["assetId"]
    world.mint_asset(source, parties.holder.pk, asset_id)

    presentation = credential.prove(cred, parties.holder, TRANSFER_DISCLOSURE)
    epoch = len(world.chains[source].blocks)
    commitment = xauth.make_commitment(
        world, source, presentation, cred.asset["tokenBinding"], epoch, world.rng.randbytes(16)
    )
    tx_id, header = xauth.anchor(world, source, commitment, parties.issuer)
    world.relay_chain(dest, source)
    proof = xauth.spv_prove(world, tx_id, (source, header.height))
    tx = world.chains[source].blocks[header.height].txs[proof.path.leaf_index]
    xauth.authenticate(world, dest, tx, proof, presentation)

    # burn-and-reissue migration: the token now lives on the destination chain
    world.burn_asset(source, parties.holder.pk, asset_id)
    world.mint_asset(dest, parties.holder.pk, asset_id)

    channel = settlement.chan_open(world, parties.buyer, parties.holder, 500_000, [asset_id])
    price = 0
    for i in range(n_updates):
        price = 400_000 + i * 100
        state = settlement.make_state(
            channel, batch=[asset_id], net_payment=price,
            buyer=parties.buyer, seller=parties.holder,
        )
        settlement.chan_update(channel, state)

    preimage = digest(b"e2e-settlement-" + seed.to_bytes(8, "big"))
    t2, t1 = world.clock + 2, world.clock + 4
    settlement.chan_lock(world, channel, digest(preimage), t1, t2)
    settlement.chan_unlock(world, channel, preimage)

    check_world(world)
    return {
        "world": world,
        "proofBundle": {
            "proof": proof.to_json(),
            "tx": tx.to_json(),
            "headers": [h.to_json() for h in world.relayed[(dest, source)]],
        },
        "results": {
            "acceptanceRecords": len(world.acceptance_records[dest]),
            "settledBatch": sorted(channel.settled_assets),
            "settledPayment": channel.settled_payment,
            "negotiatedPrice": price,
            "updates": n_updates,
            "channelPhase": channel.phase,
            "sourceVerifications": world.verify_counts.get(source, 0),
            "destVerifications": world.verify_counts.get(dest, 0),
            "buyerHoldsAsset": asset_id in world.assets_of(dest, parties.buyer.pk),
            "sellerPaid": world.balance(source, parties.holder.pk) == price,
        },
    }


def _settlement_world(seed: int, n_assets: int) -> tuple[World, Parties, list[str]]:
    """World with funds on C1 and locally issued assets on C2, ready for
    either settlement route."""
    world = World(WorldConfig(seed=seed))
    parties = build_parties(world, seed)
    world.mint("C1", parties.buyer.pk, 10_000_000)
    assets = []
    for i in range(n_assets):
        asset_id = f"did:xrwa:lot-{i:04d}"
        world.mint_asset("C2", parties.holder.pk, asset_id)
        assets.append(asset_id)
    return world, parties, assets


def run_htlc_route(seed: int, n: int) -> World:
    """n cross-chain interactions over plain hash-timelock escrows: every
    interaction locks and unlocks on both chains."""
    world, parties, assets = _settlement_world(seed, n)
    for i, asset_id in enumerate(assets):
        rho = digest(b"htlc-rho-" + i.to_bytes(4, "big") + seed.to_bytes(8, "big"))
        cond = digest(rho)
        t1, t2 = world.clock + 4, world.clock + 2
        funds = settlement.htlc_lock(
            world, "C1", parties.buyer.pk, parties.holder.pk, {"value": PRICE_EACH}, cond, t1
        )
        asset = settlement.htlc_lock(
            world, "C2", parties.holder.pk, parties.buyer.pk, {"asset": asset_id}, cond, t2
        )
        settlement.htlc_unlock(world, asset, rho)
        settlement.htlc_unlock(world, funds, rho)
    check_world(world)
    return world


def run_channel_route(seed: int, n: int) -> World:
    """n cross-chain interactions inside one channel: open once, negotiate n
    signed off-chain states, then a single lock/unlock settles the union."""
    world, parties, assets = _settlement_world(seed, n)
    channel = settlement.chan_open(
        world, parties.buyer, parties.holder, PRICE_EACH * n, list(assets)
    )
    for i in range(n):
        state = settlement.make_state(
            channel,
            batch=assets[: i + 1],
            net_payment=PRICE_EACH * (i + 1),
            buyer=parties.buyer,
            seller=parties.holder,
        )
        settlement.chan_update(channel, state)
    rho = digest(b"channel-rho-" + seed.to_bytes(8, "big"))
    t2, t1 = world.clock + 2, world.clock + 4
    settlement.chan_lock(world, channel, digest(rho), t1, t2)
    settlement.chan_unlock(world, channel, rho)
    check_world(world)
    return world
