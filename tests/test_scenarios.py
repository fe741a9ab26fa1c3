import dataclasses

import pytest

from xrwa import canonical, credential, identity, scenarios, settlement
from xrwa.errors import BadSignature, InvariantViolation
from xrwa.fixtures import fixture_items, fixture_world
from xrwa.ledger import Transaction
from xrwa.primitives import digest
from xrwa.scenarios import check_world


def _value_made_outside_mint(world):
    world.chains["C1"].minted_value += 1


def _acceptance_with_no_anchor(world):
    record = world.acceptance_records["C2"][0]
    world.acceptance_records["C2"].append(
        dataclasses.replace(record, commitment_digest=digest(b"anchored nowhere"))
    )


def _unauthorized_did_head(world):
    did, entry = next(iter(world.did_registry.items()))
    head = dataclasses.replace(entry.head, version=entry.head.version + 1)
    world.did_registry[did] = dataclasses.replace(entry, versions=entry.versions + (head,))


@pytest.mark.parametrize("inject, message", [
    pytest.param(_value_made_outside_mint, "value not conserved on C1", id="ledger"),
    pytest.param(_acceptance_with_no_anchor, "has no anchor tx on C1", id="acceptance"),
    pytest.param(_unauthorized_did_head, "1 head changes, 0 authorizations", id="authorization"),
])
def test_check_world_runs_every_audit(inject, message):
    world = scenarios.run_e2e(seed=3, n_updates=1)["world"]
    check_world(world)
    inject(world)
    with pytest.raises(InvariantViolation, match=message):
        check_world(world)


@pytest.mark.parametrize("run_scenario", [
    lambda: scenarios.run_e2e(seed=5, n_updates=2)["world"],
    lambda: scenarios.run_htlc_route(5, 3),
    lambda: scenarios.run_channel_route(5, 3),
], ids=["e2e", "htlc-route", "channel-route"])
def test_each_scenario_ends_with_check_world(monkeypatch, run_scenario):
    audited = []
    monkeypatch.setattr(scenarios, "check_world", audited.append)
    world = run_scenario()
    assert audited == [world]
    check_world(world)


def _tx_with_text_signature(world, issuer, holder, channel):
    tx = Transaction.make("transfer", {"to": canonical.to_hex(issuer.pk), "amount": 1}, holder, "n-1")
    world.submit_tx("C1", dataclasses.replace(tx, sig=tx.sig.hex()))


def _update_with_text_signature(world, issuer, holder, channel):
    did = identity.controlled_did(world, issuer.pk)
    doc = identity.did_resolve(world, did)
    new = dataclasses.replace(doc, version=doc.version + 1)
    identity.did_update(world, did, new, identity.update_signature(issuer, new).hex())


def _deactivate_with_no_signature(world, issuer, holder, channel):
    identity.did_deactivate(world, identity.controlled_did(world, issuer.pk), None)


def _issue_with_text_request_signature(world, issuer, holder, channel):
    req = credential.request(fixture_items("RE"), holder)
    credential.issue(world, dataclasses.replace(req, sig=req.sig.hex()), issuer)


def _state(channel, issuer, holder):
    return settlement.make_state(channel, ["asset-1"], 10, holder, issuer)


def _state_with_text_seller_signature(world, issuer, holder, channel):
    state = _state(channel, issuer, holder)
    settlement.chan_update(channel, dataclasses.replace(state, sig_b=state.sig_b.hex()))


def _state_with_set_batch(world, issuer, holder, channel):
    state = _state(channel, issuer, holder)
    settlement.chan_update(channel, dataclasses.replace(state, batch=set(state.batch)))


def _state_with_text_utf8_cannot_encode(world, issuer, holder, channel):
    state = _state(channel, issuer, holder)
    settlement.chan_update(channel, dataclasses.replace(state, batch=["\ud800"]))


@pytest.mark.parametrize("step", [
    _tx_with_text_signature,
    _update_with_text_signature,
    _deactivate_with_no_signature,
    _issue_with_text_request_signature,
    _state_with_text_seller_signature,
    _state_with_set_batch,
    _state_with_text_utf8_cannot_encode,
])
def test_signed_step_refuses_what_no_party_signed(step):
    world, issuer, holder = fixture_world()
    world.mint("C1", holder.pk, 100)
    world.mint_asset("C2", issuer.pk, "asset-1")
    channel = settlement.chan_open(world, holder, issuer, 100, ["asset-1"])
    before = (world.world_digest(), world.op_log_csv(), channel.latest)
    with pytest.raises(BadSignature):
        step(world, issuer, holder, channel)
    assert (world.world_digest(), world.op_log_csv(), channel.latest) == before
