import dataclasses

import pytest

from xrwa import scenarios
from xrwa.errors import InvariantViolation
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
