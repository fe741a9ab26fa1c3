import dataclasses
import functools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from xrwa import canonical, credential, identity, primitives, settlement, xauth
from xrwa.errors import (
    BadSignature,
    ConservationViolation,
    CostTableError,
    EmptyPool,
    InsufficientBalance,
    InvariantViolation,
    MalformedArtifact,
    ReplayedTransaction,
    UnknownChain,
)
from xrwa.fixtures import fixture_items, fixture_world
from xrwa.ledger import BlockHeader, Transaction, World, WorldConfig
from xrwa.primitives import digest, keygen, merkle_prove, merkle_root, merkle_verify
from xrwa.scenarios import TRANSFER_DISCLOSURE, check_world


@pytest.fixture
def world():
    return World(WorldConfig(seed=7))


@pytest.fixture
def alice():
    return keygen(b"\x11" * 32)


@pytest.fixture
def bob():
    return keygen(b"\x22" * 32)


def transfer(world, kp, to, amount):
    return Transaction.make(
        "transfer",
        {"to": canonical.to_hex(to.pk), "amount": amount},
        kp,
        world.next_nonce(),
    )


# --------------------------------------------------------------- submit ----

def test_zero_amount_self_transfer_accepted(world, alice):
    world.mint("C1", alice.pk, 100)
    before = world.balance("C1", alice.pk)
    world.submit_tx("C1", transfer(world, alice, alice, 0))
    assert world.balance("C1", alice.pk) == before
    assert len(world.chains["C1"].pending) == 1


def test_corrupted_signature_rejected_pool_unchanged(world, alice):
    world.mint("C1", alice.pk, 100)
    tx = transfer(world, alice, alice, 1)
    bad = Transaction(
        kind=tx.kind,
        body=tx.body,
        sender=tx.sender,
        nonce=tx.nonce,
        sig=bytes([tx.sig[0] ^ 1]) + tx.sig[1:],
    )
    with pytest.raises(BadSignature):
        world.submit_tx("C1", bad)
    assert world.chains["C1"].pending == []


def test_unknown_chain_rejected(world, alice):
    with pytest.raises(UnknownChain):
        world.submit_tx("C9", transfer(world, alice, alice, 0))


def test_overdraft_rejected(world, alice, bob):
    world.mint("C1", alice.pk, 10)
    with pytest.raises(InsufficientBalance):
        world.submit_tx("C1", transfer(world, alice, bob, 11))


MISSING = object()


def _moved(world):
    """What a refusal must leave as it was: the state digest (which must
    still encode), the state outside it and the op log's length."""
    return world.world_digest(), _unsnapshotted(world), len(world.op_log)


@pytest.mark.parametrize("amount", [2.5, True, "3", pytest.param(MISSING, id="missing")])
def test_non_int_amount_refused_before_anything_moves(world, alice, bob, amount):
    # int() would move 2 for a signed 2.5 and 1 for True, and take "3"
    world.mint("C1", alice.pk, 10)
    body = {"to": canonical.to_hex(bob.pk)} | ({} if amount is MISSING else {"amount": amount})
    tx = Transaction.make("transfer", body, alice, world.next_nonce())
    before = _moved(world)
    with pytest.raises(InsufficientBalance):
        world.submit_tx("C1", tx)
    assert _moved(world) == before
    assert (world.balance("C1", alice.pk), world.balance("C1", bob.pk)) == (10, 0)


@pytest.mark.parametrize("to", [
    5, pytest.param("22" * 32, id="unprefixed"), "0xzz", pytest.param(MISSING, id="missing"),
    # 0x-hex, but no key pair signs for an account of another size than 32 bytes
    "0x", "0x00",
])
def test_recipient_that_is_not_a_key_refused_before_anything_moves(world, alice, to):
    world.mint("C1", alice.pk, 10)
    body = {"amount": 4} | ({} if to is MISSING else {"to": to})
    tx = Transaction.make("transfer", body, alice, world.next_nonce())
    before = _moved(world)
    with pytest.raises(MalformedArtifact, match="'to'|32 bytes"):
        world.submit_tx("C1", tx)
    assert _moved(world) == before
    assert world.balance("C1", alice.pk) == 10


def test_recipient_in_upper_case_hex_is_credited_under_its_key(world, alice, bob):
    world.mint("C1", alice.pk, 10)
    body = {"to": "0x" + bob.pk.hex().upper(), "amount": 4}
    world.submit_tx("C1", Transaction.make("transfer", body, alice, world.next_nonce()))
    assert world.balance("C1", bob.pk) == 4
    assert sorted(world.chains["C1"].balances) == sorted(
        canonical.to_hex(kp.pk) for kp in (alice, bob)
    )
    world.check_all()


@pytest.mark.parametrize("mover", ["debit", "credit"])
@pytest.mark.parametrize("amount", [-5, 2.5, True, "3", None])
def test_movers_refuse_an_amount_that_is_not_one(world, alice, mover, amount):
    world.mint("C1", alice.pk, 10)
    before = (world.world_digest(), dict(world.chains["C1"].balances))
    with pytest.raises(InsufficientBalance, match="is not a non-negative int"):
        getattr(world, mover)("C1", alice.pk, amount)
    assert (world.world_digest(), world.chains["C1"].balances) == before


@pytest.mark.parametrize("amount", [1.5, True, -1])
def test_mint_refuses_an_amount_that_is_not_one(world, alice, amount):
    before = (world.world_digest(), len(world.op_log))
    with pytest.raises(InsufficientBalance, match="not a non-negative int"):
        world.mint("C1", alice.pk, amount)
    assert (world.world_digest(), len(world.op_log)) == before


@pytest.mark.parametrize("mover", ["debit", "credit", "take_asset", "give_asset"])
@pytest.mark.parametrize("pk", [b"", b"\x11" * 31, b"\x11" * 33, "0x" + "11" * 32],
                         ids=["empty", "short", "long", "hex-text"])
def test_movers_refuse_a_key_that_is_not_32_bytes(world, alice, mover, pk):
    world.mint("C1", alice.pk, 10)
    world.mint_asset("C1", alice.pk, "did:xrwa:moved")
    what = 1 if mover in ("debit", "credit") else "did:xrwa:moved"
    before = _moved(world)
    with pytest.raises(MalformedArtifact, match="32 bytes"):
        getattr(world, mover)("C1", pk, what)
    assert _moved(world) == before


@pytest.mark.parametrize("asset_id", [5, "", None, b"did:xrwa:bytes"],
                         ids=["int", "empty", "none", "bytes"])
def test_mint_asset_refuses_an_id_that_is_not_text(world, alice, asset_id):
    world.mint_asset("C1", alice.pk, "did:xrwa:text")
    before = _moved(world)
    with pytest.raises(MalformedArtifact, match="non-empty text"):
        world.mint_asset("C1", alice.pk, asset_id)
    assert _moved(world) == before


def test_an_asset_is_minted_once_per_chain_until_burned(world, alice, bob):
    world.mint_asset("C1", alice.pk, "did:xrwa:once")
    before = _moved(world)
    with pytest.raises(ConservationViolation, match="C1 has already minted asset did:xrwa:once"):
        world.mint_asset("C1", bob.pk, "did:xrwa:once")
    assert _moved(world) == before
    # a burn frees the id, so the asset migrates to C2 and back
    world.burn_asset("C1", alice.pk, "did:xrwa:once")
    world.mint_asset("C2", bob.pk, "did:xrwa:once")
    world.burn_asset("C2", bob.pk, "did:xrwa:once")
    world.mint_asset("C1", bob.pk, "did:xrwa:once")
    assert world.assets_of("C1", bob.pk) == {"did:xrwa:once"}
    world.check_all()


def _balance_under_short_key(state, key):
    state.balances["0x00"] = state.balances.pop(key)


def _holding_under_upper_case_key(state, key):
    state.holdings["0x" + key[2:].upper()] = state.holdings.pop(key)


def _asset_id_of(new_id):
    def edit(state, key):
        state.minted_assets = {new_id}
        state.holdings[key] = {new_id}
    return edit


@pytest.mark.parametrize("edit, message", [
    pytest.param(_balance_under_short_key, "account '0x00' on C1", id="balance-key"),
    pytest.param(_holding_under_upper_case_key, "account '0x[0-9A-F]{64}' on C1", id="holding-key"),
    pytest.param(_asset_id_of(5), "asset id 5 on C1 is not text", id="int-asset-id"),
    pytest.param(_asset_id_of(""), "asset id '' on C1 is not text", id="empty-asset-id"),
])
def test_check_all_catches_an_account_or_asset_id_injected_into_state(world, alice, edit, message):
    world.mint("C1", alice.pk, 10)
    world.mint_asset("C1", alice.pk, "did:xrwa:held")
    edit(world.chains["C1"], canonical.to_hex(alice.pk))
    world.check_conservation()  # conservation alone cannot tell
    with pytest.raises(InvariantViolation, match=message):
        world.check_all()


def test_transfer_moves_balance(world, alice, bob):
    world.mint("C1", alice.pk, 100)
    world.submit_tx("C1", transfer(world, alice, bob, 30))
    assert world.balance("C1", alice.pk) == 70
    assert world.balance("C1", bob.pk) == 30


def test_sealed_root_matches_standalone_tree(world, alice):
    world.mint("C1", alice.pk, 100)
    ids = [world.submit_tx("C1", transfer(world, alice, alice, i)) for i in range(3)]
    header = world.seal_block("C1")
    block = world.chains["C1"].blocks[-1]
    assert len(block.txs) == 3
    # independent recomputation of the root from the three tx ids
    assert header.merkle_root == merkle_root(ids)


def test_submit_logs_one_entry(world, alice):
    world.mint("C1", alice.pk, 100)
    n = len(world.op_log)
    world.submit_tx("C1", transfer(world, alice, alice, 0))
    assert len(world.op_log) == n + 1
    assert world.op_log[-1].op_kind == "transfer"


# ----------------------------------------------------------------- seal ----

def test_seal_single_tx_root_is_tx_id(world, alice):
    world.mint("C1", alice.pk, 100)
    tx_id = world.submit_tx("C1", transfer(world, alice, alice, 0))
    header = world.seal_block("C1")
    assert header.merkle_root == tx_id


def test_sequential_seals_link_headers(world, alice):
    world.mint("C1", alice.pk, 100)
    world.submit_tx("C1", transfer(world, alice, alice, 0))
    first = world.seal_block("C1")
    world.submit_tx("C1", transfer(world, alice, alice, 0))
    second = world.seal_block("C1")
    assert second.prev == first.header_digest()
    assert second.height == first.height + 1


def test_seal_empty_pool_rejected(world):
    with pytest.raises(EmptyPool):
        world.seal_block("C1")


def test_seal_advances_clock(world, alice):
    world.mint("C1", alice.pk, 10)
    t0 = world.clock
    world.submit_tx("C1", transfer(world, alice, alice, 0))
    world.seal_block("C1")
    assert world.clock == t0 + 1


def test_sealing_c1_never_touches_c2(world, alice, bob):
    world.mint("C1", alice.pk, 10_000)
    world.mint("C2", bob.pk, 5_000)
    rng = random.Random(3)
    for _ in range(100):
        world.submit_tx("C1", transfer(world, alice, alice, rng.randrange(5)))
        before = canonical.dumps(world.snapshot()["chains"]["C2"])
        world.seal_block("C1")
        after = canonical.dumps(world.snapshot()["chains"]["C2"])
        assert before == after


# ---------------------------------------------------------------- clock ----

def test_advance_clock_rejects_zero(world):
    # a tick is a non-negative int, and a bool is not one
    for ticks in (0, 1.5, True):
        with pytest.raises(ValueError):
            world.advance_clock(ticks)
    assert world.clock == 0


def test_advance_clock_moves_forward(world):
    t = world.clock
    assert world.advance_clock(5) == t + 5


# ---------------------------------------------------------------- relay ----

def seal_n(world, kp, chain, n):
    headers = []
    for _ in range(n):
        world.submit_tx(chain, transfer(world, kp, kp, 0))
        headers.append(world.seal_block(chain))
    return headers


def test_relay_genesis_then_next(world, alice):
    world.mint("C1", alice.pk, 10)
    seal_n(world, alice, "C1", 1)
    g = world.header_at("C1", 0)
    h1 = world.header_at("C1", 1)
    assert world.relay_header("C2", "C1", g)
    assert world.relay_header("C2", "C1", h1)


def test_relay_gap_rejected(world, alice):
    world.mint("C1", alice.pk, 10)
    seal_n(world, alice, "C1", 2)
    assert world.relay_header("C2", "C1", world.header_at("C1", 0))
    assert not world.relay_header("C2", "C1", world.header_at("C1", 2))


def test_relay_fuzz_forged_headers_all_rejected(world, alice):
    world.mint("C1", alice.pk, 10)
    seal_n(world, alice, "C1", 3)
    world.relay_chain("C2", "C1")
    view_len = len(world.relayed[("C2", "C1")])
    rng = random.Random(11)
    rejected = 0
    for _ in range(1000):
        # forge a header at the next height with a mutated prev digest
        prev = bytearray(world.header_at("C1", view_len - 1).header_digest())
        prev[rng.randrange(32)] ^= 1 + rng.randrange(255)
        forged = BlockHeader(
            chain="C1",
            height=view_len,
            prev=bytes(prev),
            merkle_root=digest(rng.randbytes(8)),
            timestamp=world.clock,
        )
        if not world.relay_header("C2", "C1", forged):
            rejected += 1
    assert rejected == 1000
    world.check_light_client_prefix()


def test_relayed_view_is_prefix_after_honest_relay(world, alice):
    world.mint("C1", alice.pk, 10)
    seal_n(world, alice, "C1", 4)
    assert world.relay_chain("C2", "C1") == 5  # genesis + 4
    world.check_light_client_prefix()
    world.check_header_chains()


def test_relay_wrong_source_chain_label_rejected(world, alice):
    world.mint("C2", alice.pk, 10)
    g2 = world.header_at("C2", 0)
    assert not world.relay_header("C2", "C1", g2)


# Each case breaks one header of C1's three-header chain, keeping its Merkle
# root, so only the linkage rule can catch it.
BAD_LINKS = {
    "genesis-bad-prev": (0, {"prev": b"\x01" * 32}),
    "genesis-nonzero-height": (0, {"height": 1}),
    "height-gap": (2, {"height": 3}),
    "wrong-prev-digest": (2, {"prev": digest(b"not the parent")}),
    "chain-label-changes": (2, {"chain": "C2"}),
}


def three_header_world(alice):
    world = World(WorldConfig(seed=7))
    world.mint("C1", alice.pk, 10)
    seal_n(world, alice, "C1", 2)
    return world


def offline_bundle(world, headers):
    tx = world.chains["C1"].blocks[1].txs[0]
    proof = xauth.spv_prove(world, tx.tx_id, ("C1", 1))
    return proof.to_json(), tx.to_json(), [h.to_json() for h in headers]


def test_honest_chain_links_everywhere(alice):
    world = three_header_world(alice)
    headers = [b.header for b in world.chains["C1"].blocks]
    assert world.relay_chain("C2", "C1") == 3
    world.check_header_chains()
    assert xauth.offline_verify(*offline_bundle(world, headers))


@pytest.mark.parametrize("case", sorted(BAD_LINKS))
def test_bad_header_link_rejected_everywhere(alice, case):
    at, changes = BAD_LINKS[case]
    world = three_header_world(alice)
    headers = [b.header for b in world.chains["C1"].blocks]
    headers[at] = dataclasses.replace(headers[at], **changes)

    for header in headers[:at]:
        assert world.relay_header("C2", "C1", header)
    assert not world.relay_header("C2", "C1", headers[at])
    assert world.op_log[-1].op_kind == "relay_reject"

    assert not xauth.offline_verify(*offline_bundle(world, headers))

    world.chains["C1"].blocks[at].header = headers[at]
    with pytest.raises(InvariantViolation, match="linkage"):
        world.check_header_chains()


_MISSING = object()

# field -> a value from_json refuses (_MISSING: the key is deleted)
MALFORMED_HEADERS = {
    "no-prev": ("prev", _MISSING),
    "height-as-text": ("height", "1"),
    "height-as-bool": ("height", True),
    "root-not-hex": ("merkleRoot", "0xzz"),
    "prev-without-0x": ("prev", "00" * 32),
    "chain-lone-surrogate": ("chain", "C1\ud800"),
}
MALFORMED_TXS = {
    "no-nonce": ("nonce", _MISSING),
    "nonce-lone-surrogate": ("nonce", "n-1\ud800"),
    "body-lone-surrogate": ("body", {"to": "\ud800", "amount": 1}),
    "body-as-list": ("body", []),
    "sig-as-int": ("sig", 7),
}


def _mangled(data, key, value):
    if value is _MISSING:
        del data[key]
    else:
        data[key] = value


@pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
def test_malformed_header_refused_by_from_json(alice, case):
    world = three_header_world(alice)
    headers = [b.header.to_json() for b in world.chains["C1"].blocks]
    proof, tx, _ = offline_bundle(world, [])
    _mangled(headers[1], *MALFORMED_HEADERS[case])
    with pytest.raises(MalformedArtifact):
        BlockHeader.from_json(headers[1])
    with pytest.raises(MalformedArtifact):
        xauth.offline_verify(proof, tx, headers)


@pytest.mark.parametrize("case", sorted(MALFORMED_TXS))
def test_malformed_tx_refused_by_from_json(alice, case):
    world = three_header_world(alice)
    headers = [b.header.to_json() for b in world.chains["C1"].blocks]
    proof, tx, _ = offline_bundle(world, [])
    _mangled(tx, *MALFORMED_TXS[case])
    with pytest.raises(MalformedArtifact):
        Transaction.from_json(tx)
    with pytest.raises(MalformedArtifact):
        xauth.offline_verify(proof, tx, headers)


def test_kept_header_digest_is_the_digest_of_its_fields(world, alice):
    seal_n(world, alice, "C1", 2)
    world.relay_chain("C2", "C1")
    sealed = world.header_at("C1", 2)
    relayed = world.relayed[("C2", "C1")][-1]
    decoded = BlockHeader.from_json(sealed.to_json())
    replaced = dataclasses.replace(sealed, merkle_root=digest(b"another root"))
    for header in (sealed, relayed, decoded, replaced):
        fields = dataclasses.asdict(header)
        first = header.header_digest()
        assert first == digest(canonical.dumps_bytes(header.to_json()))
        assert header.header_digest() is first
        assert dataclasses.asdict(header) == fields
    assert decoded == sealed
    assert replaced.header_digest() != sealed.header_digest()


# ----------------------------------------------------------- determinism ----

def build_scenario(seed):
    world = World(WorldConfig(seed=seed))
    a = keygen(b"\x31" * 32)
    b = keygen(b"\x32" * 32)
    world.mint("C1", a.pk, 500)
    world.mint("C2", b.pk, 300)
    rng = random.Random(seed)
    for _ in range(20):
        chain, kp = ("C1", a) if rng.random() < 0.5 else ("C2", b)
        world.submit_tx(chain, transfer(world, kp, kp, rng.randrange(3)))
        world.seal_block(chain)
    world.relay_chain("C2", "C1")
    return world


def test_identical_seed_identical_world_digest_and_oplog():
    w1, w2 = build_scenario(99), build_scenario(99)
    assert w1.world_digest() == w2.world_digest()
    assert w1.op_log_csv() == w2.op_log_csv()


def test_different_seed_different_oplog():
    assert build_scenario(1).op_log_csv() != build_scenario(2).op_log_csv()


def test_conservation_audit(world, alice, bob):
    world.mint("C1", alice.pk, 1000)
    world.submit_tx("C1", transfer(world, alice, bob, 400))
    world.seal_block("C1")
    world.check_conservation()


def test_conservation_audit_catches_value_made_outside_mint(world, alice, bob):
    world.mint("C1", alice.pk, 1000)
    world.check_conservation()
    world.chains["C1"].balances[canonical.to_hex(bob.pk)] = 1
    with pytest.raises(InvariantViolation, match="value not conserved on C1: 1001 != 1000"):
        world.check_all()


@pytest.mark.parametrize("unheld", [None, "did:xrwa:held-by-nobody"],
                         ids=["one-asset-too-many", "counts-agree"])
def test_conservation_audit_catches_an_asset_held_twice(world, alice, bob, unheld):
    # with `unheld`, a second minted asset leaves the holdings, so as many
    # assets are held as were minted, and only their set tells them apart
    world.mint_asset("C2", alice.pk, "did:xrwa:held-once")
    if unheld:
        world.mint_asset("C2", alice.pk, unheld)
    world.check_conservation()
    world.chains["C2"].holdings[canonical.to_hex(alice.pk)].discard(unheld)
    world.chains["C2"].holdings[canonical.to_hex(bob.pk)] = {"did:xrwa:held-once"}
    with pytest.raises(InvariantViolation, match="asset multiset not conserved on C2"):
        world.check_all()


def test_oplog_csv_shape(world, alice):
    world.mint("C1", alice.pk, 10)
    world.submit_tx("C1", transfer(world, alice, alice, 0))
    lines = world.op_log_csv().strip().splitlines()
    assert lines[0] == "tick,chain,op_kind,cost_units,tx_id"
    assert all(len(line.split(",")) == 5 for line in lines[1:])


def test_descriptor_edited_after_logging_leaves_the_entry_id(world):
    descriptor = {"channel": "ch-1", "leg": "funds"}
    rec = world.log_op("C1", "chan_unlock", descriptor=descriptor)
    descriptor["leg"] = "assets"
    descriptor["extra"] = [1]
    tagged = {"op": "chan_unlock", "channel": "ch-1", "leg": "funds"}
    assert rec.tx_id == canonical.to_hex(digest(canonical.dumps_bytes(tagged)))
    assert rec.tx_id is rec.tx_id
    raw = digest(b"a transaction id")
    assert world.log_op("C1", "anchor", tx_id=raw).tx_id == canonical.to_hex(raw)


@pytest.mark.parametrize("origin_first", [False, True])
def test_entries_shared_by_a_fork_read_the_same_whichever_world_reads_first(alice, origin_first):
    def logged_world():
        world = World(WorldConfig(seed=7))
        world.mint("C1", alice.pk, 10)
        world.mint_asset("C2", alice.pk, "did:xrwa:shared")
        world.submit_tx("C1", transfer(world, alice, alice, 1))
        world.seal_block("C1")
        world.relay_chain("C2", "C1")
        return world

    expected = logged_world().op_log_csv()
    world = logged_world()
    fork = world.fork()
    assert all(a is b for a, b in zip(fork.op_log, world.op_log, strict=True))
    first, second = (world, fork) if origin_first else (fork, world)
    assert first.op_log_csv() == expected
    assert second.op_log_csv() == expected
    # entries either world appends later are its own
    fork.burn_asset("C2", alice.pk, "did:xrwa:shared")
    assert world.op_log_csv() == expected
    assert fork.op_log_csv().startswith(expected)


def test_snapshot_is_canonical_json_stable(world, alice):
    world.mint("C1", alice.pk, 10)
    s1 = canonical.dumps(world.snapshot())
    s2 = canonical.dumps(world.snapshot())
    assert s1 == s2
    assert canonical.loads(s1) == world.snapshot()


# ---------------------------------------------------------------- replay ----

def test_replayed_transfer_refused(world, alice, bob):
    world.mint("C1", alice.pk, 10)
    tx = transfer(world, alice, bob, 4)
    world.submit_tx("C1", tx)
    with pytest.raises(ReplayedTransaction):
        world.submit_tx("C1", tx)
    assert world.balance("C1", bob.pk) == 4
    assert world.balance("C1", alice.pk) == 6
    assert world.chains["C1"].pending == [tx]


def test_sealed_pair_refused_even_with_other_body(world, alice, bob):
    world.mint("C1", alice.pk, 10)
    tx = transfer(world, alice, bob, 4)
    world.submit_tx("C1", tx)
    world.seal_block("C1")
    n_ops = len(world.op_log)
    for again in (tx, Transaction.make("transfer", {"to": canonical.to_hex(bob.pk), "amount": 1},
                                       alice, tx.nonce)):
        with pytest.raises(ReplayedTransaction):
            world.submit_tx("C1", again)
    assert world.balance("C1", bob.pk) == 4
    assert world.chains["C1"].pending == []
    assert len(world.op_log) == n_ops


def test_replay_after_its_cache_entry_is_dropped_fails_audit(world, alice, bob):
    world.mint("C1", alice.pk, 10)
    tx = transfer(world, alice, bob, 4)
    world.submit_tx("C1", tx)
    world.seal_block("C1")
    world.chains["C1"].sender_nonces.discard((tx.sender, tx.nonce))
    world.submit_tx("C1", tx)  # the edited cache no longer remembers it
    assert world.balance("C1", bob.pk) == 8
    with pytest.raises(InvariantViolation, match="replayed transaction on C1 at pending"):
        world.check_all()


def _drop_pair(state, tx):
    state.sender_nonces.discard((tx.sender, tx.nonce))


def _add_pair(state, tx):
    state.sender_nonces.add((tx.sender, "never-sent"))


def _drop_pending_id(state, tx):
    state.pending_ids.pop()


@pytest.mark.parametrize("edit, message", [
    pytest.param(_drop_pair, "sender nonces of C1", id="pair-dropped"),
    pytest.param(_add_pair, "sender nonces of C1", id="pair-added"),
    pytest.param(_drop_pending_id, "pending ids of C1", id="pending-id-dropped"),
])
def test_replay_cache_edit_fails_audit(world, alice, bob, edit, message):
    world.mint("C1", alice.pk, 10)
    sealed = transfer(world, alice, bob, 4)
    world.submit_tx("C1", sealed)
    world.seal_block("C1")
    world.submit_tx("C1", transfer(world, alice, bob, 1))
    world.check_all()
    edit(world.chains["C1"], sealed)
    with pytest.raises(InvariantViolation, match=message):
        world.check_all()


def test_replay_guard_is_per_chain(world, alice, bob):
    world.mint("C1", alice.pk, 10)
    world.mint("C2", alice.pk, 10)
    tx = transfer(world, alice, bob, 4)
    world.submit_tx("C1", tx)
    world.submit_tx("C2", tx)
    assert world.balance("C2", bob.pk) == 4


def test_duplicated_last_tx_block_fails_audit(world, alice):
    """CVE-2012-2459: [a, b, c, c] has the Merkle root of [a, b, c]."""
    world.mint("C1", alice.pk, 10)
    for _ in range(3):
        world.submit_tx("C1", transfer(world, alice, alice, 0))
    world.seal_block("C1")
    world.check_all()
    block = world.chains["C1"].blocks[-1]
    block.txs.append(block.txs[-1])
    block.tx_ids.append(block.tx_ids[-1])
    assert merkle_root(block.tx_ids) == block.header.merkle_root
    with pytest.raises(InvariantViolation, match="replayed"):
        world.check_all()


# ------------------------------------------------------------ stored ids ----

def sealed_block(world, kp, n):
    """Seal one block of n zero-amount self-transfers from kp on C1."""
    for i in range(n):
        world.submit_tx(
            "C1",
            Transaction.make("transfer", {"to": canonical.to_hex(kp.pk), "amount": 0}, kp, f"n{i}"),
        )
    world.seal_block("C1")
    return world.chains["C1"].blocks[-1]


def test_check_all_catches_body_edited_after_seal(world, alice):
    block = sealed_block(world, alice, 3)
    world.check_all()
    block.txs[1].body["amount"] = 5
    with pytest.raises(InvariantViolation, match="stored tx ids"):
        world.check_all()


def test_check_all_catches_a_header_root_edited_after_seal(world, alice):
    block = sealed_block(world, alice, 3)
    world.check_all()
    # the last header links no later one, so only its root can tell
    block.header = dataclasses.replace(block.header, merkle_root=digest(b"another root"))
    with pytest.raises(InvariantViolation, match="header root mismatch on C1 at 1"):
        world.check_all()


def test_check_all_catches_a_linking_header_the_chain_never_sealed(world, alice):
    world.mint("C1", alice.pk, 10)
    seal_n(world, alice, "C1", 2)
    for height in (0, 1):
        assert world.relay_header("C2", "C1", world.header_at("C1", height))
    world.check_all()
    # same chain, next height, right link, another root: relay cannot tell
    forged = dataclasses.replace(world.header_at("C1", 2), merkle_root=digest(b"another root"))
    assert world.relay_header("C2", "C1", forged)
    with pytest.raises(InvariantViolation, match="relayed view C2<-C1 is not a prefix"):
        world.check_all()


@pytest.mark.parametrize("how", ["replaced", "swapped"])
def test_check_all_catches_edited_stored_ids(world, alice, how):
    block = sealed_block(world, alice, 3)
    if how == "replaced":
        block.tx_ids[1] = digest(b"not a transaction")
    else:
        block.tx_ids[0], block.tx_ids[1] = block.tx_ids[1], block.tx_ids[0]
    with pytest.raises(InvariantViolation, match="stored tx ids"):
        world.check_all()


@pytest.mark.parametrize("n", [1, 2, 7, 8, 1025])
def test_find_and_prove_agree_with_recomputed_ids(world, alice, n):
    block = sealed_block(world, alice, n)
    leaves = [tx.tx_id for tx in block.txs]
    root, height = merkle_root(leaves), block.header.height
    for i, tx_id in enumerate(leaves):
        assert world.find_tx("C1", tx_id) == (block, i)
        proof = xauth.spv_prove(world, tx_id, ("C1", height))
        assert proof.path == merkle_prove(leaves, i)
        assert proof.root == root


def test_snapshot_and_digest_exclude_stored_ids(world, alice):
    block = sealed_block(world, alice, 3)
    snapshot, before = world.snapshot(), world.world_digest()
    block.tx_ids.reverse()
    assert world.snapshot() == snapshot
    assert world.world_digest() == before


def test_each_tx_encoded_once_at_submit_and_never_after(world, alice, monkeypatch):
    txs = [
        Transaction.make("transfer", {"to": canonical.to_hex(alice.pk), "amount": 0}, alice, f"n{i}")
        for i in range(1000)
    ]
    encoded = []
    payload_bytes = Transaction.payload_bytes

    def counting(tx):
        encoded.append(tx)
        return payload_bytes(tx)

    monkeypatch.setattr(Transaction, "payload_bytes", counting)
    ids = []
    for tx in txs:
        encoded.clear()
        ids.append(world.submit_tx("C1", tx))
        assert encoded == [tx]
    encoded.clear()
    header = world.seal_block("C1")
    for tx_id in ids:
        world.find_tx("C1", tx_id)
        xauth.spv_prove(world, tx_id, ("C1", header.height))
    assert encoded == []


# ------------------------------------------------------------- kept tree ----

def count_node_digests(monkeypatch):
    calls = []
    node_digest = primitives.node_digest

    def counting(left, right):
        calls.append(1)
        return node_digest(left, right)

    monkeypatch.setattr(primitives, "node_digest", counting)
    return calls


def test_seal_hashes_the_tree_once_and_spv_prove_hashes_nothing(world, alice, monkeypatch):
    for i in range(1025):
        world.submit_tx(
            "C1",
            Transaction.make("transfer", {"to": canonical.to_hex(alice.pk), "amount": 0}, alice, f"n{i}"),
        )
    calls = count_node_digests(monkeypatch)
    header = world.seal_block("C1")
    # 513 + 257 + 129 + 65 + 33 + 17 + 9 + 5 + 3 + 2 + 1 interior nodes
    assert len(calls) == 1034
    calls.clear()
    block = world.chains["C1"].blocks[-1]
    for i in (0, 511, 1023, 1024):
        proof = xauth.spv_prove(world, block.tx_ids[i], ("C1", header.height))
        assert len(proof.path.siblings) == 11
    assert calls == []


def test_check_all_catches_an_interior_node_edited_in_place(world, alice):
    block = sealed_block(world, alice, 8)
    world.check_all()
    block.levels[1][1] = digest(b"not a node")
    with pytest.raises(InvariantViolation, match="kept Merkle tree disagrees on C1 at 1"):
        world.check_all()


@pytest.mark.parametrize("level", [1, -1], ids=["interior", "root"])
def test_check_all_catches_a_dropped_level(world, alice, level):
    block = sealed_block(world, alice, 8)
    del block.levels[level]
    with pytest.raises(InvariantViolation, match="kept Merkle tree disagrees on C1 at 1"):
        world.check_all()


def test_proof_read_from_an_edited_tree_fails_spv_verify(world, alice):
    block = sealed_block(world, alice, 8)
    height = block.header.height
    world.relay_chain("C2", "C1")
    good = xauth.spv_prove(world, block.tx_ids[0], ("C1", height))
    assert xauth.spv_verify(world, "C2", block.txs[0], good)
    block.levels[1][1] = digest(b"not a node")
    bad = xauth.spv_prove(world, block.tx_ids[0], ("C1", height))
    assert bad.path != good.path and bad.root == good.root
    assert not xauth.spv_verify(world, "C2", block.txs[0], bad)


@functools.cache
def presigned_transfers(n=300):
    kp = keygen(b"\x33" * 32)
    to = canonical.to_hex(kp.pk)
    return [Transaction.make("transfer", {"to": to, "amount": 0}, kp, f"k{i}") for i in range(n)]


@given(st.integers(min_value=1, max_value=300))
def test_paths_read_from_the_kept_tree_equal_merkle_prove(n):
    world = World(WorldConfig(seed=7))
    for tx in presigned_transfers()[:n]:
        world.submit_tx("C1", tx)
    header = world.seal_block("C1")
    block = world.chains["C1"].blocks[header.height]
    leaves = [tx.tx_id for tx in block.txs]
    for i, leaf in enumerate(leaves):
        path = xauth.spv_prove(world, leaf, ("C1", header.height)).path
        assert path == merkle_prove(leaves, i)
        assert merkle_verify(leaf, path, header.merkle_root)


def test_unweighed_kind_refused_before_anything_moves(world, alice, bob):
    world.mint("C1", alice.pk, 10)
    state = world.chains["C1"]
    body = {"to": canonical.to_hex(bob.pk), "amount": 4}
    before = (
        list(state.pending), list(state.pending_ids), set(state.sender_nonces),
        dict(state.balances), list(world.op_log),
    )
    with pytest.raises(CostTableError):
        world.submit_tx("C1", Transaction.make("note", body, alice, "n-1"))
    assert (
        state.pending, state.pending_ids, state.sender_nonces, state.balances, world.op_log
    ) == before
    # the refused note did not take its (sender, nonce) slot
    world.submit_tx("C1", Transaction.make("transfer", body, alice, "n-1"))
    assert world.balance("C1", bob.pk) == 4
    assert len(state.pending) == 1 and world.op_log[-1].op_kind == "transfer"


# ------------------------------------------------------------------- fork ----

def _unsnapshotted(world):
    """World state that `world_digest` does not cover."""
    return (
        {c: set(s.sender_nonces) for c, s in world.chains.items()},
        {c: list(s.pending_ids) for c, s in world.chains.items()},
        dict(world.asset_origins),
        set(world.anchor_nonces),
        dict(world.verify_counts),
        {cid: dataclasses.asdict(ch) for cid, ch in world.channels.items()},
    )


def _busy_world():
    """A world with state in every registry: dids, status lists, a
    credential, balances and assets, an HTLC, a pending transfer, a relayed
    view and an open channel."""
    world, issuer, holder = fixture_world()
    cred = credential.issue(world, credential.request(fixture_items("RE"), holder), issuer)
    pres = credential.prove(cred, holder, TRANSFER_DISCLOSURE)
    world.mint("C1", holder.pk, 50)
    for asset in ("did:xrwa:fork-a", "did:xrwa:fork-b"):
        world.mint_asset("C2", holder.pk, asset)
    lock = settlement.htlc_lock(
        world, "C2", holder.pk, issuer.pk, {"asset": "did:xrwa:fork-a"}, digest(b"fork"), 5
    )
    world.submit_tx("C1", Transaction.make(
        "transfer", {"to": canonical.to_hex(issuer.pk), "amount": 1}, holder, "pending-1"
    ))
    world.relay_chain("C2", "C1")
    buyer, seller = keygen(digest(b"fork-buyer")), keygen(digest(b"fork-seller"))
    world.mint("C1", buyer.pk, 100)
    world.mint_asset("C2", seller.pk, "did:xrwa:fork-d")
    channel = settlement.chan_open(world, buyer, seller, 100, ["did:xrwa:fork-d"])
    return world, issuer, holder, cred, pres, lock, buyer, seller, channel


def test_fork_is_independent_of_its_origin():
    world, issuer, holder, cred, pres, lock, buyer, seller, channel = _busy_world()
    legs_before = [
        dataclasses.asdict(world.chains[c].contracts[channel.channel_id + leg])
        for c, leg in (("C1", "-funds"), ("C2", "-assets"))
    ]
    channel_before = dataclasses.asdict(channel)

    fork = world.fork()
    assert vars(fork).keys() == vars(world).keys()
    assert fork.world_digest() == world.world_digest()
    assert fork.op_log_csv() == world.op_log_csv()
    assert _unsnapshotted(fork) == _unsnapshotted(world)
    digest_before, csv_before = world.world_digest(), world.op_log_csv()
    rng_before, hidden_before = world.rng.getstate(), _unsnapshotted(world)
    registries_before = {name: dict(getattr(world, name)) for name in ("did_registry", "status_lists")}

    # ledger: submit and seal, relay, balances, holdings, contracts, rng
    fork.submit_tx("C1", Transaction.make(
        "transfer", {"to": canonical.to_hex(issuer.pk), "amount": 2}, holder, "fork-1"
    ))
    fork.seal_block("C1")
    fork.debit("C1", holder.pk, 3)
    fork.credit("C1", issuer.pk, 3)
    fork.take_asset("C2", holder.pk, "did:xrwa:fork-b")
    fork.give_asset("C2", issuer.pk, "did:xrwa:fork-b")
    fork.burn_asset("C2", issuer.pk, "did:xrwa:fork-b")
    fork.mint_asset("C2", holder.pk, "did:xrwa:fork-c")
    settlement.htlc_unlock(fork, fork.chains["C2"].contracts[lock.contract_id], b"fork", at=1)
    fork.next_nonce()
    # a settlement round on the fork's copy of the channel
    forked = fork.channels[channel.channel_id]
    assert forked is not channel
    settlement.chan_update(forked, settlement.make_state(forked, ["did:xrwa:fork-d"], 70, buyer, seller))
    settlement.chan_lock(fork, forked, digest(b"fork-round"), fork.clock + 4, fork.clock + 2)
    settlement.reveal_on_assets_leg(fork, forked, b"fork-round")
    assert forked.phase == "Locked" and "did:xrwa:fork-d" in fork.assets_of("C2", buyer.pk)
    # identity and credential registries
    identity.did_create(fork, keygen(digest(b"fork-newcomer")))
    issuer_did = fork.controller_index[canonical.to_hex(issuer.pk)]
    head = identity.did_resolve(fork, issuer_did)
    updated = dataclasses.replace(head, version=head.version + 1, service_endpoints=(("s", "Fork", "https://fork"),))
    identity.did_update(fork, issuer_did, updated, identity.update_signature(issuer, updated))
    fresh = credential.issue(fork, credential.request(fixture_items("Gold"), holder), issuer)
    credential.suspend(fork, fresh, "asset", issuer)
    credential.reinstate(fork, fresh, "asset", issuer)
    # anchor and accept on the fork
    commitment = xauth.make_commitment(
        fork, "C1", pres, cred.asset["tokenBinding"], len(fork.chains["C1"].blocks), b"\x0f" * 16
    )
    tx_id, header = xauth.anchor(fork, "C1", commitment, issuer)
    fork.relay_chain("C2", "C1")
    tx = fork.chains["C1"].blocks[header.height].txs[-1]
    xauth.authenticate(fork, "C2", tx, xauth.spv_prove(fork, tx_id, ("C1", header.height)), pres)
    credential.revoke(fork, cred, "compliance", issuer)
    holder_did = fork.controller_index[canonical.to_hex(holder.pk)]
    identity.did_deactivate(fork, holder_did, identity.deactivate_signature(
        holder, holder_did, identity.did_resolve(fork, holder_did).version
    ))
    check_world(fork)

    assert fork.world_digest() != digest_before
    assert world.world_digest() == digest_before
    assert world.op_log_csv() == csv_before
    assert world.rng.getstate() == rng_before
    assert _unsnapshotted(world) == hidden_before
    for name, entries in registries_before.items():
        assert getattr(world, name).keys() == entries.keys()
        assert all(getattr(world, name)[key] is entry for key, entry in entries.items())
    assert world.chains["C2"].contracts[lock.contract_id].state == "Locked"
    assert world.channels == {channel.channel_id: channel}
    assert dataclasses.asdict(channel) == channel_before
    assert [
        dataclasses.asdict(world.chains[c].contracts[channel.channel_id + leg])
        for c, leg in (("C1", "-funds"), ("C2", "-assets"))
    ] == legs_before
    assert world.acceptance_records["C2"] == []
    check_world(world)
    # the original goes on as if the fork never happened
    assert world.seal_block("C1").height == 1
    assert len(fork.chains["C1"].blocks) == 3


_CONTAINERS = (list, dict, set, bytearray)


def _unshareable(world):
    """(path, object) of everything a fork must hold its own of: each list,
    dict, set or bytearray a `World` attribute or a `_ChainState` field
    holds, with each one a dict of these holds in turn (holdings sets
    among them); each chain state, contract and channel. Sealed blocks,
    `config`, `treasury`, op-log entries, the generator and the registry
    entries (`DidEntry`, `StatusList`, values by `_is_value`) are left out,
    and so are the values a contract's or a channel's fields hold:
    settlement rebinds those fields and never edits what one holds."""
    found = []

    def add(path, value):
        found.append((path, value))
        if isinstance(value, dict):
            for key, item in value.items():
                if isinstance(item, _CONTAINERS):
                    add(f"{path}[{key!r}]", item)

    def add_fields(path, obj):
        found.append((path, obj))
        for name, value in vars(obj).items():
            if isinstance(value, _CONTAINERS):
                add(f"{path}.{name}", value)

    add_fields("world", world)
    for label, state in world.chains.items():
        add_fields(f"chains[{label!r}]", state)
        for cid, contract in state.contracts.items():
            found.append((f"chains[{label!r}].contracts[{cid!r}]", contract))
    for cid, channel in world.channels.items():
        found.append((f"channels[{cid!r}]", channel))
    return found


def _is_value(value):
    """True iff `value` is a str, int or bytes, or a tuple or frozen
    dataclass of values, all the way down."""
    if dataclasses.is_dataclass(value):
        return type(value).__dataclass_params__.frozen and all(
            _is_value(getattr(value, f.name)) for f in dataclasses.fields(value)
        )
    if type(value) is tuple:
        return all(_is_value(item) for item in value)
    return type(value) in (str, int, bytes)


def test_registry_entries_are_values_all_the_way_down():
    world, issuer, holder, cred = _busy_world()[:4]
    credential.suspend(world, cred, "asset", issuer)
    holder_did = world.controller_index[canonical.to_hex(holder.pk)]
    identity.did_deactivate(world, holder_did, identity.deactivate_signature(
        holder, holder_did, identity.did_resolve(world, holder_did).version
    ))
    entries = [*world.did_registry.values(), *world.status_lists.values()]
    assert {type(entry).__name__ for entry in entries} == {"DidEntry", "StatusList"}
    assert any(entry.authorizations for entry in world.did_registry.values())
    assert all(_is_value(entry) for entry in entries)
    assert not _is_value(dataclasses.replace(entries[-1], bits=bytearray(entries[-1].bits)))


def test_a_fork_shares_nothing_mutable_with_its_origin():
    world = _busy_world()[0]
    fork = world.fork()
    origin_parts, fork_parts = _unshareable(world), _unshareable(fork)
    assert [path for path, _ in fork_parts] == [path for path, _ in origin_parts]
    kinds = {type(value).__name__ for _, value in origin_parts}
    assert {"_ChainState", "HtlcLock", "ChannelLeg", "Channel", "set"} <= kinds
    shared = [path for (path, mine), (_, theirs) in zip(fork_parts, origin_parts) if mine is theirs]
    assert shared == []
    # what a fork may share
    assert fork.config is world.config and fork.treasury is world.treasury
    for name in ("did_registry", "status_lists"):
        assert all(getattr(fork, name)[key] is entry and _is_value(entry)
                   for key, entry in getattr(world, name).items())
    assert all(a is b for a, b in zip(fork.op_log, world.op_log, strict=True))
    assert all(
        a is b
        for label in world.chains
        for a, b in zip(fork.chains[label].blocks, world.chains[label].blocks, strict=True)
    )


def _draws(world):
    return world.rng.randbytes(16) + world.next_nonce().encode()


@pytest.mark.parametrize("fork_first", [False, True])
def test_fork_and_origin_draw_the_same_stream_in_either_order(world, fork_first):
    fork = world.fork()
    if fork_first:
        fork_bytes, world_bytes = _draws(fork), _draws(world)
    else:
        world_bytes, fork_bytes = _draws(world), _draws(fork)
    assert fork_bytes == world_bytes
    # each then goes on from where it stopped, not from the other's draws
    assert _draws(world) == _draws(fork)


def test_forks_of_forks_and_many_forks_draw_the_origins_next_bytes(world, alice):
    world.mint("C1", alice.pk, 10)
    seal_n(world, alice, "C1", 2)
    digest_before, csv_before = world.world_digest(), world.op_log_csv()
    state_before = world.rng.getstate()
    expected = World(WorldConfig(seed=7))
    expected.rng.setstate(state_before)
    next_bytes = _draws(expected)

    grandchild = world.fork().fork()
    forks = [world.fork() for _ in range(100)]
    assert _draws(grandchild) == next_bytes
    assert all(_draws(f) == next_bytes for f in forks)

    assert world.world_digest() == digest_before
    assert world.op_log_csv() == csv_before
    assert world.rng.getstate() == state_before
    assert _draws(world) == next_bytes
