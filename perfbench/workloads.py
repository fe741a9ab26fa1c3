"""The four benchmark workloads.

Each workload is a closed loop with one client on one thread: the next
operation starts only when the previous one has returned. Inputs come from
the seed alone, only public functions of ``xrwa.ledger``, ``identity``,
``credential``, ``xauth``, ``settlement`` and ``atomicity`` are called, and
each call into a layer goes through ``Tracer.call`` under the name of the
function it enters. Why each workload exists is in ``README.md``.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from functools import partial
from math import ceil
from time import perf_counter
from typing import Callable

from spans import Tracer
from xrwa import atomicity, canonical, credential, identity, settlement, xauth
from xrwa.errors import JurisdictionBlocked
from xrwa.fixtures import FIXTURE_TYPES, fixture_items
from xrwa.ledger import Transaction, World, WorldConfig
from xrwa.primitives import KeyPair, digest, keygen
from xrwa.scenarios import TRANSFER_DISCLOSURE

SOURCE, DEST = "C1", "C2"
SETTLEMENT_OPS = ("chan_open", "chan_lock", "chan_unlock", "chan_refund", "htlc_lock",
                  "htlc_unlock", "htlc_refund")


class GateFailure(Exception):
    """A post-run correctness check found a wrong state."""


def key(seed: int, label: str) -> KeyPair:
    return keygen(digest(f"perfbench/{seed}/{label}".encode()))


def asset_id(seed: int, label: str) -> str:
    return "did:xrwa:" + digest(f"perfbench/{seed}/asset/{label}".encode()).hex()


def with_asset_id(items: dict, new_id: str) -> dict:
    return dict(items, asset=dict(items["asset"], assetId=new_id))


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 when there are no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(ceil(q * len(ordered)) - 1, 0)]


def sellable_at_dest(world: World) -> dict[str, bool]:
    """Per fixture type: does its compliance section allow sale on DEST?"""
    where = world.config.jurisdiction(DEST)
    return {t: where in fixture_items(t)["compliance"]["sellableRegions"] for t in FIXTURE_TYPES}


# ----------------------------------------------------------------- checks --

def _no_dest_verifications(world: World) -> None:
    if world.verify_counts.get(DEST, 0):
        raise GateFailure(f"{world.verify_counts[DEST]} credential verifications ran on {DEST}")


def _inputs_valid(world: World) -> None:
    """Every tx_id and (sender, nonce) pair appears once across all blocks,
    and every anchor was sent by the controller of an active did."""
    ids: set[bytes] = set()
    nonces: set[tuple[bytes, str]] = set()
    for label, state in world.chains.items():
        for block in state.blocks:
            for tx in block.txs:
                tx_id = tx.tx_id
                if tx_id in ids or (tx.sender, tx.nonce) in nonces:
                    raise GateFailure(f"replayed transaction on {label}: {tx_id.hex()}")
                ids.add(tx_id)
                nonces.add((tx.sender, tx.nonce))
                if tx.kind == "anchor":
                    did = world.controller_index.get(canonical.to_hex(tx.sender))
                    if did is None or identity.did_resolve(world, did).status != "Active":
                        raise GateFailure(f"anchor {tx_id.hex()} not sent by an active issuer")


def cycle_rates(marks: list[tuple[float, int]], cycle_steps: int) -> list[float]:
    """Unit rates of consecutive cycles of ``cycle_steps`` whole steps; a
    last, partial cycle is left out."""
    rates = []
    t_prev, u_prev = 0.0, 0
    for t, u in marks[cycle_steps - 1::cycle_steps]:
        rates.append((u - u_prev) / (t - t_prev))
        t_prev, u_prev = t, u
    return rates


# --------------------------------------------------------------- workload --

class Workload:
    """One closed-loop client.

    ``step`` runs one operation, appends its end-to-end timings (seconds) to
    ``samples`` and returns the wrong outcomes it saw. ``units`` counts what
    ``ops_per_s`` counts. Counts and the op-log digest are taken after
    ``snapshot_ops`` steps, a fixed amount of work, so they repeat exactly
    for one seed whatever the machine's speed.
    """

    name = ""
    root = ""  # span name of one operation
    snapshot_ops = 64
    probe_steps = 1  # steps this workload runs when it probes another's traced run
    # ops_per_s is the rate of the fastest run of this many consecutive steps
    cycle_steps = 1

    def __init__(self, seed: int, tr: Tracer, small: bool = False):
        self.seed = seed
        self.tr = tr
        self.rng = random.Random(seed)
        self.samples: dict[str, list[float]] = {"op": [], "op2": [], "op3": []}
        self.units = 0
        self.accepted = self.rejected = self.siblings = 0
        self.updates = self.schedules = self.mixed = 0
        self.presentations: list | None = []  # kept until the count snapshot

    def more(self, steps: int, elapsed: float, seconds: float) -> bool:
        return elapsed < seconds

    def prepare(self) -> None:
        """Untimed work before the next step."""

    def step(self) -> list[str]:
        raise NotImplementedError

    def worlds(self) -> list[World]:
        return []

    def extra_checks(self) -> list[tuple[str, Callable[[], None]]]:
        return []

    def floor_inputs(self) -> dict:
        raise NotImplementedError

    def _digest_extra(self, h) -> None:
        """Deterministic state beyond the op logs that the digest covers."""

    def best_rate(self, marks: list[tuple[float, int]]) -> float:
        """ops_per_s: the rate of the fastest cycle of ``cycle_steps`` steps;
        ``marks`` holds (elapsed, units) after each timed step."""
        return max(cycle_rates(marks, min(self.cycle_steps, len(marks))))

    def e2e(self) -> dict[str, float]:
        out = {}
        for series, samples in self.samples.items():
            for q in (50, 90, 99):
                out[f"{series}_ms_p{q}"] = percentile(samples, q / 100) * 1e3
        return out

    # workload-specific names of the generic end-to-end metrics:
    # name -> (generic metric, scale, unit)
    NAMED: dict[str, tuple[str, float, str]] = {}

    def counts(self) -> tuple[dict, dict]:
        """Per-layer counts (all repeat exactly for one seed) and detail."""
        kinds: Counter = Counter()
        txs: Counter = Counter()
        verify: Counter = Counter()
        cost = 0.0
        h = hashlib.sha256()
        for world in self.worlds():
            for rec in world.op_log:
                kinds[rec.op_kind] += 1
                cost += rec.cost_units
            for label, state in world.chains.items():
                txs[label] += sum(len(block.txs) for block in state.blocks)
            verify.update(world.verify_counts)
            h.update(world.op_log_csv().encode())
        self._digest_extra(h)
        pres_bytes = sum(len(p.serialize()) for p in self.presentations or [])
        self.presentations = None
        attempts = self.accepted + self.rejected
        counts = {
            "ledger.op_log.entries": sum(kinds.values()),
            "ledger.op_log.cost_units": round(cost, 6),
            "ledger.txs": sum(txs.values()),
            "ledger.relay_reject.count": kinds["relay_reject"],
            "credential.presentation.bytes": pres_bytes,
            "credential.verifications.C1": verify[SOURCE],
            "credential.verifications.C2": verify[DEST],
            "xauth.authenticate.accepted": self.accepted,
            "xauth.authenticate.rejected": self.rejected,
            "xauth.accept_ratio": self.accepted / attempts if attempts else 0.0,
            "xauth.proof.siblings": self.siblings,
            "settlement.updates": self.updates,
            "settlement.onchain_ops": sum(kinds[k] for k in SETTLEMENT_OPS),
            "atomicity.schedules": self.schedules,
            "atomicity.mixed": self.mixed,
        }
        detail = {
            "opLogByKind": dict(sorted(kinds.items())),
            "txsByChain": dict(sorted(txs.items())),
            "verifyCounts": dict(sorted(verify.items())),
            "digest": h.hexdigest(),
        }
        return counts, detail

    def checks(self) -> list[tuple[str, Callable[[], None]]]:
        """Post-run correctness gate; each check raises on a wrong state."""
        out: list[tuple[str, Callable[[], None]]] = []
        for world in self.worlds():
            out += [
                ("ledger.check_all", world.check_all),
                ("xauth.check_acceptance_soundness",
                 partial(xauth.check_acceptance_soundness, world)),
                ("identity.check_authorization", partial(identity.check_authorization, world)),
                ("bench.no_dest_verifications", partial(_no_dest_verifications, world)),
                ("bench.inputs_valid", partial(_inputs_valid, world)),
            ]
        return out + self.extra_checks()


# ------------------------------------------------------------------- xfer --

class Xfer(Workload):
    """Cross-chain transfers on a quiet chain: each anchor seals a 1-tx block."""

    name = "xfer"
    root = "bench.transfer"
    probe_steps = len(FIXTURE_TYPES)
    cycle_steps = len(FIXTURE_TYPES)  # one transfer of each fixture type
    # the acceptance audit in the gate is quadratic in transfers; the cap
    # keeps a much faster commit within the run's time limit
    MAX_TRANSFERS = 10_000
    NAMED = {
        "xfer_ms_p50": ("op_ms_p50", 1.0, "ms"),
        "xfer_ms_p99": ("op_ms_p99", 1.0, "ms"),
        "xfer_per_s": ("ops_per_s_run", 1.0, "1/s"),
    }

    def __init__(self, seed: int, tr: Tracer, small: bool = False):
        super().__init__(seed, tr, small)
        self.world = tr.call("ledger.World", World, WorldConfig(seed=seed))
        self.holder = key(seed, "holder")
        tr.call("identity.did_create", identity.did_create, self.world, self.holder)
        self.templates = [(t, fixture_items(t)) for t in FIXTURE_TYPES]
        self.expected = sellable_at_dest(self.world)
        self.expected_accepts = 0
        # an issuer's status lists hold this many credentials; a full issuer
        # hands over to a fresh one, as a live issuer would
        self.per_issuer = credential.STATUS_LIST_CAPACITY // len(credential.SECTIONS)
        self._new_issuer(0)
        self.last: tuple | None = None

    def more(self, steps: int, elapsed: float, seconds: float) -> bool:
        return elapsed < seconds and steps < self.MAX_TRANSFERS

    def _new_issuer(self, n: int) -> None:
        self.issuer = key(self.seed, f"issuer-{n}")
        self.tr.call("identity.did_create", identity.did_create, self.world, self.issuer)

    def worlds(self) -> list[World]:
        return [self.world]

    def step(self) -> list[str]:
        i = self.units
        if i and i % self.per_issuer == 0:
            self._new_issuer(i // self.per_issuer)
        kind, template = self.templates[i % len(self.templates)]
        aid = asset_id(self.seed, str(i))
        items = with_asset_id(template, aid)
        tr, w, holder = self.tr, self.world, self.holder

        t0 = perf_counter()
        req = tr.call("credential.request", credential.request, items, holder)
        cred = tr.call("credential.issue", credential.issue, w, req, self.issuer)
        tr.call("ledger.mint_asset", w.mint_asset, SOURCE, holder.pk, aid)
        pres = tr.call("credential.prove", credential.prove, cred, holder, TRANSFER_DISCLOSURE)
        epoch = len(w.chains[SOURCE].blocks)
        commitment = tr.call("xauth.make_commitment", xauth.make_commitment, w, SOURCE, pres,
                             cred.asset["tokenBinding"], epoch, w.rng.randbytes(xauth.NONCE_SIZE))
        tx_id, header = tr.call("xauth.anchor", xauth.anchor, w, SOURCE, commitment, self.issuer)
        t1 = perf_counter()
        tr.call("ledger.relay_chain", w.relay_chain, DEST, SOURCE)
        proof = tr.call("xauth.spv_prove", xauth.spv_prove, w, tx_id, (SOURCE, header.height))
        tx = w.chains[SOURCE].blocks[header.height].txs[proof.path.leaf_index]
        try:
            tr.call("xauth.authenticate", xauth.authenticate, w, DEST, tx, proof, pres)
            accepted = True
        except JurisdictionBlocked:
            accepted = False
        if accepted:
            tr.call("ledger.burn_asset", w.burn_asset, SOURCE, holder.pk, aid)
            tr.call("ledger.mint_asset", w.mint_asset, DEST, holder.pk, aid)
        t2 = perf_counter()

        self.samples["op"].append(t2 - t0)
        self.samples["op2"].append(t1 - t0)
        self.samples["op3"].append(t2 - t1)
        self.units += 1
        self.accepted += accepted
        self.rejected += not accepted
        self.expected_accepts += self.expected[kind]
        self.siblings += len(proof.path.siblings)
        if self.presentations is not None:
            self.presentations.append(pres)
        self.last = (tx, pres)
        if accepted != self.expected[kind]:
            return [f"transfer {i} ({kind}): accepted={accepted}, regions predict {not accepted}"]
        return []

    def extra_checks(self) -> list[tuple[str, Callable[[], None]]]:
        def outcomes_match_regions() -> None:
            want = (self.expected_accepts, self.units - self.expected_accepts)
            if (self.accepted, self.rejected) != want:
                raise GateFailure(f"accepted/rejected {self.accepted}/{self.rejected}, "
                                  f"fixture regions predict {want[0]}/{want[1]}")
        return [("bench.outcomes_match_regions", outcomes_match_regions)]

    def floor_inputs(self) -> dict:
        tx, pres = self.last
        block = self.world.chains[SOURCE].blocks[-1]
        return {"message": tx.payload_bytes(), "keypair": self.holder,
                "leaves": [t.tx_id for t in block.txs], "tx_payload": tx.payload(),
                "presentation": pres.to_json()}


# ------------------------------------------------------------------ block --

class Block(Workload):
    """The life of a busy source block: pre-signed transfers and anchors are
    submitted, the block is sealed and relayed, anchors are authenticated
    and sampled transfers are located and proved. Each block starts on a
    fresh world, so every block is the same amount of work."""

    name = "block"
    root = "bench.block"
    snapshot_ops = 1
    ANCHORS = 8
    SAMPLES = 8
    SEGMENT_TXS = 1024
    NAMED = {
        "block_tx_per_s": ("ops_per_s_run", 1.0, "1/s"),
        "proof_ms_p50": ("op2_ms_p50", 1.0, "ms"),
    }

    def __init__(self, seed: int, tr: Tracer, small: bool = False):
        super().__init__(seed, tr, small)
        self.transfers = 64 if small else 8192
        self.n_senders = 8 if small else 64
        self.units_per_step = self.transfers + self.ANCHORS
        self.senders = [key(seed, f"sender-{k}") for k in range(self.n_senders)]
        self.recipient = canonical.to_hex(key(seed, "recipient").pk)
        self.issuer = key(seed, "issuer")
        self.holder = key(seed, "holder")
        self.all_worlds: list[World] = []
        self.segments: list[list[float]] = []  # lap times of each block
        self.blocks = 0
        self._new_world()
        sellable = sellable_at_dest(self.world)
        self.templates = [(t, fixture_items(t)) for t in FIXTURE_TYPES if sellable[t]]
        self.presigned: list[Transaction] | None = self._sign_block(0)
        self.last: tuple | None = None

    def _new_world(self) -> None:
        tr = self.tr
        w = self.world = tr.call("ledger.World", World, WorldConfig(seed=self.seed))
        for sender in self.senders:
            tr.call("ledger.mint", w.mint, SOURCE, sender.pk, 10**12)
        tr.call("identity.did_create", identity.did_create, w, self.issuer)
        tr.call("identity.did_create", identity.did_create, w, self.holder)
        self.all_worlds.append(w)

    def _sign_block(self, b: int) -> list[Transaction]:
        """Transfers of block b: distinct (sender, nonce) pairs, so distinct tx ids."""
        n, tr = self.n_senders, self.tr
        return [
            tr.call("ledger.Transaction.make", Transaction.make, "transfer",
                    {"to": self.recipient, "amount": 1 + j % 7}, self.senders[j % n],
                    f"b{b}-{j // n}")
            for j in range(self.transfers)
        ]

    def prepare(self) -> None:
        if self.presigned is None:
            with self.tr.span("bench.presign", new_trace=True):
                self._new_world()
                self.presigned = self._sign_block(self.blocks)

    def _spread(self, k: int) -> int:
        """Position in stratum k of ANCHORS equal strata of the block."""
        width = self.transfers // self.ANCHORS
        return k * width + self.rng.randrange(width)

    def _anchor(self, k: int, epoch: int) -> tuple[bytes, credential.Presentation]:
        tr, w, holder = self.tr, self.world, self.holder
        _, template = self.templates[(self.blocks * self.ANCHORS + k) % len(self.templates)]
        items = with_asset_id(template, asset_id(self.seed, f"b{self.blocks}-a{k}"))
        req = tr.call("credential.request", credential.request, items, holder)
        cred = tr.call("credential.issue", credential.issue, w, req, self.issuer)
        pres = tr.call("credential.prove", credential.prove, cred, holder, TRANSFER_DISCLOSURE)
        commitment = tr.call("xauth.make_commitment", xauth.make_commitment, w, SOURCE, pres,
                             cred.asset["tokenBinding"], epoch, w.rng.randbytes(xauth.NONCE_SIZE))
        tx_id, _ = tr.call("xauth.anchor", xauth.anchor, w, SOURCE, commitment, self.issuer,
                           seal=False)
        if self.presentations is not None:
            self.presentations.append(pres)
        return tx_id, pres

    def step(self) -> list[str]:
        laps = [perf_counter()]
        self.segments.append(laps)
        tr, w = self.tr, self.world
        txs, self.presigned = self.presigned, None
        anchor_at = {self._spread(k): k for k in range(self.ANCHORS)}
        sampled = [txs[self._spread(k)] for k in range(self.SAMPLES)]
        sampled_ids = [tx.tx_id for tx in sampled]
        epoch = len(w.chains[SOURCE].blocks)
        failures = []

        anchors = []
        submits = self.samples["op"]
        for j, tx in enumerate(txs):
            u0 = perf_counter()
            tr.call("ledger.submit_tx", w.submit_tx, SOURCE, tx)
            submits.append(perf_counter() - u0)
            if j in anchor_at:
                anchors.append(self._anchor(anchor_at[j], epoch))
            if (j + 1) % self.SEGMENT_TXS == 0:
                laps.append(perf_counter())
        header = tr.call("ledger.seal_block", w.seal_block, SOURCE)
        laps.append(perf_counter())
        tr.call("ledger.relay_chain", w.relay_chain, DEST, SOURCE)
        laps.append(perf_counter())
        block = w.chains[SOURCE].blocks[header.height]
        for tx_id, pres in anchors:
            a0 = perf_counter()
            proof = tr.call("xauth.spv_prove", xauth.spv_prove, w, tx_id, (SOURCE, header.height))
            anchor_tx = block.txs[proof.path.leaf_index]
            try:
                tr.call("xauth.authenticate", xauth.authenticate, w, DEST, anchor_tx, proof, pres)
                self.accepted += 1
            except JurisdictionBlocked as exc:
                self.rejected += 1
                failures.append(f"block {header.height}: anchor rejected: {exc}")
            self.samples["op3"].append(perf_counter() - a0)
            self.siblings += len(proof.path.siblings)
            laps.append(perf_counter())
        for tx, tx_id in zip(sampled, sampled_ids):
            p0 = perf_counter()
            found = tr.call("ledger.find_tx", w.find_tx, SOURCE, tx_id)
            proof = tr.call("xauth.spv_prove", xauth.spv_prove, w, tx_id,
                            (SOURCE, found[0].header.height))
            self.samples["op2"].append(perf_counter() - p0)
            ok = tr.call("xauth.spv_verify", xauth.spv_verify, w, DEST, tx, proof)
            self.siblings += len(proof.path.siblings)
            if found[0] is not block or found[0].txs[found[1]] is not tx or not ok:
                failures.append(f"block {header.height}: transfer {tx_id.hex()} not proved")
            laps.append(perf_counter())

        self.units += self.units_per_step
        self.blocks += 1
        self.last = (sampled[0], anchors[-1][1], block)
        return failures

    def best_rate(self, marks: list[tuple[float, int]]) -> float:
        """Blocks are the same work, so each segment of a block (1024
        submits with their anchor, the seal, the relay, one proof) is timed
        at its fastest over the run's blocks; the rate is one block's units
        over the sum of those fastest times."""
        per_block = [[b - a for a, b in zip(laps, laps[1:])] for laps in self.segments]
        return self.units_per_step / sum(map(min, zip(*per_block)))

    def worlds(self) -> list[World]:
        return self.all_worlds

    def floor_inputs(self) -> dict:
        tx, pres, block = self.last
        return {"message": tx.payload_bytes(), "keypair": self.senders[0],
                "leaves": [t.tx_id for t in block.txs], "tx_payload": tx.payload(),
                "presentation": pres.to_json()}


# ------------------------------------------------------------------- chan --

class Chan(Workload):
    """Both settlement routes at the same number of asset interactions: a
    round of co-signed channel updates ending in a partial settlement, then
    as many plain HTLC interactions in a second world."""

    name = "chan"
    root = "bench.round"
    probe_steps = 2
    ASSETS = 8
    UPDATES = 16
    PRICE = 100
    FUNDS = 10**15
    NAMED = {
        "update_us_p50": ("op_ms_p50", 1e3, "us"),
        "update_us_p99": ("op_ms_p99", 1e3, "us"),
        "settle_us_p50": ("op2_ms_p50", 1e3, "us"),
        "htlc_us_p50": ("op3_ms_p50", 1e3, "us"),
    }

    def __init__(self, seed: int, tr: Tracer, small: bool = False):
        super().__init__(seed, tr, small)
        self.units_per_step = 2 * self.UPDATES
        # channel route
        w = self.world = tr.call("ledger.World", World, WorldConfig(seed=seed))
        self.buyer, self.seller = key(seed, "buyer"), key(seed, "seller")
        tr.call("identity.did_create", identity.did_create, w, self.buyer)
        tr.call("identity.did_create", identity.did_create, w, self.seller)
        tr.call("ledger.mint", w.mint, SOURCE, self.buyer.pk, self.FUNDS)
        self.assets = [asset_id(seed, f"lot-{k}") for k in range(self.ASSETS)]
        for a in self.assets:
            tr.call("ledger.mint_asset", w.mint_asset, DEST, self.seller.pk, a)
        self.channel = tr.call("settlement.chan_open", settlement.chan_open, w, self.buyer,
                               self.seller, self.FUNDS, self.assets)
        self.payment = 0
        self.rounds = 0
        # HTLC route: each asset goes back and forth between two parties
        hw = self.htlc_world = tr.call("ledger.World", World, WorldConfig(seed=seed))
        self.parties = [key(seed, "party-0").pk, key(seed, "party-1").pk]
        for pk in self.parties:
            tr.call("ledger.mint", hw.mint, SOURCE, pk, self.FUNDS)
        self.htlc_assets = [asset_id(seed, f"htlc-{k}") for k in range(self.ASSETS)]
        for a in self.htlc_assets:
            tr.call("ledger.mint_asset", hw.mint_asset, DEST, self.parties[0], a)
        self.holder_of = {a: 0 for a in self.htlc_assets}
        self.interactions = 0

    def worlds(self) -> list[World]:
        return [self.world, self.htlc_world]

    def step(self) -> list[str]:
        tr, w, ch = self.tr, self.world, self.channel
        r = self.rounds
        batch = self.assets[: min(r + 1, self.ASSETS)]
        for _ in range(self.UPDATES):
            self.payment += self.PRICE
            u0 = perf_counter()
            state = tr.call("settlement.make_state", settlement.make_state, ch, batch,
                            self.payment, self.buyer, self.seller)
            tr.call("settlement.chan_update", settlement.chan_update, ch, state)
            self.samples["op"].append(perf_counter() - u0)
        self.updates += self.UPDATES

        preimage = digest(f"perfbench/{self.seed}/round/{r}".encode())
        s0 = perf_counter()
        tr.call("settlement.chan_lock", settlement.chan_lock, w, ch, digest(preimage),
                w.clock + 4, w.clock + 2)
        tr.call("settlement.chan_unlock", settlement.chan_unlock, w, ch, preimage,
                at=w.clock + 1)
        self.samples["op2"].append(perf_counter() - s0)
        failures = []
        if ch.phase != "Open" or ch.settled_payment != self.payment \
                or ch.settled_assets != set(batch):
            failures.append(f"round {r}: channel {ch.phase}, settled {ch.settled_payment} "
                            f"of {self.payment}")

        for _ in range(self.UPDATES):
            self._htlc_interaction()
        self.units += self.units_per_step
        self.rounds += 1
        return failures

    def _htlc_interaction(self) -> None:
        tr, hw = self.tr, self.htlc_world
        k = self.interactions
        asset = self.htlc_assets[k % len(self.htlc_assets)]
        seller = self.holder_of[asset]
        seller_pk, buyer_pk = self.parties[seller], self.parties[1 - seller]
        rho = digest(f"perfbench/{self.seed}/htlc/{k}".encode())
        cond = digest(rho)
        h0 = perf_counter()
        funds = tr.call("settlement.htlc_lock", settlement.htlc_lock, hw, SOURCE, buyer_pk,
                        seller_pk, {"value": self.PRICE}, cond, hw.clock + 4)
        escrow = tr.call("settlement.htlc_lock", settlement.htlc_lock, hw, DEST, seller_pk,
                         buyer_pk, {"asset": asset}, cond, hw.clock + 2)
        tr.call("settlement.htlc_unlock", settlement.htlc_unlock, hw, escrow, rho,
                at=hw.clock + 1)
        tr.call("settlement.htlc_unlock", settlement.htlc_unlock, hw, funds, rho,
                at=hw.clock + 1)
        self.samples["op3"].append(perf_counter() - h0)
        self.holder_of[asset] = 1 - seller
        self.interactions += 1

    def extra_checks(self) -> list[tuple[str, Callable[[], None]]]:
        def channel_settled() -> None:
            ch = self.channel
            if ch.phase != "Open" or ch.settled_payment != ch.latest.net_payment \
                    or ch.settled_payment != self.payment:
                raise GateFailure(f"channel {ch.phase} settled {ch.settled_payment}, last "
                                  f"committed {ch.latest.net_payment}")

        def htlc_assets_delivered() -> None:
            hw = self.htlc_world
            for contract in hw.chains[SOURCE].contracts.values():
                if contract.state != "Unlocked":
                    raise GateFailure(f"htlc {contract.contract_id} ended {contract.state}")
            for a, holder in self.holder_of.items():
                if a not in hw.assets_of(DEST, self.parties[holder]):
                    raise GateFailure(f"{a} is not with the last buyer")

        return [("bench.channel_settled", channel_settled),
                ("bench.htlc_assets_delivered", htlc_assets_delivered)]

    def floor_inputs(self) -> dict:
        genesis = self.world.chains[SOURCE].blocks[0].txs[0]
        return {"message": self.channel.latest.canonical_bytes(), "keypair": self.buyer,
                "leaves": [genesis.tx_id], "tx_payload": genesis.payload(),
                "presentation": None}


# ------------------------------------------------------------------ sweep --

class Sweep(Workload):
    """The exhaustive atomicity sweep, then schedules drawn from the seed."""

    name = "sweep"
    root = "bench.schedule"
    probe_steps = 16
    POOL = 4096
    cycle_steps = 32
    NAMED = {"schedules_per_s": ("ops_per_s_run", 1.0, "1/s")}

    def __init__(self, seed: int, tr: Tracer, small: bool = False):
        super().__init__(seed, tr, small)
        # a small sweep skips the 1296-schedule exhaustive pass
        self.explored = small
        self.snapshot_ops = 64 if small else 1 + 1024
        ticks = list(range(5)) + [None]
        rng = self.rng
        self.pool = [
            (atomicity.Schedule(
                reveal_tick=rng.choice(ticks),
                seller_delay=rng.randrange(3),
                refund_assets_at=rng.choice(ticks),
                refund_funds_at=rng.choice(ticks),
                refunds_first=rng.random() < 0.5,
            ), rng.randrange(17))
            for _ in range(self.POOL)
        ]
        self.drawn = 0
        self.outcomes = hashlib.sha256()

    def _record(self, outcome) -> None:
        s = outcome.schedule
        self.outcomes.update(
            f"{s.reveal_tick},{s.seller_delay},{s.refund_assets_at},{s.refund_funds_at},"
            f"{s.refunds_first},{outcome.assets_settled},{outcome.funds_settled}\n".encode())
        self.schedules += 1
        self.mixed += outcome.mixed

    def step(self) -> list[str]:
        if not self.explored:
            self.explored = True
            outcomes = self.tr.call("atomicity.explore_schedules", atomicity.explore_schedules)
            for outcome in outcomes:
                self._record(outcome)
            self.units += len(outcomes)
            return [f"mixed outcome: {o.schedule}" for o in outcomes if o.mixed]
        schedule, seed = self.pool[self.drawn % self.POOL]
        self.drawn += 1
        t0 = perf_counter()
        outcome = self.tr.call("atomicity.run_schedule", atomicity.run_schedule, schedule,
                               seed=seed)
        dt = perf_counter() - t0
        self.samples["op"].append(dt)
        if outcome.assets_settled and outcome.funds_settled:
            self.samples["op2"].append(dt)
        elif not outcome.assets_settled and not outcome.funds_settled:
            self.samples["op3"].append(dt)
        self._record(outcome)
        self.units += 1
        return [f"mixed outcome: {schedule}"] if outcome.mixed else []

    def _digest_extra(self, h) -> None:
        h.update(self.outcomes.copy().digest())

    def extra_checks(self) -> list[tuple[str, Callable[[], None]]]:
        def none_mixed() -> None:
            if self.mixed:
                raise GateFailure(f"{self.mixed} schedules settled only one side")
        return [("bench.no_mixed_schedule", none_mixed)]

    def floor_inputs(self) -> dict:
        world = World(WorldConfig(seed=self.seed))
        genesis = world.chains[SOURCE].blocks[0].txs[0]
        return {"message": genesis.payload_bytes(), "keypair": key(self.seed, "buyer"),
                "leaves": [genesis.tx_id], "tx_payload": genesis.payload(),
                "presentation": None}


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (Xfer, Block, Chan, Sweep)}
