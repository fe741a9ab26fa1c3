"""Primitive and canonical-encoding floors on a workload's own inputs.

The method is the one ``xrwa.experiments.bench_spv`` uses: batches of
each operation are interleaved, so ambient load drift hits every operation
alike, and each operation's floor is its fastest batch mean.
"""

from __future__ import annotations

from time import perf_counter

from xrwa import canonical, credential
from xrwa.fixtures import fixture_items, fixture_world
from xrwa.primitives import digest, merkle_prove, merkle_root, merkle_verify, sign, verify_sig
from xrwa.scenarios import TRANSFER_DISCLOSURE

ROUNDS = 10
BATCH_SECONDS = 0.004


def reference_presentation() -> dict:
    """A transfer presentation of the residential fixture, for workloads
    that make none of their own."""
    world, issuer, holder = fixture_world()
    cred = credential.issue(world, credential.request(fixture_items("RE"), holder), issuer)
    return credential.prove(cred, holder, TRANSFER_DISCLOSURE).to_json()


def measure(inputs: dict) -> dict[str, float]:
    """Floors of each operation, by per-layer metric name, in its unit."""
    msg, kp, leaves = inputs["message"], inputs["keypair"], inputs["leaves"]
    tx_payload = inputs["tx_payload"]
    presentation = inputs["presentation"] or reference_presentation()
    sig = sign(kp.sk, msg)
    root = merkle_root(leaves)
    index = len(leaves) * 2 // 3
    path = merkle_prove(leaves, index)
    if not verify_sig(kp.pk, msg, sig) or not merkle_verify(leaves[index], path, root):
        raise ValueError("floor inputs do not verify")
    cases = [
        ("primitives.sign.us", 1e6, lambda: sign(kp.sk, msg)),
        ("primitives.verify_sig.us", 1e6, lambda: verify_sig(kp.pk, msg, sig)),
        ("primitives.digest.us", 1e6, lambda: digest(msg)),
        ("primitives.merkle_root.ms", 1e3, lambda: merkle_root(leaves)),
        ("primitives.merkle_prove.ms", 1e3, lambda: merkle_prove(leaves, index)),
        ("primitives.merkle_verify.us", 1e6, lambda: merkle_verify(leaves[index], path, root)),
        ("canonical.dumps_bytes.tx_us", 1e6, lambda: canonical.dumps_bytes(tx_payload)),
        ("canonical.dumps_bytes.presentation_us", 1e6,
         lambda: canonical.dumps_bytes(presentation)),
    ]
    batch = {}
    for name, _, fn in cases:
        once = float("inf")
        for _ in range(3):
            t0 = perf_counter()
            fn()
            once = min(once, perf_counter() - t0)
        batch[name] = max(1, int(BATCH_SECONDS / max(once, 1e-7)))
    best = {name: float("inf") for name, _, _ in cases}
    for _ in range(ROUNDS):
        for name, scale, fn in cases:
            n = batch[name]
            t0 = perf_counter()
            for _ in range(n):
                fn()
            best[name] = min(best[name], (perf_counter() - t0) / n * scale)
    return best
