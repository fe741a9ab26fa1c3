"""Cross-chain toolkit for tokenized real-world assets.

Five layers, bottom up:

- :mod:`xrwa.primitives` — digests, signatures, Merkle trees with proofs.
- :mod:`xrwa.ledger` — deterministic multi-chain simulation (blocks,
  logical clock, header relay, cost-weighted op log).
- :mod:`xrwa.identity` / :mod:`xrwa.credential` — decentralized identifiers
  and four-section composite credentials with selective disclosure and
  per-section revocation.
- :mod:`xrwa.xauth` — anchor a credential commitment on one chain and
  authenticate it on another from a compact inclusion proof.
- :mod:`xrwa.settlement` — hash-timelock escrows and the two-chain channel
  with partial settlement that never forces a channel closure.

Scenario drivers live in :mod:`xrwa.scenarios`, benchmarks and report
machinery in :mod:`xrwa.experiments`, and the command line in
:mod:`xrwa.cli`.

Importing the package imports none of these modules; import each one by
its own name (``from xrwa import ledger``).
"""

__version__ = "0.1.0"
