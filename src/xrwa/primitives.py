"""Deterministic cryptographic building blocks.

Digest function, signature scheme, and a binary Merkle tree with inclusion
proofs. Everything here is a pure function over immutable values.

Concrete choices (recorded in every metrics report so results are
attributable):

- digest: SHA-256, 32 bytes.
- signatures: Ed25519; key generation is deterministic from a 32-byte seed
  so fixtures are reproducible. Production entropy handling is out of scope.
  Private-key objects are kept in a bounded cache keyed by the secret, so a
  key is expanded once rather than per signature; signatures and
  verifications are never cached.
- Merkle tree: odd level widths duplicate the final node; interior nodes
  hash a one-byte 0x01 prefix before their children. Leaves are transaction
  ids, the SHA-256 of a transaction's canonical JSON, which starts with
  ``{`` and so never collides with the node prefix.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Any, Sequence

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from . import canonical
from .errors import EmptyTreeError, MalformedArtifact, SeedError

__all__ = [
    "DIGEST_ALGORITHM",
    "DIGEST_SIZE",
    "SIGNATURE_SCHEME",
    "SEED_SIZE",
    "NODE_PREFIX",
    "KeyPair",
    "MerklePath",
    "digest",
    "length_prefixed",
    "node_digest",
    "keygen",
    "sign",
    "verify_sig",
    "merkle_root",
    "merkle_prove",
    "merkle_verify",
    "path_length",
    "read_field",
]

DIGEST_ALGORITHM = "sha256"
DIGEST_SIZE = 32
SIGNATURE_SCHEME = "ed25519"
SEED_SIZE = 32

# Domain separation for interior tree nodes.
NODE_PREFIX = b"\x01"


def digest(data: bytes) -> bytes:
    """32-byte SHA-256 digest; stable across runs and platforms."""
    return hashlib.sha256(data).digest()


def length_prefixed(data: bytes) -> bytes:
    """4-byte big-endian length, then the bytes: unambiguous concatenation."""
    return len(data).to_bytes(4, "big") + data


def node_digest(left: bytes, right: bytes) -> bytes:
    """Combine two child digests under the interior-node domain prefix."""
    return digest(NODE_PREFIX + left + right)


@dataclass(frozen=True)
class KeyPair:
    """Ed25519 keypair. The secret half never enters a serialized artifact."""

    pk: bytes  # 32-byte raw public key
    sk: bytes  # 32-byte private seed

    def __repr__(self) -> str:  # keep sk out of logs and debug output
        return f"KeyPair(pk=0x{self.pk.hex()}, sk=<hidden>)"


@functools.lru_cache(maxsize=1024)
def _private_key(sk: bytes) -> Ed25519PrivateKey:
    """The key object for a 32-byte secret, built once while it stays cached."""
    return Ed25519PrivateKey.from_private_bytes(sk)


def keygen(seed: bytes) -> KeyPair:
    """Deterministic keypair from a 32-byte seed.

    Equal seeds give equal keys; distinct seeds give distinct public keys.
    """
    if not isinstance(seed, (bytes, bytearray)) or len(seed) != SEED_SIZE:
        raise SeedError(f"seed must be exactly {SEED_SIZE} bytes")
    seed = bytes(seed)
    pk = _private_key(seed).public_key().public_bytes(
        encoding=serialization.Encoding.Raw, format=serialization.PublicFormat.Raw
    )
    return KeyPair(pk=pk, sk=seed)


def sign(sk: bytes, message: bytes) -> bytes:
    """Ed25519 signature over the exact message bytes (deterministic)."""
    return _private_key(sk).sign(message)


def verify_sig(pk: bytes, message: bytes, sig: bytes) -> bool:
    """True iff sig was produced by the matching sk over these exact bytes."""
    try:
        Ed25519PublicKey.from_public_bytes(pk).verify(sig, message)
        return True
    except (InvalidSignature, ValueError):
        return False


@dataclass(frozen=True)
class MerklePath:
    """Inclusion path for one leaf: bottom-up (sibling digest, sibling side).

    side is "left" or "right" and names where the sibling sits relative to
    the node being authenticated. For a tree of n >= 2 leaves the path has
    exactly ceil(log2(n)) siblings; a single-leaf tree has an empty path.
    """

    siblings: tuple[tuple[bytes, str], ...]
    leaf_index: int

    def to_json(self) -> list[dict[str, str]]:
        return [{"hash": canonical.to_hex(h), "side": side} for h, side in self.siblings]

    @classmethod
    def from_json(cls, items: list[dict[str, str]], leaf_index: int) -> "MerklePath":
        return cls(
            siblings=tuple((read_field(e, "hash", bytes), read_field(e, "side", str)) for e in items),
            leaf_index=leaf_index,
        )


def read_field(data: Any, key: str, kind: type) -> Any:
    """`data[key]` of a decoded JSON artifact, checked to be a `kind`;
    for `bytes`, the field is 0x-hex and its bytes are returned. Raises
    `MalformedArtifact` on a missing key, a wrong type (a bool is not an
    int), bad hex or a value holding a string with no UTF-8 form, which
    canonical encoding could not hash."""
    if not isinstance(data, dict) or key not in data:
        raise MalformedArtifact(f"missing field {key!r}")
    value = data[key]
    if kind is bytes:
        try:
            return canonical.from_hex(value)
        except ValueError:
            raise MalformedArtifact(f"field {key!r} is not 0x-prefixed hex") from None
    if type(value) is not kind:
        raise MalformedArtifact(f"field {key!r} is {type(value).__name__}, not {kind.__name__}")
    try:
        canonical.dumps_bytes(value)
    except UnicodeEncodeError:
        raise MalformedArtifact(f"field {key!r} holds a string with no UTF-8 form") from None
    return value


def _check_leaves(leaves: Sequence[bytes]) -> None:
    if len(leaves) == 0:
        raise EmptyTreeError("Merkle tree needs at least one leaf")
    for leaf in leaves:
        if len(leaf) != DIGEST_SIZE:
            raise ValueError("Merkle leaves must be 32-byte digests")


def _next_level(level: list[bytes]) -> list[bytes]:
    """The parents of one tree level. An odd-width level is first padded, in
    place, by duplicating its last node, so a proof can read the padded
    sibling from `level` afterwards. Duplicates therefore only ever sit on
    the right, which `merkle_verify` relies on to refuse the duplicate's
    position (the CVE-2012-2459 ambiguity)."""
    if len(level) % 2 == 1:
        level.append(level[-1])
    return [node_digest(level[i], level[i + 1]) for i in range(0, len(level), 2)]


def merkle_root(leaves: Sequence[bytes]) -> bytes:
    """Root of a binary tree over pre-hashed leaves.

    Odd level widths duplicate the final node. A single leaf is its own root.
    """
    _check_leaves(leaves)
    level = list(leaves)
    while len(level) > 1:
        level = _next_level(level)
    return level[0]


def merkle_prove(leaves: Sequence[bytes], index: int) -> MerklePath:
    """Inclusion path for leaves[index]; raises IndexError when out of range."""
    _check_leaves(leaves)
    if not 0 <= index < len(leaves):
        raise IndexError(f"leaf index {index} out of range for {len(leaves)} leaves")
    siblings: list[tuple[bytes, str]] = []
    level = list(leaves)
    pos = index
    while len(level) > 1:
        parents = _next_level(level)
        sib = pos ^ 1
        side = "left" if sib < pos else "right"
        siblings.append((level[sib], side))
        level = parents
        pos //= 2
    return MerklePath(siblings=tuple(siblings), leaf_index=index)


def merkle_verify(leaf: bytes, path: MerklePath, root: bytes) -> bool:
    """Recompute the path from leaf to root; True iff it lands on root.

    The path's position is pinned: `leaf_index` must lie in
    [0, 2**len(siblings)) and bit k of it must name the side of sibling k
    (1: the sibling is on the left), so one proof proves one position.
    A left sibling equal to the node is refused: padding duplicates only
    ever sit on the right, so the last node of an odd-width level cannot
    also verify at its duplicate's position."""
    if not 0 <= path.leaf_index < 1 << len(path.siblings):
        return False
    node = leaf
    for k, (sibling, side) in enumerate(path.siblings):
        on_left = path.leaf_index >> k & 1
        if side != ("left" if on_left else "right") or (on_left and sibling == node):
            return False
        node = node_digest(sibling, node) if on_left else node_digest(node, sibling)
    return node == root


def path_length(n_leaves: int) -> int:
    """Expected proof length for a tree of n leaves: ceil(log2 n), 0 for 1."""
    if n_leaves < 1:
        raise EmptyTreeError("no path for an empty tree")
    return (n_leaves - 1).bit_length()
