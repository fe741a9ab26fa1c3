import random
import subprocess
import sys

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from hypothesis import given, settings
from hypothesis import strategies as st

from xrwa import primitives as prim
from xrwa.errors import EmptyTreeError, SeedError


def rand_digests(rng, n):
    return [prim.digest(rng.randbytes(16)) for _ in range(n)]


# ---------------------------------------------------------------- digest ---

def test_digest_empty_input_constant_across_runs():
    here = prim.digest(b"").hex()
    # a genuinely separate interpreter run, not just a second call
    out = subprocess.run(
        [sys.executable, "-c", "import hashlib;print(hashlib.sha256(b'').hexdigest())"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == here
    assert len(prim.digest(b"")) == 32


def test_digest_is_a_function():
    assert prim.digest(b"rwa") == prim.digest(b"rwa")
    assert prim.digest(bytes([1, 2, 3])) == prim.digest(bytes([1, 2, 3]))


def test_digest_collision_scan_10k():
    # brute-force scan: 10,000 distinct random inputs -> 10,000 distinct outputs
    rng = random.Random(0xD1)
    inputs = set()
    while len(inputs) < 10_000:
        inputs.add(rng.randbytes(24))
    outputs = {prim.digest(i) for i in inputs}
    assert len(outputs) == 10_000


# ------------------------------------------------------------------ keys ---

def test_keygen_deterministic():
    seed = bytes(range(32))
    assert prim.keygen(seed).pk == prim.keygen(seed).pk


def test_keygen_seed_length_checked():
    with pytest.raises(SeedError):
        prim.keygen(b"short")
    with pytest.raises(SeedError):
        prim.keygen(bytes(33))


def test_keygen_distinct_seeds_distinct_pk_scan():
    rng = random.Random(0xD2)
    pks = set()
    for _ in range(1_000):
        pks.add(prim.keygen(rng.randbytes(32)).pk)
    assert len(pks) == 1_000


def test_sign_verify_roundtrip():
    kp = prim.keygen(b"\x07" * 32)
    sig = prim.sign(kp.sk, b"rwa")
    assert prim.verify_sig(kp.pk, b"rwa", sig)


def test_sign_equals_uncached_key_object_over_many_keys():
    # more keys than the key-object cache holds, each signing twice, so
    # both hits and evicted entries are compared with a fresh key object
    rng = random.Random(0xD4)
    secrets = [rng.randbytes(32) for _ in range(1_500)]
    for sk in secrets + secrets[::-1]:
        msg = rng.randbytes(24)
        assert prim.sign(sk, msg) == Ed25519PrivateKey.from_private_bytes(sk).sign(msg)


def test_verify_rejects_flipped_message_byte():
    kp = prim.keygen(b"\x08" * 32)
    msg = bytearray(b"composite credential")
    sig = prim.sign(kp.sk, bytes(msg))
    msg[3] ^= 0x01
    assert not prim.verify_sig(kp.pk, bytes(msg), sig)


def test_verify_rejects_flipped_signature_byte():
    kp = prim.keygen(b"\x09" * 32)
    sig = bytearray(prim.sign(kp.sk, b"payload"))
    for pos in range(len(sig)):
        mutated = bytearray(sig)
        mutated[pos] ^= 0x80
        assert not prim.verify_sig(kp.pk, b"payload", bytes(mutated))


def test_cross_key_verification_all_false():
    # soundness scan over a randomized corpus of 500 (key, message) pairs:
    # exhaustive pairwise on a subset, rotating mismatches across the rest
    # (full 500x500 is ~250k Ed25519 verifies, past desk scale).
    rng = random.Random(0xD3)
    pairs = []
    for _ in range(500):
        kp = prim.keygen(rng.randbytes(32))
        msg = rng.randbytes(20)
        pairs.append((kp, msg, prim.sign(kp.sk, msg)))

    exhaustive = pairs[:64]
    for i, (_, msg_i, sig_i) in enumerate(exhaustive):
        for j, (kp_j, _, _) in enumerate(exhaustive):
            if i != j:
                assert not prim.verify_sig(kp_j.pk, msg_i, sig_i)

    for i, (_, msg_i, sig_i) in enumerate(pairs):
        for off in (1, 7, 131):
            kp_j = pairs[(i + off) % 500][0]
            assert not prim.verify_sig(kp_j.pk, msg_i, sig_i)

    # exact-triple acceptance still holds across the corpus
    sample = random.Random(0xD4).sample(pairs, 50)
    assert all(prim.verify_sig(kp.pk, msg, sig) for kp, msg, sig in sample)


def test_verify_with_wrong_length_key_false_and_not_cached():
    kp = prim.keygen(b"\x0b" * 32)
    sig = prim.sign(kp.sk, b"m")
    for pk in (kp.pk[:31], kp.pk + b"\x00", b""):
        for _ in range(2):
            assert prim.verify_sig(pk, b"m", sig) is False
    assert prim.verify_sig(kp.pk, b"m", sig)


_KP = prim.keygen(b"\x0c" * 32)
_SIG = prim.sign(_KP.sk, b"m")


@pytest.mark.parametrize(
    "pk, sig",
    [
        (bytearray(_KP.pk), _SIG),
        (_KP.pk.hex(), _SIG),
        (None, _SIG),
        (_KP.pk, bytearray(_SIG)),
        (_KP.pk, _SIG.hex()),
        (_KP.pk, None),
        (_KP.pk, list(_SIG)),
    ],
    ids=["bytearray-key", "str-key", "none-key", "bytearray-sig", "str-sig", "none-sig", "list-sig"],
)
def test_key_or_signature_not_bytes_verifies_nothing(pk, sig):
    # the library would raise TypeError, or accept a bytearray signature
    before = prim._public_key.cache_info()
    assert prim.verify_sig(pk, b"m", sig) is False
    after = prim._public_key.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    assert prim.verify_sig(_KP.pk, b"m", _SIG)


def test_cached_key_with_bad_signature_still_false():
    kp = prim.keygen(b"\x0d" * 32)
    sig = prim.sign(kp.sk, b"m")
    assert prim.verify_sig(kp.pk, b"m", sig)
    hits = prim._public_key.cache_info().hits
    bad = bytes([sig[0] ^ 0x01]) + sig[1:]
    assert not prim.verify_sig(kp.pk, b"m", bad)
    assert not prim.verify_sig(kp.pk, b"other", sig)
    assert prim.verify_sig(kp.pk, b"m", sig)
    # the key object was reused; each answer was computed again
    assert prim._public_key.cache_info().hits == hits + 3


def test_keypair_repr_hides_secret():
    kp = prim.keygen(b"\x0a" * 32)
    assert kp.sk.hex() not in repr(kp)


# ---------------------------------------------------------------- merkle ---

def oracle_levels(leaves):
    """Independent tree builder: materializes every level, duplicate-last padding."""
    levels = [list(leaves)]
    while len(levels[-1]) > 1:
        cur = list(levels[-1])
        if len(cur) % 2 == 1:
            cur.append(cur[-1])
        levels[-1] = cur
        levels.append(
            [prim.digest(b"\x01" + cur[i] + cur[i + 1]) for i in range(0, len(cur), 2)]
        )
    return levels


def test_levels_are_the_oracle_levels_without_padding():
    rng = random.Random(0xDE)
    for n in [1, 2, 3, 5, 7, 8, 13, 32, 100]:
        leaves = rand_digests(rng, n)
        levels = prim.merkle_levels(leaves)
        assert levels[0] is leaves and len(leaves) == n
        widths = [n]
        while widths[-1] > 1:
            widths.append((widths[-1] + 1) // 2)
        assert [len(level) for level in levels] == widths
        assert levels == [lvl[:w] for lvl, w in zip(oracle_levels(leaves), widths)]


def test_path_read_from_levels_equals_oracle_path():
    rng = random.Random(0xDF)
    for n in range(1, 40):
        leaves = rand_digests(rng, n)
        tree = oracle_levels(leaves)
        levels = prim.merkle_levels(leaves)
        for i in range(n):
            want = tuple(tree[k][(i >> k) ^ 1] for k in range(len(tree) - 1))
            assert prim.merkle_path(levels, i) == prim.MerklePath(want, i)
        for bad in (-1, n):
            with pytest.raises(IndexError):
                prim.merkle_path(levels, bad)


def test_single_leaf_root_is_leaf():
    d = prim.digest(b"only")
    assert prim.merkle_root([d]) == d
    assert prim.merkle_prove([d], 0).siblings == ()


def test_two_leaf_root_is_node_combiner_in_order():
    a, b = prim.digest(b"a"), prim.digest(b"b")
    assert prim.merkle_root([a, b]) == prim.node_digest(a, b)
    assert prim.node_digest(a, b) == prim.digest(b"\x01" + a + b)
    assert prim.merkle_root([a, b]) != prim.merkle_root([b, a])


def test_empty_tree_rejected():
    with pytest.raises(EmptyTreeError):
        prim.merkle_root([])


def test_seven_leaves_equal_seven_plus_duplicate():
    leaves = rand_digests(random.Random(0xD5), 7)
    padded = leaves + [leaves[-1]]
    assert prim.merkle_root(leaves) == prim.merkle_root(padded)
    # node-by-node: every level of the two oracle trees matches
    for lvl7, lvl8 in zip(oracle_levels(leaves), oracle_levels(padded)):
        assert lvl7 == lvl8
    assert oracle_levels(leaves)[-1][0] == prim.merkle_root(leaves)


def test_oracle_agrees_with_implementation_across_sizes():
    rng = random.Random(0xD6)
    for n in [1, 2, 3, 5, 7, 8, 13, 32, 64, 100]:
        leaves = rand_digests(rng, n)
        assert prim.merkle_root(leaves) == oracle_levels(leaves)[-1][0]


def test_path_lengths_exact():
    rng = random.Random(0xD7)
    assert prim.path_length(8192) == 13
    assert prim.path_length(32) == 5
    leaves = rand_digests(rng, 32)
    assert len(prim.merkle_prove(leaves, 11).siblings) == 5
    for n in range(2, 130):
        partial = leaves[: min(n, 32)]
        assert prim.path_length(n) == ((n - 1).bit_length())
    big = rand_digests(rng, 8192)
    assert len(prim.merkle_prove(big, 4097).siblings) == 13


def test_prove_index_out_of_range():
    leaves = rand_digests(random.Random(0xD8), 4)
    with pytest.raises(IndexError):
        prim.merkle_prove(leaves, 4)


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=8192), st.data())
def test_roundtrip_law_sampled(n, data):
    rng = random.Random(n)
    leaves = rand_digests(rng, n)
    root = prim.merkle_root(leaves)
    if n <= 16:
        indices = range(n)
    else:
        indices = {0, n - 1, data.draw(st.integers(0, n - 1))}
    for i in indices:
        path = prim.merkle_prove(leaves, i)
        assert prim.merkle_verify(leaves[i], path, root)


def test_tamper_law_exhaustive_small_trees():
    rng = random.Random(0xD9)
    for n in range(2, 65):
        leaves = rand_digests(rng, n)
        root = prim.merkle_root(leaves)
        i = rng.randrange(n)
        path = prim.merkle_prove(leaves, i)

        # flip every sibling digest in every position
        for pos in range(len(path.siblings)):
            sibs = list(path.siblings)
            h = sibs[pos]
            sibs[pos] = bytes([h[0] ^ 0xFF]) + h[1:]
            bad = prim.MerklePath(siblings=tuple(sibs), leaf_index=i)
            assert not prim.merkle_verify(leaves[i], bad, root)

        # mutate the leaf and the root
        assert not prim.merkle_verify(prim.digest(b"other"), path, root)
        assert not prim.merkle_verify(
            leaves[i], path, bytes([root[0] ^ 0x01]) + root[1:]
        )


def test_proof_position_pinned_small_trees():
    """Each honest proof verifies at its own leaf index only."""
    rng = random.Random(0xDC)
    for n in range(1, 18):
        leaves = rand_digests(rng, n)
        root = prim.merkle_root(leaves)
        for i in range(n):
            path = prim.merkle_prove(leaves, i)
            assert prim.merkle_verify(leaves[i], path, root)
            for j in range(-1, 2 ** len(path.siblings) + 1):
                if j != i:
                    moved = prim.MerklePath(siblings=path.siblings, leaf_index=j)
                    assert not prim.merkle_verify(leaves[i], moved, root)


def test_padding_position_rejected():
    """An odd-width level pads with a copy of its last node on the right. At
    the copy's position the same hash would be a left sibling equal to the
    node itself, which is refused, so each leaf verifies at its own index
    only, whatever index the same hashes are given."""
    rng = random.Random(0xDD)
    for n in range(1, 40):
        leaves = rand_digests(rng, n)
        root = prim.merkle_root(leaves)
        for i in range(n):
            hashes = prim.merkle_prove(leaves, i).siblings
            for j in range(1 << len(hashes)):
                other = prim.MerklePath(siblings=hashes, leaf_index=j)
                assert prim.merkle_verify(leaves[i], other, root) == (j == i), (n, i, j)


def test_wrong_tree_root_rejected():
    rng = random.Random(0xDA)
    a = rand_digests(rng, 8)
    b = rand_digests(rng, 8)
    path = prim.merkle_prove(a, 3)
    assert not prim.merkle_verify(a[3], path, prim.merkle_root(b))


def test_path_json_roundtrip():
    leaves = rand_digests(random.Random(0xDB), 6)
    path = prim.merkle_prove(leaves, 2)
    again = prim.MerklePath.from_json(path.to_json(), path.leaf_index)
    assert again == path
    assert prim.merkle_verify(leaves[2], again, prim.merkle_root(leaves))
