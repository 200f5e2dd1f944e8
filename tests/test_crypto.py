"""Crypto layer: AEAD envelopes, signatures, and the attestation KDF."""

import os
import signal
import threading
from random import Random

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import with_envelope_field
from fedtee import crypto
from fedtee.crypto import (
    AuthFailure,
    Envelope,
    SymKey,
    ae_decrypt,
    ae_encrypt,
    derive_session_key,
    ecdh_keypair,
    sig_keygen,
    sig_sign,
    sig_verify,
)


class FixedNonce:
    def __init__(self, nonce: bytes):
        self.nonce = nonce

    def randbytes(self, n: int) -> bytes:
        assert n == len(self.nonce)
        return self.nonce


# ---------------------------------------------------------------------------
# Independent GCM reference: CTR + GHASH built directly on the AES block
# cipher, used as the oracle for the AEAD construction.
# ---------------------------------------------------------------------------

def _aes_block(key: bytes, block: bytes) -> bytes:
    enc = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
    return enc.update(block) + enc.finalize()


def _gf_mult(x: int, y: int) -> int:
    R = 0xE1000000000000000000000000000000
    z, v = 0, x
    for i in range(127, -1, -1):
        if (y >> i) & 1:
            z ^= v
        v = (v >> 1) ^ R if v & 1 else v >> 1
    return z


def _ghash(h: int, aad: bytes, ct: bytes) -> bytes:
    def blocks(data: bytes):
        padded = data + b"\x00" * ((16 - len(data) % 16) % 16)
        for i in range(0, len(padded), 16):
            yield padded[i : i + 16]

    y = 0
    for block in blocks(aad):
        y = _gf_mult(int.from_bytes(block, "big") ^ y, h)
    for block in blocks(ct):
        y = _gf_mult(int.from_bytes(block, "big") ^ y, h)
    lengths = (len(aad) * 8).to_bytes(8, "big") + (len(ct) * 8).to_bytes(8, "big")
    y = _gf_mult(int.from_bytes(lengths, "big") ^ y, h)
    return y.to_bytes(16, "big")


def gcm_reference_encrypt(key: bytes, nonce: bytes, aad: bytes, plaintext: bytes):
    assert len(nonce) == 12
    h = int.from_bytes(_aes_block(key, b"\x00" * 16), "big")
    j0 = nonce + b"\x00\x00\x00\x01"
    ct = bytearray()
    counter = int.from_bytes(j0[12:], "big")
    for i in range(0, len(plaintext), 16):
        counter = (counter + 1) & 0xFFFFFFFF
        stream = _aes_block(key, nonce + counter.to_bytes(4, "big"))
        block = plaintext[i : i + 16]
        ct.extend(a ^ b for a, b in zip(block, stream))
    s = _ghash(h, aad, bytes(ct))
    tag = bytes(a ^ b for a, b in zip(_aes_block(key, j0), s))
    return bytes(ct), tag


def test_reference_matches_published_vector():
    # AES-128 GCM test case with AAD from the algorithm's published test set.
    key = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
    nonce = bytes.fromhex("cafebabefacedbaddecaf888")
    aad = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")
    plaintext = bytes.fromhex(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39"
    )
    want_ct = bytes.fromhex(
        "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
        "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
    )
    want_tag = bytes.fromhex("5bc94fbc3221a5db94fae95ae7121a47")
    ct, tag = gcm_reference_encrypt(key, nonce, aad, plaintext)
    assert ct == want_ct
    assert tag == want_tag


def test_ae_encrypt_matches_published_vector_byte_exact():
    key = SymKey(bytes.fromhex("feffe9928665731c6d6a8f9467308308"))
    nonce = bytes.fromhex("cafebabefacedbaddecaf888")
    aad = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")
    plaintext = bytes.fromhex(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39"
    )
    env = ae_encrypt(key, aad, plaintext, rng=FixedNonce(nonce))
    assert env.ciphertext.hex() == (
        "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
        "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
    )
    assert env.tag.hex() == "5bc94fbc3221a5db94fae95ae7121a47"


@given(
    key=st.binary(min_size=16, max_size=16),
    nonce=st.binary(min_size=12, max_size=12),
    aad=st.binary(max_size=40),
    plaintext=st.binary(max_size=200),
)
@settings(max_examples=40, deadline=None)
def test_ae_encrypt_agrees_with_independent_reference(key, nonce, aad, plaintext):
    env = ae_encrypt(SymKey(key), aad, plaintext, rng=FixedNonce(nonce))
    ct, tag = gcm_reference_encrypt(key, nonce, aad, plaintext)
    assert env.ciphertext == ct
    assert env.tag == tag


# ---------------------------------------------------------------------------
# Round trips and tamper detection
# ---------------------------------------------------------------------------

@given(aad=st.binary(max_size=64), plaintext=st.binary(max_size=512))
@settings(max_examples=50, deadline=None)
def test_roundtrip_identity(aad, plaintext):
    key = SymKey(b"\x01" * 16)
    assert ae_decrypt(key, ae_encrypt(key, aad, plaintext, rng=Random(0))) == plaintext


def test_two_encryptions_use_distinct_nonces_and_ciphertexts():
    key = SymKey(os.urandom(16))
    rng = Random(7)
    a = ae_encrypt(key, b"ctx", b"same plaintext", rng=rng)
    b = ae_encrypt(key, b"ctx", b"same plaintext", rng=rng)
    assert a.nonce != b.nonce
    assert a.ciphertext != b.ciphertext


def test_nonce_reuse_is_refused():
    key = SymKey(os.urandom(16))
    ae_encrypt(key, b"", b"x", rng=FixedNonce(b"\x05" * 12))
    with pytest.raises(RuntimeError, match="nonce reuse"):
        ae_encrypt(key, b"", b"y", rng=FixedNonce(b"\x05" * 12))


def _flip(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def test_single_bit_flips_anywhere_fail_auth():
    """A flipped bit in the nonce, the aad, or the ciphertext or tag bytes of
    ``sealed`` fails authentication, both in an envelope from ae_encrypt and
    in one parsed out of a memoryview of its wire bytes."""
    key = SymKey(os.urandom(16))
    aad, plaintext = b"aad-bytes", b"payload-payload"
    env = ae_encrypt(key, aad, plaintext, rng=Random(1))
    wire = env.to_bytes()
    ct_at = crypto.NONCE_BYTES + 2 + len(aad) + 4
    spans = {
        "nonce": (0, crypto.NONCE_BYTES),
        "aad": (crypto.NONCE_BYTES + 2, crypto.NONCE_BYTES + 2 + len(aad)),
        "ciphertext": (ct_at, ct_at + len(plaintext)),
        "tag": (ct_at + len(plaintext), len(wire)),
    }
    assert ae_decrypt(key, Envelope.from_bytes(memoryview(wire))) == plaintext
    rng = Random(2)
    for field, (start, end) in spans.items():
        original = bytes(getattr(env, field))
        assert wire[start:end] == original
        bit = rng.randrange(len(original) * 8)
        with pytest.raises(AuthFailure):
            ae_decrypt(key, with_envelope_field(env, field, _flip(original, bit)))
        parsed = Envelope.from_bytes(memoryview(_flip(wire, 8 * start + bit)))
        assert isinstance(parsed.sealed, memoryview)
        with pytest.raises(AuthFailure):
            ae_decrypt(key, parsed)


def test_decrypt_into_a_given_buffer():
    """``out`` receives the bytes a fresh buffer would, a flipped tag bit
    still fails, and an ``out`` of another length is refused."""
    key = SymKey(b"\x09" * 16)
    plaintext = bytes(range(200))
    env = ae_encrypt(key, b"ctx", plaintext, rng=Random(8))
    out = crypto.new_buffer(len(plaintext))
    assert ae_decrypt(key, env, out) is out
    assert bytes(out) == bytes(ae_decrypt(key, env)) == plaintext
    with pytest.raises(AuthFailure):
        ae_decrypt(key, with_envelope_field(env, "tag", _flip(bytes(env.tag), 5)), out)
    for n in (len(plaintext) - 1, len(plaintext) + 1):
        with pytest.raises(ValueError):
            ae_decrypt(key, env, crypto.new_buffer(n))


def test_ciphertext_and_tag_are_read_only_views_of_sealed():
    env = ae_encrypt(SymKey(b"\x07" * 16), b"", b"twelve bytes", rng=Random(6))
    assert bytes(env.ciphertext) + bytes(env.tag) == env.sealed
    assert len(env.tag) == crypto.TAG_BYTES
    for view in (env.ciphertext, env.tag):
        assert view.readonly
        assert view.obj is env.sealed


def test_wrong_key_same_length_fails():
    env = ae_encrypt(SymKey(b"\x02" * 16), b"", b"secret", rng=Random(3))
    with pytest.raises(AuthFailure):
        ae_decrypt(SymKey(b"\x03" * 16), env)


def test_symkey_must_be_16_bytes():
    with pytest.raises(ValueError):
        SymKey(b"\x00" * 15)


@given(aad=st.binary(max_size=32), plaintext=st.binary(max_size=256))
@settings(max_examples=30, deadline=None)
def test_envelope_wire_roundtrip(aad, plaintext):
    env = ae_encrypt(SymKey(b"\x09" * 16), aad, plaintext, rng=Random(4))
    again = Envelope.from_bytes(env.to_bytes())
    assert again == env
    assert crypto.envelope_encoded_size(len(env.aad), len(env.ciphertext)) == len(env.to_bytes())
    assert crypto.envelope_encoded_size(len(aad), len(plaintext)) == len(env.to_bytes())


def test_envelope_truncation_rejected():
    env = ae_encrypt(SymKey(b"\x09" * 16), b"a", b"bcd", rng=Random(5))
    blob = env.to_bytes()
    with pytest.raises(ValueError):
        Envelope.from_bytes(blob[:-1])
    with pytest.raises(ValueError):
        Envelope.from_bytes(blob + b"\x00")


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------

def test_sig_keygen_is_deterministic():
    seed = bytes(range(32))
    a = sig_keygen(seed)
    b = sig_keygen(seed)
    assert a.public_bytes() == b.public_bytes()
    assert a.secret_scalar_bytes() == b.secret_scalar_bytes()


def test_sign_verify_roundtrip_and_binding():
    pair = sig_keygen(os.urandom(32))
    sig = sig_sign(pair.secret, b"message")
    assert sig_verify(pair.public, sig, b"message")
    assert not sig_verify(pair.public, sig, b"message\x00")
    other = sig_keygen(os.urandom(32))
    assert not sig_verify(other.public, sig, b"message")


def test_malformed_signature_bytes_return_false():
    pair = sig_keygen(os.urandom(32))
    assert not sig_verify(pair.public, crypto.Signature(b""), b"m")
    assert not sig_verify(pair.public, crypto.Signature(b"\x00" * 70), b"m")


def test_signature_bit_mutation_fuzz():
    pair = sig_keygen(bytes(range(32)))
    message = b"the canonical chunk encoding"
    sig = sig_sign(pair.secret, message)
    rng = Random(99)
    accepted = 0
    for _ in range(1000):
        bit = rng.randrange(len(sig.raw) * 8)
        mutated = crypto.Signature(_flip(sig.raw, bit))
        accepted += sig_verify(pair.public, mutated, message)
    assert accepted == 0


def _sign_on_pool(monkeypatch):
    """Every list of two or more messages goes through the pool, even on one
    CPU; returns the list the pool's calls are recorded in."""
    monkeypatch.setattr(crypto, "SIG_PARALLEL_MIN", 2)
    monkeypatch.setattr(crypto, "CPUS", max(crypto.CPUS, 2))
    calls, pool_map = [], crypto.pool_map
    monkeypatch.setattr(crypto, "pool_map", lambda *a: calls.append(a) or pool_map(*a))
    return calls


def _messages(n):
    return [(b"task", i.to_bytes(12, "big"), bytes([i % 256]) * (i * 37)) for i in range(n)]


@pytest.mark.parametrize("n", [2, 7, 20])
def test_sign_all_same_bytes_on_pool_and_inline(monkeypatch, n):
    pair = sig_keygen(bytes(range(32)))
    messages = _messages(n)
    calls = _sign_on_pool(monkeypatch)
    pooled = crypto.sig_sign_all(pair.secret, messages)
    assert calls  # the pool ran the slices
    monkeypatch.setattr(crypto, "SIG_PARALLEL_MIN", 2**62)
    inline = crypto.sig_sign_all(pair.secret, messages)
    one_by_one = [sig_sign(pair.secret, *m) for m in messages]
    assert [s.raw for s in pooled] == [s.raw for s in inline] == [s.raw for s in one_by_one]


def test_verify_all_keeps_each_verdict_in_order(monkeypatch):
    pair = sig_keygen(bytes(range(32)))
    messages = _messages(9)
    sigs = [sig_sign(pair.secret, *m) for m in messages]
    sigs[3] = crypto.Signature(_flip(sigs[3].raw, 100))
    sigs[8] = sigs[7]  # a good signature over another message
    want = [i not in (3, 8) for i in range(9)]
    items = list(zip(sigs, messages))
    calls = _sign_on_pool(monkeypatch)
    assert crypto.sig_verify_all(pair.public, items) == want
    assert calls
    monkeypatch.setattr(crypto, "SIG_PARALLEL_MIN", 2**62)
    assert crypto.sig_verify_all(pair.public, items) == want


def test_short_lists_and_one_cpu_sign_inline(monkeypatch):
    class NoPool:
        def map(self, *args):
            raise AssertionError("inline path used the pool")

    pair = sig_keygen(bytes(range(32)))
    monkeypatch.setattr(crypto, "_pool", NoPool())
    monkeypatch.setattr(crypto, "CPUS", 2)
    short = _messages(crypto.SIG_PARALLEL_MIN - 1)
    crypto.sig_verify_all(pair.public, list(zip(crypto.sig_sign_all(pair.secret, short), short)))
    assert crypto.sig_sign_all(pair.secret, []) == crypto.sig_verify_all(pair.public, []) == []
    monkeypatch.setattr(crypto, "CPUS", 1)
    crypto.sig_sign_all(pair.secret, _messages(3 * crypto.SIG_PARALLEL_MIN))


def test_sign_all_counts_every_signature_through_the_module(monkeypatch):
    """The slices call ``crypto.sig_sign`` and ``crypto.sig_verify`` by name,
    so a wrapper installed there sees each call, on the pool too."""
    pair = sig_keygen(bytes(range(32)))
    _sign_on_pool(monkeypatch)
    seen = []
    for name in ("sig_sign", "sig_verify"):
        fn = getattr(crypto, name)
        monkeypatch.setattr(crypto, name, lambda *a, fn=fn: seen.append(1) or fn(*a))
    messages = _messages(11)
    sigs = crypto.sig_sign_all(pair.secret, messages)
    crypto.sig_verify_all(pair.public, list(zip(sigs, messages)))
    assert len(seen) == 22


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_nested_pool_map_runs_inline_on_the_worker(monkeypatch):
    """Four outer tasks on two workers, each mapping inner ones: a nested
    call that queued on the pool would hold both workers forever."""
    monkeypatch.setattr(crypto, "CPUS", 2)

    def outer(i):
        me = threading.get_ident()
        return crypto.pool_map(lambda j: (i, j, threading.get_ident() == me), range(3))

    pid = os.fork()
    if pid == 0:  # the child builds its own two-thread pool; a hang ends at the alarm
        signal.alarm(10)
        ok = False
        try:  # an error must end the child here, not hand it back to the test runner
            want = [[(i, j, True) for j in range(3)] for i in range(4)]
            ok = crypto.pool_map(outer, range(4)) == want
        finally:
            os._exit(0 if ok else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_secret_key_scalar_roundtrip():
    pair = sig_keygen(bytes(range(32)))
    restored = crypto.load_secret_key(pair.secret_scalar_bytes())
    sig = sig_sign(restored, b"x")
    assert sig_verify(pair.public, sig, b"x")


# ---------------------------------------------------------------------------
# Key agreement
# ---------------------------------------------------------------------------

def test_dh_both_ends_derive_equal_key():
    rng = Random(11)
    priv_a, point_a = ecdh_keypair(rng)
    priv_b, point_b = ecdh_keypair(rng)
    m = b"\xaa" * 32
    k1 = derive_session_key(priv_a, point_b, "client:1", 7, m)
    k2 = derive_session_key(priv_b, point_a, "client:1", 7, m)
    assert k1 == k2


def test_measurement_enters_the_kdf():
    rng = Random(12)
    priv_a, point_a = ecdh_keypair(rng)
    priv_b, point_b = ecdh_keypair(rng)
    k1 = derive_session_key(priv_a, point_b, "client:1", 7, b"\x01" * 32)
    k2 = derive_session_key(priv_b, point_a, "client:1", 7, b"\x02" * 32)
    assert k1 != k2


def test_distinct_pairs_get_distinct_keys():
    rng = Random(13)
    keys = set()
    for pair_id in range(20):
        priv_a, _ = ecdh_keypair(rng)
        _, point_b = ecdh_keypair(rng)
        k = derive_session_key(priv_a, point_b, f"client:{pair_id}", pair_id, b"\x00" * 32)
        keys.add(k.raw)
    assert len(keys) == 20
