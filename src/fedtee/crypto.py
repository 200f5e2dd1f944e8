"""Authenticated encryption, digital signatures, and session-key agreement.

Everything the protocol encrypts travels in an :class:`Envelope` (AES-GCM,
128-bit keys, 12-byte nonces). Enclave outputs are signed with ECDSA over
NIST P-256, and session keys come from an ephemeral ECDH agreement on the
same curve whose key derivation binds both party identifiers and the
enclave's program measurement.

All operations are pure or take caller-supplied randomness, so they are safe
to use concurrently from independent role instances. The process has one
worker pool, a thread per usable CPU (:func:`pool_map`): long lists of
signatures are made and checked there, one slice per CPU, since P-256 signing
and verifying release the GIL. The model's per-layer passes share it, and so
do the oracle's clients, one task each, in a round whose layers are too small
to pool. A :func:`pool_map` called from a pool task runs inline.

Every model-sized byte string on a round's path is written once, into a
buffer from :func:`new_buffer`: a decrypted plaintext, into a fresh buffer or
one the caller reuses, or an envelope sealed in place inside the frame or
output that carries it (:class:`Sealing`).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from random import Random
from typing import Callable, NamedTuple

import numpy as np
from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec, utils
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

KEY_BYTES = 16
NONCE_BYTES = 12
TAG_BYTES = 16
SEED_BYTES = 32

_CURVE = ec.SECP256R1()
_CURVE_ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551


# ---------------------------------------------------------------------------
# The worker pool
# ---------------------------------------------------------------------------

try:
    CPUS = len(os.sched_getaffinity(0))  # the CPUs this process may run on
except AttributeError:  # no affinity call on this platform
    CPUS = os.cpu_count() or 1
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_on_pool = threading.local()  # ``worker`` is set on the pool's own threads


def _mark_worker() -> None:
    _on_pool.worker = True


def _forget_pool() -> None:
    """A forked child has none of the pool's threads, so it builds its own."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def pool_map(fn, *columns) -> list:
    """``[fn(*args) for args in zip(*columns)]``, each call a task on the
    process's one pool, built on first use with a thread per CPU. Every
    result is read, so a task's error raises here.

    A call from one of the pool's own threads runs its calls in order on that
    thread: two tasks that each waited on tasks of their own would otherwise
    hold every worker forever."""
    if getattr(_on_pool, "worker", False):
        return list(map(fn, *columns))
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(CPUS, thread_name_prefix="fedtee", initializer=_mark_worker)
    return list(_pool.map(fn, *columns))


def new_buffer(n: int) -> memoryview:
    """``n`` writable, uninitialised bytes. numpy asks the kernel for
    transparent huge pages on a large array, so writing a model-sized buffer
    for the first time takes few page faults."""
    return memoryview(np.empty(n, np.uint8))


class AuthFailure(Exception):
    """Decryption failed: key, nonce, aad, ciphertext or tag was altered."""


class MeasurementMismatch(Exception):
    """Key agreement aborted: installed program hash differs from the expected one."""


@dataclass(eq=False)
class SymKey:
    """A 16-byte symmetric key (session keys and the task master key).

    The raw bytes must never appear on a transport frame or ledger entry;
    confidentiality checks scan for them.
    """

    raw: bytes

    def __post_init__(self) -> None:
        self.raw = bytes(self.raw)  # never a view of a buffer that may change
        if len(self.raw) != KEY_BYTES:
            raise ValueError(f"symmetric key must be {KEY_BYTES} bytes, got {len(self.raw)}")
        # Nonces drawn under this key instance; reuse trips an assertion.
        self._seen_nonces: set[bytes] = set()

    @functools.cached_property
    def _cipher(self) -> AESGCM:
        """Built once, on first use: building one costs as much as sealing 4 KiB."""
        return AESGCM(self.raw)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SymKey) and other.raw == self.raw

    def __repr__(self) -> str:
        return "SymKey(<16 bytes>)"


@dataclass(frozen=True)
class Envelope:
    """Authenticated ciphertext: nonce, associated data, and ``sealed``, the
    AES-GCM output (ciphertext followed by its 16-byte tag).

    The fields may be bytes or views of a larger buffer, such as the frame an
    envelope arrived in or the one it was sealed into. Any single-bit change
    to any of them makes :func:`ae_decrypt` raise :class:`AuthFailure`.
    """

    nonce: bytes
    aad: bytes
    sealed: bytes

    @property
    def ciphertext(self) -> memoryview:
        return memoryview(self.sealed)[:-TAG_BYTES].toreadonly()

    @property
    def tag(self) -> memoryview:
        return memoryview(self.sealed)[-TAG_BYTES:].toreadonly()

    def wire_parts(self) -> tuple:
        """Wire encoding, in pieces to be joined:
        nonce(12) + aad_len(u16 BE) + aad + ct_len(u32 BE) + ct + tag(16)."""
        return (
            self.nonce,
            struct.pack(">H", len(self.aad)),
            self.aad,
            struct.pack(">I", len(self.sealed) - TAG_BYTES),
            self.sealed,
        )

    def to_bytes(self) -> bytes:
        return b"".join(self.wire_parts())

    @classmethod
    def from_bytes(cls, data: bytes) -> "Envelope":
        env, off = parse_envelope_at(data, 0)
        if off != len(data):
            raise ValueError("trailing bytes after envelope")
        return env


def parse_envelope_at(data: bytes, off: int) -> tuple[Envelope, int]:
    """Parse one wire-encoded envelope starting at ``off``; returns (env, end).

    The fields are slices of ``data``, so a memoryview yields them as views."""
    if len(data) < off + NONCE_BYTES + 2:
        raise ValueError("envelope too short")
    nonce = data[off : off + NONCE_BYTES]
    off += NONCE_BYTES
    (aad_len,) = struct.unpack_from(">H", data, off)
    off += 2
    aad = data[off : off + aad_len]
    off += aad_len
    if len(data) < off + 4:
        raise ValueError("envelope truncated before ciphertext length")
    (ct_len,) = struct.unpack_from(">I", data, off)
    off += 4
    end = off + ct_len + TAG_BYTES
    sealed = data[off:end]
    if len(aad) != aad_len or len(sealed) != ct_len + TAG_BYTES:
        raise ValueError("envelope truncated")
    return Envelope(nonce, aad, sealed), end


def envelope_encoded_size(aad_len: int, plaintext_len: int) -> int:
    """Size of Envelope.to_bytes() without building one (GCM keeps ct == pt length)."""
    return NONCE_BYTES + 2 + aad_len + 4 + plaintext_len + TAG_BYTES


def ae_encrypt(key: SymKey, aad: bytes, plaintext: bytes, rng: Random, out=None) -> Envelope:
    """Encrypt under AES-GCM with a fresh 12-byte nonce drawn from ``rng``.

    Nonce uniqueness per key instance is asserted; the seeded ``rng`` keeps
    the run reproducible. With ``out``, a
    writable buffer of ``len(plaintext) + TAG_BYTES`` bytes, the output is
    written there and ``sealed`` is ``out``; ``plaintext`` may be
    ``out[:-TAG_BYTES]``, which is then encrypted in place.
    """
    nonce = rng.randbytes(NONCE_BYTES)
    if nonce in key._seen_nonces:
        raise RuntimeError("nonce reuse under one key within a run")
    key._seen_nonces.add(nonce)
    if out is None:
        return Envelope(nonce, aad, key._cipher.encrypt(nonce, plaintext, aad))
    key._cipher.encrypt_into(nonce, plaintext, aad, out)
    return Envelope(nonce, aad, out)


def ae_decrypt(key: SymKey, env: Envelope, out=None) -> memoryview:
    """Recover the plaintext into ``out``, a writable buffer of exactly the
    ciphertext's length (ValueError otherwise), or into a fresh buffer;
    :class:`AuthFailure` if anything was altered. Returns the buffer written.

    AES-GCM writes plaintext before it has checked the tag, so ``out`` holds
    unchecked bytes after a failure: it must be the caller's own, and the
    ciphertext is never decrypted in place, as it may lie in a frame that
    others can see."""
    if out is None:
        out = new_buffer(max(0, len(env.sealed) - TAG_BYTES))
    try:
        key._cipher.decrypt_into(env.nonce, env.sealed, env.aad, out)
    except InvalidTag as exc:
        raise AuthFailure("envelope failed authentication") from exc
    return out


class Sealing(NamedTuple):
    """An envelope still to be sealed, straight into its wire encoding inside
    a larger buffer. ``fill`` is the ``size``-byte plaintext, or a function
    that writes it into the region it is given, where its ciphertext goes;
    :func:`ae_encrypt` then seals it there in place. ``transport.pack`` takes
    one wherever an envelope goes."""

    key: SymKey
    aad: bytes
    size: int
    fill: bytes | Callable[[memoryview], object]
    rng: Random

    @property
    def wire_size(self) -> int:
        return envelope_encoded_size(len(self.aad), self.size)

    def seal_into(self, wire: memoryview) -> Envelope:
        """Write the envelope's whole wire encoding into ``wire``, a writable
        buffer of ``wire_size`` bytes; returns the envelope, whose ``sealed``
        is a view of ``wire``."""
        key, aad, size, fill, rng = self
        head = NONCE_BYTES + 2 + len(aad) + 4
        wire[NONCE_BYTES:head] = struct.pack(f">H{len(aad)}sI", len(aad), aad, size)
        sealed = wire[head:]
        if callable(fill):
            fill(sealed[:size])
        else:
            sealed[:size] = fill
        env = ae_encrypt(key, aad, sealed[:size], rng, out=sealed)
        wire[:NONCE_BYTES] = env.nonce
        return env


# ---------------------------------------------------------------------------
# Signatures (ECDSA over P-256)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Signature:
    raw: bytes  # DER-encoded (r, s)


@dataclass(eq=False)
class SigKeyPair:
    public: ec.EllipticCurvePublicKey
    secret: ec.EllipticCurvePrivateKey = field(repr=False)

    def public_bytes(self) -> bytes:
        """Uncompressed X9.62 point, suitable for publication on the ledger."""
        return self.public.public_bytes(
            serialization.Encoding.X962, serialization.PublicFormat.UncompressedPoint
        )

    def secret_scalar_bytes(self) -> bytes:
        """32-byte private scalar, only ever shipped inside an Envelope."""
        return self.secret.private_numbers().private_value.to_bytes(32, "big")


def load_public_key(point: bytes) -> ec.EllipticCurvePublicKey:
    return ec.EllipticCurvePublicKey.from_encoded_point(_CURVE, point)


def load_secret_key(scalar: bytes) -> ec.EllipticCurvePrivateKey:
    return ec.derive_private_key(int.from_bytes(scalar, "big"), _CURVE)


def sig_keygen(seed: bytes) -> SigKeyPair:
    """Derive a P-256 key pair deterministically from 32 bytes of entropy."""
    if len(seed) != SEED_BYTES:
        raise ValueError(f"keygen seed must be {SEED_BYTES} bytes")
    scalar = int.from_bytes(hashlib.sha256(b"sig-keygen\x00" + seed).digest(), "big")
    secret = ec.derive_private_key(scalar % (_CURVE_ORDER - 1) + 1, _CURVE)
    return SigKeyPair(public=secret.public_key(), secret=secret)


# The signed message is hashed here, part by part, so it is never joined; the
# signature is the one ECDSA-SHA256 gives over the joined message.
_PREHASHED = ec.ECDSA(utils.Prehashed(hashes.SHA256()))
_PREHASHED_DETERMINISTIC = ec.ECDSA(utils.Prehashed(hashes.SHA256()), deterministic_signing=True)


def _message_digest(parts) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.digest()


def sig_sign(secret: ec.EllipticCurvePrivateKey, *message: bytes) -> Signature:
    """Sign the concatenation of the ``message`` parts."""
    # Deterministic nonces (RFC 6979 style) keep whole runs bit-reproducible.
    return Signature(secret.sign(_message_digest(message), _PREHASHED_DETERMINISTIC))


def sig_verify(public: ec.EllipticCurvePublicKey, sig: Signature, *message: bytes) -> bool:
    """True iff ``sig`` was produced by the matching secret key over exactly
    the concatenation of the ``message`` parts. Malformed signature bytes
    yield False, never an exception."""
    try:
        public.verify(sig.raw, _message_digest(message), _PREHASHED)
        return True
    except (InvalidSignature, ValueError, TypeError):
        return False


# Lists from this many messages up are signed or checked on the pool; below
# it, handing the slices to the threads costs more than it saves.
SIG_PARALLEL_MIN = 8


# The slices look sig_sign and sig_verify up by name at call time, so a
# wrapper set on this module sees every call, on the pool too.
def _sign_slice(secret, messages: list[tuple]) -> list[Signature]:
    return [sig_sign(secret, *message) for message in messages]


def _verify_slice(public, items: list[tuple[Signature, tuple]]) -> list[bool]:
    return [sig_verify(public, sig, *message) for sig, message in items]


def _by_slices(fn, key, items: list) -> list:
    """``fn(key, items)``, or on the pool one slice of ``items`` per CPU, the
    results joined in order."""
    if CPUS < 2 or len(items) < SIG_PARALLEL_MIN:
        return fn(key, items)
    step = -(-len(items) // CPUS)
    slices = [items[i : i + step] for i in range(0, len(items), step)]
    return list(itertools.chain.from_iterable(pool_map(fn, itertools.repeat(key), slices)))


def sig_sign_all(secret: ec.EllipticCurvePrivateKey, messages: list[tuple]) -> list[Signature]:
    """``[sig_sign(secret, *m) for m in messages]``. A long list is signed on
    the pool; the nonces are deterministic, so the bytes are the same."""
    return _by_slices(_sign_slice, secret, messages)


def sig_verify_all(
    public: ec.EllipticCurvePublicKey, items: list[tuple[Signature, tuple]]
) -> list[bool]:
    """``[sig_verify(public, sig, *m) for sig, m in items]``, a long list
    checked on the pool."""
    return _by_slices(_verify_slice, public, items)


# ---------------------------------------------------------------------------
# Attestation-style key agreement (ephemeral ECDH + measurement-bound KDF)
# ---------------------------------------------------------------------------

def ecdh_keypair(rng: Random) -> tuple[ec.EllipticCurvePrivateKey, bytes]:
    """Ephemeral ECDH key pair; returns (private key, X9.62 public point)."""
    scalar = int.from_bytes(rng.randbytes(32), "big") % (_CURVE_ORDER - 1) + 1
    priv = ec.derive_private_key(scalar, _CURVE)
    point = priv.public_key().public_bytes(
        serialization.Encoding.X962, serialization.PublicFormat.UncompressedPoint
    )
    return priv, point


def derive_session_key(
    priv: ec.EllipticCurvePrivateKey,
    peer_point: bytes,
    initiator: str,
    enclave_id: int,
    measurement: bytes,
) -> SymKey:
    """KDF over the ECDH secret, both identifiers, and the program measurement.

    A party that disagrees about the measurement derives a different key, so
    the binding holds even if the mismatch check were bypassed.
    """
    shared = priv.exchange(ec.ECDH(), load_public_key(peer_point))
    ident = initiator.encode()
    material = b"".join(
        (
            b"ra-session-kdf\x00",
            shared,
            struct.pack(">H", len(ident)),
            ident,
            struct.pack(">Q", enclave_id),
            measurement,
        )
    )
    return SymKey(hashlib.sha256(material).digest()[:KEY_BYTES])


# ---------------------------------------------------------------------------
# Associated-data layouts (context binding for envelopes)
# ---------------------------------------------------------------------------

def model_aad(taskid: bytes, round_index: int, sender: int) -> bytes:
    """AAD for client model envelopes: binds task, round, and sender."""
    return struct.pack(">H", len(taskid)) + taskid + struct.pack(">QQ", round_index, sender)


def msk_aad(taskid: bytes, round_index: int, sender: int) -> bytes:
    """AAD for the master-key envelope riding along with each model."""
    return b"msk\x00" + model_aad(taskid, round_index, sender)


def keydeliver_aad(taskid: bytes, purpose: bytes) -> bytes:
    """AAD for committee key/round/partition deliveries into an enclave."""
    return b"commit\x00" + struct.pack(">H", len(taskid)) + taskid + purpose


def output_aad(taskid: bytes, round_index: int, chunk_base: int) -> bytes:
    """AAD for an enclave's encrypted aggregation output."""
    return struct.pack(">H", len(taskid)) + taskid + struct.pack(">QI", round_index, chunk_base)
