"""Simulated trusted enclaves: install, attest, provision, and resume.

An :class:`SgxHost` plays the part of the trusted hardware on one execution
node. Installed instances keep their keys and round state private to this
module; the hosting node only ever sees envelopes going in and signed chunks
coming out. The committee provisions an enclave over its attested session
with the signing key, the partition, then each round's arm. One table here
holds each delivery's format: the committee seals with :func:`seal_delivery`,
and :meth:`SgxHost.deliver` opens and applies. A resume refuses a batch that
names a sender twice, then hands the pluggable aggregation hook the batch in
ascending sender order, one input at a time: each is decrypted and checked
(context, tag, header, and that all clients delivered the same master key)
only when the hook asks for it. The default hook folds each into the sum over
the requested layers before it asks for the next. The enclave then seals the
encoded result under the master key, splits the envelope's wire encoding
into transaction-sized chunks, and signs them, on the pool when there are
many. For the ``fedavg`` fold, every model plaintext of a batch is decrypted
into one buffer the enclave owns, allocated once per batch and dropped before
the output is written, so a batch holds one plaintext and the sum; any other
hook may keep its updates, so each of its inputs gets a fresh buffer.
The output is written once: its wire encoding is one buffer, the encoded
result sealed in place inside it, and each chunk is a view of that buffer.
A chunk is signed without joining its signed message.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import struct
from dataclasses import dataclass, field
from random import Random

from . import crypto, model, transport
from .crypto import AuthFailure, Envelope, MeasurementMismatch, SymKey

DEFAULT_EPC_BUDGET = 128 * 1024 * 1024  # common protected-memory ceiling


class MissingKey(Exception):
    """Resume attempted before the signing key was delivered."""


class RoundMismatch(Exception):
    """Input bound to a different round than the enclave expects."""


class MskDisagreement(Exception):
    """Clients in one batch delivered different master keys."""


class CapacityExceeded(Exception):
    """Batch exceeds the protected-memory budget and paging is off."""


# Named, deterministic aggregation hooks; detection schemes plug in here.
# A hook maps (updates, layer_range) -> PartialAggregate. ``updates`` yields
# the batch's decoded updates in ascending client order, one at a time, and
# a hook may keep them.
HOOKS = {"fedavg": model.partial_aggregate}


@dataclass(frozen=True)
class EnclaveProgram:
    """The contract an enclave runs, identified by the hash of its code."""

    code_id: bytes
    aggregation_hook: str = "fedavg"

    @property
    def measurement(self) -> bytes:
        return hashlib.sha256(self.code_id).digest()


@dataclass(frozen=True)
class SignedChunk:
    """One upload unit: a ciphertext slice plus the enclave's signature.

    ``payload`` may be a read-only view of a larger buffer."""

    taskid: bytes
    round: int
    index: int
    payload: bytes
    sigma: crypto.Signature


@dataclass
class EnclaveOutput:
    chunks: list[SignedChunk]
    plain_input_bytes: int
    paged_bytes: int  # bytes beyond the budget that went through paging


def chunk_signed_parts(taskid: bytes, round_index: int, index: int, payload: bytes) -> tuple:
    """The canonical signed message, in the pieces whose concatenation is
    signed: taskid + round(u64 BE) + index(u32 BE) + payload."""
    return taskid, struct.pack(">QI", round_index, index), payload


@dataclass
class PartitionConf:
    """The slice of the schedule one enclave is responsible for."""

    layer_range: tuple[int, ...]
    tx_capacity: int


@dataclass
class EnclaveInstance:
    eid: int
    taskid: bytes
    program: EnclaveProgram
    epc_budget: int
    paging_enabled: bool
    rng: Random
    round_counter: int = 0
    expected_round: int | None = None
    chunk_base: int = 0  # the armed round's first chunk index
    sk_vk: object = None  # signing key, never visible to the hosting node
    ssk_by_peer: dict = field(default_factory=dict)
    partition: PartitionConf | None = None
    busy: bool = False  # single-entrant guard


# Per committee delivery purpose: its AAD label, and the SgxHost step applying it.
_DELIVERIES = {
    transport.KEY_PURPOSE_SK: (b"sk_vk", "getsk"),
    transport.KEY_PURPOSE_ROUND: (b"round", "set_round"),
    transport.KEY_PURPOSE_PARTITION: (b"partition", "load_partition"),
}


def seal_delivery(ssk: SymKey, taskid: bytes, purpose: int, plain: bytes, rng: Random) -> Envelope:
    """Seal a committee delivery of ``purpose`` under the enclave's session key."""
    label, _ = _DELIVERIES[purpose]
    return crypto.ae_encrypt(ssk, crypto.keydeliver_aad(taskid, label), plain, rng)


class SgxHost:
    """The trusted-hardware interface one node exposes to the outside world."""

    def __init__(self, eid_allocator) -> None:
        self.instances: dict[int, EnclaveInstance] = {}
        self._alloc = eid_allocator

    def install(
        self,
        taskid: bytes,
        program: EnclaveProgram,
        epc_budget: int = DEFAULT_EPC_BUDGET,
        paging_enabled: bool = False,
        rng_seed: int | None = None,
    ) -> int:
        if program.aggregation_hook not in HOOKS:
            raise ValueError(f"unknown aggregation hook {program.aggregation_hook!r}")
        eid = self._alloc()
        self.instances[eid] = EnclaveInstance(
            eid=eid,
            taskid=taskid,
            program=program,
            epc_budget=epc_budget,
            paging_enabled=paging_enabled,
            rng=Random(rng_seed if rng_seed is not None else eid),
        )
        return eid

    def _instance(self, eid: int) -> EnclaveInstance:
        try:
            return self.instances[eid]
        except KeyError:
            raise KeyError(f"no enclave {eid} installed") from None

    # -- attestation --------------------------------------------------------

    def ra_respond(self, eid: int, initiator: str, initiator_point: bytes) -> tuple[bytes, bytes]:
        """Enclave side of the key agreement.

        Returns (ephemeral public point, installed measurement). The session
        key is derived with the *installed* measurement, so a verifier that
        expected different code would not end up sharing a key even if it
        skipped the measurement check.
        """
        inst = self._instance(eid)
        priv, point = crypto.ecdh_keypair(inst.rng)
        ssk = crypto.derive_session_key(
            priv, initiator_point, initiator, eid, inst.program.measurement
        )
        inst.ssk_by_peer[initiator] = ssk
        return point, inst.program.measurement

    # -- provisioning -------------------------------------------------------

    def deliver(self, eid: int, sender: str, purpose: int, env: Envelope) -> None:
        """Open a committee delivery under the committee's session key, check it
        was sealed for this task and purpose, and apply its step. A delivery
        from any other ``sender`` is refused, though it attested to this
        enclave."""
        if purpose not in _DELIVERIES:
            raise ValueError(f"unknown key-delivery purpose {purpose}")
        label, step = _DELIVERIES[purpose]
        inst = self._instance(eid)
        key = inst.ssk_by_peer.get(sender)
        if key is None:
            raise AuthFailure(f"no session key with {sender}")
        if sender != transport.COMMITTEE:
            raise AuthFailure(f"{sender} may not deliver {label.decode()}")
        plain = crypto.ae_decrypt(key, env)
        if env.aad != crypto.keydeliver_aad(inst.taskid, label):
            raise AuthFailure(f"{label.decode()} envelope bound to a different context")
        getattr(self, step)(inst, plain)

    def getsk(self, inst: EnclaveInstance, scalar: bytes) -> None:
        inst.sk_vk = crypto.load_secret_key(scalar)

    def set_round(self, inst: EnclaveInstance, plain: bytes) -> None:
        """Arm the enclave for one round and its first chunk index; a round not
        yet consumed may be re-armed, the latest arm holding."""
        round_index, chunk_base = transport.unpack(transport.ROUND_ARM, plain)
        if round_index < inst.round_counter:
            raise RoundMismatch(f"round {round_index} already consumed")
        inst.expected_round, inst.chunk_base = round_index, chunk_base

    def load_partition(self, inst: EnclaveInstance, plain: bytes) -> None:
        inst.partition = PartitionConf(*transport.unpack(transport.PARTITION, plain))

    # -- execution ----------------------------------------------------------

    def resume(self, eid: int, inputs: list[tuple[Envelope, Envelope, int]]) -> EnclaveOutput:
        """Run one aggregation batch over the partition's layers: decrypt,
        check, aggregate, seal, sign.

        ``inputs`` is a list of (model envelope, master-key envelope, sender
        client id). A batch that names one sender twice is refused before
        anything is decrypted. The hook is handed the inputs in ascending
        sender order, each decrypted and checked only when the hook asks for
        it. Any tampered envelope rejects the whole batch; it reports the
        offending sender unless the hook failed first, on an earlier input
        (a layer structure that disagrees, say). A batch for a round that
        was already consumed, or for a round the committee has not armed,
        never produces output. The output is bound to the armed chunk base,
        and its chunks are numbered from it.
        """
        inst = self._instance(eid)
        if inst.busy:
            raise RuntimeError(f"enclave {eid} is single-entrant")
        if inst.sk_vk is None:
            raise MissingKey(f"enclave {eid} has no signing key yet")
        if inst.expected_round is None:
            raise RoundMismatch(f"enclave {eid} has no armed round")
        if inst.partition is None:
            raise RoundMismatch(f"enclave {eid} has no partition configuration")
        round_index, chunk_base = inst.expected_round, inst.chunk_base

        inst.busy = True
        try:
            # Ciphertext length equals plaintext length, so the memory check
            # happens before anything is decrypted into the enclave.
            plain_bytes = sum(len(m.ciphertext) + len(k.ciphertext) for m, k, _ in inputs)
            paged = max(0, plain_bytes - inst.epc_budget)
            if paged and not inst.paging_enabled:
                raise CapacityExceeded(
                    f"batch needs {plain_bytes} bytes, budget is {inst.epc_budget}"
                )
            inputs = sorted(inputs, key=lambda i: i[2])
            for (_, _, a), (_, _, b) in zip(inputs, inputs[1:]):
                if a == b:
                    raise AuthFailure(f"client {a}: named twice in one batch")

            msk: SymKey | None = None

            def opened():
                """Each input's decoded update, checked. For the fold, every
                model plaintext is decrypted into one buffer, allocated once
                for the batch, so an update is a view of it that the next
                input overwrites; the buffer goes when the batch is done."""
                nonlocal msk
                buf = None
                # Only the fold reads no update after it asks for the next.
                if inst.program.aggregation_hook == "fedavg":
                    buf = crypto.new_buffer(max((len(m.ciphertext) for m, _, _ in inputs), default=0))
                for env_m, env_k, sender in inputs:
                    ssk = inst.ssk_by_peer.get(f"client:{sender}")
                    if ssk is None:
                        raise AuthFailure(f"client {sender}: no attested session key")
                    try:
                        claimed = _aad_round(env_m.aad)
                    except struct.error as exc:
                        raise AuthFailure(f"client {sender}: malformed envelope context") from exc
                    if claimed != round_index:
                        raise RoundMismatch(
                            f"client {sender} submitted round {claimed}, expected {round_index}"
                        )
                    if env_m.aad != crypto.model_aad(inst.taskid, round_index, sender):
                        raise AuthFailure(f"client {sender}: model envelope bound to wrong context")
                    try:
                        plain_m = crypto.ae_decrypt(
                            ssk, env_m, None if buf is None else buf[: len(env_m.ciphertext)]
                        )
                        plain_k = crypto.ae_decrypt(ssk, env_k)
                    except AuthFailure as exc:
                        raise AuthFailure(f"client {sender}: envelope failed authentication") from exc
                    if env_k.aad != crypto.msk_aad(inst.taskid, round_index, sender):
                        raise AuthFailure(f"client {sender}: master-key envelope bound to wrong context")
                    this_msk = SymKey(plain_k)
                    if msk is None:
                        msk = this_msk
                    elif msk != this_msk:
                        raise MskDisagreement(f"client {sender} delivered a different master key")
                    update = model.decode_model(plain_m)
                    # a client that writes another client's id or round into its update
                    if update.client != sender or update.round != round_index or update.taskid != inst.taskid:
                        raise AuthFailure(f"client {sender}: decoded update header disagrees with context")
                    yield update

            updates = opened()
            result = HOOKS[inst.program.aggregation_hook](updates, inst.partition.layer_range)
            for _ in updates:  # a hook that stopped early leaves no check unrun
                pass
            size = model.encoded_partial_size(
                len(result.client_set), [len(l.values) for l in result.scaled_sum.layers]
            )
            wire = transport.pack(
                transport.ENCLAVE_OUTPUT,
                crypto.Sealing(
                    msk,
                    crypto.output_aad(inst.taskid, round_index, chunk_base),
                    size,
                    functools.partial(model.encode_partial, result),
                    inst.rng,
                ),
            )
            cap = inst.partition.tx_capacity
            pieces = [wire[i : i + cap] for i in range(0, len(wire), cap)]
            indices = range(chunk_base, chunk_base + len(pieces))
            sigmas = crypto.sig_sign_all(inst.sk_vk, [
                chunk_signed_parts(inst.taskid, round_index, index, piece)
                for index, piece in zip(indices, pieces)
            ])
            chunks = [
                SignedChunk(inst.taskid, round_index, index, piece, sigma)
                for index, piece, sigma in zip(indices, pieces, sigmas)
            ]

            inst.round_counter = round_index + 1
            inst.expected_round = None  # consumed; replays need a fresh arm
            return EnclaveOutput(chunks=chunks, plain_input_bytes=plain_bytes, paged_bytes=paged)
        finally:
            inst.busy = False


def _aad_round(aad: bytes) -> int:
    (tid_len,) = struct.unpack_from(">H", aad, 0)
    (round_index,) = struct.unpack_from(">Q", aad, 2 + tid_len)
    return round_index


def attest(
    router: transport.Router, initiator: str, node: int, eid: int,
    expected_measurement: bytes, rng: Random,
) -> SymKey:
    """Initiator side of the attestation handshake with enclave ``eid`` on ``node``.

    Raises MeasurementMismatch when the installed program hash is not the one
    the initiator expected; this is how a tampered enclave is rejected.
    """
    priv, point = crypto.ecdh_keypair(rng)
    kind, reply, _ = router.call(
        initiator, f"node:{node}", transport.MessageKind.RaHandshake1,
        transport.pack(transport.RA_HANDSHAKE1, eid, initiator, point),
    )
    enclave_point, quoted = transport.check_reply(kind, reply, transport.RA_HANDSHAKE2)
    if quoted != expected_measurement:
        raise MeasurementMismatch(
            f"enclave {eid} on node {node} quotes {quoted.hex()[:16]}…, "
            f"expected {expected_measurement.hex()[:16]}…"
        )
    return crypto.derive_session_key(priv, enclave_point, initiator, eid, expected_measurement)


def make_eid_allocator():
    """Fresh allocator so one run's enclave ids are reproducible."""
    return itertools.count(1).__next__
