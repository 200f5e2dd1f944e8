"""Simulated trusted enclaves: install, attest, provision, and resume.

An :class:`SgxHost` plays the part of the trusted hardware on one execution
node. Installed instances keep their keys and round state private to this
module; the hosting node only ever sees envelopes going in and signed chunks
coming out. A resume decrypts the batch, checks that all clients delivered
the same master key, runs the pluggable aggregation hook over the requested
layers, re-encrypts under the master key, splits the ciphertext into
transaction-sized chunks, and signs each chunk.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from random import Random

from . import crypto, model
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
# A hook maps (updates, layer_range) -> PartialAggregate.
HOOKS = {"fedavg": model.partial_aggregate}


def register_hook(name: str, fn) -> None:
    HOOKS[name] = fn


def program_measurement(code_id: bytes) -> bytes:
    return hashlib.sha256(code_id).digest()


@dataclass(frozen=True)
class EnclaveProgram:
    """The contract an enclave runs, identified by the hash of its code."""

    code_id: bytes
    aggregation_hook: str = "fedavg"

    @property
    def measurement(self) -> bytes:
        return program_measurement(self.code_id)


@dataclass(frozen=True)
class SignedChunk:
    """One upload unit: a ciphertext slice plus the enclave's signature."""

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


def chunk_signing_bytes(taskid: bytes, round_index: int, index: int, payload: bytes) -> bytes:
    """Canonical signed-message encoding, bit-exact on both sign and verify sides."""
    return taskid + struct.pack(">QI", round_index, index) + payload


@dataclass
class PartitionConf:
    """The slice of the schedule one enclave is responsible for."""

    layer_range: tuple[int, ...]
    client_subset: tuple[int, ...]
    chunk_base: int
    tx_capacity: int

    def to_json_bytes(self) -> bytes:
        return json.dumps(
            {
                "layer_range": list(self.layer_range),
                "client_subset": list(self.client_subset),
                "chunk_base": self.chunk_base,
                "tx_capacity": self.tx_capacity,
            },
            sort_keys=True,
        ).encode()

    @classmethod
    def from_json_bytes(cls, data: bytes) -> "PartitionConf":
        obj = json.loads(data.decode())
        return cls(
            layer_range=tuple(obj["layer_range"]),
            client_subset=tuple(obj["client_subset"]),
            chunk_base=int(obj["chunk_base"]),
            tx_capacity=int(obj["tx_capacity"]),
        )


@dataclass
class EnclaveInstance:
    eid: int
    taskid: bytes
    program: EnclaveProgram
    epc_budget: int
    paging_enabled: bool
    rng: Random
    memory_used: int = 0
    round_counter: int = 0
    expected_round: int | None = None
    sk_vk: object = None  # signing key, never visible to the hosting node
    ssk_by_peer: dict = field(default_factory=dict)
    partition: PartitionConf | None = None
    busy: bool = False  # single-entrant guard


class SgxHost:
    """The trusted-hardware interface one node exposes to the outside world."""

    def __init__(self, eid_allocator=None) -> None:
        self.instances: dict[int, EnclaveInstance] = {}
        self._alloc = eid_allocator or _module_eids

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

    def getsk(self, eid: int, sender: str, env: Envelope) -> None:
        """Deliver the signing key, encrypted under the committee session key."""
        inst = self._instance(eid)
        key = inst.ssk_by_peer.get(sender)
        if key is None:
            raise AuthFailure(f"no session key with {sender}")
        scalar = crypto.ae_decrypt(key, env)
        if env.aad != crypto.keydeliver_aad(inst.taskid, b"sk_vk"):
            raise AuthFailure("signing-key envelope bound to a different context")
        inst.sk_vk = crypto.load_secret_key(scalar)

    def set_round(self, eid: int, sender: str, env: Envelope) -> None:
        """Arm the enclave for one round; same-value repeats are idempotent."""
        inst = self._instance(eid)
        key = inst.ssk_by_peer.get(sender)
        if key is None:
            raise AuthFailure(f"no session key with {sender}")
        plain = crypto.ae_decrypt(key, env)
        if env.aad != crypto.keydeliver_aad(inst.taskid, b"round"):
            raise AuthFailure("round envelope bound to a different context")
        (tid_len,) = struct.unpack_from(">H", plain, 0)
        taskid = plain[2 : 2 + tid_len]
        (round_index,) = struct.unpack_from(">Q", plain, 2 + tid_len)
        if taskid != inst.taskid:
            raise RoundMismatch(f"round delivery for task {taskid!r}, enclave runs {inst.taskid!r}")
        if inst.expected_round == round_index:
            return
        if round_index < inst.round_counter:
            raise RoundMismatch(f"round {round_index} already consumed")
        inst.expected_round = round_index

    def load_partition(self, eid: int, sender: str, env: Envelope) -> None:
        inst = self._instance(eid)
        key = inst.ssk_by_peer.get(sender)
        if key is None:
            raise AuthFailure(f"no session key with {sender}")
        plain = crypto.ae_decrypt(key, env)
        if env.aad != crypto.keydeliver_aad(inst.taskid, b"partition"):
            raise AuthFailure("partition envelope bound to a different context")
        inst.partition = PartitionConf.from_json_bytes(plain)

    # -- execution ----------------------------------------------------------

    def resume(
        self,
        eid: int,
        inputs: list[tuple[Envelope, Envelope, int]],
        layer_range: tuple[int, ...],
    ) -> EnclaveOutput:
        """Run one aggregation batch: decrypt, check, aggregate, seal, sign.

        ``inputs`` is a list of (model envelope, master-key envelope, sender
        client id). Any tampered envelope rejects the whole batch and reports
        the offending sender. A batch for a round that was already consumed,
        or for a round the committee has not armed, never produces output.
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
        if tuple(layer_range) != inst.partition.layer_range:
            raise RoundMismatch(
                f"resume asked for layers {layer_range}, partition covers {inst.partition.layer_range}"
            )
        round_index = inst.expected_round

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
            inst.memory_used = min(plain_bytes, inst.epc_budget)

            updates = []
            msk: SymKey | None = None
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
                    plain_m = crypto.ae_decrypt(ssk, env_m)
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
                if update.client != sender or update.round != round_index or update.taskid != inst.taskid:
                    raise AuthFailure(f"client {sender}: decoded update header disagrees with context")
                updates.append(update)

            hook = HOOKS[inst.program.aggregation_hook]
            result = hook(updates, tuple(layer_range))
            payload = model.encode_partial(result)
            env_out = crypto.ae_encrypt(
                msk,
                crypto.output_aad(inst.taskid, round_index, inst.partition.chunk_base),
                payload,
                rng=inst.rng,
            )
            blob = env_out.to_bytes()
            cap = inst.partition.tx_capacity
            chunks = []
            for i in range(0, len(blob), cap):
                index = inst.partition.chunk_base + i // cap
                piece = blob[i : i + cap]
                sigma = crypto.sig_sign(
                    inst.sk_vk, chunk_signing_bytes(inst.taskid, round_index, index, piece)
                )
                chunks.append(SignedChunk(inst.taskid, round_index, index, piece, sigma))

            inst.round_counter = round_index + 1
            inst.expected_round = None  # consumed; replays need a fresh arm
            return EnclaveOutput(chunks=chunks, plain_input_bytes=plain_bytes, paged_bytes=paged)
        finally:
            inst.busy = False


def _aad_round(aad: bytes) -> int:
    (tid_len,) = struct.unpack_from(">H", aad, 0)
    (round_index,) = struct.unpack_from(">Q", aad, 2 + tid_len)
    return round_index


def ra_key_exchange(
    initiator: str,
    host: SgxHost,
    eid: int,
    expected_measurement: bytes,
    rng: Random,
) -> SymKey:
    """Initiator side of the attestation handshake against a local host.

    Raises MeasurementMismatch when the installed program hash is not the one
    the initiator expected; this is how a tampered enclave is rejected.
    """
    priv, point = crypto.ecdh_keypair(rng)
    enclave_point, quoted = host.ra_respond(eid, initiator, point)
    if quoted != expected_measurement:
        raise MeasurementMismatch(
            f"enclave {eid} quotes {quoted.hex()[:16]}…, expected {expected_measurement.hex()[:16]}…"
        )
    return crypto.derive_session_key(priv, enclave_point, initiator, eid, expected_measurement)


def _make_module_allocator():
    counter = {"next": 1}

    def alloc() -> int:
        eid = counter["next"]
        counter["next"] += 1
        return eid

    return alloc


_module_eids = _make_module_allocator()


def make_eid_allocator():
    """Fresh allocator so one run's enclave ids are reproducible."""
    return _make_module_allocator()
