"""Shared helpers: directly provisioned enclaves and envelope builders."""

import dataclasses
import hashlib
from random import Random

import numpy as np

from fedtee import crypto, enclave, model, transport
from fedtee.crypto import MeasurementMismatch, SymKey
from fedtee.enclave import EnclaveProgram, SgxHost

TASKID = b"task-under-test"


def build_program(hook: str = "fedavg") -> EnclaveProgram:
    return EnclaveProgram(b"aggregation-contract-code", hook)


def ra_key_exchange(initiator, host, eid, expected_measurement, rng):
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


def with_envelope_field(env, field, data):
    """``env`` with its nonce, aad, ciphertext or tag replaced by ``data``."""
    if field == "ciphertext":
        return crypto.Envelope(env.nonce, env.aad, bytes(data) + env.tag)
    if field == "tag":
        return crypto.Envelope(env.nonce, env.aad, bytes(env.ciphertext) + bytes(data))
    return dataclasses.replace(env, **{field: bytes(data)})


def tap_bytes(tap):
    """Every frame the tap saw, joined."""
    return b"".join(raw for _, _, raw in tap.frames)


_STUB_NONCE = b"\x00" * crypto.NONCE_BYTES


def _stub_tag(key, aad, plaintext):
    return hashlib.sha256(key.raw + bytes(aad) + bytes(plaintext)).digest()[:16]


def use_leaky_cipher(monkeypatch):
    """Swap AES-GCM for a stub that leaves the plaintext in the clear, as the
    leak detector's self-test needs. Like the real cipher it honours ``out``:
    its encrypt writes the plaintext, then its tag, there, and its decrypt
    writes the plaintext there."""

    def leaky_encrypt(key, aad, plaintext, rng=None, out=None):
        sealed = bytes(plaintext) + _stub_tag(key, aad, plaintext)
        if out is not None:
            out[:] = sealed
            sealed = out
        return crypto.Envelope(_STUB_NONCE, aad, sealed)

    def leaky_decrypt(key, env, out=None):
        if bytes(env.tag) != _stub_tag(key, env.aad, env.ciphertext):
            raise crypto.AuthFailure("stub cipher tag mismatch")
        if out is None:
            return bytes(env.ciphertext)
        out[:] = env.ciphertext
        return out

    monkeypatch.setattr(crypto, "ae_encrypt", leaky_encrypt)
    monkeypatch.setattr(crypto, "ae_decrypt", leaky_decrypt)


def stub_sealed_model_envelopes(tap):
    """The number of ModelEnvelope frames the tap saw, each checked to have
    been sealed by the stub of :func:`use_leaky_cipher`: both envelopes carry
    its nonce, and the model envelope holds the sender's update in the clear."""
    seen = 0
    for _, _, raw in tap.frames:
        frame = transport.Frame.from_bytes(raw)
        if frame.kind != transport.MessageKind.ModelEnvelope:
            continue
        _, round_index, sender, env_m, env_k = transport.unpack(
            transport.MODEL_ENVELOPE, frame.payload
        )
        assert env_m.nonce == env_k.nonce == _STUB_NONCE
        update = model.decode_model(env_m.ciphertext)
        assert (update.client, update.round) == (sender, round_index)
        seen += 1
    return seen


def ledger_storage(ledger):
    """Every accepted chunk by (taskid, round, index), grouped by round in
    acceptance order: the ledger's ``by_round`` as one flat dict."""
    return {
        (tid, rnd, idx): chunk
        for (tid, rnd), stored in ledger.by_round.items()
        for idx, chunk in stored.items()
    }


def provision_enclave(
    *,
    clients=(1, 2),
    layer_range=(0,),
    chunk_base=0,
    tx_capacity=1 << 20,
    epc_budget=enclave.DEFAULT_EPC_BUDGET,
    paging=False,
    round_index=0,
    hook="fedavg",
    seed=0,
):
    """Install and fully provision one enclave the way the committee would.

    Returns a dict with the host, eid, per-client session keys, the master
    key, the verification key pair, and the committee session key.
    """
    rng = Random(seed)
    host = SgxHost(enclave.make_eid_allocator())
    program = build_program(hook)
    eid = host.install(TASKID, program, epc_budget=epc_budget, paging_enabled=paging, rng_seed=seed)

    committee_ssk = ra_key_exchange("committee", host, eid, program.measurement, rng)
    vk = crypto.sig_keygen(rng.randbytes(32))
    deliver(host, eid, committee_ssk, transport.KEY_PURPOSE_SK, vk.secret_scalar_bytes(), rng)
    part = transport.pack(transport.PARTITION, layer_range, tx_capacity)
    deliver(host, eid, committee_ssk, transport.KEY_PURPOSE_PARTITION, part, rng)

    arm_round(host, eid, committee_ssk, round_index, rng, chunk_base)

    ssk_by_client = {
        c: ra_key_exchange(f"client:{c}", host, eid, program.measurement, rng) for c in clients
    }
    msk = SymKey(rng.randbytes(16))
    return {
        "host": host,
        "eid": eid,
        "program": program,
        "vk": vk,
        "committee_ssk": committee_ssk,
        "ssk_by_client": ssk_by_client,
        "msk": msk,
        "rng": rng,
    }


def deliver(host, eid, committee_ssk, purpose, plain, rng):
    """Seal ``plain`` for ``purpose`` and deliver it as the committee does."""
    env = enclave.seal_delivery(committee_ssk, TASKID, purpose, plain, rng)
    host.deliver(eid, "committee", purpose, env)


def arm_round(host, eid, committee_ssk, round_index, rng, chunk_base=0):
    plain = transport.pack(transport.ROUND_ARM, round_index, chunk_base)
    deliver(host, eid, committee_ssk, transport.KEY_PURPOSE_ROUND, plain, rng)


def client_inputs(ctx, updates, round_index=0):
    """Encrypt LocalUpdates the way clients do; returns resume() inputs."""
    out = []
    for u in sorted(updates, key=lambda u: u.client):
        ssk = ctx["ssk_by_client"][u.client]
        env_m = crypto.ae_encrypt(
            ssk, crypto.model_aad(TASKID, round_index, u.client), model.encode_model(u),
            rng=ctx["rng"],
        )
        env_k = crypto.ae_encrypt(
            ssk, crypto.msk_aad(TASKID, round_index, u.client), ctx["msk"].raw, rng=ctx["rng"]
        )
        out.append((env_m, env_k, u.client))
    return out


def simple_update(client, values_by_layer, dataset_size=1, round_index=0):
    layers = [
        model.Layer(i, np.array(vals, dtype=np.float64))
        for i, vals in enumerate(values_by_layer)
    ]
    return model.LocalUpdate(TASKID, client, round_index, model.WeightVector(layers), dataset_size)


def decrypt_output(ctx, output, round_index=0, chunk_base=0):
    """Reassemble chunks, decrypt under the master key, decode the partial."""
    blob = b"".join(c.payload for c in output.chunks)
    env = crypto.Envelope.from_bytes(blob)
    assert env.aad == crypto.output_aad(TASKID, round_index, chunk_base)
    return model.decode_partial(crypto.ae_decrypt(ctx["msk"], env))
