"""Enclave simulator: install, attestation, provisioning, resume, signing."""

from random import Random

import numpy as np
import pytest

from conftest import (
    TASKID,
    arm_round,
    build_program,
    client_inputs,
    decrypt_output,
    provision_enclave,
    simple_update,
)
from fedtee import crypto, enclave, model
from fedtee.committee import _per_client_bytes
from fedtee.crypto import AuthFailure, Envelope, MeasurementMismatch
from fedtee.enclave import (
    CapacityExceeded,
    EnclaveProgram,
    MissingKey,
    MskDisagreement,
    RoundMismatch,
    SgxHost,
    chunk_signing_bytes,
    make_eid_allocator,
    ra_key_exchange,
)


def test_two_installs_get_distinct_eids():
    host = SgxHost(make_eid_allocator())
    program = build_program()
    a = host.install(TASKID, program)
    b = host.install(TASKID, program)
    assert a != b


def test_measurement_is_hash_of_code():
    import hashlib

    program = build_program()
    assert program.measurement == hashlib.sha256(program.code_id).digest()


def test_resume_before_getsk_is_missing_key():
    host = SgxHost(make_eid_allocator())
    eid = host.install(TASKID, build_program())
    with pytest.raises(MissingKey):
        host.resume(eid, [], (0,))


# ---------------------------------------------------------------------------
# Attestation
# ---------------------------------------------------------------------------

def test_honest_attestation_derives_shared_key():
    host = SgxHost(make_eid_allocator())
    program = build_program()
    eid = host.install(TASKID, program)
    ssk = ra_key_exchange("client:1", host, eid, program.measurement, Random(0))
    inst = host.instances[eid]
    assert inst.ssk_by_peer["client:1"] == ssk


def test_tampered_program_fails_attestation():
    host = SgxHost(make_eid_allocator())
    honest = build_program()
    tampered = EnclaveProgram(honest.code_id + b"\x00", honest.aggregation_hook)
    eid = host.install(TASKID, tampered)
    with pytest.raises(MeasurementMismatch):
        ra_key_exchange("client:1", host, eid, honest.measurement, Random(0))


def test_distinct_client_enclave_pairs_distinct_ssk():
    host = SgxHost(make_eid_allocator())
    program = build_program()
    rng = Random(5)
    keys = set()
    for eid in [host.install(TASKID, program) for _ in range(3)]:
        for c in range(3):
            keys.add(ra_key_exchange(f"client:{c}", host, eid, program.measurement, rng).raw)
    assert len(keys) == 9


# ---------------------------------------------------------------------------
# Key / round provisioning
# ---------------------------------------------------------------------------

def test_getsk_tampered_envelope_rejected_and_key_absent():
    host = SgxHost(make_eid_allocator())
    program = build_program()
    eid = host.install(TASKID, program)
    rng = Random(1)
    ssk = ra_key_exchange("committee", host, eid, program.measurement, rng)
    vk = crypto.sig_keygen(rng.randbytes(32))
    env = crypto.ae_encrypt(
        ssk, crypto.keydeliver_aad(TASKID, b"sk_vk"), vk.secret_scalar_bytes(), rng=rng
    )
    flipped = bytearray(env.ciphertext)
    flipped[0] ^= 1
    bad = Envelope(env.nonce, env.aad, bytes(flipped), env.tag)
    with pytest.raises(AuthFailure):
        host.getsk(eid, "committee", bad)
    assert host.instances[eid].sk_vk is None


def test_getsk_under_wrong_peers_key_rejected():
    host = SgxHost(make_eid_allocator())
    program = build_program()
    eid = host.install(TASKID, program)
    rng = Random(2)
    ra_key_exchange("committee", host, eid, program.measurement, rng)
    other = crypto.SymKey(rng.randbytes(16))
    vk = crypto.sig_keygen(rng.randbytes(32))
    env = crypto.ae_encrypt(
        other, crypto.keydeliver_aad(TASKID, b"sk_vk"), vk.secret_scalar_bytes(), rng=rng
    )
    with pytest.raises(AuthFailure):
        host.getsk(eid, "committee", env)


def test_set_round_idempotent_and_replay_guard():
    ctx = provision_enclave(clients=(1,), round_index=3)
    host, eid = ctx["host"], ctx["eid"]
    # same value twice: idempotent accept
    arm_round(host, eid, ctx["committee_ssk"], 3, ctx["rng"])
    u = simple_update(1, [[1.0]], round_index=3)
    out = host.resume(eid, client_inputs(ctx, [u], round_index=3), (0,))
    assert out.chunks
    # the round is consumed: re-arming an older round is refused
    with pytest.raises(RoundMismatch):
        arm_round(host, eid, ctx["committee_ssk"], 3, ctx["rng"])


def test_round_mismatch_on_stale_client_envelope():
    ctx = provision_enclave(clients=(1,), round_index=3)
    u = simple_update(1, [[1.0]], round_index=2)
    inputs = client_inputs(ctx, [u], round_index=2)
    with pytest.raises(RoundMismatch):
        ctx["host"].resume(ctx["eid"], inputs, (0,))


# ---------------------------------------------------------------------------
# Resume
# ---------------------------------------------------------------------------

def test_resume_aggregates_and_matches_plaintext_oracle():
    ctx = provision_enclave(clients=(1, 2), layer_range=(0,))
    updates = [
        simple_update(1, [[1.0, 3.0]], dataset_size=5),
        simple_update(2, [[3.0, 5.0]], dataset_size=5),
    ]
    out = ctx["host"].resume(ctx["eid"], client_inputs(ctx, updates), (0,))
    part = decrypt_output(ctx, out)
    combined = model.combine_partials([part])
    assert np.array_equal(combined.layers[0].values, np.array([2.0, 4.0]))
    assert combined.bit_equal(model.fedavg(updates))


def test_resume_output_chunks_are_signed_and_indexed():
    ctx = provision_enclave(clients=(1, 2), layer_range=(0,), tx_capacity=40_000)
    # 12,500-element aggregate -> output ciphertext ~100 KB -> 3 chunks of <=40 KB
    updates = [
        simple_update(1, [np.zeros(12_500)], dataset_size=1),
        simple_update(2, [np.ones(12_500)], dataset_size=1),
    ]
    out = ctx["host"].resume(ctx["eid"], client_inputs(ctx, updates), (0,))
    assert [c.index for c in out.chunks] == [0, 1, 2]
    for c in out.chunks:
        msg = chunk_signing_bytes(c.taskid, c.round, c.index, c.payload)
        assert crypto.sig_verify(ctx["vk"].public, msg, c.sigma)
    assert all(len(c.payload) <= 40_000 for c in out.chunks)


def test_tampered_client_envelope_rejects_batch_and_names_sender():
    ctx = provision_enclave(clients=(1, 2), layer_range=(0,))
    updates = [simple_update(1, [[1.0]]), simple_update(2, [[2.0]])]
    inputs = client_inputs(ctx, updates)
    env_m, env_k, sender = inputs[1]
    flipped = bytearray(env_m.ciphertext)
    flipped[0] ^= 1
    inputs[1] = (Envelope(env_m.nonce, env_m.aad, bytes(flipped), env_m.tag), env_k, sender)
    with pytest.raises(AuthFailure, match="client 2"):
        ctx["host"].resume(ctx["eid"], inputs, (0,))
    # whole batch rejected: the armed round is still live, and a clean batch works
    out = ctx["host"].resume(ctx["eid"], client_inputs(ctx, updates), (0,))
    assert out.chunks


def test_msk_disagreement_aborts():
    ctx = provision_enclave(clients=(1, 2), layer_range=(0,))
    updates = [simple_update(1, [[1.0]]), simple_update(2, [[2.0]])]
    inputs = client_inputs(ctx, updates)
    ssk = ctx["ssk_by_client"][2]
    other_msk = crypto.SymKey(b"\x42" * 16)
    env_k = crypto.ae_encrypt(
        ssk, crypto.msk_aad(TASKID, 0, 2), other_msk.raw, rng=ctx["rng"]
    )
    inputs[1] = (inputs[1][0], env_k, 2)
    with pytest.raises(MskDisagreement):
        ctx["host"].resume(ctx["eid"], inputs, (0,))


def test_replayed_batch_never_produces_output():
    ctx = provision_enclave(clients=(1,), layer_range=(0,))
    inputs = client_inputs(ctx, [simple_update(1, [[1.0]])])
    out = ctx["host"].resume(ctx["eid"], inputs, (0,))
    assert out.chunks
    with pytest.raises(RoundMismatch):
        ctx["host"].resume(ctx["eid"], inputs, (0,))
    assert ctx["host"].instances[ctx["eid"]].round_counter == 1


def test_capacity_exceeded_without_paging():
    ctx = provision_enclave(clients=(1, 2), layer_range=(0,), epc_budget=4_000)
    updates = [
        simple_update(1, [np.zeros(1_000)]),
        simple_update(2, [np.zeros(1_000)]),
    ]
    with pytest.raises(CapacityExceeded):
        ctx["host"].resume(ctx["eid"], client_inputs(ctx, updates), (0,))


def test_paging_mode_accepts_oversized_batch_and_reports_overflow():
    ctx = provision_enclave(clients=(1, 2), layer_range=(0,), epc_budget=4_000, paging=True)
    updates = [
        simple_update(1, [np.zeros(1_000)]),
        simple_update(2, [np.zeros(1_000)]),
    ]
    out = ctx["host"].resume(ctx["eid"], client_inputs(ctx, updates), (0,))
    assert out.paged_bytes > 0
    assert out.plain_input_bytes > 4_000


# ---------------------------------------------------------------------------
# Capacity estimation
# ---------------------------------------------------------------------------
# The planner's per-client cost is the one capacity formula; these tests hold
# it to the bytes the enclave itself counts against its budget on resume.

def test_estimate_small_example():
    clients = (1, 2, 3, 4)
    ctx = provision_enclave(clients=clients, layer_range=(0,))
    updates = [simple_update(c, [np.zeros(1_000)]) for c in clients]
    out = ctx["host"].resume(ctx["eid"], client_inputs(ctx, updates), (0,))
    header = model.encoded_update_size(len(TASKID), [1000]) - 8 * 1000
    need = 4 * _per_client_bytes([1000], len(TASKID))
    assert need == 4 * 8 * 1000 + 4 * header + 4 * crypto.KEY_BYTES
    assert out.plain_input_bytes == need
    assert out.paged_bytes == 0


def test_estimate_resnet18_single_client_fits_128mib():
    need = _per_client_bytes([11_180_000], 16)  # full model as one range
    assert abs(need - 89.44e6) < 1e5  # ~89.4 MB
    assert need <= 128 * 1024 * 1024


def test_estimate_resnet18_two_clients_requires_split():
    assert 2 * _per_client_bytes([11_180_000], 16) > 128 * 1024 * 1024
