"""Enclave simulator: install, attestation, provisioning, resume, signing."""

import dataclasses
from random import Random

import numpy as np
import pytest

from conftest import (
    TASKID,
    arm_round,
    build_program,
    client_inputs,
    decrypt_output,
    deliver,
    provision_enclave,
    ra_key_exchange,
    simple_update,
    with_envelope_field,
)
from fedtee import crypto, enclave, model, transport
from fedtee.committee import _per_client_bytes
from fedtee.crypto import AuthFailure, Envelope, MeasurementMismatch
from fedtee.enclave import (
    CapacityExceeded,
    EnclaveProgram,
    MissingKey,
    MskDisagreement,
    RoundMismatch,
    SgxHost,
    chunk_signed_parts,
    make_eid_allocator,
)
from fedtee.transport import KEY_PURPOSE_PARTITION, KEY_PURPOSE_ROUND, KEY_PURPOSE_SK


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
        host.resume(eid, [])


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
    env = enclave.seal_delivery(ssk, TASKID, KEY_PURPOSE_SK, vk.secret_scalar_bytes(), rng)
    flipped = bytearray(env.ciphertext)
    flipped[0] ^= 1
    bad = Envelope(env.nonce, env.aad, bytes(flipped) + env.tag)
    with pytest.raises(AuthFailure):
        host.deliver(eid, "committee", KEY_PURPOSE_SK, bad)
    assert host.instances[eid].sk_vk is None


def test_getsk_under_wrong_peers_key_rejected():
    host = SgxHost(make_eid_allocator())
    program = build_program()
    eid = host.install(TASKID, program)
    rng = Random(2)
    ra_key_exchange("committee", host, eid, program.measurement, rng)
    other = crypto.SymKey(rng.randbytes(16))
    vk = crypto.sig_keygen(rng.randbytes(32))
    env = enclave.seal_delivery(other, TASKID, KEY_PURPOSE_SK, vk.secret_scalar_bytes(), rng)
    with pytest.raises(AuthFailure):
        host.deliver(eid, "committee", KEY_PURPOSE_SK, env)
    assert host.instances[eid].sk_vk is None


def _armed_state(ctx):
    inst = ctx["host"].instances[ctx["eid"]]
    return inst.expected_round, inst.chunk_base, inst.partition


def test_partition_delivery_handed_in_as_a_round_arm_is_refused():
    ctx = provision_enclave(clients=(1,), round_index=3, chunk_base=2)
    before = _armed_state(ctx)
    part = transport.pack(transport.PARTITION, (0,), 1 << 20)
    ssk, rng = ctx["committee_ssk"], ctx["rng"]
    env = enclave.seal_delivery(ssk, TASKID, KEY_PURPOSE_PARTITION, part, rng)
    with pytest.raises(AuthFailure, match="round envelope bound to a different context"):
        ctx["host"].deliver(ctx["eid"], "committee", KEY_PURPOSE_ROUND, env)
    assert before[:2] == (3, 2)
    assert _armed_state(ctx) == before


def test_delivery_from_a_sender_without_a_session_key_is_refused():
    ctx = provision_enclave(clients=(1,), round_index=3)
    before = _armed_state(ctx)
    arm = transport.pack(transport.ROUND_ARM, 4, 7)
    env = enclave.seal_delivery(ctx["committee_ssk"], TASKID, KEY_PURPOSE_ROUND, arm, ctx["rng"])
    with pytest.raises(AuthFailure, match="no session key with node:0"):
        ctx["host"].deliver(ctx["eid"], "node:0", KEY_PURPOSE_ROUND, env)
    assert _armed_state(ctx) == before


@pytest.mark.parametrize("purpose", [KEY_PURPOSE_SK, KEY_PURPOSE_ROUND, KEY_PURPOSE_PARTITION],
                         ids=["sk", "round", "partition"])
def test_attested_client_cannot_deliver(purpose):
    """A client holds a session key with every enclave it sends to; a
    delivery sealed under it is refused before it is opened."""
    ctx = provision_enclave(clients=(1,), round_index=3, chunk_base=2)
    inst = ctx["host"].instances[ctx["eid"]]
    before = (*_armed_state(ctx), inst.sk_vk)
    plain = {
        KEY_PURPOSE_SK: crypto.sig_keygen(b"\x07" * 32).secret_scalar_bytes(),
        KEY_PURPOSE_ROUND: transport.pack(transport.ROUND_ARM, 4, 7),
        KEY_PURPOSE_PARTITION: transport.pack(transport.PARTITION, (0, 1), 64),
    }[purpose]
    env = enclave.seal_delivery(ctx["ssk_by_client"][1], TASKID, purpose, plain, ctx["rng"])
    with pytest.raises(AuthFailure, match="client:1 may not deliver"):
        ctx["host"].deliver(ctx["eid"], "client:1", purpose, env)
    assert (*_armed_state(ctx), inst.sk_vk) == before
    assert before[:2] == (3, 2)


def test_tampered_round_arm_is_refused():
    ctx = provision_enclave(clients=(1,), round_index=3)
    before = _armed_state(ctx)
    arm = transport.pack(transport.ROUND_ARM, 4, 7)
    env = enclave.seal_delivery(ctx["committee_ssk"], TASKID, KEY_PURPOSE_ROUND, arm, ctx["rng"])
    for field in ("nonce", "aad", "ciphertext", "tag"):
        original = bytes(getattr(env, field))
        bad = with_envelope_field(env, field, bytes([original[0] ^ 1]) + original[1:])
        with pytest.raises(AuthFailure):
            ctx["host"].deliver(ctx["eid"], "committee", KEY_PURPOSE_ROUND, bad)
    assert _armed_state(ctx) == before


def test_unknown_delivery_purpose_is_refused():
    ctx = provision_enclave(clients=(1,), round_index=3)
    arm = transport.pack(transport.ROUND_ARM, 4, 7)
    env = enclave.seal_delivery(ctx["committee_ssk"], TASKID, KEY_PURPOSE_ROUND, arm, ctx["rng"])
    with pytest.raises(ValueError, match="unknown key-delivery purpose 9"):
        ctx["host"].deliver(ctx["eid"], "committee", 9, env)


def test_set_round_idempotent_and_replay_guard():
    ctx = provision_enclave(clients=(1,), round_index=3)
    host, eid = ctx["host"], ctx["eid"]
    # same value twice: idempotent accept
    arm_round(host, eid, ctx["committee_ssk"], 3, ctx["rng"])
    u = simple_update(1, [[1.0]], round_index=3)
    out = host.resume(eid, client_inputs(ctx, [u], round_index=3))
    assert out.chunks
    # the round is consumed: re-arming an older round is refused
    with pytest.raises(RoundMismatch):
        arm_round(host, eid, ctx["committee_ssk"], 3, ctx["rng"])


def test_rearming_an_unconsumed_round_moves_its_chunk_base():
    ctx = provision_enclave(clients=(1, 2), layer_range=(0,), tx_capacity=48, chunk_base=3)
    host, eid = ctx["host"], ctx["eid"]
    arm_round(host, eid, ctx["committee_ssk"], 0, ctx["rng"], chunk_base=7)
    updates = [simple_update(1, [[1.0, 3.0]]), simple_update(2, [[3.0, 5.0]])]
    out = host.resume(eid, client_inputs(ctx, updates))
    assert len(out.chunks) > 1
    assert [c.index for c in out.chunks] == list(range(7, 7 + len(out.chunks)))
    for c in out.chunks:
        msg = chunk_signed_parts(c.taskid, c.round, c.index, c.payload)
        assert crypto.sig_verify(ctx["vk"].public, c.sigma, *msg)
    part = decrypt_output(ctx, out, chunk_base=7)  # asserts the output's AAD
    assert model.combine_partials([part]).bit_equal(model.fedavg(updates))


@pytest.mark.parametrize("chunk_base", [0, 5])
def test_arming_a_consumed_round_raises_whatever_its_chunk_base(chunk_base):
    ctx = provision_enclave(clients=(1,), layer_range=(0,))
    host, eid = ctx["host"], ctx["eid"]
    host.resume(eid, client_inputs(ctx, [simple_update(1, [[1.0]])]))
    with pytest.raises(RoundMismatch):
        arm_round(host, eid, ctx["committee_ssk"], 0, ctx["rng"], chunk_base=chunk_base)
    with pytest.raises(RoundMismatch):  # not re-armed: the round stays consumed
        host.resume(eid, client_inputs(ctx, [simple_update(1, [[1.0]])]))


def test_round_mismatch_on_stale_client_envelope():
    ctx = provision_enclave(clients=(1,), round_index=3)
    u = simple_update(1, [[1.0]], round_index=2)
    inputs = client_inputs(ctx, [u], round_index=2)
    with pytest.raises(RoundMismatch):
        ctx["host"].resume(ctx["eid"], inputs)


# ---------------------------------------------------------------------------
# Resume
# ---------------------------------------------------------------------------

def test_resume_aggregates_and_matches_plaintext_oracle():
    ctx = provision_enclave(clients=(1, 2), layer_range=(0,))
    updates = [
        simple_update(1, [[1.0, 3.0]], dataset_size=5),
        simple_update(2, [[3.0, 5.0]], dataset_size=5),
    ]
    out = ctx["host"].resume(ctx["eid"], client_inputs(ctx, updates))
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
    out = ctx["host"].resume(ctx["eid"], client_inputs(ctx, updates))
    assert [c.index for c in out.chunks] == [0, 1, 2]
    for c in out.chunks:
        msg = chunk_signed_parts(c.taskid, c.round, c.index, c.payload)
        assert crypto.sig_verify(ctx["vk"].public, c.sigma, *msg)
    assert all(len(c.payload) <= 40_000 for c in out.chunks)


@pytest.mark.parametrize("cap", [1, 20, 47, 48, 64])  # the envelope's head is 47 bytes
def test_resume_chunks_cut_the_wire_envelope_at_any_capacity(cap):
    ctx = provision_enclave(clients=(1, 2), layer_range=(0,), tx_capacity=cap)
    updates = [simple_update(1, [[1.0, 3.0]]), simple_update(2, [[3.0, 5.0]])]
    out = ctx["host"].resume(ctx["eid"], client_inputs(ctx, updates))
    assert [c.index for c in out.chunks] == list(range(len(out.chunks)))
    assert all(len(c.payload) == cap for c in out.chunks[:-1])
    assert 0 < len(out.chunks[-1].payload) <= cap
    for c in out.chunks:
        msg = chunk_signed_parts(c.taskid, c.round, c.index, c.payload)
        assert crypto.sig_verify(ctx["vk"].public, c.sigma, *msg)
    assert model.combine_partials([decrypt_output(ctx, out)]).bit_equal(model.fedavg(updates))


def test_resume_signs_the_same_bytes_on_the_pool(monkeypatch):
    def resume():
        ctx = provision_enclave(clients=(1, 2), layer_range=(0,), tx_capacity=20)
        updates = [simple_update(1, [[1.0, 3.0]]), simple_update(2, [[3.0, 5.0]])]
        out = ctx["host"].resume(ctx["eid"], client_inputs(ctx, updates))
        return [(c.index, bytes(c.payload), c.sigma.raw) for c in out.chunks]

    monkeypatch.setattr(crypto, "SIG_PARALLEL_MIN", 2**62)
    inline = resume()
    monkeypatch.setattr(crypto, "SIG_PARALLEL_MIN", 2)
    monkeypatch.setattr(crypto, "CPUS", max(crypto.CPUS, 2))
    assert len(inline) > 2 and resume() == inline


def test_tampered_client_envelope_rejects_batch_and_names_sender():
    ctx = provision_enclave(clients=(1, 2), layer_range=(0,))
    updates = [simple_update(1, [[1.0]]), simple_update(2, [[2.0]])]
    inputs = client_inputs(ctx, updates)
    env_m, env_k, sender = inputs[1]
    flipped = bytearray(env_m.ciphertext)
    flipped[0] ^= 1
    inputs[1] = (Envelope(env_m.nonce, env_m.aad, bytes(flipped) + env_m.tag), env_k, sender)
    with pytest.raises(AuthFailure, match="client 2: envelope failed authentication"):
        ctx["host"].resume(ctx["eid"], inputs)
    # whole batch rejected: the armed round is still live, and a clean batch works
    out = ctx["host"].resume(ctx["eid"], client_inputs(ctx, updates))
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
        ctx["host"].resume(ctx["eid"], inputs)


def test_replayed_batch_never_produces_output():
    ctx = provision_enclave(clients=(1,), layer_range=(0,))
    inputs = client_inputs(ctx, [simple_update(1, [[1.0]])])
    out = ctx["host"].resume(ctx["eid"], inputs)
    assert out.chunks
    with pytest.raises(RoundMismatch, match="enclave 1 has no armed round"):
        ctx["host"].resume(ctx["eid"], inputs)
    assert ctx["host"].instances[ctx["eid"]].round_counter == 1


# ---------------------------------------------------------------------------
# Refused batches leave the enclave as it was
# ---------------------------------------------------------------------------
# Each refusal below is one check in SgxHost; after it, the arm, the round
# counter and the single-entrant flag are what they were before the call.

def _guarded_state(ctx):
    inst = ctx["host"].instances[ctx["eid"]]
    return (*_armed_state(ctx), inst.round_counter, inst.busy)


def _refused(ctx, inputs, exc, match):
    before = _guarded_state(ctx)
    with pytest.raises(exc, match=match):
        ctx["host"].resume(ctx["eid"], inputs)
    assert _guarded_state(ctx) == before
    assert before[0] is not None and before[-1] is False


def test_unknown_aggregation_hook_is_refused_at_install():
    host = SgxHost(make_eid_allocator())
    with pytest.raises(ValueError, match="unknown aggregation hook 'median'"):
        host.install(TASKID, build_program("median"))
    assert host.instances == {}


def test_reentrant_resume_is_refused(monkeypatch):
    ctx, batches = {}, []

    def reentering_hook(updates, layer_range):  # calls back into the enclave it runs in
        batches.append(sum(1 for _ in updates))
        return ctx["host"].resume(ctx["eid"], [])

    monkeypatch.setitem(enclave.HOOKS, "reenter", reentering_hook)
    ctx.update(provision_enclave(clients=(1,), round_index=2, chunk_base=5, hook="reenter"))
    _refused(ctx, client_inputs(ctx, [simple_update(1, [[1.0]], round_index=2)], round_index=2),
             RuntimeError, "enclave 1 is single-entrant")
    assert batches == [1]


def test_repeated_sender_is_refused_before_anything_is_decrypted(monkeypatch):
    ctx = provision_enclave(clients=(1, 2))
    one, two = client_inputs(ctx, [simple_update(1, [[1.0]]), simple_update(2, [[2.0]])])
    decrypts, real = [], crypto.ae_decrypt
    monkeypatch.setattr(crypto, "ae_decrypt", lambda *a, **k: decrypts.append(a[1]) or real(*a, **k))
    _refused(ctx, [one, two, one], AuthFailure, "client 1: named twice in one batch")
    assert decrypts == []


def test_hook_is_handed_the_batch_one_update_at_a_time_in_sender_order(monkeypatch):
    """Inputs in any order reach the hook in ascending sender order, each
    decrypted when the hook asks for it, and give the same output."""
    seen, decrypts, real = [], [], crypto.ae_decrypt

    def recording_hook(updates, layer_range):
        def each():
            for u in updates:
                seen.append((u.client, len(decrypts)))
                yield u
        return model.partial_aggregate(each(), layer_range)

    monkeypatch.setitem(enclave.HOOKS, "record", recording_hook)
    monkeypatch.setattr(crypto, "ae_decrypt", lambda *a, **k: decrypts.append(a[1]) or real(*a, **k))
    updates = [simple_update(c, [[float(c), -1.0]], dataset_size=c) for c in (1, 2, 3)]
    outputs = []
    for order in ((0, 1, 2), (2, 0, 1)):
        ctx = provision_enclave(clients=(1, 2, 3), hook="record")
        inputs = client_inputs(ctx, updates)
        del decrypts[:]  # the committee's deliveries
        out = ctx["host"].resume(ctx["eid"], [inputs[i] for i in order])
        outputs.append(decrypt_output(ctx, out))
    # each update is its model and master-key envelopes' two decrypts, no more
    assert seen == [(1, 2), (2, 4), (3, 6)] * 2
    assert outputs[0].client_set == outputs[1].client_set == (1, 2, 3)
    assert outputs[0].scaled_sum.bit_equal(outputs[1].scaled_sum)
    assert model.combine_partials([outputs[0]]).bit_equal(model.fedavg(updates))


def test_only_a_folding_hook_shares_one_plaintext_buffer(monkeypatch):
    """A hook that keeps every update gets a fresh buffer per input, so its
    sum is right; the fold's inputs are decrypted into one buffer."""
    given, real = [], crypto.ae_decrypt
    monkeypatch.setattr(crypto, "ae_decrypt", lambda key, env, out=None: given.append(out) or real(key, env, out))
    monkeypatch.setitem(enclave.HOOKS, "keep", lambda updates, lr: model.partial_aggregate(list(updates), lr))
    updates = [simple_update(1, [[1.0, 3.0]], dataset_size=5), simple_update(2, [[3.0, 5.0]], dataset_size=5)]
    for hook in ("keep", "fedavg"):
        ctx = provision_enclave(clients=(1, 2), hook=hook)
        inputs = client_inputs(ctx, updates)
        del given[:]  # the committee's deliveries
        part = decrypt_output(ctx, ctx["host"].resume(ctx["eid"], inputs))
        assert part.scaled_sum.layers[0].values.tolist() == [20.0, 40.0]
        bufs = [out for out in given if out is not None]
        if hook == "keep":
            assert bufs == []
        else:
            assert len(bufs) == 2 and bufs[0].obj is bufs[1].obj


def test_hook_that_stops_early_leaves_no_check_unrun(monkeypatch):
    def first_only(updates, layer_range):
        return model.partial_aggregate([next(iter(updates))], layer_range)

    monkeypatch.setitem(enclave.HOOKS, "first", first_only)
    ctx = provision_enclave(clients=(1, 2), hook="first")
    inputs = client_inputs(ctx, [simple_update(1, [[1.0]]), simple_update(2, [[2.0]])])
    env_m, env_k, sender = inputs[1]
    tag = bytearray(env_m.tag)
    tag[0] ^= 1
    inputs[1] = (Envelope(env_m.nonce, env_m.aad, bytes(env_m.ciphertext) + bytes(tag)), env_k, sender)
    _refused(ctx, inputs, AuthFailure, "client 2: envelope failed authentication")


def test_resume_without_a_partition_is_refused():
    rng = Random(4)
    host = SgxHost(make_eid_allocator())
    program = build_program()
    eid = host.install(TASKID, program)
    ssk = ra_key_exchange("committee", host, eid, program.measurement, rng)
    scalar = crypto.sig_keygen(rng.randbytes(32)).secret_scalar_bytes()
    deliver(host, eid, ssk, KEY_PURPOSE_SK, scalar, rng)
    arm_round(host, eid, ssk, 0, rng)
    ctx = {"host": host, "eid": eid}
    _refused(ctx, [], RoundMismatch, "no partition configuration")


def test_sender_without_an_attested_session_is_refused():
    ctx = provision_enclave(clients=(1,))
    stranger = crypto.SymKey(b"\x33" * 16)
    u = simple_update(3, [[1.0]])
    rng = ctx["rng"]
    env_m = crypto.ae_encrypt(stranger, crypto.model_aad(TASKID, 0, 3), model.encode_model(u), rng)
    env_k = crypto.ae_encrypt(stranger, crypto.msk_aad(TASKID, 0, 3), ctx["msk"].raw, rng)
    _refused(ctx, [*client_inputs(ctx, [simple_update(1, [[1.0]])]), (env_m, env_k, 3)],
             AuthFailure, "client 3: no attested session key")


def test_malformed_model_envelope_context_is_refused():
    ctx = provision_enclave(clients=(1,))
    ((env_m, env_k, sender),) = client_inputs(ctx, [simple_update(1, [[1.0]])])
    short = with_envelope_field(env_m, "aad", env_m.aad[:5])
    _refused(ctx, [(short, env_k, sender)], AuthFailure, "client 1: malformed envelope context")


def test_one_clients_envelope_handed_in_as_anothers_is_refused():
    ctx = provision_enclave(clients=(1, 2))
    (one,) = client_inputs(ctx, [simple_update(1, [[1.0]])])
    _refused(ctx, [one, (one[0], one[1], 2)], AuthFailure,
             "client 2: model envelope bound to wrong context")


def test_older_rounds_master_key_envelope_beside_a_fresh_model_is_refused():
    ctx = provision_enclave(clients=(1,), round_index=3, chunk_base=4)
    ((env_m, _, sender),) = client_inputs(ctx, [simple_update(1, [[1.0]], round_index=3)], 3)
    ssk = ctx["ssk_by_client"][1]
    old_k = crypto.ae_encrypt(ssk, crypto.msk_aad(TASKID, 2, 1), ctx["msk"].raw, rng=ctx["rng"])
    _refused(ctx, [(env_m, old_k, sender)], AuthFailure,
             "client 1: master-key envelope bound to wrong context")


@pytest.mark.parametrize("header", [dict(client=2), dict(round=1), dict(taskid=b"other-task")],
                         ids=["client", "round", "task"])
def test_update_whose_header_names_another_context_is_refused(header):
    ctx = provision_enclave(clients=(1,))
    honest = simple_update(1, [[1.0]])
    ((_, env_k, sender),) = client_inputs(ctx, [honest])
    forged = dataclasses.replace(honest, **header)
    ssk, aad = ctx["ssk_by_client"][1], crypto.model_aad(TASKID, 0, 1)
    env_m = crypto.ae_encrypt(ssk, aad, model.encode_model(forged), ctx["rng"])
    _refused(ctx, [(env_m, env_k, sender)], AuthFailure,
             "client 1: decoded update header disagrees with context")


def test_capacity_exceeded_without_paging():
    ctx = provision_enclave(clients=(1, 2), layer_range=(0,), epc_budget=4_000)
    updates = [
        simple_update(1, [np.zeros(1_000)]),
        simple_update(2, [np.zeros(1_000)]),
    ]
    with pytest.raises(CapacityExceeded):
        ctx["host"].resume(ctx["eid"], client_inputs(ctx, updates))


def test_paging_mode_accepts_oversized_batch_and_reports_overflow():
    ctx = provision_enclave(clients=(1, 2), layer_range=(0,), epc_budget=4_000, paging=True)
    updates = [
        simple_update(1, [np.zeros(1_000)]),
        simple_update(2, [np.zeros(1_000)]),
    ]
    out = ctx["host"].resume(ctx["eid"], client_inputs(ctx, updates))
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
    out = ctx["host"].resume(ctx["eid"], client_inputs(ctx, updates))
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
