"""Role state machines over the framed transport, driven through the harness."""

import json

import pytest

from fedtee import crypto, model, transport
from fedtee.config import RunConfig, FaultEvent
from fedtee.harness import TaskRun, run_task
from fedtee.ledger import Ledger
from fedtee.roles import DeliveryFailure, TaskOwner
from fedtee.transport import MessageKind, Router


def small_config(**kw):
    base = dict(
        taskid="roles-task",
        n_clients=4,
        n_nodes=3,
        rounds=2,
        participation=1.0,
        strategy="single",
        layers={0: 8, 1: 4},
        seed=21,
        epc_budget=1 << 30,
    )
    base.update(kw)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# Task owner
# ---------------------------------------------------------------------------

def test_owner_initialize_registers_task_and_distributes_m_init():
    run = TaskRun(small_config())
    run.setup()
    assert run.cfg.taskid_bytes in run.ledger.tasks
    assert run.owner.phase == "running"
    models = [c.m_glob for c in run.clients.values()]
    assert all(m is not None for m in models)
    first = models[0]
    assert all(m.bit_equal(first) for m in models)  # byte-equal initial model


def test_duplicate_task_rejected():
    run = TaskRun(small_config())
    run.setup()
    with pytest.raises(Exception):
        run.owner.owner_initialize(run.cfg.taskid_bytes, run.clients[0].m_glob, [0])


def test_all_clients_share_msk_and_it_never_hits_the_wire():
    run = TaskRun(small_config(taps=True))
    run.setup()
    msk = run.owner.msk
    assert msk is not None
    for c in run.clients.values():
        assert c.msk == msk
    assert msk.raw not in run.tap.raw_bytes()


def test_msk_delivery_failure_reports_client():
    router = Router()
    ledger = Ledger("committee")
    owner = TaskOwner(router, ledger, seed=1)
    # only client 1 exists and is immediately unreachable
    from fedtee.roles import Client

    Client(1, router, seed=1)
    router.set_unreachable("client:1")
    with pytest.raises(DeliveryFailure, match="1"):
        owner.owner_key_exchange([1])


def test_excluded_client_cannot_decrypt_round_output():
    run = TaskRun(small_config())
    run.setup()
    run.run_round(0)
    intruder_key = crypto.SymKey(b"\x99" * 16)
    from fedtee.roles import decode_round_chunks, read_round_chunks

    chunks = read_round_chunks(run.router, "owner", run.cfg.taskid_bytes, 0)
    with pytest.raises(crypto.AuthFailure):
        decode_round_chunks(run.conf, intruder_key, chunks, 0)


# ---------------------------------------------------------------------------
# Client rounds
# ---------------------------------------------------------------------------

def test_single_client_single_node_sends_one_envelope_pair():
    run = TaskRun(small_config(n_clients=1, n_nodes=1, participation=1.0))
    run.setup()
    tap = run.router.add_tap()
    run.clients[0].client_round(0)
    model_frames = [
        raw for _, _, raw in tap.frames
        if transport.Frame.from_bytes(raw).kind == MessageKind.ModelEnvelope
    ]
    assert len(model_frames) == 1
    taskid, rnd, sender, env_m, env_k = transport.unpack_model_envelope(
        transport.Frame.from_bytes(model_frames[0]).payload
    )
    assert (taskid, rnd, sender) == (run.cfg.taskid_bytes, 0, 0)
    assert len(env_k.ciphertext) == crypto.KEY_BYTES


def test_clientmax_slicing_sends_disjoint_layer_payloads():
    # two layers, budget fits all four clients of one layer per enclave
    meta = {0: 64, 1: 64}
    per_client = model.encoded_update_size(len(b"roles-task"), [64])
    cfg = small_config(
        strategy="clientmax", layers=meta, epc_budget=(per_client + 16) * 4,
        tx_capacity=1 << 20,
    )
    run = TaskRun(cfg)
    run.setup()
    assert len(run.conf.slots) == 2  # one partition per layer
    tap = run.router.add_tap()
    run.clients[0].client_round(0)
    payloads = [
        transport.unpack_model_envelope(transport.Frame.from_bytes(raw).payload)
        for _, _, raw in tap.frames
        if transport.Frame.from_bytes(raw).kind == MessageKind.ModelEnvelope
    ]
    assert len(payloads) == 2  # one envelope pair per layer partition
    sizes = sorted(len(p[3].ciphertext) for p in payloads)
    assert sizes == [per_client, per_client]  # each carries exactly one layer


def test_client_round_lockstep_guard():
    run = TaskRun(small_config())
    run.setup()
    with pytest.raises(RuntimeError, match="round"):
        run.clients[0].client_round(1)


def test_round_advances_only_after_chunks_accepted():
    run = TaskRun(small_config())
    run.setup()
    run.run_round(0)
    for c in run.clients.values():
        assert c.round == 1
    assert run.ledger.current_round(run.cfg.taskid_bytes) == 1


def test_owner_and_clients_decode_identical_global_model():
    run = TaskRun(small_config())
    run.setup()
    run.run_round(0)
    owner_view = run.owner.get_global_model(run.conf, 0)
    for c in run.clients.values():
        assert c.m_glob.bit_equal(owner_view)


# ---------------------------------------------------------------------------
# Node behaviour
# ---------------------------------------------------------------------------

def test_node_reports_missing_senders():
    cfg = small_config(
        faults=[FaultEvent(kind="drop", message_kind="ModelEnvelope", src="client:2", count=1)]
    )
    run = TaskRun(cfg)
    run.setup()
    for slot in run.conf.slots:
        run._arm_slot(slot, 0)
    for uid in sorted(run.clients):
        run.clients[uid].client_round(0)
    node = run.nodes[run.conf.slots[0].node]
    assert node.missing_senders(run.cfg.taskid_bytes, 0) == [2]


def test_forged_chunk_rejected_but_round_completes():
    cfg = small_config(faults=[FaultEvent(kind="tamper_chunk", round=0)])
    report = run_task(cfg)
    assert report.ok
    rejected = [r for r in report.receipts if r["outcome"] == "rejected"]
    assert len(rejected) == 1
    assert rejected[0]["reason"] == "BadSignature"


def test_client_read_of_half_uploaded_round_is_incomplete():
    from fedtee.roles import Incomplete, read_round_chunks

    run = TaskRun(small_config())
    run.setup()
    # declare more chunks than will arrive so round 0 stays open
    run.ledger.set_expected_chunks(
        "committee", run.cfg.taskid_bytes, run.conf.expected_chunks_per_round + 1
    )
    for slot in run.conf.slots:
        run._arm_slot(slot, 0)
    for uid in sorted(run.clients):
        run.clients[uid].client_round(0)
    for slot in run.conf.slots:
        run.nodes[slot.node].compute(run.cfg.taskid_bytes, 0)
    with pytest.raises(Incomplete):
        read_round_chunks(run.router, "client:0", run.cfg.taskid_bytes, 0)


def test_attestation_frames_never_carry_the_session_key():
    run = TaskRun(small_config(taps=True))
    run.setup()
    client = run.clients[0]
    slot = run.conf.slots[0]
    ssk = client.attest(slot.node, slot.eid)
    # both ends derived the same key and no frame contains its bytes
    inst = run.nodes[slot.node].host.instances[slot.eid]
    assert inst.ssk_by_peer[client.party] == ssk
    assert ssk.raw not in run.tap.raw_bytes()


def test_node_buffers_expose_only_ciphertext():
    cfg = small_config(sentinel=True)
    run = TaskRun(cfg)
    run.setup()
    for slot in run.conf.slots:
        run._arm_slot(slot, 0)
    for uid in sorted(run.clients):
        run.clients[uid].client_round(0)
    from fedtee.config import SENTINEL

    for node in run.nodes.values():
        assert SENTINEL not in node.buffer_bytes()
