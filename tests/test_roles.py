"""Role state machines over the framed transport, driven through the harness."""

import pytest

from conftest import tap_bytes
from fedtee import crypto, model, transport
from fedtee.committee import RunFailed
from fedtee.config import RunConfig, FaultEvent
from fedtee.harness import TaskRun, run_task
from fedtee.ledger import Ledger
from fedtee.roles import RUN_BYTES, DeliveryFailure, TaskOwner
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
    assert msk.raw not in tap_bytes(run.tap)


def test_msk_delivery_failure_reports_client():
    # only client 1 exists, and the plan drops every frame to it
    drop_all = FaultEvent(kind="drop", dest="client:1", count=2**31)
    router = Router(faults=transport.FaultPlan([drop_all]))
    ledger = Ledger("committee")
    owner = TaskOwner(router, ledger, seed=1)
    from fedtee.roles import Client

    Client(1, router, seed=1)
    with pytest.raises(DeliveryFailure, match=r"clients \[1\]$"):
        owner.owner_key_exchange([1])


def test_excluded_client_cannot_decrypt_round_output():
    run = TaskRun(small_config())
    run.setup()
    run.run_round(0)
    intruder_key = crypto.SymKey(b"\x99" * 16)
    from fedtee.roles import decode_round_chunks, read_round_chunks

    chunks = read_round_chunks(run.router, "owner", run.cfg.taskid_bytes, 0)
    with pytest.raises(crypto.AuthFailure):
        decode_round_chunks(run.committee.conf, intruder_key, chunks, 0)


def test_decode_binds_each_output_to_the_chunk_it_starts_at():
    from fedtee.roles import decode_round_chunks, read_round_chunks

    run = TaskRun(small_config(strategy="layermax", epc_budget=400, tx_capacity=64))
    run.setup()
    run.run_round(0)
    conf, msk = run.committee.conf, run.owner.msk
    assert len(conf.slots) > 1 and run.committee.chunk_bases[-1] > len(conf.slots)
    indices, lengths, data = read_round_chunks(run.router, "owner", run.cfg.taskid_bytes, 0)
    assert data.readonly and len(data) == sum(lengths) and len(lengths) == len(indices)
    got = decode_round_chunks(conf, msk, (indices, lengths, data), 0)
    assert got.bit_equal(run.report.round_models[0])
    with pytest.raises(crypto.AuthFailure):  # renumbered chunks
        decode_round_chunks(conf, msk, ([i + 1 for i in indices], lengths, data), 0)
    with pytest.raises(ValueError):  # a chunk past the last output
        decode_round_chunks(
            conf, msk, ((*indices, len(indices)), (*lengths, 1), bytes(data) + b"x"), 0
        )
    with pytest.raises(ValueError):  # an output cut short
        decode_round_chunks(conf, msk, (indices[:-1], lengths[:-1], data[: -lengths[-1]]), 0)


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
    taskid, rnd, sender, env_m, env_k = transport.unpack(
        transport.MODEL_ENVELOPE, transport.Frame.from_bytes(model_frames[0]).payload
    )
    assert (taskid, rnd, sender) == (run.cfg.taskid_bytes, 0, 0)
    assert len(env_k.ciphertext) == crypto.KEY_BYTES


def test_attesting_a_missing_enclave_raises_the_nodes_error():
    run = TaskRun(small_config())
    run.setup()
    with pytest.raises(transport.RemoteError, match="no enclave 999"):
        run.clients[0].attest(0, 999)


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
    assert len(run.committee.conf.slots) == 2  # one partition per layer
    tap = run.router.add_tap()
    run.clients[0].client_round(0)
    payloads = [
        transport.unpack(transport.MODEL_ENVELOPE, transport.Frame.from_bytes(raw).payload)
        for _, _, raw in tap.frames
        if transport.Frame.from_bytes(raw).kind == MessageKind.ModelEnvelope
    ]
    assert len(payloads) == 2  # one envelope pair per layer partition
    sizes = sorted(len(p[3].ciphertext) for p in payloads)
    assert sizes == [per_client, per_client]  # each carries exactly one layer


def test_client_round_lockstep_guard():
    run = TaskRun(small_config())
    run.setup()
    run.run_round(0)
    run.run_round(1)  # every client read round 0 and is at round 1
    with pytest.raises(RuntimeError, match="^client 0 is at round 1, not 0$"):
        run.clients[0].client_round(0)


def test_client_round_whose_previous_round_is_refused_ends_the_run():
    run = TaskRun(small_config())
    run.setup()
    with pytest.raises(RunFailed) as exc:  # round 0 never reached the ledger
        run.clients[0].client_round(1)
    assert str(exc.value) == (
        "client 0 cannot start round 1: LedgerNotFound: no chunks for task b'roles-task' round 0"
    )
    assert isinstance(exc.value.__cause__, transport.RemoteError)
    assert run.clients[0].round == 0


def test_round_advances_only_after_chunks_accepted():
    run = TaskRun(small_config())
    run.setup()
    run.run_round(0)
    assert run.ledger.current_round(run.cfg.taskid_bytes) == 1
    # a client reads round 0 only when it trains in round 1
    assert all(c.round == 0 for c in run.clients.values())
    run.run_round(1)
    assert all(c.round == 1 for c in run.clients.values())
    assert run.ledger.current_round(run.cfg.taskid_bytes) == 2


def test_owner_and_clients_decode_identical_global_model():
    run = TaskRun(small_config())
    run.setup()
    run.run_round(0)
    run.run_round(1)  # every client pulls round 0 to train from it
    owner_view = run.owner.get_global_model(run.committee.conf, 0)
    for c in run.clients.values():
        assert c.m_glob.bit_equal(owner_view)


def test_clients_pull_the_global_only_when_selected():
    cfg = small_config(
        n_clients=8, rounds=4, participation=0.5, uniform_random_participants=True
    )
    run = TaskRun(cfg)
    run.setup()
    m_init = run.clients[0].m_glob
    tap = run.router.add_tap()
    for r in range(cfg.rounds):
        tap.frames.clear()
        run.run_round(r)
        participants = run.committee.conf.rounds[r].participants
        readers = sorted(
            src for src, dest, raw in tap.frames
            if dest == "ledger" and transport.Frame.from_bytes(raw).kind == MessageKind.LedgerRead
        )
        pullers = [f"client:{uid}" for uid in participants] if r > 0 else []
        assert readers == sorted(pullers + ["owner"])
        start = run.report.round_models[r - 1] if r > 0 else m_init
        for uid in participants:
            assert run.clients[uid].m_glob.bit_equal(start)
        assert not any(c.cached_updates for c in run.clients.values())
    assert len({run.committee.conf.rounds[r].participants for r in range(cfg.rounds)}) > 1


def test_pull_decodes_a_round_laid_out_differently_from_the_next():
    # Client 3's envelope is dropped once, so round 0 is re-planned without it
    # and its output takes one chunk fewer; round 1 is laid out for all four
    # again before its participants read round 0.
    aad_len = len(crypto.output_aad(b"roles-task", 0, 0))
    full = crypto.envelope_encoded_size(aad_len, model.encoded_partial_size(4, [8, 4]))
    cfg = small_config(
        tx_capacity=full - 1,
        straggler_policy="exclude",
        straggler_max_retries=0,
        faults=[FaultEvent(kind="drop", message_kind="ModelEnvelope", src="client:3", count=1)],
    )
    report = run_task(cfg)
    assert [rd["accepted"] for rd in report.rounds] == [1, 2]
    assert report.ok


# ---------------------------------------------------------------------------
# Node behaviour
# ---------------------------------------------------------------------------

def test_node_reports_missing_senders():
    cfg = small_config(
        faults=[FaultEvent(kind="drop", message_kind="ModelEnvelope", src="client:2", count=1)]
    )
    run = TaskRun(cfg)
    run.setup()
    run.committee.open_round(0)
    for uid in sorted(run.clients):
        run.clients[uid].client_round(0)
    node = run.nodes[run.committee.conf.slots[0].node]
    assert node.missing_senders(run.cfg.taskid_bytes, 0) == [2]


def test_only_nodes_answer_a_ping():
    run = TaskRun(small_config())
    ping = transport.pack(transport.PING)
    kind, reply, _ = run.router.call("committee", "node:0", MessageKind.Ping, ping)
    assert (kind, reply) == (MessageKind.Ack, b"")
    assert transport.check_reply(kind, reply) == ()
    kind, reply, _ = run.router.call("committee", "client:0", MessageKind.Ping, ping)
    assert kind == MessageKind.Nack
    assert transport.unpack(transport.NACK, reply) == ("RemoteError: client cannot handle Ping",)
    with pytest.raises(transport.RemoteError, match="^RemoteError: client cannot handle Ping$"):
        transport.check_reply(kind, reply)


@pytest.mark.parametrize("party", ["owner", "committee", "ledger", "client:0", "node:0"])
def test_a_kind_a_party_cannot_handle_gets_a_nack_naming_it(party):
    run = TaskRun(small_config())
    kind, reply, _ = run.router.call("node:1", party, MessageKind.Heartbeat, b"")
    role = party.partition(":")[0]
    assert kind == MessageKind.Nack
    assert transport.unpack(transport.NACK, reply) == (
        f"RemoteError: {role} cannot handle Heartbeat",
    )


def test_killed_node_sends_no_heartbeat():
    run = TaskRun(small_config(faults=[FaultEvent(kind="kill_node", node=0, round=0)]))
    run.nodes[0].send_heartbeat()
    assert run.router.recv("committee")[1] == MessageKind.Heartbeat  # alive until killed
    run.router.bytes_by_kind.clear()
    assert run.router.faults.kills(0, "between") == [0]
    run.nodes[0].send_heartbeat()
    assert run.router.recv("committee") is None
    assert "Heartbeat" not in run.router.bytes_by_kind


def test_forged_chunk_rejected_but_round_completes():
    cfg = small_config(faults=[FaultEvent(kind="tamper_chunk", round=0)])
    report = run_task(cfg)
    assert report.ok
    rejected = [r for r in report.receipts if r["outcome"] == "rejected"]
    assert len(rejected) == 1
    assert rejected[0]["reason"] == "BadSignature"


def _chunk_uploads(tap):
    """Every ChunkUpload frame the tap saw, as (chunk indices, payload lengths)."""
    uploads = []
    for _, _, raw in tap.frames:
        frame = transport.Frame.from_bytes(raw)
        if frame.kind == MessageKind.ChunkUpload:
            _, _, indices, payloads, _ = transport.unpack(transport.CHUNK_UPLOAD, frame.payload)
            uploads.append((list(indices), [len(p) for p in payloads]))
    return uploads


def test_small_chunks_go_up_in_runs_of_at_most_run_bytes():
    """4 KiB chunks, as on the chunk-bound benchmark: 256 to a frame, in
    index order, with the forged copy ahead of the chunk it copies."""
    cfg = small_config(rounds=1, n_clients=2, layers={0: 300_000}, tx_capacity=4096,
                       faults=[FaultEvent(kind="tamper_chunk", round=0)])
    run = TaskRun(cfg)
    tap = run.router.add_tap()
    report = run.run()
    assert report.ok
    uploads = _chunk_uploads(tap)
    assert all(sum(lengths) <= RUN_BYTES for _, lengths in uploads)
    assert [len(indices) for indices, _ in uploads][:2] == [256, 256]
    sent = [i for indices, _ in uploads for i in indices]
    assert sent[:3] == [0, 0, 1] and sent[1:] == list(range(len(sent) - 1))
    assert [r["index"] for r in report.receipts] == sent
    assert [r["reason"] for r in report.receipts] == ["BadSignature"] + [None] * (len(sent) - 1)


def test_chunks_larger_than_half_run_bytes_go_one_per_frame():
    """2 MiB chunks, as on the byte-bound benchmark: each is a run of its own."""
    run = TaskRun(small_config(rounds=1, n_clients=2, layers={0: 600_000}))
    tap = run.router.add_tap()
    report = run.run()
    assert report.ok
    uploads = _chunk_uploads(tap)
    assert [indices for indices, _ in uploads] == [[0], [1], [2]]
    assert uploads[0][1] == [run.cfg.tx_capacity] and run.cfg.tx_capacity > RUN_BYTES


def test_chunk_upload_with_ragged_columns_is_refused():
    run = TaskRun(small_config())
    body = transport.pack(transport.CHUNK_UPLOAD, b"roles-task", 0, [0, 1], [b"p0"], [b"s0", b"s1"])
    kind, reply, _ = run.router.call("node:0", "ledger", MessageKind.ChunkUpload, body)
    assert kind == MessageKind.Nack
    with pytest.raises(
        transport.RemoteError, match="^ValueError: ChunkUpload columns differ in length$"
    ):
        transport.check_reply(kind, reply, transport.RECEIPT)
    assert not run.ledger.by_round


def test_client_read_of_half_uploaded_round_is_incomplete():
    from fedtee.roles import read_round_chunks

    run = TaskRun(small_config())
    run.setup()
    run.committee.open_round(0)
    # declare more chunks than will arrive so round 0 stays open
    run.ledger.set_expected_chunks(
        "committee", run.cfg.taskid_bytes, run.committee.chunk_bases[-1] + 1
    )
    for uid in sorted(run.clients):
        run.clients[uid].client_round(0)
    for slot in run.committee.conf.slots:
        run.nodes[slot.node].compute(run.cfg.taskid_bytes, 0)
    n = run.committee.chunk_bases[-1]
    with pytest.raises(
        transport.RemoteError, match=f"^LedgerIncomplete: round 0 has {n} of {n + 1} chunks$"
    ):
        read_round_chunks(run.router, "client:0", run.cfg.taskid_bytes, 0)


def test_attestation_frames_never_carry_the_session_key():
    run = TaskRun(small_config(taps=True))
    run.setup()
    client = run.clients[0]
    slot = run.committee.conf.slots[0]
    ssk = client.attest(slot.node, slot.eid)
    # both ends derived the same key and no frame contains its bytes
    inst = run.nodes[slot.node].host.instances[slot.eid]
    assert inst.ssk_by_peer[client.party] == ssk
    assert ssk.raw not in tap_bytes(run.tap)


def test_node_buffers_expose_only_ciphertext():
    cfg = small_config(sentinel=True)
    run = TaskRun(cfg)
    run.setup()
    run.committee.open_round(0)
    for uid in sorted(run.clients):
        run.clients[uid].client_round(0)
    from fedtee.config import SENTINEL

    for node in run.nodes.values():
        assert SENTINEL not in node.buffer_bytes()


def _traced_peaks(monkeypatch, cls, name):
    """The tracemalloc peak of every call of ``cls.name``, appended as it returns."""
    import tracemalloc

    peaks = []
    real = getattr(cls, name)

    def traced(self, *args):
        tracemalloc.start()
        try:
            return real(self, *args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(cls, name, traced)
    return peaks


def test_node_compute_memory_stays_within_budget(monkeypatch):
    """One round's enclave batch and upload build each model-sized value once.

    2 clients send one 2**20-element layer (8 MiB). The enclave decrypts
    each plaintext into one buffer it allocates once for the batch, and
    folds each decoded input, a view of that buffer, into one sum before it
    decrypts the next, through a scratch block of ``model.FOLD_BLOCK``
    elements. The buffer is dropped before the output is written: its wire
    encoding is one buffer with the encoded sum sealed in place, and the
    chunks are views of it. So the peak is about 2.25x the model's bytes:
    one plaintext buffer and the sum, then the sum and the output, plus the
    upload's frames. Decrypting every plaintext before summing them, as an
    earlier enclave did, peaks at 4.0x.
    """
    from fedtee.roles import Node

    peaks = _traced_peaks(monkeypatch, Node, "compute")
    n = 2**20
    report = run_task(small_config(n_clients=2, n_nodes=1, rounds=1, layers={0: n}))
    assert report.ok
    assert len(peaks) == 1
    assert peaks[0] < 2.5 * 8 * n


def test_client_round_memory_stays_within_budget(monkeypatch):
    """A client writes its update's encoding once, straight into the frame
    that carries it, and seals it there: about 2.0x the model's bytes at
    peak (the trained update and the frame). Encoding, sealing and framing
    into three buffers, as an earlier client did, peaks at 4.0x."""
    from fedtee.roles import Client

    peaks = _traced_peaks(monkeypatch, Client, "client_round")
    n = 2**20
    report = run_task(small_config(n_clients=2, n_nodes=1, rounds=1, layers={0: n}))
    assert report.ok
    assert len(peaks) == 2
    assert max(peaks) < 2.5 * 8 * n


# ---------------------------------------------------------------------------
# Ledger reads
# ---------------------------------------------------------------------------

def _count_ledger_reads(monkeypatch):
    reads = []
    real = Ledger.read

    def counted(self, taskid, round_index):
        reads.append(round_index)
        return real(self, taskid, round_index)

    monkeypatch.setattr(Ledger, "read", counted)
    return reads


def test_readers_of_a_closed_round_share_one_ledger_read(monkeypatch):
    from fedtee.roles import decode_round_chunks, read_round_chunks

    run = TaskRun(small_config(strategy="layermax", epc_budget=400, tx_capacity=64))
    run.setup()
    reads = _count_ledger_reads(monkeypatch)
    run.run_round(0)  # the owner reads round 0 as it closes
    taskid, conf = run.cfg.taskid_bytes, run.committee.conf
    parties = ["owner"] + [c.party for c in run.clients.values()]
    got = [read_round_chunks(run.router, p, taskid, 0) for p in parties]
    assert reads == [0]
    indices, lengths, data = got[0]
    assert len(indices) == run.committee.chunk_bases[-1] > 1
    for other in got[1:]:
        assert other[:2] == (indices, lengths) and bytes(other[2]) == bytes(data)
    for c in run.clients.values():
        got_model = decode_round_chunks(conf, c.msk, (indices, lengths, data), 0)
        assert got_model.bit_equal(run.report.round_models[0])


def test_read_of_an_incomplete_round_is_not_kept(monkeypatch):
    from fedtee.roles import decode_round_chunks, read_round_chunks

    run = TaskRun(small_config(strategy="layermax", epc_budget=400, tx_capacity=64))
    run.setup()
    reads = _count_ledger_reads(monkeypatch)
    taskid, conf = run.cfg.taskid_bytes, run.committee.conf
    run.committee.open_round(0)
    for uid in sorted(run.clients):
        run.clients[uid].client_round(0)
    first, *rest = conf.slots
    assert rest
    run.nodes[first.node].compute(taskid, 0)
    present, n = run.committee.chunk_bases[1], run.committee.chunk_bases[-1]
    for _ in range(2):
        with pytest.raises(
            transport.RemoteError,
            match=f"^LedgerIncomplete: round 0 has {present} of {n} chunks$",
        ):
            read_round_chunks(run.router, "client:0", taskid, 0)
    for slot in rest:
        run.nodes[slot.node].compute(taskid, 0)
    indices, lengths, data = read_round_chunks(run.router, "client:0", taskid, 0)
    assert reads == [0, 0, 0]
    assert list(indices) == list(range(run.committee.chunk_bases[-1]))
    got = decode_round_chunks(conf, run.owner.msk, (indices, lengths, data), 0)
    assert got.bit_equal(run.owner.get_global_model(conf, 0))
    assert reads == [0, 0, 0]  # the owner's read was served the kept reply


def test_read_of_a_round_without_a_declared_chunk_count_is_not_kept():
    # With no count declared the ledger serves whatever a round holds so far.
    from fedtee.roles import read_round_chunks

    run = TaskRun(small_config(strategy="layermax", epc_budget=400, tx_capacity=64))
    run.setup()
    taskid, conf = run.cfg.taskid_bytes, run.committee.conf
    run.committee.open_round(0)
    for uid in sorted(run.clients):
        run.clients[uid].client_round(0)
    first, *rest = conf.slots
    run.nodes[first.node].compute(taskid, 0)
    run.ledger.tasks[taskid].expected_chunks = None
    partial, _, _ = read_round_chunks(run.router, "owner", taskid, 0)
    for slot in rest:
        run.nodes[slot.node].compute(taskid, 0)
    whole, _, _ = read_round_chunks(run.router, "owner", taskid, 0)
    assert 0 < len(partial) < len(whole) == run.committee.chunk_bases[-1]


def test_an_older_round_reads_after_a_newer_one_is_kept():
    from fedtee.roles import decode_round_chunks, read_round_chunks

    run = TaskRun(small_config(rounds=3))
    run.setup()
    for r in range(3):
        run.run_round(r)  # the owner's read of round 2 is the one kept
    taskid, conf, msk = run.cfg.taskid_bytes, run.committee.conf, run.owner.msk
    for r in (0, 2, 1, 2):
        chunks = read_round_chunks(run.router, "client:1", taskid, r)
        assert decode_round_chunks(conf, msk, chunks, r).bit_equal(run.report.round_models[r])
