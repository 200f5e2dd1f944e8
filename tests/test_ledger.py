"""Storage contract: write-once semantics, verification, chain latency model."""

from random import Random

import numpy as np
import pytest

from conftest import TASKID, client_inputs, provision_enclave, simple_update
from fedtee import crypto
from fedtee.enclave import SignedChunk
from fedtee.ledger import (
    CHAIN_PRESETS,
    ChainParams,
    DuplicateTask,
    Ledger,
    LedgerIncomplete,
    LedgerNotFound,
    Unauthorized,
    apply_chain_model,
)

COMM = "committee"


def make_ledger(**kwargs) -> Ledger:
    return Ledger(COMM, **kwargs)


def signed_round(n_chunks=3, tx_capacity=40_000, round_index=0):
    """A provisioned enclave run producing real signed chunks."""
    ctx = provision_enclave(
        clients=(1, 2), layer_range=(0,), tx_capacity=tx_capacity, round_index=round_index
    )
    elems = (tx_capacity * n_chunks - tx_capacity // 2) // 8
    updates = [
        simple_update(1, [np.zeros(elems)], round_index=round_index),
        simple_update(2, [np.ones(elems)], round_index=round_index),
    ]
    out = ctx["host"].resume(
        ctx["eid"], client_inputs(ctx, updates, round_index=round_index), (0,)
    )
    return ctx, out.chunks


def test_create_task_and_duplicate():
    led = make_ledger()
    led.create_task(7, TASKID)
    with pytest.raises(DuplicateTask):
        led.create_task(7, TASKID)


def test_read_before_any_upload_not_found():
    led = make_ledger()
    led.create_task(7, TASKID)
    with pytest.raises(LedgerNotFound):
        led.read(TASKID, 0)
    with pytest.raises(LedgerNotFound):
        led.read(b"unknown-task", 0)


def test_upload_pk_authorization_and_rotation():
    led = make_ledger()
    led.create_task(7, TASKID)
    vk = crypto.sig_keygen(bytes(range(32)))
    with pytest.raises(Unauthorized):
        led.upload_pk("client:3", TASKID, vk.public_bytes())
    receipt = led.upload_pk(COMM, TASKID, vk.public_bytes())
    assert receipt.accepted
    # rotation: a second upload by the committee replaces the key
    vk2 = crypto.sig_keygen(bytes(range(1, 33)))
    assert led.upload_pk(COMM, TASKID, vk2.public_bytes()).accepted
    assert led.tasks[TASKID].vk_pk == vk2.public_bytes()


def _prepared_ledger(ctx, chunks):
    led = make_ledger()
    led.create_task(1, TASKID)
    led.upload_pk(COMM, TASKID, ctx["vk"].public_bytes())
    led.set_expected_chunks(COMM, TASKID, len(chunks))
    return led


def test_valid_chunks_accepted_and_round_advances():
    ctx, chunks = signed_round()
    led = _prepared_ledger(ctx, chunks)
    for c in chunks:
        assert led.upload_global_model("node:0", c).accepted
    assert led.current_round(TASKID) == 1
    got = led.read(TASKID, 0)
    assert [c.index for c in got] == list(range(len(chunks)))


def test_rotated_key_verifies_subsequent_uploads():
    ctx, chunks = signed_round()
    led = _prepared_ledger(ctx, chunks)
    other_vk = crypto.sig_keygen(b"\x07" * 32)
    led.upload_pk(COMM, TASKID, other_vk.public_bytes())
    assert led.upload_global_model("node:0", chunks[0]).reason == "BadSignature"
    led.upload_pk(COMM, TASKID, ctx["vk"].public_bytes())  # rotate back
    assert led.upload_global_model("node:0", chunks[0]).accepted


def test_missing_key_and_unknown_task_reasons():
    ctx, chunks = signed_round(n_chunks=1)
    led = make_ledger()
    assert led.upload_global_model("node:0", chunks[0]).reason == "UnknownTask"
    led.create_task(1, TASKID)
    assert led.upload_global_model("node:0", chunks[0]).reason == "NoKey"


def test_duplicate_index_rejected_write_once():
    ctx, chunks = signed_round()
    led = _prepared_ledger(ctx, chunks)
    assert led.upload_global_model("node:0", chunks[0]).accepted
    second = led.upload_global_model("node:0", chunks[0])
    assert not second.accepted
    assert second.reason == "DuplicateIndex"
    assert len(led.storage) == 1


def test_index_outside_declared_range_rejected_with_own_reason():
    ctx, chunks = signed_round()
    led = _prepared_ledger(ctx, chunks[:-1])
    receipt = led.upload_global_model("node:0", chunks[-1])
    assert not receipt.accepted
    assert receipt.reason == "IndexOutOfRange"
    assert not led.storage


def test_wrong_round_rejected():
    ctx, chunks = signed_round()
    led = _prepared_ledger(ctx, chunks)
    for c in chunks:
        led.upload_global_model("node:0", c)
    assert led.current_round(TASKID) == 1
    replay = led.upload_global_model("node:0", chunks[0])
    assert replay.reason == "WrongRound"


def test_single_bit_mutations_always_rejected():
    ctx, chunks = signed_round(n_chunks=2)
    led = _prepared_ledger(ctx, chunks)
    rng = Random(17)
    c = chunks[0]
    accepted = 0
    for trial in range(250):
        field = rng.choice(["payload", "sigma", "round", "index"])
        if field == "payload":
            data = bytearray(c.payload)
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            mutated = SignedChunk(c.taskid, c.round, c.index, bytes(data), c.sigma)
        elif field == "sigma":
            data = bytearray(c.sigma.raw)
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            mutated = SignedChunk(c.taskid, c.round, c.index, c.payload, crypto.Signature(bytes(data)))
        elif field == "round":
            mutated = SignedChunk(c.taskid, c.round ^ (1 << rng.randrange(8)), c.index, c.payload, c.sigma)
        else:
            mutated = SignedChunk(c.taskid, c.round, c.index ^ (1 << rng.randrange(4)), c.payload, c.sigma)
        receipt = led.upload_global_model("node:0", mutated)
        accepted += receipt.accepted
    assert accepted == 0
    assert len(led.storage) == 0


def test_incomplete_read_reports_present_indices():
    ctx, chunks = signed_round(n_chunks=3)
    led = _prepared_ledger(ctx, chunks)
    led.upload_global_model("node:0", chunks[0])
    led.upload_global_model("node:0", chunks[2])
    with pytest.raises(LedgerIncomplete) as exc:
        led.read(TASKID, 0)
    assert exc.value.present == [0, 2]


def test_final_state_independent_of_upload_order():
    ctx, chunks = signed_round(n_chunks=3)
    led_a = _prepared_ledger(ctx, chunks)
    led_b = _prepared_ledger(ctx, chunks)
    for c in chunks:
        led_a.upload_global_model("node:0", c)
    for c in reversed(chunks):
        led_b.upload_global_model("node:0", c)
    assert led_a.storage.keys() == led_b.storage.keys()
    assert led_a.current_round(TASKID) == led_b.current_round(TASKID) == 1
    for key in led_a.storage:
        assert led_a.storage[key].payload == led_b.storage[key].payload


def test_accepted_chunk_visible_to_subsequent_reads():
    ctx, chunks = signed_round(n_chunks=1)
    led = _prepared_ledger(ctx, chunks)
    led.upload_global_model("node:0", chunks[0])
    assert led.read(TASKID, 0)[0].payload == chunks[0].payload


def test_chunk_cannot_be_replayed_into_another_task():
    # the signature binds the task id, so a chunk lifted from task A is
    # rejected under task B's key even if B reuses the same key pair
    ctx, chunks = signed_round(n_chunks=1)
    led = _prepared_ledger(ctx, chunks)
    other = b"second-task"
    led.create_task(2, other)
    led.upload_pk(COMM, other, ctx["vk"].public_bytes())
    led.set_expected_chunks(COMM, other, 1)
    c = chunks[0]
    cross = SignedChunk(other, c.round, c.index, c.payload, c.sigma)
    receipt = led.upload_global_model("node:0", cross)
    assert receipt.reason == "BadSignature"
    assert led.upload_global_model("node:0", c).accepted  # original still fine


# ---------------------------------------------------------------------------
# Chain latency model
# ---------------------------------------------------------------------------

def test_one_chunk_one_block():
    params = ChainParams("x", 2000.0, 2 * 1024 * 1024, 30)
    assert apply_chain_model(100, params) == 2000.0


def test_block_ceiling_arithmetic():
    params = ChainParams("x", 1000.0, 2 * 1000 * 1000, 10)
    # 60 MB at 2 MB/tx -> 30 txs -> 3 blocks
    assert apply_chain_model(60 * 1000 * 1000, params) == 3 * 1000.0


def test_fabric_mod_halves_latency_for_equal_payload():
    for payload in (1, 10_000, 5_000_000, 100_000_000):
        fab = apply_chain_model(payload, CHAIN_PRESETS["fabric"])
        mod = apply_chain_model(payload, CHAIN_PRESETS["fabric-mod"])
        assert mod == pytest.approx(0.5 * fab)


def test_tendermint_not_slower_than_fabric_mod():
    for payload in (1, 10_000, 5_000_000, 100_000_000):
        mod = apply_chain_model(payload, CHAIN_PRESETS["fabric-mod"])
        tend = apply_chain_model(payload, CHAIN_PRESETS["tendermint"])
        assert tend <= mod


def test_zero_bytes_zero_latency():
    assert apply_chain_model(0, CHAIN_PRESETS["fabric"]) == 0.0
