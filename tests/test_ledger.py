"""Storage contract: write-once semantics, verification, chain latency model."""

from dataclasses import replace
from functools import lru_cache
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import TASKID, client_inputs, ledger_storage, provision_enclave, simple_update
from fedtee import crypto
from fedtee.enclave import SignedChunk, chunk_signed_parts
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
    out = ctx["host"].resume(ctx["eid"], client_inputs(ctx, updates, round_index=round_index))
    return ctx, out.chunks


def test_create_task_and_duplicate():
    led = make_ledger()
    led.create_task(TASKID)
    with pytest.raises(DuplicateTask):
        led.create_task(TASKID)


def test_read_before_any_upload_not_found():
    led = make_ledger()
    led.create_task(TASKID)
    with pytest.raises(LedgerNotFound):
        led.read(TASKID, 0)
    with pytest.raises(LedgerNotFound):
        led.read(b"unknown-task", 0)


@pytest.mark.parametrize("call", [
    lambda led, t: led.current_round(t),
    lambda led, t: led.upload_pk(COMM, t, crypto.sig_keygen(bytes(32)).public_bytes()),
    lambda led, t: led.set_expected_chunks(COMM, t, 3),
], ids=["current_round", "upload_pk", "set_expected_chunks"])
def test_unknown_task_is_not_found(call):
    led = make_ledger()
    led.create_task(TASKID)
    with pytest.raises(LedgerNotFound):
        call(led, b"unknown-task")


def test_upload_pk_authorization_and_rotation():
    led = make_ledger()
    led.create_task(TASKID)
    vk = crypto.sig_keygen(bytes(range(32)))
    with pytest.raises(Unauthorized):
        led.upload_pk("client:3", TASKID, vk.public_bytes())
    receipt = led.upload_pk(COMM, TASKID, vk.public_bytes())
    assert receipt.accepted
    # rotation: a second upload by the committee replaces the key
    vk2 = crypto.sig_keygen(bytes(range(1, 33)))
    assert led.upload_pk(COMM, TASKID, vk2.public_bytes()).accepted
    assert led.tasks[TASKID].vk_pk == vk2.public_bytes()


def test_only_the_committee_sets_the_expected_chunk_count():
    led = make_ledger()
    led.create_task(TASKID)
    led.set_expected_chunks(COMM, TASKID, 3)
    with pytest.raises(Unauthorized):
        led.set_expected_chunks("node:0", TASKID, 5)
    assert led.tasks[TASKID].expected_chunks == 3


def _prepared_ledger(ctx, chunks):
    led = make_ledger()
    led.create_task(TASKID)
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
    led.create_task(TASKID)
    assert led.upload_global_model("node:0", chunks[0]).reason == "NoKey"


def test_duplicate_index_rejected_write_once():
    ctx, chunks = signed_round()
    led = _prepared_ledger(ctx, chunks)
    assert led.upload_global_model("node:0", chunks[0]).accepted
    second = led.upload_global_model("node:0", chunks[0])
    assert not second.accepted
    assert second.reason == "DuplicateIndex"
    assert len(ledger_storage(led)) == 1


def test_index_outside_declared_range_rejected_with_own_reason():
    ctx, chunks = signed_round()
    led = _prepared_ledger(ctx, chunks[:-1])
    receipt = led.upload_global_model("node:0", chunks[-1])
    assert not receipt.accepted
    assert receipt.reason == "IndexOutOfRange"
    assert not ledger_storage(led)


@pytest.mark.parametrize("index", [-1, 2**32])
def test_unencodable_index_rejected_without_expected_count(index):
    ctx, chunks = signed_round()
    led = make_ledger()
    led.create_task(TASKID)
    led.upload_pk(COMM, TASKID, ctx["vk"].public_bytes())
    first = chunks[0]
    chunk = SignedChunk(first.taskid, first.round, index, first.payload, first.sigma)
    receipt = led.upload_global_model("node:0", chunk)
    assert (receipt.outcome, receipt.reason) == ("rejected", "IndexOutOfRange")
    assert not ledger_storage(led)


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
    assert len(ledger_storage(led)) == 0


def test_incomplete_read_reports_present_indices():
    ctx, chunks = signed_round(n_chunks=3)
    led = _prepared_ledger(ctx, chunks)
    led.upload_global_model("node:0", chunks[0])
    led.upload_global_model("node:0", chunks[2])
    with pytest.raises(LedgerIncomplete) as exc:
        led.read(TASKID, 0)
    assert exc.value.present == [0, 2]
    assert str(exc.value) == "round 0 has 2 of 3 chunks"


def test_final_state_independent_of_upload_order():
    ctx, chunks = signed_round(n_chunks=3)
    led_a = _prepared_ledger(ctx, chunks)
    led_b = _prepared_ledger(ctx, chunks)
    for c in chunks:
        led_a.upload_global_model("node:0", c)
    for c in reversed(chunks):
        led_b.upload_global_model("node:0", c)
    stored_a, stored_b = ledger_storage(led_a), ledger_storage(led_b)
    assert stored_a.keys() == stored_b.keys()
    assert led_a.current_round(TASKID) == led_b.current_round(TASKID) == 1
    for key in stored_a:
        assert stored_a[key].payload == stored_b[key].payload


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
    led.create_task(other)
    led.upload_pk(COMM, other, ctx["vk"].public_bytes())
    led.set_expected_chunks(COMM, other, 1)
    c = chunks[0]
    cross = SignedChunk(other, c.round, c.index, c.payload, c.sigma)
    receipt = led.upload_global_model("node:0", cross)
    assert receipt.reason == "BadSignature"
    assert led.upload_global_model("node:0", c).accepted  # original still fine


def test_rotation_replaces_the_loaded_key():
    ctx, chunks = signed_round(n_chunks=3)
    led = _prepared_ledger(ctx, chunks)
    assert led.upload_global_model("node:0", chunks[0]).accepted
    new_vk = crypto.sig_keygen(b"\x09" * 32)
    led.upload_pk(COMM, TASKID, new_vk.public_bytes())
    # chunks from the old enclave key no longer verify ...
    assert led.upload_global_model("node:0", chunks[1]).reason == "BadSignature"
    # ... and chunks signed with the new key do
    c = chunks[1]
    message = chunk_signed_parts(c.taskid, c.round, c.index, c.payload)
    sigma = crypto.sig_sign(new_vk.secret, *message)
    resigned = SignedChunk(c.taskid, c.round, c.index, c.payload, sigma)
    assert led.upload_global_model("node:0", resigned).accepted
    assert sorted(ledger_storage(led)) == [(TASKID, 0, 0), (TASKID, 0, 1)]


@pytest.mark.parametrize("vk_pk", [b"", b"\x04" + b"\x00" * 64, b"not a curve point"])
def test_malformed_key_gives_bad_signature_receipts(vk_pk):
    ctx, chunks = signed_round(n_chunks=2)
    led = make_ledger()
    led.create_task(TASKID)
    assert led.upload_pk(COMM, TASKID, vk_pk).accepted
    led.set_expected_chunks(COMM, TASKID, len(chunks))
    for c in chunks:
        assert led.upload_global_model("node:0", c).reason == "BadSignature"
    assert not ledger_storage(led)
    # a well-formed key uploaded afterwards is used from then on
    led.upload_pk(COMM, TASKID, ctx["vk"].public_bytes())
    assert all(led.upload_global_model("node:0", c).accepted for c in chunks)
    assert led.current_round(TASKID) == 1


# ---------------------------------------------------------------------------
# Runs: one ChunkUpload's chunks, their signatures checked on the pool
# ---------------------------------------------------------------------------

def _checks_on_pool(mp):
    """Every run of two or more chunks is checked on the pool, even on one CPU."""
    mp.setattr(crypto, "SIG_PARALLEL_MIN", 2)
    mp.setattr(crypto, "CPUS", max(crypto.CPUS, 2))


@pytest.fixture
def on_pool(monkeypatch):
    _checks_on_pool(monkeypatch)


def _reasons(receipts):
    return [r.reason for r in receipts]


def _forged(chunk):
    payload = bytearray(chunk.payload)
    payload[0] ^= 0x01
    return replace(chunk, payload=bytes(payload))


def test_run_forged_copy_ahead_of_its_chunk(on_pool):
    ctx, chunks = signed_round(n_chunks=3)
    led = _prepared_ledger(ctx, chunks)
    receipts = led.upload_run("node:0", [_forged(chunks[0]), *chunks])
    assert _reasons(receipts) == ["BadSignature", None, None, None]
    assert led.current_round(TASKID) == 1
    assert led.read(TASKID, 0)[0].payload == chunks[0].payload


def test_run_bad_signature_mid_run_fails_only_that_chunk(on_pool):
    ctx, chunks = signed_round(n_chunks=3)
    led = _prepared_ledger(ctx, chunks)
    bad = replace(chunks[1], sigma=chunks[0].sigma)
    assert _reasons(led.upload_run("node:0", [chunks[0], bad, chunks[2]])) == [
        None, "BadSignature", None
    ]
    assert sorted(ledger_storage(led)) == [(TASKID, 0, 0), (TASKID, 0, 2)]


def test_run_repeated_index_and_stale_round(on_pool):
    ctx, chunks = signed_round(n_chunks=3)
    led = _prepared_ledger(ctx, chunks)
    receipts = led.upload_run("node:0", [chunks[0], chunks[0], chunks[1]])
    assert _reasons(receipts) == [None, "DuplicateIndex", None]
    # the last chunk closes round 0 mid-run, so the replay after it is stale
    receipts = led.upload_run("node:0", [chunks[2], chunks[0]])
    assert _reasons(receipts) == [None, "WrongRound"]
    assert _reasons(led.upload_run("node:0", chunks)) == ["WrongRound"] * 3


def test_run_receipts_follow_frame_order(on_pool):
    ctx, chunks = signed_round(n_chunks=4)
    led = _prepared_ledger(ctx, chunks)
    run = [chunks[2], chunks[0], chunks[3], chunks[1]]
    receipts = led.upload_run("node:0", run)
    assert [r.id for r in receipts] == [(c.taskid, c.round, c.index) for c in run]
    assert all(r.accepted for r in receipts)
    assert led.current_round(TASKID) == 1


@pytest.mark.parametrize("index", [-1, 2**32])
def test_run_unencodable_index_rejected(on_pool, index):
    ctx, chunks = signed_round(n_chunks=2)
    led = make_ledger()
    led.create_task(TASKID)
    led.upload_pk(COMM, TASKID, ctx["vk"].public_bytes())
    odd = replace(chunks[0], index=index)
    receipts = led.upload_run("node:0", [chunks[0], odd, chunks[1]])
    assert _reasons(receipts) == [None, "IndexOutOfRange", None]


def test_run_checks_each_signature_once_as_single_uploads_do(monkeypatch, on_pool):
    ctx, chunks = signed_round(n_chunks=3)
    seen = []
    verify = crypto.sig_verify
    monkeypatch.setattr(crypto, "sig_verify", lambda *a: seen.append(1) or verify(*a))
    run = [_forged(chunks[0]), chunks[0], chunks[0], chunks[1], replace(chunks[1], index=2**32),
           replace(chunks[2], sigma=chunks[1].sigma), chunks[2]]
    by_run = _prepared_ledger(ctx, chunks).upload_run("node:0", run)
    checks_by_run = len(seen)
    seen.clear()
    one_by_one = _prepared_ledger(ctx, chunks)
    singles = [one_by_one.upload_global_model("node:0", c) for c in run]
    assert by_run == singles
    assert _reasons(singles) == [
        "BadSignature", None, "DuplicateIndex", None, "IndexOutOfRange", "BadSignature", None
    ]
    assert checks_by_run == len(seen) == 5

    # the same refused object twice: its verdict is used once, the copy is checked again
    bad = _forged(chunks[0])
    seen.clear()
    by_run = _prepared_ledger(ctx, chunks).upload_run("node:0", [bad, bad, chunks[0]])
    checks_by_run = len(seen)
    seen.clear()
    one_by_one = _prepared_ledger(ctx, chunks)
    singles = [one_by_one.upload_global_model("node:0", c) for c in [bad, bad, chunks[0]]]
    assert by_run == singles
    assert _reasons(singles) == ["BadSignature", "BadSignature", None]
    assert checks_by_run == len(seen) == 3

    # a run refused before any signature check makes none: on an unknown task,
    # before the key is uploaded, and entirely in a round already closed
    def no_key():
        led = make_ledger()
        led.create_task(TASKID)
        return led

    def round_closed():
        led = _prepared_ledger(ctx, chunks)
        for c in chunks:
            led.upload_global_model("node:0", c)
        return led

    for fresh, reason in [(make_ledger, "UnknownTask"), (no_key, "NoKey"),
                          (round_closed, "WrongRound")]:
        led, one_by_one = fresh(), fresh()
        seen.clear()
        by_run = led.upload_run("node:0", chunks)
        assert not seen
        singles = [one_by_one.upload_global_model("node:0", c) for c in chunks]
        assert by_run == singles
        assert _reasons(singles) == [reason] * 3
        assert not seen


def test_key_rotated_while_a_run_is_checked_is_the_one_stores_use(monkeypatch, on_pool):
    ctx, chunks = signed_round(n_chunks=3)
    led = _prepared_ledger(ctx, chunks)
    other = crypto.sig_keygen(b"\x07" * 32)
    check = crypto.sig_verify_all

    def rotate_then_check(public, items):
        led.upload_pk(COMM, TASKID, other.public_bytes())
        return check(public, items)

    monkeypatch.setattr(crypto, "sig_verify_all", rotate_then_check)
    assert _reasons(led.upload_run("node:0", chunks)) == ["BadSignature"] * 3
    assert not ledger_storage(led)


def test_empty_run_stores_nothing():
    led = make_ledger()
    assert led.upload_run("node:0", []) == []


# ---------------------------------------------------------------------------
# Reference model: the ledger against a brute-force scan of one flat map
# ---------------------------------------------------------------------------

MODEL_TASKS = (b"model-task-a", b"model-task-b")
A = MODEL_TASKS[0]
TASK_KEY = crypto.sig_keygen(b"\x11" * 32)
OTHER_KEY = crypto.sig_keygen(b"\x22" * 32)


@lru_cache(maxsize=None)
def _chunk(taskid: bytes, round_index: int, index: int, good: bool) -> SignedChunk:
    payload = b"payload-%d-%d" % (round_index, index)
    key = TASK_KEY if good else OTHER_KEY
    sigma = crypto.sig_sign(key.secret, *chunk_signed_parts(taskid, round_index, index, payload))
    return SignedChunk(taskid, round_index, index, payload, sigma)


class ScanLedger:
    """One flat map, with completion decided by counting the whole round."""

    def __init__(self):
        self.storage = {}
        self.round = dict.fromkeys(MODEL_TASKS, 0)
        self.expected = dict.fromkeys(MODEL_TASKS)

    def upload(self, chunk: SignedChunk, good: bool) -> tuple:
        tid = chunk.taskid
        ident = (tid, chunk.round, chunk.index)
        n = self.expected[tid]
        if chunk.round != self.round[tid]:
            return ("rejected", ident, "WrongRound")
        if ident in self.storage:
            return ("rejected", ident, "DuplicateIndex")
        if n is not None and not (0 <= chunk.index < n):
            return ("rejected", ident, "IndexOutOfRange")
        if not good:
            return ("rejected", ident, "BadSignature")
        self.storage[ident] = chunk
        if n is not None:
            present = sum(1 for i in range(n) if (tid, self.round[tid], i) in self.storage)
            if present == n:
                self.round[tid] += 1
        return ("accepted", ident, None)

    def read(self, tid: bytes, round_index: int):
        present = sorted(i for (t, r, i) in self.storage if t == tid and r == round_index)
        if not present:
            return "not found"
        if self.expected[tid] is not None and round_index >= self.round[tid]:
            return ("incomplete", present)
        return [self.storage[(tid, round_index, i)] for i in present]


def _read(led: Ledger, tid: bytes, round_index: int):
    try:
        return led.read(tid, round_index)
    except LedgerNotFound:
        return "not found"
    except LedgerIncomplete as exc:
        return ("incomplete", exc.present)


_ops = st.lists(
    st.one_of(
        # (kind, task, round offset from the model's current round, index,
        # signed with the task's key); most uploads aim at the current round
        st.tuples(
            st.just("upload"), st.sampled_from(MODEL_TASKS), st.sampled_from([-1, 0, 0, 0, 1]),
            st.integers(0, 6), st.sampled_from([True, True, False]),
        ),
        st.tuples(st.just("expect"), st.sampled_from(MODEL_TASKS), st.integers(0, 5)),
    ),
    min_size=10, max_size=60,
)


@given(_ops)
# expected_chunks shrunk below stored indices: three stored, index 1 still missing
@example([("upload", A, 0, 2, True), ("upload", A, 0, 3, True), ("expect", A, 2),
          ("upload", A, 0, 0, True), ("upload", A, 0, 1, True)])
# expected_chunks grown mid-round, then the round filled out of order
@example([("expect", A, 2), ("upload", A, 0, 1, True), ("expect", A, 3),
          ("upload", A, 0, 0, True), ("upload", A, 0, 2, False), ("upload", A, 0, 2, True)])
@settings(max_examples=150, deadline=None)
def test_ledger_matches_scan_reference_model(ops):
    led, ref = make_ledger(), ScanLedger()
    for tid in MODEL_TASKS:
        led.create_task(tid)
        led.upload_pk(COMM, tid, TASK_KEY.public_bytes())
    for kind, tid, *args in ops:
        if kind == "expect":
            led.set_expected_chunks(COMM, tid, args[0])
            ref.expected[tid] = args[0]
        else:
            offset, index, good = args
            chunk = _chunk(tid, max(0, ref.round[tid] + offset), index, good)
            got = led.upload_global_model("node:0", chunk)
            assert (got.outcome, got.id, got.reason) == ref.upload(chunk, good)
        for t in MODEL_TASKS:
            assert led.current_round(t) == ref.round[t]
        assert ledger_storage(led).keys() == ref.storage.keys()
    for t in MODEL_TASKS:
        for r in range(ref.round[t] + 2):
            assert _read(led, t, r) == ref.read(t, r)


@given(_ops)
@example([("upload", A, 0, 2, True), ("upload", A, 0, 2, True), ("expect", A, 3),
          ("upload", A, 0, 0, False), ("upload", A, 0, 0, True), ("upload", A, 0, 1, True),
          ("upload", A, 0, 1, True)])
@settings(max_examples=100, deadline=None)
def test_runs_match_scan_reference_model(ops):
    """Consecutive uploads of one task go up as one run: the receipts, the
    stored chunks and the reads are those of uploading them one by one."""
    led, ref = make_ledger(), ScanLedger()
    for tid in MODEL_TASKS:
        led.create_task(tid)
        led.upload_pk(COMM, tid, TASK_KEY.public_bytes())
    run, want = [], []

    def flush():
        got = led.upload_run("node:0", run)
        assert [(r.outcome, r.id, r.reason) for r in got] == want
        run.clear()
        want.clear()

    with pytest.MonkeyPatch.context() as mp:
        _checks_on_pool(mp)
        for kind, tid, *args in ops:
            if kind == "expect" or (run and run[0].taskid != tid):
                flush()
            if kind == "expect":
                led.set_expected_chunks(COMM, tid, args[0])
                ref.expected[tid] = args[0]
            else:
                offset, index, good = args
                chunk = _chunk(tid, max(0, ref.round[tid] + offset), index, good)
                run.append(chunk)
                want.append(ref.upload(chunk, good))
        flush()
    assert ledger_storage(led).keys() == ref.storage.keys()
    for t in MODEL_TASKS:
        assert led.current_round(t) == ref.round[t]
        for r in range(ref.round[t] + 2):
            assert _read(led, t, r) == ref.read(t, r)


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
