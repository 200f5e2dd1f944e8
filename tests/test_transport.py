"""Framing, loopback router, taps, the fault plan, and the message-body codec."""

import os
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtee import crypto, transport
from fedtee.config import FaultEvent
from fedtee.transport import (
    DeliveryDropped,
    FaultPlan,
    Frame,
    MessageKind,
    Router,
    UnknownParty,
)


def test_frame_roundtrip_is_byte_identity():
    frame = Frame(MessageKind.ModelEnvelope, b"\x00\x01payload\xff")
    again = Frame.from_bytes(frame.to_bytes())
    assert again == frame


def test_frame_length_mismatch_rejected():
    raw = Frame(MessageKind.Heartbeat, b"abc").to_bytes()
    with pytest.raises(ValueError):
        Frame.from_bytes(raw[:-1])


def test_loopback_echo_identical_bytes():
    router = Router()
    router.register("a")
    router.register("b")
    payload = os.urandom(300)
    router.send("a", "b", MessageKind.ModelEnvelope, payload)
    src, kind, got, _ = router.recv("b")
    assert (src, kind, got) == ("a", MessageKind.ModelEnvelope, payload)
    assert router.recv("b") is None


def test_unknown_party_raises():
    router = Router()
    router.register("a")
    with pytest.raises(UnknownParty):
        router.send("a", "ghost", MessageKind.Heartbeat, b"")
    with pytest.raises(UnknownParty):
        router.send("ghost", "a", MessageKind.Heartbeat, b"")


def test_per_channel_fifo_order():
    router = Router()
    router.register("a")
    router.register("b")
    for i in range(10):
        router.send("a", "b", MessageKind.Heartbeat, bytes([i]))
    got = [router.recv("b")[2][0] for _ in range(10)]
    assert got == list(range(10))


def test_tap_sees_every_frame_in_delivery_order():
    router = Router()
    router.register("a")
    router.register("b")
    tap = router.add_tap()
    payloads = [bytes([i]) * 3 for i in range(5)]
    for p in payloads:
        router.send("a", "b", MessageKind.ModelEnvelope, p)
    assert len(tap.frames) == 5
    for (src, dest, raw), p in zip(tap.frames, payloads):
        assert (src, dest) == ("a", "b")
        assert Frame.from_bytes(raw).payload == p


def _drop(**kw):
    return FaultEvent(kind="drop", **kw)


def test_drop_rule_consumes_matching_frames_only():
    router = Router(faults=FaultPlan([_drop(message_kind="ModelEnvelope", count=1)]))
    router.register("a")
    router.register("b")
    router.send("a", "b", MessageKind.ModelEnvelope, b"gone")
    router.send("a", "b", MessageKind.ModelEnvelope, b"kept")
    router.send("a", "b", MessageKind.Heartbeat, b"hb")
    received = []
    while (msg := router.recv("b")) is not None:
        received.append(msg[2])
    assert received == [b"kept", b"hb"]


def test_call_roundtrip_and_drop():
    router = Router(faults=FaultPlan([_drop(dest="svc", count=1)]))
    router.register("caller")
    router.register("svc", handler=lambda src, kind, payload: (MessageKind.Ack, payload[::-1]))
    with pytest.raises(DeliveryDropped, match="^LedgerRead caller->svc$") as lost:
        router.call("caller", "svc", MessageKind.LedgerRead, b"abc")
    assert isinstance(lost.value, transport.RunFailed)  # a lost call ends a run like a refused one
    # rule consumed; next call goes through
    kind, reply, _ = router.call("caller", "svc", MessageKind.LedgerRead, b"xy")
    assert (kind, reply) == (MessageKind.Ack, b"yx")


def test_killed_node_party_refuses_frames_after_kills():
    plan = FaultPlan([FaultEvent(kind="kill_node", node=1, round=2, phase="collect")])
    router = Router(faults=plan)
    router.register("a")
    router.register("node:1", handler=lambda s, k, p: None)
    assert plan.kills(2, "between") == []
    router.call("a", "node:1", MessageKind.Ping, b"")
    assert not plan.killed(1)
    assert plan.kills(2, "collect") == [1]
    assert plan.killed(1) and not plan.killed(0)
    with pytest.raises(DeliveryDropped, match="^party node:1 unreachable$"):
        router.call("a", "node:1", MessageKind.Ping, b"")
    router.send("node:1", "a", MessageKind.Heartbeat, b"hb")  # only frames to it are refused
    assert router.recv("a")[2] == b"hb"


def test_fault_plan_names_the_bad_install_and_forged_rounds():
    plan = FaultPlan([
        FaultEvent(kind="tamper_install", node=2),
        FaultEvent(kind="tamper_chunk", round=1),
    ])
    assert [plan.bad_install(n) for n in range(4)] == [False, False, True, False]
    assert [plan.forges(r) for r in range(3)] == [False, True, False]
    clean = Router().faults  # a router built without a plan injects nothing
    assert not clean.bad_install(2) and not clean.forges(1)
    clean.check(MessageKind.Ping, "a", "node:0")


def test_fault_plan_leaves_the_events_unused():
    events = [_drop(message_kind="Ping", count=1)]
    for _ in range(2):  # two runs of one config each drop the frame
        with pytest.raises(DeliveryDropped):
            FaultPlan(events).check(MessageKind.Ping, "committee", "node:0")
    assert events[0].count == 1


def test_bandwidth_shaping_delays_arrival():
    class Clock:
        now_ms = 0.0

    router = Router(clock=Clock())
    router.register("a")
    router.register("b", handler=lambda s, k, p: None)
    router.shape_channel("a", "b", 10.0)
    payload = b"\x00" * 95  # frame = 100 bytes -> 10 ms transfer
    _, _, arrival = router.call("a", "b", MessageKind.ModelEnvelope, payload)
    assert arrival == pytest.approx(10.0)
    _, _, arrival2 = router.call("a", "b", MessageKind.ModelEnvelope, payload)
    assert arrival2 == pytest.approx(20.0)  # queued behind the first


# ---------------------------------------------------------------------------
# Message-body codec
# ---------------------------------------------------------------------------

SCHEMAS = {
    name: schema for name, schema in vars(transport).items() if isinstance(schema, transport.Schema)
}

_FIELD_VALUES = {
    transport.U8: st.integers(0, 2**8 - 1),
    transport.U32: st.integers(0, 2**32 - 1),
    transport.U64: st.integers(0, 2**64 - 1),
    transport.F64: st.floats(allow_nan=False),
    transport.BYTES: st.binary(max_size=24),
    transport.TEXT: st.text(max_size=12),
    transport.U32S: st.lists(st.integers(0, 2**32 - 1), max_size=6).map(tuple),
    transport.BLOBS: st.lists(st.binary(max_size=8), max_size=4).map(tuple),
    transport.U32_ROWS: st.lists(
        st.lists(st.integers(0, 2**32 - 1), max_size=4).map(tuple), max_size=4
    ).map(tuple),
    transport.ENVELOPE: st.builds(
        crypto.Envelope,
        nonce=st.binary(min_size=crypto.NONCE_BYTES, max_size=crypto.NONCE_BYTES),
        aad=st.binary(max_size=12),
        sealed=st.binary(min_size=crypto.TAG_BYTES, max_size=24 + crypto.TAG_BYTES),
    ),
}


def check_body(schema, values):
    """The body round-trips; every proper prefix and one extra byte are rejected."""
    body = transport.pack(schema, *values)
    assert transport.unpack(schema, body) == tuple(values)
    for cut in range(len(body)):
        with pytest.raises(ValueError):
            transport.unpack(schema, body[:cut])
    with pytest.raises(ValueError):
        transport.unpack(schema, body + b"\x00")


@pytest.mark.parametrize("name", sorted(SCHEMAS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_schema_round_trip_and_exact_length(name, data):
    schema = SCHEMAS[name]
    values = [data.draw(_FIELD_VALUES[code]) for code in schema.fields]
    check_body(schema, values)


def _envelopes():
    key = crypto.SymKey(b"\x04" * 16)
    env_m = crypto.ae_encrypt(key, b"m-aad", b"model-bytes", rng=Random(0))
    env_k = crypto.ae_encrypt(key, b"k-aad", b"0123456789abcdef", rng=Random(1))
    return env_m, env_k


@pytest.mark.parametrize(
    "schema, values",
    [
        (transport.MODEL_ENVELOPE, (b"tid", 7, 42, *_envelopes())),
        (transport.CHUNK_UPLOAD,
         (b"tid", 3, (9, 10, 9), (b"chunk-payload", b"", b"forged"), (b"sig-9", b"sig-10", b"sig-9"))),
    ],
    ids=["model-envelope", "chunk-upload"],
)
def test_codec_examples(schema, values):
    check_body(schema, values)


def test_ra_handshake1_cut_short_is_rejected():
    point = crypto.ecdh_keypair(Random(3))[1]
    body = transport.pack(transport.RA_HANDSHAKE1, 5, "client:1", point)
    with pytest.raises(ValueError):
        transport.unpack(transport.RA_HANDSHAKE1, body[:-10])


@pytest.mark.parametrize(
    "schema, values",
    [
        (transport.RA_HANDSHAKE1, (5, "client:1", b"\x04" * 65)),
        (transport.LEDGER_READ, (b"tid", 2)),
    ],
    ids=["ra-handshake1", "ledger-read"],
)
def test_trailing_bytes_are_rejected(schema, values):
    with pytest.raises(ValueError):
        transport.unpack(schema, transport.pack(schema, *values) + b"x")


def test_reply_raises_every_nack_as_a_run_failure_and_passes_results():
    answers = {
        "ok": lambda: (MessageKind.Ack, transport.pack(transport.INSTALLED, 7)),
        "empty": lambda: None,
        "tampered": lambda: _raise(crypto.AuthFailure("tampered")),
        "unknown": lambda: _raise(KeyError("no enclave 9")),
    }
    router = Router()
    router.register("caller")
    for name, answer in answers.items():
        router.register(name, handler=lambda s, k, p, answer=answer: answer())

    def call(dest):
        kind, body, _ = router.call("caller", dest, MessageKind.InstallProg, b"")
        return kind, body

    assert transport.check_reply(*call("ok"), transport.INSTALLED) == (7,)
    assert call("empty") == (MessageKind.Ack, b"")
    assert transport.check_reply(*call("empty")) == ()
    kind, body = call("tampered")
    assert (kind, body) == (MessageKind.Nack, transport.pack(transport.NACK, "AuthFailure: tampered"))
    with pytest.raises(transport.RemoteError, match="^AuthFailure: tampered$") as refused:
        transport.check_reply(kind, body, transport.INSTALLED)
    assert isinstance(refused.value, transport.RunFailed)
    assert not isinstance(refused.value, crypto.AuthFailure)  # a peer's refusal, not a local tag check
    with pytest.raises(transport.RemoteError, match="^KeyError: 'no enclave 9'$") as refused:
        transport.check_reply(*call("unknown"), transport.INSTALLED)
    assert isinstance(refused.value, transport.RunFailed)
    with pytest.raises(ValueError):  # a success reply must be its schema's fields
        transport.check_reply(*call("empty"), transport.INSTALLED)


def _raise(exc):
    raise exc
