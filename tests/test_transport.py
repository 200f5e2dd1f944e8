"""Framing, loopback router, taps, and fault rules."""

import os

import pytest

from fedtee import transport
from fedtee.transport import (
    ChannelShaping,
    DeliveryDropped,
    FaultRule,
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


def test_drop_rule_consumes_matching_frames_only():
    router = Router()
    router.register("a")
    router.register("b")
    router.fault_rules.append(FaultRule(kind=MessageKind.ModelEnvelope, count=1))
    router.send("a", "b", MessageKind.ModelEnvelope, b"gone")
    router.send("a", "b", MessageKind.ModelEnvelope, b"kept")
    router.send("a", "b", MessageKind.Heartbeat, b"hb")
    received = []
    while (msg := router.recv("b")) is not None:
        received.append(msg[2])
    assert received == [b"kept", b"hb"]


def test_call_roundtrip_and_drop():
    router = Router()
    router.register("caller")
    router.register("svc", handler=lambda src, kind, payload: (MessageKind.Ack, payload[::-1]))
    kind, reply, _ = router.call("caller", "svc", MessageKind.LedgerRead, b"abc")
    assert kind == MessageKind.Ack
    assert reply == b"cba"
    router.fault_rules.append(FaultRule(dest="svc", count=1))
    with pytest.raises(DeliveryDropped):
        router.call("caller", "svc", MessageKind.LedgerRead, b"abc")
    # rule consumed; next call goes through
    _, reply, _ = router.call("caller", "svc", MessageKind.LedgerRead, b"xy")
    assert reply == b"yx"


def test_unreachable_party_drops():
    router = Router()
    router.register("a")
    router.register("b", handler=lambda s, k, p: None)
    router.set_unreachable("b")
    with pytest.raises(DeliveryDropped):
        router.call("a", "b", MessageKind.Ping, b"")
    router.set_unreachable("b", False)
    router.call("a", "b", MessageKind.Ping, b"")


def test_bandwidth_shaping_delays_arrival():
    class Clock:
        now_ms = 0.0

    router = Router(clock=Clock())
    router.register("a")
    router.register("b", handler=lambda s, k, p: None)
    router.shape_channel("a", "b", ChannelShaping(bytes_per_ms=10.0))
    payload = b"\x00" * 95  # frame = 100 bytes -> 10 ms transfer
    _, _, arrival = router.call("a", "b", MessageKind.ModelEnvelope, payload)
    assert arrival == pytest.approx(10.0)
    _, _, arrival2 = router.call("a", "b", MessageKind.ModelEnvelope, payload)
    assert arrival2 == pytest.approx(20.0)  # queued behind the first


def test_model_envelope_payload_codec():
    from random import Random

    from fedtee import crypto

    key = crypto.SymKey(b"\x04" * 16)
    env_m = crypto.ae_encrypt(key, b"m-aad", b"model-bytes", rng=Random(0))
    env_k = crypto.ae_encrypt(key, b"k-aad", b"0123456789abcdef", rng=Random(1))
    blob = transport.pack_model_envelope(b"tid", 7, 42, env_m, env_k)
    taskid, rnd, sender, got_m, got_k = transport.unpack_model_envelope(blob)
    assert (taskid, rnd, sender) == (b"tid", 7, 42)
    assert got_m == env_m
    assert got_k == env_k


def test_chunk_upload_codec():
    blob = transport.pack_chunk_upload(b"tid", 3, 9, b"chunk-payload", b"sig-bytes")
    taskid, rnd, idx, payload, sig = transport.unpack_chunk_upload(blob)
    assert (taskid, rnd, idx, payload, sig) == (b"tid", 3, 9, b"chunk-payload", b"sig-bytes")
