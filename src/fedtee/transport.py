"""Message framing and delivery between roles, committee, enclaves, and ledger.

Frames are length-prefixed (u32 BE length, u8 tag, payload). The in-process
router gives reliable, ordered, at-most-once delivery per channel and doubles
as an RPC fabric; taps observe every frame's raw bytes without altering
delivery, which is what the confidentiality checks hook into.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass, field
from enum import IntEnum


class UnknownParty(Exception):
    pass


class DeliveryDropped(Exception):
    """A fault-injection rule consumed the frame; no reply will come."""


class MessageKind(IntEnum):
    SubmitTask = 1
    ConfDeliver = 2
    InstallProg = 3
    RaHandshake1 = 4
    RaHandshake2 = 5
    KeyDeliver = 6
    RoundDeliver = 7
    ModelEnvelope = 8
    ChunkUpload = 9
    LedgerRead = 10
    LedgerReply = 11
    Heartbeat = 12
    InitModel = 13
    ResendRequest = 14
    Ack = 15
    Ping = 16


@dataclass(frozen=True)
class Frame:
    kind: MessageKind
    payload: bytes

    def to_bytes(self) -> bytes:
        return struct.pack(">IB", len(self.payload), int(self.kind)) + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "Frame":
        if len(data) < 5:
            raise ValueError("frame shorter than header")
        length, tag = struct.unpack_from(">IB", data, 0)
        payload = data[5:]
        if len(payload) != length:
            raise ValueError("frame length mismatch")
        return cls(MessageKind(tag), payload)


@dataclass
class FaultRule:
    """Drop matching frames ``count`` times, then lie dormant."""

    kind: MessageKind | None = None
    src: str | None = None
    dest: str | None = None
    count: int = 1

    def matches(self, kind: MessageKind, src: str, dest: str) -> bool:
        if self.count <= 0:
            return False
        if self.kind is not None and kind != self.kind:
            return False
        if self.src is not None and src != self.src:
            return False
        if self.dest is not None and dest != self.dest:
            return False
        return True


@dataclass
class Tap:
    """Collects the raw bytes of every frame on matching channels."""

    src: str | None = None
    dest: str | None = None
    frames: list[tuple[str, str, bytes]] = field(default_factory=list)

    def observe(self, src: str, dest: str, raw: bytes) -> None:
        if (self.src is None or src == self.src) and (self.dest is None or dest == self.dest):
            self.frames.append((src, dest, raw))


@dataclass
class ChannelShaping:
    bytes_per_ms: float | None = None  # None = unconstrained
    fixed_delay_ms: float = 0.0


class Router:
    """In-process loopback transport with per-channel FIFO and RPC calls.

    Parties register either a mailbox (one-way ``send``/``recv``) or a
    handler ``fn(src, kind, payload) -> (kind, payload) | None`` for ``call``.
    All frames, both directions, pass through the taps.
    """

    def __init__(self, clock=None) -> None:
        self.clock = clock
        self._mailboxes: dict[str, deque] = {}
        self._handlers: dict[str, object] = {}
        self._unreachable: set[str] = set()
        self.taps: list[Tap] = []
        self.fault_rules: list[FaultRule] = []
        self._shaping: dict[tuple[str, str], ChannelShaping] = {}
        self._channel_free_at: dict[tuple[str, str], float] = {}
        self.bytes_by_kind: dict[str, int] = {}

    # -- registration -------------------------------------------------------

    def register(self, party: str, handler=None) -> None:
        self._mailboxes[party] = deque()
        if handler is not None:
            self._handlers[party] = handler
        self._unreachable.discard(party)

    def set_unreachable(self, party: str, value: bool = True) -> None:
        if value:
            self._unreachable.add(party)
        else:
            self._unreachable.discard(party)

    def add_tap(self, src: str | None = None, dest: str | None = None) -> Tap:
        tap = Tap(src=src, dest=dest)
        self.taps.append(tap)
        return tap

    def shape_channel(self, src: str, dest: str, shaping: ChannelShaping) -> None:
        self._shaping[(src, dest)] = shaping

    # -- delivery -----------------------------------------------------------

    def _check_parties(self, src: str, dest: str) -> None:
        if src not in self._mailboxes:
            raise UnknownParty(src)
        if dest not in self._mailboxes:
            raise UnknownParty(dest)

    def _pass_frame(self, src: str, dest: str, kind: MessageKind, payload: bytes) -> float:
        """Tap, apply fault rules, and return the (virtual) arrival time."""
        frame = Frame(kind, payload)
        raw = frame.to_bytes()
        self.bytes_by_kind[kind.name] = self.bytes_by_kind.get(kind.name, 0) + len(raw)
        for tap in self.taps:
            tap.observe(src, dest, raw)
        for rule in self.fault_rules:
            if rule.matches(kind, src, dest):
                rule.count -= 1
                raise DeliveryDropped(f"{kind.name} {src}->{dest}")
        if dest in self._unreachable:
            raise DeliveryDropped(f"party {dest} unreachable")
        now = self.clock.now_ms if self.clock is not None else 0.0
        shaping = self._shaping.get((src, dest))
        if shaping is None:
            return now
        start = max(now, self._channel_free_at.get((src, dest), 0.0))
        transfer = len(raw) / shaping.bytes_per_ms if shaping.bytes_per_ms else 0.0
        arrival = start + transfer + shaping.fixed_delay_ms
        self._channel_free_at[(src, dest)] = start + transfer
        return arrival

    def send(self, src: str, dest: str, kind: MessageKind, payload: bytes) -> None:
        self._check_parties(src, dest)
        try:
            arrival = self._pass_frame(src, dest, kind, payload)
        except DeliveryDropped:
            return  # one-way sends vanish silently when dropped
        self._mailboxes[dest].append((src, kind, payload, arrival))

    def recv(self, party: str):
        """Pop the oldest (src, kind, payload, arrival_ms) or None."""
        if party not in self._mailboxes:
            raise UnknownParty(party)
        box = self._mailboxes[party]
        return box.popleft() if box else None

    def call(self, src: str, dest: str, kind: MessageKind, payload: bytes):
        """Deliver a frame to ``dest``'s handler and return its framed reply.

        Raises DeliveryDropped when a fault rule eats the request (the caller
        models its own timeout/retry policy on top).
        """
        self._check_parties(src, dest)
        arrival = self._pass_frame(src, dest, kind, payload)
        handler = self._handlers.get(dest)
        if handler is None:
            raise UnknownParty(f"{dest} registered without a handler")
        reply = handler(src, kind, payload)
        if reply is None:
            reply = (MessageKind.Ack, b"")
        reply_kind, reply_payload = reply
        self._pass_frame(dest, src, reply_kind, reply_payload)
        return reply_kind, reply_payload, arrival


# ---------------------------------------------------------------------------
# Payload schemas (bit-exact; see the message kinds above)
# ---------------------------------------------------------------------------

from . import crypto as _crypto  # noqa: E402  (payload codecs need envelope parsing)


def pack_model_envelope(taskid, round_index, sender, env_m, env_k) -> bytes:
    """taskid_len(u16) + taskid + round(u64) + sender(u64) + env(ct_m) + env(ct_msk)."""
    return (
        struct.pack(">H", len(taskid))
        + taskid
        + struct.pack(">QQ", round_index, sender)
        + env_m.to_bytes()
        + env_k.to_bytes()
    )


def unpack_model_envelope(data: bytes):
    (tid_len,) = struct.unpack_from(">H", data, 0)
    taskid = data[2 : 2 + tid_len]
    off = 2 + tid_len
    round_index, sender = struct.unpack_from(">QQ", data, off)
    off += 16
    env_m, off = _crypto.parse_envelope_at(data, off)
    env_k, off = _crypto.parse_envelope_at(data, off)
    if off != len(data):
        raise ValueError("trailing bytes after model envelope")
    return taskid, round_index, sender, env_m, env_k


def pack_chunk_upload(taskid, round_index, index, payload, sig_raw) -> bytes:
    """Canonical signed-message fields plus the signature."""
    return (
        struct.pack(">H", len(taskid))
        + taskid
        + struct.pack(">QII", round_index, index, len(payload))
        + payload
        + struct.pack(">H", len(sig_raw))
        + sig_raw
    )


def unpack_chunk_upload(data: bytes):
    (tid_len,) = struct.unpack_from(">H", data, 0)
    taskid = data[2 : 2 + tid_len]
    off = 2 + tid_len
    round_index, index, payload_len = struct.unpack_from(">QII", data, off)
    off += 16
    payload = data[off : off + payload_len]
    off += payload_len
    (sig_len,) = struct.unpack_from(">H", data, off)
    off += 2
    sig_raw = data[off : off + sig_len]
    off += sig_len
    if off != len(data) or len(payload) != payload_len or len(sig_raw) != sig_len:
        raise ValueError("malformed chunk upload")
    return taskid, round_index, index, payload, sig_raw


def pack_ra1(taskid, eid, initiator, point) -> bytes:
    ident = initiator.encode()
    return (
        struct.pack(">H", len(taskid))
        + taskid
        + struct.pack(">QH", eid, len(ident))
        + ident
        + struct.pack(">H", len(point))
        + point
    )


def unpack_ra1(data: bytes):
    (tid_len,) = struct.unpack_from(">H", data, 0)
    taskid = data[2 : 2 + tid_len]
    off = 2 + tid_len
    eid, ident_len = struct.unpack_from(">QH", data, off)
    off += 10
    initiator = data[off : off + ident_len].decode()
    off += ident_len
    (point_len,) = struct.unpack_from(">H", data, off)
    off += 2
    point = data[off : off + point_len]
    return taskid, eid, initiator, point


def pack_ra2(point, measurement) -> bytes:
    return struct.pack(">H", len(point)) + point + measurement


def unpack_ra2(data: bytes):
    (point_len,) = struct.unpack_from(">H", data, 0)
    point = data[2 : 2 + point_len]
    measurement = data[2 + point_len :]
    return point, measurement


KEY_PURPOSE_SK = 1
KEY_PURPOSE_ROUND = 2
KEY_PURPOSE_PARTITION = 3


def pack_key_deliver(taskid, eid, purpose, env) -> bytes:
    return (
        struct.pack(">H", len(taskid))
        + taskid
        + struct.pack(">QB", eid, purpose)
        + env.to_bytes()
    )


def unpack_key_deliver(data: bytes):
    (tid_len,) = struct.unpack_from(">H", data, 0)
    taskid = data[2 : 2 + tid_len]
    off = 2 + tid_len
    eid, purpose = struct.unpack_from(">QB", data, off)
    off += 9
    env, off = _crypto.parse_envelope_at(data, off)
    if off != len(data):
        raise ValueError("trailing bytes after key delivery")
    return taskid, eid, purpose, env


def pack_ledger_read(taskid, round_index) -> bytes:
    return struct.pack(">H", len(taskid)) + taskid + struct.pack(">Q", round_index)


def unpack_ledger_read(data: bytes):
    (tid_len,) = struct.unpack_from(">H", data, 0)
    taskid = data[2 : 2 + tid_len]
    (round_index,) = struct.unpack_from(">Q", data, 2 + tid_len)
    return taskid, round_index


def pack_heartbeat(node, timestamp_ms) -> bytes:
    return struct.pack(">Qd", node, timestamp_ms)


def unpack_heartbeat(data: bytes):
    node, timestamp_ms = struct.unpack(">Qd", data)
    return node, timestamp_ms
