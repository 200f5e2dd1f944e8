"""Message framing, delivery, and the one codec for every message body.

Frames are length-prefixed (u32 BE length, u8 tag, payload). The in-process
router gives reliable, ordered, at-most-once delivery per channel and doubles
as an RPC fabric; taps observe every frame's raw bytes without altering
delivery, which is what the confidentiality checks hook into. Each payload is
one named :class:`Schema` encoded by :func:`pack` and decoded by :func:`unpack`.

An RPC reply has one of two shapes. On success it is the request's reply
schema and nothing else, under its success kind (``Ack``, ``LedgerReply`` or
``RaHandshake2``). On failure it is a ``Nack`` whose body, ``NACK``, is the
text ``"Type: message"``. Handlers raise; :meth:`Router.call` is the only
place a handler's exception becomes a ``Nack``, and every caller reads its
reply through :func:`check_reply`, which raises a ``Nack`` as a
:class:`RemoteError`.

:class:`RunFailed` is the one failure type of a run: a refused call
(:class:`RemoteError`) and a lost one (:class:`DeliveryDropped`) are both
one, and every ``RunFailed`` ends the run in a report.
"""

from __future__ import annotations

import itertools
import struct
from collections import deque
from dataclasses import dataclass, field
from enum import IntEnum

from . import crypto


COMMITTEE = "committee"  # the committee's party name; enclaves take deliveries from it only


class UnknownParty(Exception):
    pass


class RunFailed(Exception):
    """The task cannot go on; the run ends in a failed report."""


class DeliveryDropped(RunFailed):
    """The fault plan refused the frame; no reply will come."""


class RemoteError(RunFailed):
    """An rpc peer refused the call; the text is its ``Nack``'s, ``"Type: message"``."""


class MessageKind(IntEnum):
    SubmitTask = 1
    ConfDeliver = 2
    InstallProg = 3
    RaHandshake1 = 4
    RaHandshake2 = 5
    KeyDeliver = 6
    ModelEnvelope = 8
    ChunkUpload = 9
    LedgerRead = 10
    LedgerReply = 11
    Heartbeat = 12
    InitModel = 13
    ResendRequest = 14
    Ack = 15
    Ping = 16
    Nack = 17


_FRAME_HEADER = struct.Struct(">IB")  # payload length, kind


@dataclass(frozen=True)
class Frame:
    kind: MessageKind
    payload: bytes

    def to_bytes(self) -> bytes:
        return _FRAME_HEADER.pack(len(self.payload), int(self.kind)) + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "Frame":
        if len(data) < _FRAME_HEADER.size:
            raise ValueError("frame shorter than header")
        length, tag = _FRAME_HEADER.unpack_from(data, 0)
        payload = data[_FRAME_HEADER.size:]
        if len(payload) != length:
            raise ValueError("frame length mismatch")
        return cls(MessageKind(tag), payload)


class FaultPlan:
    """A run's fault schedule, built once from its ``FaultEvent`` list; each
    seam asks it one question. Drop counts are the plan's own, so the events
    are never used up."""

    def __init__(self, events=()) -> None:
        self._drops = []  # [kind or None, src or None, dest or None, frames left]
        self._killed_at: dict[tuple[int, str], list[int]] = {}
        self._down: set[str] = set()  # the parties of killed nodes
        self._bad_installs: set[int] = set()
        self._forged_rounds: set[int] = set()
        for ev in events:
            if ev.kind == "drop":
                kind = MessageKind[ev.message_kind] if ev.message_kind else None
                self._drops.append([kind, ev.src, ev.dest, ev.count])
            elif ev.kind == "kill_node":
                self._killed_at.setdefault((ev.round, ev.phase), []).append(ev.node)
            elif ev.kind == "tamper_install":
                self._bad_installs.add(ev.node)
            elif ev.kind == "tamper_chunk":
                self._forged_rounds.add(ev.round)

    def check(self, kind: MessageKind, src: str, dest: str) -> None:
        """Raise DeliveryDropped if a drop rule with frames left matches,
        using one of them up, or if ``dest`` is a killed node's party."""
        for rule in self._drops:
            if rule[3] and all(want in (None, got) for want, got in zip(rule, (kind, src, dest))):
                rule[3] -= 1
                raise DeliveryDropped(f"{kind.name} {src}->{dest}")
        if dest in self._down:
            raise DeliveryDropped(f"party {dest} unreachable")

    def kills(self, round_index: int, phase: str) -> list[int]:
        """The nodes killed at this point; from now on their parties refuse
        frames and :meth:`killed` holds for them."""
        victims = self._killed_at.get((round_index, phase), [])
        self._down.update(f"node:{n}" for n in victims)
        return victims

    def killed(self, node: int) -> bool:
        return f"node:{node}" in self._down

    def bad_install(self, node: int) -> bool:
        return node in self._bad_installs

    def forges(self, round_index: int) -> bool:
        return round_index in self._forged_rounds


@dataclass
class Tap:
    """Records every frame as (src, dest, raw bytes)."""

    frames: list[tuple[str, str, bytes]] = field(default_factory=list)


class Router:
    """In-process loopback transport with per-channel FIFO and RPC calls.

    Parties register either a mailbox (one-way ``send``/``recv``) or a
    handler ``fn(src, kind, payload) -> (kind, payload) | None`` for ``call``:
    it returns its success reply, or None for an empty ``Ack``, and what it
    raises goes back as a ``Nack``. All frames, both directions, pass through
    the taps.
    """

    def __init__(self, clock=None, faults: FaultPlan | None = None) -> None:
        self.clock = clock
        self.faults = faults if faults is not None else FaultPlan()
        self._mailboxes: dict[str, deque] = {}
        self._handlers: dict[str, object] = {}
        self.taps: list[Tap] = []
        self._bytes_per_ms: dict[tuple[str, str], float] = {}  # unshaped if absent
        self._channel_free_at: dict[tuple[str, str], float] = {}
        self.bytes_by_kind: dict[str, int] = {}

    # -- registration -------------------------------------------------------

    def register(self, party: str, handler=None) -> None:
        self._mailboxes[party] = deque()
        if handler is not None:
            self._handlers[party] = handler

    def add_tap(self) -> Tap:
        tap = Tap()
        self.taps.append(tap)
        return tap

    def shape_channel(self, src: str, dest: str, bytes_per_ms: float) -> None:
        self._bytes_per_ms[(src, dest)] = bytes_per_ms

    # -- delivery -----------------------------------------------------------

    def _check_parties(self, src: str, dest: str) -> None:
        if src not in self._mailboxes:
            raise UnknownParty(src)
        if dest not in self._mailboxes:
            raise UnknownParty(dest)

    def _pass_frame(self, src: str, dest: str, kind: MessageKind, payload: bytes) -> float:
        """Count, tap and check the frame with the fault plan; return its (virtual) arrival time.

        The frame's bytes are built only for a tap; counting needs its size."""
        size = _FRAME_HEADER.size + len(payload)
        self.bytes_by_kind[kind.name] = self.bytes_by_kind.get(kind.name, 0) + size
        if self.taps:
            raw = Frame(kind, payload).to_bytes()
            for tap in self.taps:
                tap.frames.append((src, dest, raw))
        self.faults.check(kind, src, dest)
        now = self.clock.now_ms if self.clock is not None else 0.0
        bytes_per_ms = self._bytes_per_ms.get((src, dest))
        if bytes_per_ms is None:
            return now
        start = max(now, self._channel_free_at.get((src, dest), 0.0))
        arrival = self._channel_free_at[(src, dest)] = start + size / bytes_per_ms
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
        """Deliver a frame to ``dest``'s handler and return its framed reply,
        ``(kind, payload, arrival)``; an exception the handler raises is
        answered with a ``Nack`` naming it.

        Raises DeliveryDropped when the fault plan eats the request or its
        reply (the caller models its own timeout/retry policy on top).
        """
        self._check_parties(src, dest)
        arrival = self._pass_frame(src, dest, kind, payload)
        handler = self._handlers.get(dest)
        if handler is None:
            raise UnknownParty(f"{dest} registered without a handler")
        try:
            reply = handler(src, kind, payload)
        except Exception as exc:  # the one place a handler's error becomes a reply
            reply = MessageKind.Nack, pack(NACK, f"{type(exc).__name__}: {exc}")
        if reply is None:
            reply = (MessageKind.Ack, b"")
        reply_kind, reply_payload = reply
        self._pass_frame(dest, src, reply_kind, reply_payload)
        return reply_kind, reply_payload, arrival


# ---------------------------------------------------------------------------
# Message bodies: one codec, one named schema per body
# ---------------------------------------------------------------------------

# Field codes. Integers are big-endian; a length or count is a u32.
U8, U32, U64, F64 = "B", "I", "Q", "d"
BYTES = "bytes"  # length-led bytes
TEXT = "text"  # length-led UTF-8
U32S = "u32s"  # count-led u32 list
# Lists of lists: the count, every length, then all the items.
BLOBS = "blobs"  # of byte strings
U32_ROWS = "u32 rows"  # of u32 lists
ENVELOPE = "envelope"  # crypto.Envelope in its own wire encoding

_FIXED = "fixed"
_LEN = struct.Struct(">I")


class Schema:
    """The field codes of one message body, in wire order; each run of
    fixed-width fields is one precompiled struct."""

    def __init__(self, *fields: str) -> None:
        self.fields = fields
        self.steps: list[tuple[str, struct.Struct | None, int]] = []
        for fixed, run in itertools.groupby(fields, key=lambda code: len(code) == 1):
            run = list(run)
            if fixed:
                self.steps.append((_FIXED, struct.Struct(">" + "".join(run)), len(run)))
            else:
                self.steps += [(code, None, 1) for code in run]

    def __repr__(self) -> str:
        return f"Schema{self.fields}"


def pack(schema: Schema, *values) -> bytes | memoryview:
    """Encode ``values`` field by field as ``schema`` lays them out.

    An envelope field takes a :class:`crypto.Envelope` or a
    :class:`crypto.Sealing`. With a sealing, the body is written into one
    fresh buffer, and each sealing is sealed in place there, in field order;
    the body is then a read-only view of that buffer."""
    if len(values) != len(schema.fields):
        raise ValueError(f"{schema} takes {len(schema.fields)} values, got {len(values)}")
    parts = []
    sealing = False
    i = 0
    for code, st, n in schema.steps:
        v = values[i]
        i += n
        if code == _FIXED:
            parts.append(st.pack(*values[i - n : i]))
        elif code == ENVELOPE:
            if isinstance(v, crypto.Sealing):
                parts.append(v)
                sealing = True
            else:
                parts += v.wire_parts()
        elif code == BYTES or code == TEXT:
            v = v.encode() if code == TEXT else v
            parts += (_LEN.pack(len(v)), v)
        else:
            lengths = v if code == U32S else list(map(len, v))
            parts.append(struct.pack(f">I{len(v)}I", len(v), *lengths))
            if code == BLOBS:
                parts += v
            elif code == U32_ROWS:
                parts.append(struct.pack(f">{sum(lengths)}I", *itertools.chain.from_iterable(v)))
    if not sealing:
        return b"".join(parts)
    sizes = [p.wire_size if isinstance(p, crypto.Sealing) else len(p) for p in parts]
    body = crypto.new_buffer(sum(sizes))
    off = 0
    for part, size in zip(parts, sizes):
        if isinstance(part, crypto.Sealing):
            part.seal_into(body[off : off + size])
        else:
            body[off : off + size] = part
        off += size
    return body.toreadonly()


def unpack(schema: Schema, body: bytes) -> tuple:
    """Decode a whole body; ValueError if it is truncated or has trailing bytes.
    Lists come back as tuples; bytes fields are slices of ``body``, so a
    memoryview body yields them without a copy."""
    out = []
    off = 0
    try:
        for code, st, _ in schema.steps:
            if code == _FIXED:
                out += st.unpack_from(body, off)
                off += st.size
                continue
            if code == ENVELOPE:
                env, off = crypto.parse_envelope_at(body, off)
                out.append(env)
                continue
            # an overrun below surfaces at the next field or the final check
            (n,) = _LEN.unpack_from(body, off)
            off += 4
            if code == BYTES or code == TEXT:
                v = body[off : off + n]
                out.append(str(v, "utf-8") if code == TEXT else v)
                off += n
                continue
            lengths = struct.unpack_from(f">{n}I", body, off)
            off += 4 * n
            if code == U32S:
                out.append(lengths)
                continue
            if code == BLOBS:
                items, at = body, off
                off += sum(lengths)
            else:
                items, at = struct.unpack_from(f">{sum(lengths)}I", body, off), 0
                off += 4 * len(items)
            rows = []
            for n in lengths:
                rows.append(items[at : at + n])
                at += n
            out.append(tuple(rows))
    except struct.error as exc:
        raise ValueError(f"{schema}: body truncated") from exc
    if off != len(body):
        raise ValueError(f"{schema}: body is {len(body)} bytes, its fields {off}")
    return tuple(out)


# Frame bodies, by the message kind that carries them. A request whose reply
# names no schema is answered with an empty Ack, ACK.
ACK = Schema()
NACK = Schema(TEXT)  # an error reply: "Type: message"
SUBMIT_TASK = Schema(BYTES)  # taskid
# taskid, code id, aggregation hook, enclave memory budget, paging, enclave rng seed
INSTALL_PROG = Schema(BYTES, BYTES, TEXT, U64, U8, U64)
INSTALLED = Schema(U64)  # the reply to InstallProg: eid
RA_HANDSHAKE1 = Schema(U64, TEXT, BYTES)  # eid, initiator, point
RA_HANDSHAKE2 = Schema(BYTES, BYTES)  # point, measurement
KEY_DELIVER = Schema(U64, U8, ENVELOPE)  # eid, purpose, sealed plaintext
MASTER_KEY = Schema(U8, BYTES, BYTES)  # owner to client: phase, owner's point, sealed key
MASTER_KEY_POINT = Schema(BYTES)  # the reply to MASTER_KEY phase 1: the client's point
CONF_DELIVER = Schema(BYTES, BYTES, U32_ROWS, U32_ROWS)  # see committee.Conf.to_bytes
INIT_MODEL = Schema(BYTES)  # model.encode_model bytes
MODEL_ENVELOPE = Schema(BYTES, U64, U64, ENVELOPE, ENVELOPE)  # taskid, round, sender, model, key
RESEND_REQUEST = Schema(U32, U64)  # slot, round
# A run of one node's chunks of one round: taskid, round, and per chunk its
# index, payload and signature. The reply, RECEIPT, holds one reason per
# chunk, in the run's order; an empty reason means the chunk was accepted.
CHUNK_UPLOAD = Schema(BYTES, U64, U32S, BLOBS, BLOBS)
RECEIPT = Schema(BLOBS)
LEDGER_READ = Schema(BYTES, U64)  # taskid, round
# The reply to LedgerRead: a completed round's chunks as columns, indices and
# payloads; the payloads come last, so they lie end to end in the frame.
LEDGER_ROUND = Schema(U32S, BLOBS)
HEARTBEAT = Schema(U64)  # node
PING = Schema()

# Plaintexts the committee seals into KeyDeliver envelopes, and the
# KEY_DELIVER purpose naming each.
KEY_PURPOSE_SK = 1
KEY_PURPOSE_ROUND = 2
KEY_PURPOSE_PARTITION = 3
PARTITION = Schema(U32S, U32)  # enclave.PartitionConf's fields: layers, chunk capacity
ROUND_ARM = Schema(U64, U32)  # round, the partition's first chunk index
# An enclave's output, sealed under the master key, before it is cut into chunks.
ENCLAVE_OUTPUT = Schema(ENVELOPE)


# ---------------------------------------------------------------------------
# RPC replies
# ---------------------------------------------------------------------------

def check_reply(kind: MessageKind, body: bytes, schema: Schema = ACK) -> tuple:
    """The fields of a successful reply under ``schema``; a ``Nack`` raises
    a RemoteError holding its text."""
    if kind == MessageKind.Nack:
        raise RemoteError(*unpack(NACK, body))
    return unpack(schema, body)
