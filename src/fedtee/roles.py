"""Protocol state machines: Task Owner, Client, and Execution Node.

Each role is a sequential state machine driven by its inbound messages; all
cross-role interaction happens over transport frames and ledger reads. Nodes
forward envelopes opaquely and never hold a symmetric key in the clear; the
master key travels from the owner to each client over a pairwise encrypted
channel, never as plaintext on a frame.
"""

from __future__ import annotations

import hashlib
import json
import struct
from random import Random

import numpy as np

from . import crypto, model, transport
from .committee import Conf, Slot
from .crypto import AuthFailure, Envelope, MeasurementMismatch, SymKey
from .enclave import EnclaveProgram, SgxHost, SignedChunk
from .ledger import Ledger, LedgerIncomplete, LedgerNotFound
from .transport import MessageKind, Router

_REMOTE_ERRORS = {
    "AuthFailure": AuthFailure,
    "MeasurementMismatch": MeasurementMismatch,
}


class RemoteError(Exception):
    """An rpc peer reported a protocol error it could not map locally."""


class DeliveryFailure(Exception):
    """A client could not be reached during key distribution."""


class Incomplete(Exception):
    """The requested round is not fully present on the ledger yet."""


def _ok(extra: dict | None = None):
    return MessageKind.Ack, json.dumps({"ok": True, **(extra or {})}).encode()


def _err(exc: Exception):
    return MessageKind.Ack, json.dumps(
        {"ok": False, "type": type(exc).__name__, "msg": str(exc)}
    ).encode()


def _check_reply(payload: bytes) -> dict:
    obj = json.loads(payload.decode())
    if not obj.get("ok", False):
        exc_type = _REMOTE_ERRORS.get(obj.get("type"))
        if exc_type is not None:
            raise exc_type(obj.get("msg", ""))
        raise RemoteError(f"{obj.get('type')}: {obj.get('msg')}")
    return obj


_OWNER_CHANNEL_TAG = hashlib.sha256(b"owner-client-master-key-channel").digest()


# ---------------------------------------------------------------------------
# Execution node
# ---------------------------------------------------------------------------

class Node:
    """Hosts enclaves, buffers opaque envelopes, and relays signed outputs."""

    def __init__(self, node_id: int, router: Router, eid_allocator=None) -> None:
        self.node_id = node_id
        self.party = f"node:{node_id}"
        self.router = router
        self.host = SgxHost(eid_allocator)
        self.eid_by_task: dict[bytes, int] = {}
        # (taskid, round) -> sender -> (env_m, env_k); ciphertext only
        self.pending: dict[tuple[bytes, int], dict[int, tuple[Envelope, Envelope]]] = {}
        self.confs: dict[bytes, Conf] = {}  # taskid -> the committee's schedule
        self.last_output = None
        self.tamper_next = False  # fault injection: forge one chunk before uploading
        self.tamper_install = False  # fault injection: install altered program code
        router.register(self.party, handler=self.handle)

    def handle(self, src: str, kind: MessageKind, payload: bytes):
        try:
            if kind == MessageKind.InstallProg:
                return self._handle_install(payload)
            if kind == MessageKind.RaHandshake1:
                taskid, eid, initiator, point = transport.unpack_ra1(payload)
                point_out, measurement = self.host.ra_respond(eid, initiator, point)
                return MessageKind.RaHandshake2, transport.pack_ra2(point_out, measurement)
            if kind in (MessageKind.KeyDeliver, MessageKind.RoundDeliver):
                return self._handle_key_deliver(src, payload)
            if kind == MessageKind.ModelEnvelope:
                return self._handle_model_envelope(payload)
            if kind == MessageKind.ConfDeliver:
                conf = Conf.from_bytes(payload)
                self.confs[conf.taskid] = conf
                return _ok()
            if kind == MessageKind.Ping:
                return _ok()
        except Exception as exc:  # map protocol errors back to the caller
            return _err(exc)
        return _err(RemoteError(f"node cannot handle {kind.name}"))

    def _handle_install(self, payload: bytes):
        obj = json.loads(payload.decode())
        taskid = bytes.fromhex(obj["taskid"])
        code_id = bytes.fromhex(obj["code_id"])
        if self.tamper_install:
            code_id += b"\xee"  # a corrupt node loads something else
        program = EnclaveProgram(code_id, obj["hook"])
        eid = self.host.install(
            taskid,
            program,
            epc_budget=int(obj["epc_budget"]),
            paging_enabled=bool(obj["paging"]),
            rng_seed=int(obj["rng_seed"]),
        )
        self.eid_by_task[taskid] = eid
        return _ok({"eid": eid})

    def _handle_key_deliver(self, src: str, payload: bytes):
        taskid, eid, purpose, env = transport.unpack_key_deliver(payload)
        if purpose == transport.KEY_PURPOSE_SK:
            self.host.getsk(eid, src, env)
        elif purpose == transport.KEY_PURPOSE_ROUND:
            self.host.set_round(eid, src, env)
        elif purpose == transport.KEY_PURPOSE_PARTITION:
            self.host.load_partition(eid, src, env)
        else:
            raise ValueError(f"unknown key-delivery purpose {purpose}")
        return _ok()

    def _handle_model_envelope(self, payload: bytes):
        taskid, round_index, sender, env_m, env_k = transport.unpack_model_envelope(payload)
        box = self.pending.setdefault((taskid, round_index), {})
        box[sender] = (env_m, env_k)
        return _ok()

    # -- driven by the orchestrator ------------------------------------------

    def _my_slot(self, taskid: bytes, round_index: int) -> tuple[Slot, tuple[int, ...]] | None:
        """This node's slot in the task's schedule and the round's subset for it."""
        conf = self.confs.get(taskid)
        if conf is None:
            return None
        for slot in conf.slots:
            if slot.node == self.node_id:
                return slot, conf.subset(round_index, slot.index)
        return None

    def missing_senders(self, taskid: bytes, round_index: int) -> list[int]:
        mine = self._my_slot(taskid, round_index)
        if mine is None:
            return []
        box = self.pending.get((taskid, round_index), {})
        return sorted(c for c in mine[1] if c not in box)

    def compute(self, taskid: bytes, round_index: int) -> dict:
        """Resume the enclave over the collected batch and upload every chunk.

        Returns receipts plus the byte counts the timing model charges.
        """
        slot, subset = self._my_slot(taskid, round_index)
        eid = self.eid_by_task[taskid]
        box = self.pending.get((taskid, round_index), {})
        inputs = [(box[c][0], box[c][1], c) for c in sorted(subset)]
        output = self.host.resume(eid, inputs, slot.layer_range)
        self.last_output = output
        receipts = []
        uploaded = 0
        if self.tamper_next and output.chunks:
            first = output.chunks[0]
            mutated = bytearray(first.payload)
            mutated[0] ^= 0x01
            payload = transport.pack_chunk_upload(
                first.taskid, first.round, first.index, bytes(mutated), first.sigma.raw
            )
            _, reply, _ = self.router.call(self.party, "ledger", MessageKind.ChunkUpload, payload)
            receipts.append(json.loads(reply.decode()))
            self.tamper_next = False
        for chunk in output.chunks:
            payload = transport.pack_chunk_upload(
                chunk.taskid, chunk.round, chunk.index, chunk.payload, chunk.sigma.raw
            )
            _, reply, _ = self.router.call(self.party, "ledger", MessageKind.ChunkUpload, payload)
            receipts.append(json.loads(reply.decode()))
            uploaded += len(chunk.payload)
        self.pending.pop((taskid, round_index), None)
        return {
            "receipts": receipts,
            "plain_input_bytes": output.plain_input_bytes,
            "paged_bytes": output.paged_bytes,
            "uploaded_bytes": uploaded,
        }

    def send_heartbeat(self, now_ms: float) -> None:
        self.router.send(
            self.party, "committee", MessageKind.Heartbeat,
            transport.pack_heartbeat(self.node_id, now_ms),
        )

    def buffer_bytes(self) -> bytes:
        """Everything node-resident outside enclave state, for leak scans."""
        parts = []
        for box in self.pending.values():
            for env_m, env_k in box.values():
                parts.append(env_m.to_bytes())
                parts.append(env_k.to_bytes())
        if self.last_output is not None:
            for chunk in self.last_output.chunks:
                parts.append(chunk.payload)
        return b"".join(parts)


# ---------------------------------------------------------------------------
# Ledger party (framed data-plane access to the storage contract)
# ---------------------------------------------------------------------------

class LedgerParty:
    def __init__(self, ledger: Ledger, router: Router) -> None:
        self.ledger = ledger
        self.router = router
        router.register("ledger", handler=self.handle)

    def handle(self, src: str, kind: MessageKind, payload: bytes):
        if kind == MessageKind.ChunkUpload:
            taskid, round_index, index, body, sig_raw = transport.unpack_chunk_upload(payload)
            chunk = SignedChunk(taskid, round_index, index, body, crypto.Signature(sig_raw))
            receipt = self.ledger.upload_global_model(src, chunk)
            return MessageKind.LedgerReply, json.dumps(
                {
                    "outcome": receipt.outcome,
                    "round": receipt.id[1],
                    "index": receipt.id[2],
                    "reason": receipt.reason,
                }
            ).encode()
        if kind == MessageKind.LedgerRead:
            taskid, round_index = transport.unpack_ledger_read(payload)
            try:
                chunks = self.ledger.read(taskid, round_index)
            except LedgerNotFound:
                return MessageKind.LedgerReply, struct.pack(">B", 1)
            except LedgerIncomplete as exc:
                body = struct.pack(">BI", 2, len(exc.present))
                body += b"".join(struct.pack(">I", i) for i in exc.present)
                return MessageKind.LedgerReply, body
            body = [struct.pack(">BI", 0, len(chunks))]
            for c in chunks:
                enc = transport.pack_chunk_upload(c.taskid, c.round, c.index, c.payload, c.sigma.raw)
                body.append(struct.pack(">I", len(enc)))
                body.append(enc)
            return MessageKind.LedgerReply, b"".join(body)
        return _err(RemoteError(f"ledger cannot handle {kind.name}"))


def read_round_chunks(router: Router, party: str, taskid: bytes, round_index: int):
    """Framed ledger read; returns SignedChunks or raises Incomplete/KeyError."""
    _, reply, _ = router.call(
        party, "ledger", MessageKind.LedgerRead, transport.pack_ledger_read(taskid, round_index)
    )
    (status,) = struct.unpack_from(">B", reply, 0)
    if status == 1:
        raise KeyError(f"no chunks for round {round_index}")
    if status == 2:
        (count,) = struct.unpack_from(">I", reply, 1)
        present = [struct.unpack_from(">I", reply, 5 + 4 * i)[0] for i in range(count)]
        raise Incomplete(f"indices present: {present}")
    (count,) = struct.unpack_from(">I", reply, 1)
    off = 5
    chunks = []
    for _ in range(count):
        (size,) = struct.unpack_from(">I", reply, off)
        off += 4
        taskid_, rnd, idx, body, sig = transport.unpack_chunk_upload(reply[off : off + size])
        chunks.append(SignedChunk(taskid_, rnd, idx, body, crypto.Signature(sig)))
        off += size
    return chunks


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------

class Client:
    """Trains (synthetically), encrypts, submits, and tracks the global model."""

    def __init__(self, uid: int, router: Router, seed: int) -> None:
        self.uid = uid
        self.party = f"client:{uid}"
        self.router = router
        self.rng = Random(_party_seed(seed, self.party))
        self.msk: SymKey | None = None
        self.m_glob: model.WeightVector | None = None
        self.round = 0
        self.taskid: bytes | None = None
        self.measurement: bytes | None = None
        self.conf: Conf | None = None
        self.ssk_by_enclave: dict[int, SymKey] = {}
        # slot index -> (node, eid, encoded plaintext slice); re-encrypted on failover
        self.cached_payloads: dict[int, tuple[int, int, bytes]] = {}
        self.synth_seed = seed
        self.int_mode = False
        self.perturb = 0.05
        self.sentinel: bytes | None = None
        self._dh_priv = None
        router.register(self.party, handler=self.handle)

    def handle(self, src: str, kind: MessageKind, payload: bytes):
        try:
            if kind == MessageKind.KeyDeliver:
                return self._handle_msk_delivery(src, payload)
            if kind == MessageKind.InitModel:
                update = model.decode_model(payload)
                self.taskid = update.taskid
                self.m_glob = update.weights
                return _ok()
            if kind == MessageKind.ConfDeliver:
                self.conf = Conf.from_bytes(payload)
                self.taskid = self.conf.taskid
                self.measurement = self.conf.measurement
                return _ok()
            if kind == MessageKind.ResendRequest:
                obj = json.loads(payload.decode())
                self._resend(obj["slot"], obj["node"], obj["eid"], obj["round"])
                return _ok()
            if kind == MessageKind.Ping:
                return _ok()
        except Exception as exc:
            return _err(exc)
        return _err(RemoteError(f"client cannot handle {kind.name}"))

    def _handle_msk_delivery(self, src: str, payload: bytes):
        obj = json.loads(payload.decode())
        if obj["phase"] == 1:
            priv, point = crypto.ecdh_keypair(self.rng)
            self._dh_priv = priv
            return _ok({"point": point.hex()})
        env = Envelope.from_bytes(bytes.fromhex(obj["envelope"]))
        key = crypto.derive_session_key(
            self._dh_priv, bytes.fromhex(obj["point"]), src, 0, _OWNER_CHANNEL_TAG
        )
        self.msk = SymKey(crypto.ae_decrypt(key, env))
        return _ok()

    # -- one round ------------------------------------------------------------

    def attest(self, node: int, eid: int) -> SymKey:
        """Run the attestation handshake against an enclave on ``node``."""
        priv, point = crypto.ecdh_keypair(self.rng)
        _, reply, _ = self.router.call(
            self.party,
            f"node:{node}",
            MessageKind.RaHandshake1,
            transport.pack_ra1(self.taskid, eid, self.party, point),
        )
        peer_point, quoted = transport.unpack_ra2(reply)
        if quoted != self.measurement:
            raise MeasurementMismatch(
                f"enclave {eid} quotes {quoted.hex()[:16]}…, expected {self.measurement.hex()[:16]}…"
            )
        ssk = crypto.derive_session_key(priv, peer_point, self.party, eid, self.measurement)
        self.ssk_by_enclave[eid] = ssk
        return ssk

    def train(self, round_index: int) -> model.LocalUpdate:
        update = model.synth_local_update(
            self.m_glob,
            self.uid,
            round_index,
            self.synth_seed,
            taskid=self.taskid,
            perturb=self.perturb,
            int_mode=self.int_mode,
        )
        if self.sentinel is not None:
            _plant_sentinel(update.weights, self.sentinel)
        return update

    def client_round(self, round_index: int) -> list[float]:
        """Train, slice per partition, encrypt, and deliver to assigned nodes.

        Returns the arrival timestamps of the envelopes that got through;
        slots whose delivery was dropped stay cached for the resend path.
        """
        if round_index != self.round:
            raise RuntimeError(f"client {self.uid} is at round {self.round}, not {round_index}")
        update = self.train(round_index)
        self.cached_payloads.clear()
        arrivals = []
        for slot in self.conf.slots_for_client(round_index, self.uid):
            sliced = model.LocalUpdate(
                taskid=self.taskid,
                client=self.uid,
                round=round_index,
                weights=update.weights.slice_layers(slot.layer_range),
                dataset_size=update.dataset_size,
            )
            encoded = model.encode_model(sliced)
            self.cached_payloads[slot.index] = (slot.node, slot.eid, encoded)
            try:
                arrivals.append(self._encrypt_and_send(slot.node, slot.eid, round_index, encoded))
            except transport.DeliveryDropped:
                pass  # the straggler path re-sends from cache
        return arrivals

    def _encrypt_and_send(self, node: int, eid: int, round_index: int, encoded: bytes) -> float:
        if eid not in self.ssk_by_enclave:
            self.attest(node, eid)
        ssk = self.ssk_by_enclave[eid]
        env_m = crypto.ae_encrypt(
            ssk, crypto.model_aad(self.taskid, round_index, self.uid), encoded, rng=self.rng
        )
        env_k = crypto.ae_encrypt(
            ssk, crypto.msk_aad(self.taskid, round_index, self.uid), self.msk.raw, rng=self.rng
        )
        payload = transport.pack_model_envelope(self.taskid, round_index, self.uid, env_m, env_k)
        _, reply, arrival = self.router.call(
            self.party, f"node:{node}", MessageKind.ModelEnvelope, payload
        )
        _check_reply(reply)
        return arrival

    def _resend(self, slot_index: int, node: int, eid: int, round_index: int) -> None:
        """After failover: fresh attestation, re-encrypt the cached slice, re-send."""
        cached = self.cached_payloads.get(slot_index)
        if cached is None:
            raise RemoteError(f"client {self.uid} has nothing cached for slot {slot_index}")
        _, _, encoded = cached
        self.attest(node, eid)
        self.cached_payloads[slot_index] = (node, eid, encoded)
        self._encrypt_and_send(node, eid, round_index, encoded)

    def client_get_global(self, round_index: int) -> model.WeightVector:
        """Read the round's chunks, reassemble, decrypt, combine, advance."""
        chunks = read_round_chunks(self.router, self.party, self.taskid, round_index)
        got = decode_round_chunks(self.conf, self.msk, chunks, round_index)
        self.m_glob = got
        self.round = round_index + 1
        self.cached_payloads.clear()
        return got


def decode_round_chunks(conf: Conf, msk: SymKey, chunks, round_index: int) -> model.WeightVector:
    """Reassemble per-slot ciphertexts, decrypt under the master key, merge.

    Slots are consumed in ascending partition index, which is the combination
    order the aggregation math expects.
    """
    by_index = {c.index: c for c in chunks}
    parts = []
    for slot in sorted(conf.slots, key=lambda s: s.index):
        base, n = slot.chunk_base, slot.n_chunks
        try:
            blob = b"".join(by_index[base + i].payload for i in range(n))
        except KeyError as exc:
            raise Incomplete(f"round {round_index} missing chunk {exc}") from exc
        env = Envelope.from_bytes(blob)
        if env.aad != crypto.output_aad(conf.taskid, round_index, base):
            raise AuthFailure(f"slot {slot.index} output bound to a different context")
        payload = crypto.ae_decrypt(msk, env)
        parts.append(model.decode_partial(payload))
    return model.combine_partials(parts)


def _party_seed(seed: int, party: str) -> int:
    digest = hashlib.sha256(struct.pack(">Q", seed & (2**64 - 1)) + party.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _plant_sentinel(wv: model.WeightVector, sentinel: bytes) -> None:
    values = np.frombuffer(sentinel, dtype="<f8")
    first = wv.layers[0].values
    if len(first) < len(values):
        raise ValueError("layer 0 too small to carry the sentinel")
    first[: len(values)] = values


# ---------------------------------------------------------------------------
# Task owner
# ---------------------------------------------------------------------------

class TaskOwner:
    """Creates the task, distributes the initial model and the master key."""

    def __init__(self, router: Router, ledger: Ledger, seed: int) -> None:
        self.party = "owner"
        self.router = router
        self.ledger = ledger
        self.rng = Random(_party_seed(seed, self.party))
        self.msk: SymKey | None = None
        self.taskid: bytes | None = None
        self.m_init: model.WeightVector | None = None
        self.phase = "created"
        router.register(self.party, handler=lambda s, k, p: _ok())

    def owner_initialize(self, taskid: bytes, m_init: model.WeightVector, clients: list[int]) -> None:
        """Deploy the task record on the ledger and hand clients the initial model."""
        self.taskid = taskid
        self.m_init = m_init
        self.ledger.create_task(0, taskid)
        body = model.encode_model(model.LocalUpdate(taskid, 0, 0, m_init, 1))
        for uid in clients:
            _, reply, _ = self.router.call(self.party, f"client:{uid}", MessageKind.InitModel, body)
            _check_reply(reply)
        self.phase = "running"

    def owner_key_exchange(self, clients: list[int]) -> SymKey:
        """Generate the master key and deliver it pairwise, never in clear."""
        self.msk = SymKey(self.rng.randbytes(crypto.KEY_BYTES))
        failed = []
        for uid in clients:
            try:
                self._deliver_msk(uid)
            except transport.DeliveryDropped:
                failed.append(uid)
        if failed:
            raise DeliveryFailure(f"master key not delivered to clients {failed}")
        return self.msk

    def _deliver_msk(self, uid: int) -> None:
        dest = f"client:{uid}"
        priv, point = crypto.ecdh_keypair(self.rng)
        _, reply, _ = self.router.call(
            self.party, dest, MessageKind.KeyDeliver, json.dumps({"phase": 1}).encode()
        )
        obj = _check_reply(reply)
        key = crypto.derive_session_key(
            priv, bytes.fromhex(obj["point"]), self.party, 0, _OWNER_CHANNEL_TAG
        )
        env = crypto.ae_encrypt(key, b"msk-delivery", self.msk.raw, rng=self.rng)
        _, reply, _ = self.router.call(
            self.party,
            dest,
            MessageKind.KeyDeliver,
            json.dumps(
                {"phase": 2, "point": point.hex(), "envelope": env.to_bytes().hex()}
            ).encode(),
        )
        _check_reply(reply)

    def get_global_model(self, conf: Conf, round_index: int) -> model.WeightVector:
        """Same read path as a client; the owner holds the master key too."""
        chunks = read_round_chunks(self.router, self.party, self.taskid, round_index)
        return decode_round_chunks(conf, self.msk, chunks, round_index)
