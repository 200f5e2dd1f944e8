"""Protocol state machines: Task Owner, Client, and Execution Node.

Each role is a sequential state machine driven by its inbound messages; all
cross-role interaction happens over transport frames and ledger reads. Nodes
forward envelopes opaquely and never hold a symmetric key in the clear; the
master key travels from the owner to each client over a pairwise encrypted
channel, never as plaintext on a frame.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
from random import Random

from . import crypto, model, transport
from .committee import Conf, Slot, derive_seed
from .config import plant_sentinel
from .crypto import AuthFailure, Envelope, SymKey
from .enclave import EnclaveProgram, SgxHost, SignedChunk, attest
from .ledger import Ledger
from .transport import MessageKind, RemoteError, Router, RunFailed, check_reply, pack, unpack


class DeliveryFailure(RunFailed):
    """A client could not be reached during key distribution."""


_OWNER_CHANNEL_TAG = hashlib.sha256(b"owner-client-master-key-channel").digest()

# A ChunkUpload carries a node's next chunks while their payloads add up to at
# most this many bytes; a larger chunk goes alone, as it did before runs.
RUN_BYTES = 1 << 20


# ---------------------------------------------------------------------------
# Execution node
# ---------------------------------------------------------------------------

class Node:
    """Hosts enclaves, buffers opaque envelopes, and relays signed outputs."""

    def __init__(self, node_id: int, router: Router, eid_allocator) -> None:
        self.node_id = node_id
        self.party = f"node:{node_id}"
        self.router = router
        self.host = SgxHost(eid_allocator)
        # (taskid, round) -> sender -> (env_m, env_k); ciphertext only
        self.pending: dict[tuple[bytes, int], dict[int, tuple[Envelope, Envelope]]] = {}
        self.confs: dict[bytes, Conf] = {}  # taskid -> the committee's schedule
        router.register(self.party, handler=self.handle)

    def handle(self, src: str, kind: MessageKind, payload: bytes):
        if kind == MessageKind.InstallProg:
            return self._handle_install(payload)
        if kind == MessageKind.RaHandshake1:
            eid, initiator, point = unpack(transport.RA_HANDSHAKE1, payload)
            point_out, measurement = self.host.ra_respond(eid, initiator, point)
            return MessageKind.RaHandshake2, pack(transport.RA_HANDSHAKE2, point_out, measurement)
        if kind == MessageKind.KeyDeliver:
            eid, purpose, env = unpack(transport.KEY_DELIVER, payload)
            self.host.deliver(eid, src, purpose, env)
        elif kind == MessageKind.ModelEnvelope:
            self._handle_model_envelope(payload)
        elif kind == MessageKind.ConfDeliver:
            conf = Conf.from_bytes(payload)
            self.confs[conf.taskid] = conf
        elif kind == MessageKind.Ping:
            unpack(transport.PING, payload)
        else:
            raise RemoteError(f"node cannot handle {kind.name}")
        return None

    def _handle_install(self, payload: bytes):
        taskid, code_id, hook, epc_budget, paging, rng_seed = unpack(
            transport.INSTALL_PROG, payload
        )
        if self.router.faults.bad_install(self.node_id):
            code_id += b"\xee"  # a corrupt node loads something else
        program = EnclaveProgram(code_id, hook)
        eid = self.host.install(taskid, program, epc_budget, bool(paging), rng_seed)
        return MessageKind.Ack, pack(transport.INSTALLED, eid)

    def _handle_model_envelope(self, payload: bytes) -> None:
        # the envelopes stay views of the frame, buffered without a copy
        taskid, round_index, sender, env_m, env_k = unpack(
            transport.MODEL_ENVELOPE, memoryview(payload)
        )
        box = self.pending.setdefault((bytes(taskid), round_index), {})
        box[sender] = (env_m, env_k)

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
        """Resume the schedule's enclave over the collected batch and upload
        every chunk, in runs of up to ``RUN_BYTES`` of payload per frame.

        Returns receipts plus the byte counts the timing model charges.
        """
        slot, subset = self._my_slot(taskid, round_index)
        box = self.pending.get((taskid, round_index), {})
        inputs = [(box[c][0], box[c][1], c) for c in sorted(subset)]
        output = self.host.resume(slot.eid, inputs)
        chunks = output.chunks
        if self.router.faults.forges(round_index) and chunks:
            first = chunks[0]  # a corrupt node uploads a forged copy ahead of it
            mutated = bytearray(first.payload)
            mutated[0] ^= 0x01
            chunks = [dataclasses.replace(first, payload=bytes(mutated)), *chunks]
        receipts = []
        for run in _runs(chunks):
            receipts += self._upload_run(run)
        self.pending.pop((taskid, round_index), None)
        return {
            "receipts": receipts,
            "plain_input_bytes": output.plain_input_bytes,
            "paged_bytes": output.paged_bytes,
            "uploaded_bytes": sum(len(c.payload) for c in output.chunks),
        }

    def _upload_run(self, run: list[SignedChunk]) -> list[dict]:
        """One ChunkUpload frame for ``run``; its receipts, in the run's order."""
        body = pack(
            transport.CHUNK_UPLOAD, run[0].taskid, run[0].round, [c.index for c in run],
            [c.payload for c in run], [c.sigma.raw for c in run],
        )
        kind, reply, _ = self.router.call(self.party, "ledger", MessageKind.ChunkUpload, body)
        (reasons,) = check_reply(kind, reply, transport.RECEIPT)
        if len(reasons) != len(run):
            raise RunFailed(f"node {self.node_id}: {len(reasons)} receipts for a run of {len(run)} chunks")
        return [
            dict(outcome="rejected" if reason else "accepted", round=c.round, index=c.index,
                 reason=str(reason, "utf-8") or None)
            for c, reason in zip(run, reasons)
        ]

    def send_heartbeat(self) -> None:
        if self.router.faults.killed(self.node_id):
            return  # a dead node is silent
        self.router.send(
            self.party, transport.COMMITTEE, MessageKind.Heartbeat,
            pack(transport.HEARTBEAT, self.node_id),
        )

    def buffer_bytes(self) -> bytes:
        """Everything node-resident outside enclave state, for leak scans.

        That is the envelopes still pending. A node keeps no enclave output
        after uploading it: accepted chunks are on the ledger, which the
        scan reads, and a scanned run taps every upload frame."""
        parts = []
        for box in self.pending.values():
            for env_m, env_k in box.values():
                parts.append(env_m.to_bytes())
                parts.append(env_k.to_bytes())
        return b"".join(parts)


def _runs(chunks: list[SignedChunk]):
    """``chunks`` cut, in order, into runs whose payloads add up to at most
    ``RUN_BYTES``; a chunk larger than that is a run of its own."""
    run, size = [], 0
    for c in chunks:
        if run and size + len(c.payload) > RUN_BYTES:
            yield run
            run, size = [], 0
        run.append(c)
        size += len(c.payload)
    if run:
        yield run


# ---------------------------------------------------------------------------
# Ledger party (framed data-plane access to the storage contract)
# ---------------------------------------------------------------------------

class LedgerParty:
    """The ledger's framed data plane: chunk uploads and round reads.

    A closed round never changes, since the ledger stores chunks of the
    current round only. So the reply to a read of a closed round is built
    once and served to every reader; the party keeps the latest such reply."""

    def __init__(self, ledger: Ledger, router: Router) -> None:
        self.ledger = ledger
        self.router = router
        self._closed: tuple[tuple[bytes, int], bytes] | None = None  # (taskid, round), reply
        router.register("ledger", handler=self.handle)

    def handle(self, src: str, kind: MessageKind, payload: bytes):
        if kind == MessageKind.ChunkUpload:
            # The ledger stores a copy of each payload, not a view of the frame:
            # a view costs about 300 B per stored chunk (7% of a 4 KiB chunk),
            # and the copy is cheap next to hashing the payload for its signature.
            taskid, round_index, indices, bodies, sigs = unpack(transport.CHUNK_UPLOAD, payload)
            if not len(indices) == len(bodies) == len(sigs):
                raise ValueError("ChunkUpload columns differ in length")
            taskid = bytes(taskid)
            run = [
                SignedChunk(taskid, round_index, index, bytes(body), crypto.Signature(bytes(sig)))
                for index, body, sig in zip(indices, bodies, sigs)
            ]
            receipts = self.ledger.upload_run(src, run)
            return MessageKind.LedgerReply, pack(
                transport.RECEIPT, [(r.reason or "").encode() for r in receipts]
            )
        if kind == MessageKind.LedgerRead:
            taskid, round_index = unpack(transport.LEDGER_READ, payload)
            key = (bytes(taskid), round_index)
            if self._closed is not None and self._closed[0] == key:
                return MessageKind.LedgerReply, self._closed[1]
            chunks = self.ledger.read(taskid, round_index)
            reply = pack(
                transport.LEDGER_ROUND, [c.index for c in chunks], [c.payload for c in chunks]
            )
            if round_index < self.ledger.current_round(taskid):
                self._closed = (key, reply)
            return MessageKind.LedgerReply, reply
        raise RemoteError(f"ledger cannot handle {kind.name}")


def read_round_chunks(router: Router, party: str, taskid: bytes, round_index: int):
    """Framed ledger read of a completed round: its chunk indices, ascending,
    their payload lengths, and one read-only view of the payloads end to end.
    A round the ledger cannot serve, unknown or still incomplete, raises
    RemoteError naming the ledger's reason.

    The payloads are the reply's last field, so they already lie end to end
    in the frame and are read without a copy. The ledger checked every
    chunk's signature when it stored it; what a reader checks is the AEAD
    tag and context of each reassembled output."""
    kind, reply, _ = router.call(
        party, "ledger", MessageKind.LedgerRead, pack(transport.LEDGER_READ, taskid, round_index)
    )
    body = memoryview(reply)
    indices, payloads = check_reply(kind, body, transport.LEDGER_ROUND)
    lengths = [len(p) for p in payloads]
    return indices, lengths, body[len(body) - sum(lengths) :]


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------

class Client:
    """Trains (synthetically), encrypts, submits, and tracks the global model."""

    def __init__(self, uid: int, router: Router, seed: int) -> None:
        self.uid = uid
        self.party = f"client:{uid}"
        self.router = router
        self.rng = Random(derive_seed(seed, self.party))
        self.msk: SymKey | None = None
        self.m_glob: model.WeightVector | None = None
        self.round = 0  # the round m_glob is the start model of
        self.conf: Conf | None = None  # the committee's schedule: task id, measurement, slots
        self.ssk_by_enclave: dict[int, SymKey] = {}
        # slot index -> this round's slice; re-encoded and re-sealed on a resend
        self.cached_updates: dict[int, model.LocalUpdate] = {}
        self.synth_seed = seed
        self.int_mode = False
        self.sentinel = False  # plant SENTINEL in every update
        self._dh_priv = None
        router.register(self.party, handler=self.handle)

    def handle(self, src: str, kind: MessageKind, payload: bytes):
        if kind == MessageKind.KeyDeliver:
            return self._handle_msk_delivery(src, payload)
        if kind == MessageKind.InitModel:
            (encoded,) = unpack(transport.INIT_MODEL, memoryview(payload))
            self.m_glob = model.decode_model(encoded).weights  # the task comes with the Conf
        elif kind == MessageKind.ConfDeliver:
            self.conf = Conf.from_bytes(payload)
        elif kind == MessageKind.ResendRequest:
            self._resend(*unpack(transport.RESEND_REQUEST, payload))
        else:
            raise RemoteError(f"client cannot handle {kind.name}")
        return None

    def _handle_msk_delivery(self, src: str, payload: bytes):
        phase, owner_point, sealed = unpack(transport.MASTER_KEY, payload)
        if phase == 1:
            priv, point = crypto.ecdh_keypair(self.rng)
            self._dh_priv = priv
            return MessageKind.Ack, pack(transport.MASTER_KEY_POINT, point)
        key = crypto.derive_session_key(self._dh_priv, owner_point, src, 0, _OWNER_CHANNEL_TAG)
        self.msk = SymKey(crypto.ae_decrypt(key, Envelope.from_bytes(sealed)))
        return None

    # -- one round ------------------------------------------------------------

    def attest(self, node: int, eid: int) -> SymKey:
        """Run the attestation handshake against an enclave on ``node``."""
        ssk = attest(self.router, self.party, node, eid, self.conf.measurement, self.rng)
        self.ssk_by_enclave[eid] = ssk
        return ssk

    def train(self, round_index: int) -> model.LocalUpdate:
        update = model.synth_local_update(
            self.m_glob,
            self.uid,
            round_index,
            self.synth_seed,
            taskid=self.conf.taskid,
            int_mode=self.int_mode,
        )
        if self.sentinel:
            plant_sentinel(update.weights)
        return update

    def client_round(self, round_index: int) -> list[float]:
        """Train, slice per partition, encrypt, and deliver to assigned nodes.

        A client trains from the previous round's global model, which it reads
        from the ledger here unless it already holds it; a read the ledger
        refuses raises RunFailed. Returns the arrival
        timestamps of the envelopes that got through; slots whose delivery was
        dropped stay cached for the resend path.
        """
        if round_index < self.round:
            raise RuntimeError(f"client {self.uid} is at round {self.round}, not {round_index}")
        if round_index > self.round:
            try:
                self.client_get_global(round_index - 1)
            except RemoteError as exc:
                raise RunFailed(f"client {self.uid} cannot start round {round_index}: {exc}") from exc
        update = self.train(round_index)
        self.cached_updates.clear()
        arrivals = []
        for slot in self.conf.slots_for_client(round_index, self.uid):
            sliced = model.LocalUpdate(
                taskid=self.conf.taskid,
                client=self.uid,
                round=round_index,
                weights=update.weights.slice_layers(slot.layer_range),
                dataset_size=update.dataset_size,
            )
            self.cached_updates[slot.index] = sliced
            try:
                arrivals.append(self._seal_and_send(slot.node, slot.eid, sliced))
            except transport.DeliveryDropped:
                pass  # the straggler path re-sends from cache
        return arrivals

    def _seal_and_send(self, node: int, eid: int, update: model.LocalUpdate) -> float:
        """Encode the update straight into its frame, seal it there, and send."""
        if eid not in self.ssk_by_enclave:
            self.attest(node, eid)
        ssk = self.ssk_by_enclave[eid]
        taskid, r = self.conf.taskid, update.round
        counts = [len(l.values) for l in update.weights.layers]
        size = model.encoded_update_size(len(taskid), counts)
        payload = pack(
            transport.MODEL_ENVELOPE, taskid, r, self.uid,
            crypto.Sealing(
                ssk, crypto.model_aad(taskid, r, self.uid), size,
                functools.partial(model.encode_model, update), self.rng,
            ),
            crypto.Sealing(
                ssk, crypto.msk_aad(taskid, r, self.uid), crypto.KEY_BYTES,
                self.msk.raw, self.rng,
            ),
        )
        kind, reply, arrival = self.router.call(
            self.party, f"node:{node}", MessageKind.ModelEnvelope, payload
        )
        check_reply(kind, reply)
        return arrival

    def _resend(self, slot_index: int, round_index: int) -> None:
        """Fresh attestation to the slot's enclave as the latest schedule
        places it, then re-encode and re-seal the cached slice and re-send."""
        update = self.cached_updates.get(slot_index)
        if update is None or update.round != round_index:
            raise RemoteError(f"client {self.uid} has nothing cached for slot {slot_index}")
        slot = self.conf.slots[slot_index]
        self.attest(slot.node, slot.eid)
        self._seal_and_send(slot.node, slot.eid, update)

    def client_get_global(self, round_index: int) -> model.WeightVector:
        """Read the round's chunks, reassemble, decrypt, combine, advance."""
        chunks = read_round_chunks(self.router, self.party, self.conf.taskid, round_index)
        got = decode_round_chunks(self.conf, self.msk, chunks, round_index)
        self.m_glob = got
        self.round = round_index + 1
        return got


def decode_round_chunks(conf: Conf, msk: SymKey, chunks, round_index: int) -> model.WeightVector:
    """Split a round's chunks into one output envelope per slot, decrypt each
    under the master key, and merge them.

    Each slot's output starts on a fresh chunk, in ascending partition index
    (the combination order the aggregation math expects), and its envelope
    header gives its length. So the chunk runs are read off the data and not
    off ``conf``'s layout, which by the time a client reads a round may be the
    next round's. Each output must be bound to the chunk it starts at.

    ``chunks`` is ``(indices, lengths, data)`` as :func:`read_round_chunks`
    returns it: ``data`` holds the payloads end to end.
    """
    indices, lengths, data = chunks
    data = memoryview(data)
    starts = dict(zip(itertools.accumulate(lengths, initial=0), indices))
    parts, off = [], 0
    for slot in conf.slots:
        base = starts.get(off)
        if base is None:
            raise ValueError(f"round {round_index}: no output starts at byte {off}")
        env, off = crypto.parse_envelope_at(data, off)
        if env.aad != crypto.output_aad(conf.taskid, round_index, base):
            raise AuthFailure(f"output of partition {slot.index} bound to a different context")
        try:
            plain = crypto.ae_decrypt(msk, env)
        except AuthFailure as exc:
            raise AuthFailure(f"output of partition {slot.index} failed authentication") from exc
        parts.append(model.decode_partial(plain))
    if off != len(data):
        raise ValueError(f"round {round_index}: {len(data) - off} bytes after the last output")
    return model.combine_partials(parts)


# ---------------------------------------------------------------------------
# Task owner
# ---------------------------------------------------------------------------

class TaskOwner:
    """Creates the task, distributes the initial model and the master key."""

    def __init__(self, router: Router, ledger: Ledger, seed: int) -> None:
        self.party = "owner"
        self.router = router
        self.ledger = ledger
        self.rng = Random(derive_seed(seed, self.party))
        self.msk: SymKey | None = None
        self.taskid: bytes | None = None
        router.register(self.party, handler=self.handle)

    def handle(self, src: str, kind: MessageKind, payload: bytes):
        raise RemoteError(f"owner cannot handle {kind.name}")

    def owner_initialize(self, taskid: bytes, m_init: model.WeightVector, clients: list[int]) -> None:
        """Deploy the task record on the ledger and hand clients the initial model."""
        self.taskid = taskid
        self.ledger.create_task(taskid)
        encoded = model.encode_model(model.LocalUpdate(taskid, 0, 0, m_init, 1))
        body = pack(transport.INIT_MODEL, encoded)
        for uid in clients:
            kind, reply, _ = self.router.call(self.party, f"client:{uid}", MessageKind.InitModel, body)
            check_reply(kind, reply)

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
        kind, reply, _ = self.router.call(
            self.party, dest, MessageKind.KeyDeliver, pack(transport.MASTER_KEY, 1, b"", b"")
        )
        (client_point,) = check_reply(kind, reply, transport.MASTER_KEY_POINT)
        key = crypto.derive_session_key(priv, client_point, self.party, 0, _OWNER_CHANNEL_TAG)
        env = crypto.ae_encrypt(key, b"msk-delivery", self.msk.raw, rng=self.rng)
        kind, reply, _ = self.router.call(
            self.party, dest, MessageKind.KeyDeliver,
            pack(transport.MASTER_KEY, 2, point, env.to_bytes()),
        )
        check_reply(kind, reply)

    def get_global_model(self, conf: Conf, round_index: int) -> model.WeightVector:
        """Same read path as a client; the owner holds the master key too."""
        chunks = read_round_chunks(self.router, self.party, self.taskid, round_index)
        return decode_round_chunks(conf, self.msk, chunks, round_index)
