"""Append-only ledger with on-chain verification of enclave signatures.

Storage is write-once per (taskid, round, index); a chunk is stored only if
its signature verifies against the task's published verification key over the
canonical chunk encoding. All mutations pass through one serialized path (a
lock standing in for consensus ordering), so the final state is independent
of arrival interleaving. A configurable block model converts bytes written
into end-to-end latency for the supported chain presets.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

from . import crypto
from .enclave import SignedChunk, chunk_signing_bytes


class DuplicateTask(Exception):
    pass


class Unauthorized(Exception):
    pass


class LedgerNotFound(Exception):
    """No stored state for the requested (task, round)."""


class LedgerIncomplete(Exception):
    """Round still filling up; carries the indices present so far."""

    def __init__(self, present: list[int]):
        super().__init__(f"round incomplete, indices present: {present}")
        self.present = present


@dataclass(frozen=True)
class ChainParams:
    name: str
    block_interval_ms: float
    tx_capacity_bytes: int
    txs_per_block: int | None  # None = dynamically sized blocks


# The -mod preset halves the block interval; the dynamic preset packs a
# round's transactions into however large a block it needs.
CHAIN_PRESETS = {
    "fabric": ChainParams("fabric", 2000.0, 2 * 1024 * 1024, 30),
    "fabric-mod": ChainParams("fabric-mod", 1000.0, 2 * 1024 * 1024, 30),
    "tendermint": ChainParams("tendermint", 1000.0, 2 * 1024 * 1024, None),
}


def apply_chain_model(bytes_written: int, params: ChainParams) -> float:
    """Latency in ms for publishing ``bytes_written`` under the block model."""
    if bytes_written <= 0:
        return 0.0
    txs = math.ceil(bytes_written / params.tx_capacity_bytes)
    blocks = 1 if params.txs_per_block is None else math.ceil(txs / params.txs_per_block)
    return blocks * params.block_interval_ms


@dataclass(frozen=True)
class Receipt:
    outcome: str  # "accepted" | "rejected"
    id: tuple[bytes, int, int]  # (taskid, round, index)
    reason: str | None = None

    @property
    def accepted(self) -> bool:
        return self.outcome == "accepted"


@dataclass
class _TaskRecord:
    creator_eid: int
    round: int = 0
    expected_chunks: int | None = None
    vk_pk: bytes | None = None


@dataclass
class LedgerEvent:
    kind: str
    detail: dict = field(default_factory=dict)


class Ledger:
    """The storage contract plus the append-only map behind it."""

    def __init__(self, committee_id: str, params: ChainParams | None = None) -> None:
        self.committee_id = committee_id
        self.params = params or CHAIN_PRESETS["fabric"]
        self.storage: dict[tuple[bytes, int, int], SignedChunk] = {}
        self.tasks: dict[bytes, _TaskRecord] = {}
        self.receipts: list[Receipt] = []
        self.events: list[LedgerEvent] = []
        self._lock = threading.Lock()  # the consensus stand-in: one writer at a time

    # -- task lifecycle -----------------------------------------------------

    def create_task(self, eid: int, taskid: bytes) -> None:
        with self._lock:
            if taskid in self.tasks:
                raise DuplicateTask(taskid)
            self.tasks[taskid] = _TaskRecord(creator_eid=eid)
            self.events.append(LedgerEvent("create", {"taskid": taskid.hex(), "eid": eid}))

    def set_expected_chunks(self, sender: str, taskid: bytes, count: int) -> None:
        with self._lock:
            if sender != self.committee_id:
                raise Unauthorized(sender)
            self._record(taskid).expected_chunks = count

    def upload_pk(self, sender: str, taskid: bytes, vk_pk: bytes) -> Receipt:
        """Record the verification key; only the committee principal may."""
        with self._lock:
            rec = self._record(taskid)
            if sender != self.committee_id:
                raise Unauthorized(f"{sender} may not upload a verification key")
            rotated = rec.vk_pk is not None
            rec.vk_pk = vk_pk
            self.events.append(
                LedgerEvent("upload_pk", {"taskid": taskid.hex(), "rotated": rotated})
            )
            return Receipt("accepted", (taskid, rec.round, -1))

    def _record(self, taskid: bytes) -> _TaskRecord:
        try:
            return self.tasks[taskid]
        except KeyError:
            raise LedgerNotFound(f"unknown task {taskid!r}") from None

    # -- writes -------------------------------------------------------------

    def upload_global_model(self, sender: str, chunk: SignedChunk) -> Receipt:
        """Store a chunk iff the success predicate holds; write-once per slot."""
        with self._lock:
            receipt = self._try_store(chunk)
            self.receipts.append(receipt)
            return receipt

    def _try_store(self, chunk: SignedChunk) -> Receipt:
        ident = (chunk.taskid, chunk.round, chunk.index)
        rec = self.tasks.get(chunk.taskid)
        if rec is None:
            return Receipt("rejected", ident, "UnknownTask")
        if rec.vk_pk is None:
            return Receipt("rejected", ident, "NoKey")
        if chunk.round != rec.round:
            return Receipt("rejected", ident, "WrongRound")
        if ident in self.storage:
            return Receipt("rejected", ident, "DuplicateIndex")
        if rec.expected_chunks is not None and not (0 <= chunk.index < rec.expected_chunks):
            return Receipt("rejected", ident, "IndexOutOfRange")
        message = chunk_signing_bytes(chunk.taskid, chunk.round, chunk.index, chunk.payload)
        try:
            public = crypto.load_public_key(rec.vk_pk)
        except ValueError:
            return Receipt("rejected", ident, "BadSignature")
        if not crypto.sig_verify(public, message, chunk.sigma):
            return Receipt("rejected", ident, "BadSignature")
        self.storage[ident] = chunk
        if rec.expected_chunks is not None:
            present = sum(
                1 for i in range(rec.expected_chunks)
                if (chunk.taskid, rec.round, i) in self.storage
            )
            if present == rec.expected_chunks:
                rec.round += 1
        return Receipt("accepted", ident)

    # -- reads --------------------------------------------------------------

    def read(self, taskid: bytes, round_index: int) -> list[SignedChunk]:
        """All accepted chunks for a completed round, ordered by index."""
        with self._lock:
            rec = self._record(taskid)
            present = sorted(
                idx for (tid, rnd, idx) in self.storage if tid == taskid and rnd == round_index
            )
            if not present:
                raise LedgerNotFound(f"no chunks for task {taskid!r} round {round_index}")
            if rec.expected_chunks is not None and round_index >= rec.round:
                raise LedgerIncomplete(present)
            return [self.storage[(taskid, round_index, i)] for i in present]

    def current_round(self, taskid: bytes) -> int:
        with self._lock:
            return self._record(taskid).round
