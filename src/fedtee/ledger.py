"""Append-only ledger with on-chain verification of enclave signatures.

Storage is write-once per (taskid, round, index); a chunk is stored only if
its signature verifies against the task's published verification key over the
canonical chunk encoding. Accepted chunks are indexed per (taskid, round), so
a store costs O(1) besides its signature check: the round completes once its
own index holds every expected chunk, and a read sorts only that round. The
verification key is loaded once, when it is uploaded. All mutations pass
through one serialized path (a lock standing in for consensus ordering), so
the final state is independent of arrival interleaving. A run of chunks
(:meth:`Ledger.upload_run`) is stored under one hold of the lock: its
signatures are checked together, on the worker pool when the run is long,
then its chunks are stored one by one. A configurable block model converts
bytes written into end-to-end latency for the supported chain presets.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

from cryptography.hazmat.primitives.asymmetric import ec

from . import crypto
from .enclave import SignedChunk, chunk_signed_parts


class DuplicateTask(Exception):
    pass


class Unauthorized(Exception):
    pass


class LedgerNotFound(Exception):
    """No stored state for the requested (task, round)."""


class LedgerIncomplete(Exception):
    """Round still filling up; carries the indices present so far."""

    def __init__(self, round_index: int, present: list[int], expected: int):
        super().__init__(f"round {round_index} has {len(present)} of {expected} chunks")
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
    round: int = 0
    expected_chunks: int | None = None
    vk_pk: bytes | None = None
    vk: ec.EllipticCurvePublicKey | None = None  # vk_pk loaded; None if it does not load


class Ledger:
    """The storage contract plus the append-only map behind it."""

    def __init__(self, committee_id: str, params: ChainParams | None = None) -> None:
        self.committee_id = committee_id
        self.params = params or CHAIN_PRESETS["fabric"]
        # accepted chunks: (taskid, round) -> {index: chunk}
        self.by_round: dict[tuple[bytes, int], dict[int, SignedChunk]] = {}
        self.tasks: dict[bytes, _TaskRecord] = {}
        self._lock = threading.RLock()  # the consensus stand-in: one writer at a time

    # -- task lifecycle -----------------------------------------------------

    def create_task(self, taskid: bytes) -> None:
        with self._lock:
            if taskid in self.tasks:
                raise DuplicateTask(taskid)
            self.tasks[taskid] = _TaskRecord()

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
            rec.vk_pk = vk_pk
            try:
                rec.vk = crypto.load_public_key(vk_pk)
            except ValueError:  # every later chunk then fails its signature check
                rec.vk = None
            return Receipt("accepted", (taskid, rec.round, -1))

    def _record(self, taskid: bytes) -> _TaskRecord:
        try:
            return self.tasks[taskid]
        except KeyError:
            raise LedgerNotFound(f"unknown task {taskid!r}") from None

    # -- writes -------------------------------------------------------------

    def upload_global_model(self, sender: str, chunk: SignedChunk,
                            signed: bool | None = None) -> Receipt:
        """Store a chunk iff the success predicate holds; write-once per slot.
        ``signed``, if given, is its signature's verdict under the task's key."""
        with self._lock:
            ident = (chunk.taskid, chunk.round, chunk.index)
            reason = self._refusal(chunk)
            if reason is None and not (self._verify(chunk) if signed is None else signed):
                reason = "BadSignature"
            if reason is not None:
                return Receipt("rejected", ident, reason)
            stored = self.by_round.setdefault((chunk.taskid, chunk.round), {})
            stored[chunk.index] = chunk
            rec = self.tasks[chunk.taskid]
            n = rec.expected_chunks
            # len() screens out all but about one check per round; all() keeps the
            # exact predicate when expected_chunks changes mid-round
            if n is not None and len(stored) >= n and all(i in stored for i in range(n)):
                rec.round += 1
            return Receipt("accepted", ident)

    def upload_run(self, sender: str, chunks: list[SignedChunk]) -> list[Receipt]:
        """Store a run of one task's chunks in order, each through
        :meth:`upload_global_model`, and return their receipts in that order.

        Under one hold of the lock, the chunks that would reach their
        signature check, the first per index, are checked together, and each
        verdict is passed by position to its chunk's store. Every other chunk
        is checked as a single upload is, so the receipts and the number of
        checks are those of uploading the chunks one by one."""
        if not chunks:
            return []
        taskid = chunks[0].taskid
        with self._lock:
            rec = self.tasks.get(taskid)
            vk = rec.vk if rec is not None else None
            todo, indices = {}, set()  # position in the run -> chunk
            for pos, c in enumerate(chunks if vk is not None else ()):
                if c.taskid == taskid and c.index not in indices and self._refusal(c) is None:
                    todo[pos] = c
                    indices.add(c.index)
            verdicts = crypto.sig_verify_all(vk, [
                (c.sigma, chunk_signed_parts(c.taskid, c.round, c.index, c.payload))
                for c in todo.values()
            ])
            # a key uploaded during the check, re-entrantly, voids its verdicts
            ok = dict(zip(todo, verdicts)) if todo and rec.vk is vk else {}
            return [self.upload_global_model(sender, c, ok.get(p)) for p, c in enumerate(chunks)]

    def _refusal(self, chunk: SignedChunk) -> str | None:
        """Why ``chunk`` may not be stored now, short of its signature; None if
        only its signature is left to check."""
        rec = self.tasks.get(chunk.taskid)
        if rec is None:
            return "UnknownTask"
        if rec.vk_pk is None:
            return "NoKey"
        if chunk.round != rec.round:
            return "WrongRound"
        if chunk.index in self.by_round.get((chunk.taskid, chunk.round), ()):
            return "DuplicateIndex"
        n = rec.expected_chunks
        # with no declared count, the bound is what the signed encoding's u32 holds
        if not 0 <= chunk.index < (2**32 if n is None else n):
            return "IndexOutOfRange"
        return None

    def _verify(self, chunk: SignedChunk) -> bool:
        vk = self.tasks[chunk.taskid].vk
        message = chunk_signed_parts(chunk.taskid, chunk.round, chunk.index, chunk.payload)
        return vk is not None and crypto.sig_verify(vk, chunk.sigma, *message)

    # -- reads --------------------------------------------------------------

    def read(self, taskid: bytes, round_index: int) -> list[SignedChunk]:
        """All accepted chunks for a completed round, ordered by index."""
        with self._lock:
            rec = self._record(taskid)
            stored = self.by_round.get((taskid, round_index))
            if not stored:
                raise LedgerNotFound(f"no chunks for task {taskid!r} round {round_index}")
            present = sorted(stored)
            if rec.expected_chunks is not None and round_index >= rec.round:
                raise LedgerIncomplete(round_index, present, rec.expected_chunks)
            return [stored[i] for i in present]

    def current_round(self, taskid: bytes) -> int:
        with self._lock:
            return self._record(taskid).round
