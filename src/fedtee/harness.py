"""Full-task orchestration: wiring, faults, rounds, metrics, checks.

One :func:`run_task` call executes all three protocol phases for every round
on a virtual clock, collects per-phase timings and traffic, and finishes with
an oracle comparison (a crypto-free, ledger-free re-execution with the same
seeds) plus authenticity and confidentiality scans. The process-level
contract is exit code 0 iff every acceptance check passed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import committee as committee_mod
from . import crypto, model, transport
from .committee import Committee, TaskSpec
from .config import SENTINEL, RunConfig, initial_model, plant_sentinel
from .enclave import EnclaveProgram, make_eid_allocator
from .ledger import CHAIN_PRESETS, Ledger, apply_chain_model
from .roles import Client, LedgerParty, Node, TaskOwner
from .transport import MessageKind, Router, RunFailed

PHASE_SEND = "SendModeltoSGX"
PHASE_AGG = "Aggregate"
PHASE_CHAIN = "SendResulttoChain"

# Virtual-clock charges of enclave compute, in nanoseconds per byte; the
# committee charges recovery.
PROC_NS_PER_BYTE = 1.0
PAGING_NS_PER_BYTE = 10.0

# Leak scan: haystack bytes per block, and log2 of the window filter's size.
SCAN_BLOCK = 1 << 20
SCAN_TABLE_BITS = 20
_HASH_MUL = np.uint64(0x9E3779B97F4A7C15)
_HASH_SHIFT = np.uint64(64 - SCAN_TABLE_BITS)


@dataclass
class VirtualClock:
    now_ms: float = 0.0

    def advance(self, ms: float) -> None:
        if ms < 0:
            raise ValueError("clock only moves forward")
        self.now_ms += ms


@dataclass
class RunReport:
    rounds: list[dict] = field(default_factory=list)
    traffic_bytes_by_kind: dict[str, int] = field(default_factory=dict)
    receipts: list[dict] = field(default_factory=list)
    verification: dict = field(default_factory=dict)
    round_model_digests: list[str] = field(default_factory=list)
    final_model_digest: str | None = None
    events: list[str] = field(default_factory=list)
    stalled: bool = False
    ok: bool = False
    # plaintext per-round globals, kept in memory for verification only
    round_models: list = field(default_factory=list, repr=False)

    def to_json(self) -> str:
        obj = {
            "rounds": self.rounds,
            "traffic_bytes_by_kind": self.traffic_bytes_by_kind,
            "receipts": self.receipts,
            "verification": self.verification,
            "round_model_digests": self.round_model_digests,
            "final_model_digest": self.final_model_digest,
            "events": self.events,
            "stalled": self.stalled,
            "ok": self.ok,
        }
        return json.dumps(obj, sort_keys=True, indent=2)

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    def summary_lines(self) -> list[str]:
        lines = [f"rounds completed: {len(self.rounds)}  ok={self.ok}  stalled={self.stalled}"]
        for i, r in enumerate(self.rounds):
            p = r["phases"]
            lines.append(
                f"  round {i}: {PHASE_SEND}={p[PHASE_SEND]:.3f}ms "
                f"{PHASE_AGG}={p[PHASE_AGG]:.3f}ms {PHASE_CHAIN}={p[PHASE_CHAIN]:.3f}ms "
                f"accepted={r['accepted']} rejected={r['rejected']}"
            )
        for name, outcome in self.verification.items():
            lines.append(f"  check {name}: {outcome}")
        return lines


# ---------------------------------------------------------------------------
# Traffic model
# ---------------------------------------------------------------------------

def traffic_vanilla_fl(n_clients: int, rounds: int, model_mb: float) -> float:
    """Per-task traffic of plain federated averaging, in MB: every client
    downloads the global model and uploads its local model once per round."""
    return 2.0 * n_clients * rounds * model_mb


def traffic_fedtee(n_clients: int, rounds: int, model_mb: float) -> float:
    """Adds one on-chain publication of the (encrypted) global model per round."""
    if n_clients == 0:
        return 0.0  # empty task never runs, nothing reaches the chain
    return traffic_vanilla_fl(n_clients, rounds, model_mb) + rounds * model_mb


# ---------------------------------------------------------------------------
# Oracle: plaintext re-execution with the same seeds
# ---------------------------------------------------------------------------

def oracle_run(config: RunConfig, subsets_by_round: list[list[int]] | None = None):
    """Crypto-free, ledger-free re-execution; returns per-round global models.

    ``subsets_by_round`` overrides the planned participant sets (used after a
    straggler was excluded); by default the schedule's selection is used.
    Each update is folded into the round's sum as it is drawn, so the run
    holds its round models, one sum and at most two updates.
    """
    m = initial_model(config)
    out = []
    clients = list(range(config.n_clients))
    for r in range(config.rounds):
        if subsets_by_round is not None:
            participants = subsets_by_round[r]
        else:
            participants = committee_mod.select_participants(
                clients, config.participation, r, config.seed,
                config.uniform_random_participants,
            )
        updates = model.synth_round(
            m, participants, r, config.seed,
            taskid=config.taskid_bytes,
            int_mode=config.int_mode,
        )
        m = model.fedavg(_planted(updates) if config.sentinel else updates)
        out.append(m)
    return out


def _planted(updates):
    """Each update with the sentinel written into it, as it arrives."""
    for u in updates:
        plant_sentinel(u.weights)
        yield u


# ---------------------------------------------------------------------------
# Leak scan
# ---------------------------------------------------------------------------

class NeedleScan:
    """A set of needles, indexed once, to count in any number of haystacks.

    The leak scan's needles are the 16-byte sentinel and keys and the 32-byte
    signing scalar, so a needle must be at least 16 bytes long. Its windows
    ``needle[k:k+8]``, ``k`` in 0..7, are marked in a hash table over 8-byte
    words. An occurrence at offset ``s`` holds the word at the multiple of 8
    in ``s..s+7``, one of those windows, so one aligned pass, which hashes
    each 8-byte word of the haystack once, sees every occurrence.
    """

    def __init__(self, needles) -> None:
        self.needles = list(dict.fromkeys(needles))
        if any(len(n) < 16 for n in self.needles):
            raise ValueError("leak-scan needles must be at least 16 bytes long")
        self.by_word: dict[int, list[tuple[bytes, int]]] = {}
        for n in self.needles:
            for k in range(8):
                self.by_word.setdefault(int.from_bytes(n[k : k + 8], "little"), []).append((n, k))
        self.table = np.zeros(1 << SCAN_TABLE_BITS, dtype=bool)
        self.table[(np.fromiter(self.by_word, dtype=np.uint64) * _HASH_MUL) >> _HASH_SHIFT] = True
        self.keep = max(map(len, self.needles), default=8) - 1

    def count(self, chunks) -> dict[bytes, int]:
        """Count every needle in ``b"".join(chunks)`` in one pass over the bytes.

        Each count equals ``b"".join(chunks).count(needle)``: matches do not
        overlap, and a match may cross chunk boundaries. The chunks are read
        in blocks of ``SCAN_BLOCK`` bytes, each led by the last ``max_len - 1``
        bytes of the block before. Only words that hit a marked slot are
        compared byte for byte, so the cost is linear in the haystack whatever
        the number of needles, and the filter can cost time but never change
        a count.
        """
        counts = dict.fromkeys(self.needles, 0)
        if not counts:
            return counts
        table, by_word, keep = self.table, self.by_word, self.keep
        free_from = dict.fromkeys(counts, 0)  # where each needle's next match may start
        carry, base = b"", 0  # base: offset of the current buffer's first byte
        for pieces in _blocks(chunks):
            buf = b"".join([carry, *pieces])
            found = set()  # one occurrence may hit several of its windows
            words = np.frombuffer(buf, dtype="<u8", count=len(buf) // 8)
            slots = ((words * _HASH_MUL) >> _HASH_SHIFT).view(np.int64)  # no cast to index
            hits = np.flatnonzero(table[slots])
            for i, word in zip(hits.tolist(), words[hits].tolist()):
                for n, k in by_word.get(word, ()):
                    start = 8 * i - k
                    # a start before the buffer lies wholly in the one before
                    if start >= 0 and buf.startswith(n, start):
                        found.add((base + start, n))
            # a match lying wholly in the carry was seen in the buffer before,
            # and starts below free_from whether it was counted then or not
            for pos, n in sorted(found):
                if pos >= free_from[n]:
                    counts[n] += 1
                    free_from[n] = pos + len(n)
            carry = buf[-keep:]
            base += len(buf) - len(carry)
        return counts


def _blocks(chunks):
    """The bytes of ``chunks`` in runs of views totalling ``SCAN_BLOCK``; the
    last run may be shorter."""
    pending, have = [], 0
    for chunk in chunks:
        while have + len(chunk) >= SCAN_BLOCK:
            view = memoryview(chunk)
            pending.append(view[: SCAN_BLOCK - have])
            yield pending
            chunk = view[SCAN_BLOCK - have :]
            pending, have = [], 0
        if len(chunk):
            pending.append(chunk)
            have += len(chunk)
    if have:
        yield pending


# ---------------------------------------------------------------------------
# Orchestrator
# ---------------------------------------------------------------------------

class TaskRun:
    """Wires one task end to end over the in-process transport.

    The harness only drives the world: it builds the parties and the fault
    plan, keeps the virtual clock, logs the nodes the plan kills, runs the
    rounds, and checks the result against the oracle. A killed node goes
    silent by itself; the committee finds it by its missed heartbeats,
    sends its own frames and makes every recovery decision.
    """

    def __init__(self, config: RunConfig):
        self.cfg = config
        self.clock = VirtualClock()
        self.router = Router(self.clock, transport.FaultPlan(config.faults))
        self.ledger = Ledger(transport.COMMITTEE, CHAIN_PRESETS[config.chain])
        self.ledger_party = LedgerParty(self.ledger, self.router)
        eid_alloc = make_eid_allocator()
        self.nodes = {i: Node(i, self.router, eid_alloc) for i in range(config.n_nodes)}
        self.committee = Committee(
            seed=config.seed,
            uniform_random=config.uniform_random_participants,
            router=self.router,
            ledger=self.ledger,
            nodes=self.nodes,
            straggler_policy=config.straggler_policy,
            straggler_max_retries=config.straggler_max_retries,
        )
        self.clients = {}
        for uid in range(config.n_clients):
            c = Client(uid, self.router, config.seed)
            c.int_mode = config.int_mode
            c.sentinel = config.sentinel
            self.clients[uid] = c
        self.owner = TaskOwner(self.router, self.ledger, config.seed)
        bandwidth = config.bandwidth_bytes_per_ms
        if bandwidth is not None:
            for uid in self.clients:
                for i in self.nodes:
                    self.router.shape_channel(f"client:{uid}", f"node:{i}", bandwidth)
        self.program = EnclaveProgram(b"fedavg-aggregation-contract-v1", "fedavg")
        self.tap = self.router.add_tap() if (config.taps or config.sentinel) else None
        # the committee logs into the report's event list as it acts
        self.report = RunReport(events=self.committee.events)

    # -- setup ---------------------------------------------------------------

    def setup(self) -> None:
        cfg = self.cfg
        self.committee.setup(sorted(self.nodes))
        spec = TaskSpec(
            taskid=cfg.taskid_bytes,
            clients=sorted(self.clients),
            model_meta=cfg.model_meta(),
            rounds=cfg.rounds,
            program=self.program,
            participation=cfg.participation,
            strategy=cfg.strategy,
        )
        self.owner.owner_initialize(cfg.taskid_bytes, initial_model(cfg), sorted(self.clients))
        kind, reply, _ = self.router.call(
            "owner", transport.COMMITTEE, MessageKind.SubmitTask,
            transport.pack(transport.SUBMIT_TASK, cfg.taskid_bytes),
        )
        transport.check_reply(kind, reply)
        self.committee.accept_task(spec, cfg.epc_budget, cfg.tx_capacity, cfg.paging)
        self.owner.owner_key_exchange(sorted(self.clients))
        self.committee.provision()

    # -- failure machinery -----------------------------------------------------

    def _kill_nodes(self, round_index: int, phase: str) -> bool:
        victims = self.router.faults.kills(round_index, phase)
        for node_id in victims:
            self.report.events.append(f"round {round_index}: node {node_id} killed ({phase})")
        return bool(victims)

    # -- rounds -----------------------------------------------------------------

    def run_round(self, round_index: int) -> None:
        cfg, committee = self.cfg, self.committee
        conf = committee.conf
        # a recovery that moves a partition sets these; one that moves none leaves them
        failover = {"Re-schedule": 0.0, "Connect": 0.0}

        self._kill_nodes(round_index, "between")
        failover.update(committee.fail_over(round_index))
        committee.open_round(round_index)

        round_start = self.clock.now_ms
        arrivals: list[float] = []
        for uid in conf.rounds[round_index].participants:
            arrivals.extend(self.clients[uid].client_round(round_index))
        send_phase = max(arrivals, default=round_start) - round_start

        if self._kill_nodes(round_index, "collect"):
            failover.update(committee.fail_over(round_index))
        committee.collect(round_index)

        compute_ms = []
        accepted = rejected = 0
        upload_payload_bytes = 0
        for slot in conf.slots:
            result = self.nodes[slot.node].compute(cfg.taskid_bytes, round_index)
            compute_ms.append(
                (
                    result["plain_input_bytes"] * PROC_NS_PER_BYTE
                    + result["paged_bytes"] * PAGING_NS_PER_BYTE
                ) / 1e6
            )
            upload_payload_bytes += result["uploaded_bytes"]
            for rec in result["receipts"]:
                self.report.receipts.append(rec)
                if rec["outcome"] == "accepted":
                    accepted += 1
                else:
                    rejected += 1
        # layermax runs its partitions one after another, the others in parallel
        aggregate_phase = sum(compute_ms) if cfg.strategy == "layermax" else max(compute_ms)
        self.clock.advance(aggregate_phase)

        chain_ms = apply_chain_model(upload_payload_bytes, self.ledger.params)
        self.clock.advance(chain_ms)

        # A client keeps its uploads for resends within the round, but no
        # client learns that the round closed, so caches held until each
        # client's next round would still be alive in verify(); drop them here.
        for client in self.clients.values():
            client.cached_updates.clear()
        try:  # the owner's read reports a round the ledger cannot serve
            global_model = self.owner.get_global_model(conf, round_index)
        except (crypto.AuthFailure, ValueError, model.MalformedModel) as exc:
            raise RunFailed(str(exc)) from exc
        self.report.round_models.append(global_model)
        self.report.round_model_digests.append(global_model.digest())

        self.report.rounds.append(
            {
                "phases": {
                    PHASE_SEND: send_phase,
                    PHASE_AGG: aggregate_phase,
                    PHASE_CHAIN: chain_ms,
                },
                "failover": failover,
                "accepted": accepted,
                "rejected": rejected,
                "participants": list(conf.rounds[round_index].participants),
            }
        )

    # -- verification -------------------------------------------------------------

    def scan_leaks(self) -> dict:
        """Count forbidden byte patterns outside enclave and client state."""
        keys = []
        if self.owner.msk is not None:
            keys.append(self.owner.msk.raw)
        for c in self.clients.values():
            keys.extend(k.raw for k in c.ssk_by_enclave.values())
        keys.extend(k.raw for k in self.committee.ssk_by_eid.values())
        if self.committee.vk is not None:
            keys.append(self.committee.vk.secret_scalar_bytes())
        haystacks = []  # each one is scanned as the join of its chunks
        if self.tap is not None:
            haystacks.append([raw for _, _, raw in self.tap.frames])
        for node in self.nodes.values():
            haystacks.append([node.buffer_bytes()])
        haystacks.append(
            [c.payload for stored in self.ledger.by_round.values() for c in stored.values()]
        )
        scan = NeedleScan([SENTINEL, *keys])
        hits = {"sentinel": 0, "keys": 0}
        for chunks in haystacks:
            counts = scan.count(chunks)
            hits["sentinel"] += counts[SENTINEL]
            hits["keys"] += sum(counts[k] for k in keys)
        return hits

    def verify(self) -> None:
        cfg = self.cfg
        oracle = oracle_run(cfg, subsets_by_round=[rd["participants"] for rd in self.report.rounds])
        checks = {}
        end_to_end = matches_oracle(cfg, self.report, oracle)
        checks["end_to_end_matches_oracle"] = "pass" if end_to_end else "FAIL"

        expected_accepts = sum(r["accepted"] for r in self.report.rounds)
        stored = sum(len(s) for s in self.ledger.by_round.values())
        checks["ledger_stores_only_accepted"] = "pass" if stored == expected_accepts else "FAIL"

        if cfg.sentinel or cfg.taps:
            hits = self.scan_leaks()
            checks["confidentiality_sentinel_hits"] = (
                "pass" if hits["sentinel"] == 0 else f"FAIL ({hits['sentinel']} hits)"
            )
            checks["confidentiality_key_hits"] = (
                "pass" if hits["keys"] == 0 else f"FAIL ({hits['keys']} hits)"
            )
        self.report.verification = checks
        self.report.ok = all(v == "pass" for v in checks.values()) and not self.report.stalled

    def run(self) -> RunReport:
        """Set up, run every round, and verify; a run that cannot go on, or
        loses a frame it cannot do without, ends with its reason as the last
        event, and is not verified."""
        reason = None
        stage = "setup"
        try:
            self.setup()
            for r in range(self.cfg.rounds):
                stage = f"round {r}"
                self.run_round(r)
        except transport.DeliveryDropped as exc:
            reason = f"failed: dropped {exc}"
        except RunFailed as exc:
            reason = f"{'stalled' if self.committee.stalled else 'failed'}: {exc}"
        if reason is not None:
            self.report.events.append(f"{stage}: {reason}")
        self.report.stalled = self.committee.stalled
        self.report.traffic_bytes_by_kind = dict(self.router.bytes_by_kind)
        if reason is None:
            self.report.final_model_digest = self.report.round_model_digests[-1]
            self.verify()
        return self.report


def run_task(config: RunConfig) -> RunReport:
    return TaskRun(config).run()


def matches_oracle(cfg: RunConfig, report: RunReport, oracle_models) -> bool:
    """Every round's model of ``cfg``'s run against the oracle's, none missing.

    Bit-exact only on the dyadic grid: int mode without the sentinel, whose
    value is off the grid. Otherwise within 1e-9 relative (1e-12 absolute).
    """
    exact = cfg.int_mode and not cfg.sentinel
    return len(oracle_models) == len(report.round_models) and all(
        got.bit_equal(want) if exact else got.allclose(want, rel=1e-9, abs_tol=1e-12)
        for got, want in zip(report.round_models, oracle_models)
    )
