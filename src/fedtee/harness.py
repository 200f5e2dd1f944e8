"""Full-task orchestration: provisioning, rounds, failover, metrics, checks.

One :func:`run_task` call executes all three protocol phases for every round
on a virtual clock, collects per-phase timings and traffic, and finishes with
an oracle comparison (a crypto-free, ledger-free re-execution with the same
seeds) plus authenticity and confidentiality scans. The process-level
contract is exit code 0 iff every acceptance check passed.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from random import Random

import numpy as np

from . import committee as committee_mod
from . import crypto, model, transport
from .committee import Committee, Conf, FailoverAction, NoSpareNodes, TaskSpec
from .config import SENTINEL, RunConfig, initial_model
from .enclave import EnclaveProgram, PartitionConf, make_eid_allocator
from .ledger import CHAIN_PRESETS, Ledger, apply_chain_model
from .roles import Client, LedgerParty, Node, TaskOwner
from .transport import MessageKind, Router

PHASE_SEND = "SendModeltoSGX"
PHASE_AGG = "Aggregate"
PHASE_CHAIN = "SendResulttoChain"

# Leak scan: haystack bytes per block, and log2 of the prefix filter's size.
SCAN_BLOCK = 1 << 20
SCAN_TABLE_BITS = 20
_HASH_MUL = np.uint64(0x9E3779B97F4A7C15)
_HASH_SHIFT = np.uint64(64 - SCAN_TABLE_BITS)


class RunFailed(Exception):
    pass


@dataclass
class VirtualClock:
    now_ms: float = 0.0

    def advance(self, ms: float) -> None:
        if ms < 0:
            raise ValueError("clock only moves forward")
        self.now_ms += ms


@dataclass
class RunReport:
    config_json: str
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
        updates = []
        for uid in sorted(participants):
            u = model.synth_local_update(
                m, uid, r, config.seed,
                taskid=config.taskid_bytes,
                perturb=config.perturb,
                int_mode=config.int_mode,
            )
            if config.sentinel:
                _plant(u.weights)
            updates.append(u)
        m = model.fedavg(updates)
        out.append(m)
    return out


def _plant(wv: model.WeightVector) -> None:
    wv.layers[0].values[:2] = np.frombuffer(SENTINEL, dtype="<f8")


# ---------------------------------------------------------------------------
# Leak scan
# ---------------------------------------------------------------------------

def count_needles(chunks, needles) -> dict[bytes, int]:
    """Count every needle in ``b"".join(chunks)`` in one pass over the bytes.

    Each count equals ``b"".join(chunks).count(needle)``: matches do not
    overlap, and a match may cross chunk boundaries. The chunks are read in
    blocks of ``SCAN_BLOCK`` bytes, each led by the last ``max_len - 1`` bytes
    of the block before. Every 8-byte word of a block, at each of the 8
    alignments, is hashed into a table marking the needles' 8-byte prefixes;
    only words that hit a marked slot are compared byte for byte. So the cost
    is linear in the haystack whatever the number of needles, and the filter
    can cost time but never change a count.
    """
    counts = dict.fromkeys(needles, 0)
    if any(len(n) < 8 for n in counts):
        raise ValueError("leak-scan needles must be at least 8 bytes long")
    if not counts:
        return counts
    by_prefix: dict[int, list[bytes]] = {}
    for n in counts:
        by_prefix.setdefault(int.from_bytes(n[:8], "little"), []).append(n)
    table = np.zeros(1 << SCAN_TABLE_BITS, dtype=bool)
    table[(np.fromiter(by_prefix, dtype=np.uint64) * _HASH_MUL) >> _HASH_SHIFT] = True
    keep = max(map(len, counts)) - 1
    free_from = dict.fromkeys(counts, 0)  # where each needle's next match may start

    def blocks():
        pending, have = [], 0
        for chunk in chunks:
            view = memoryview(chunk)
            while len(view):
                piece = view[: SCAN_BLOCK - have]
                pending.append(piece)
                have += len(piece)
                view = view[len(piece):]
                if have == SCAN_BLOCK:
                    yield b"".join(pending)
                    pending, have = [], 0
        if have:
            yield b"".join(pending)

    carry, base = b"", 0  # base: offset of the current block's first byte
    for block in blocks():
        buf = carry + block
        found = []
        for align in range(min(8, len(buf) - 7)):
            words = np.frombuffer(buf, dtype="<u8", count=(len(buf) - align) // 8, offset=align)
            slots = ((words * _HASH_MUL) >> _HASH_SHIFT).view(np.int64)  # no cast to index
            for i in np.flatnonzero(table[slots]):
                pos = align + 8 * int(i)
                for n in by_prefix.get(int(words[i]), ()):
                    if buf.startswith(n, pos):
                        found.append((base + pos, n))
        # a match lying wholly in the carry was seen in the block before, and
        # starts below free_from whether it was counted then or not
        for pos, n in sorted(found):
            if pos >= free_from[n]:
                counts[n] += 1
                free_from[n] = pos + len(n)
        carry = buf[-keep:]
        base += len(buf) - len(carry)
    return counts


# ---------------------------------------------------------------------------
# Orchestrator
# ---------------------------------------------------------------------------

class TaskRun:
    """Wires one task end to end over the in-process transport."""

    def __init__(self, config: RunConfig):
        self.cfg = config
        self.clock = VirtualClock()
        self.router = Router(self.clock)
        self.ledger = Ledger("committee", CHAIN_PRESETS[config.chain])
        self.ledger_party = LedgerParty(self.ledger, self.router)
        self.committee = Committee(
            seed=config.seed,
            interval_ms=config.heartbeat_interval_ms,
            threshold=config.failover_threshold,
            uniform_random=config.uniform_random_participants,
        )
        self.router.register("committee", handler=lambda s, k, p: (MessageKind.Ack, b"{\"ok\": true}"))
        self.rng = Random(config.seed ^ 0x5EED)
        eid_alloc = make_eid_allocator()
        self.nodes = {i: Node(i, self.router, eid_alloc) for i in range(config.n_nodes)}
        self.clients = {}
        for uid in range(config.n_clients):
            c = Client(uid, self.router, config.seed)
            c.int_mode = config.int_mode
            c.perturb = config.perturb
            if config.sentinel:
                c.sentinel = SENTINEL
            self.clients[uid] = c
        self.owner = TaskOwner(self.router, self.ledger, config.seed)
        if config.bandwidth_bytes_per_ms:
            shaping = transport.ChannelShaping(bytes_per_ms=config.bandwidth_bytes_per_ms)
            for uid in self.clients:
                for i in self.nodes:
                    self.router.shape_channel(f"client:{uid}", f"node:{i}", shaping)
        self.program = EnclaveProgram(b"fedavg-aggregation-contract-v1", "fedavg")
        self.tap = self.router.add_tap() if (config.taps or config.sentinel) else None
        self.killed: set[int] = set()
        self.conf: Conf | None = None
        self.ssk_by_eid: dict[int, crypto.SymKey] = {}
        self.report = RunReport(config_json=config.to_json())
        self.actual_subsets: list[list[int]] = []
        self._kills = {}
        for ev in config.faults:
            if ev.kind == "kill_node":
                self._kills.setdefault((ev.round, ev.phase), []).append(ev.node)
            elif ev.kind == "drop":
                self.router.fault_rules.append(
                    transport.FaultRule(
                        kind=MessageKind[ev.message_kind] if ev.message_kind else None,
                        src=ev.src,
                        dest=ev.dest,
                        count=ev.count,
                    )
                )
        self.tamper_rounds = {
            ev.round for ev in config.faults if ev.kind == "tamper_chunk"
        }
        for ev in config.faults:
            if ev.kind == "tamper_install":
                self.nodes[ev.node].tamper_install = True

    # -- setup ---------------------------------------------------------------

    def setup(self) -> None:
        cfg = self.cfg
        responding = set()
        for i in self.nodes:
            try:
                self.router.call("committee", f"node:{i}", MessageKind.Ping, b"")
                responding.add(i)
            except transport.DeliveryDropped:
                pass
        self.committee.setup(sorted(self.nodes), responding)

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
        self.router.call(
            "owner", "committee", MessageKind.SubmitTask,
            json.dumps({"taskid": cfg.taskid_bytes.hex()}).encode(),
        )
        self.conf = self.committee.accept_task(spec, cfg.epc_budget, cfg.tx_capacity, cfg.paging)
        self.owner.owner_key_exchange(sorted(self.clients))

        self.ledger.upload_pk("committee", cfg.taskid_bytes, self.committee.vk.public_bytes())
        for slot in self.conf.slots:
            self._install_slot_with_failover(slot)
        self._deliver_conf()

    def _install_slot_with_failover(self, slot, arm_round: int | None = None) -> None:
        """Provision one partition; a node failing attestation is marked dead
        and the partition migrates to the lowest spare node."""
        while True:
            try:
                self._install_slot(slot, arm_round)
                return
            except crypto.MeasurementMismatch:
                bad = slot.node
                self.committee.mark_dead(bad)
                self.killed.add(bad)
                self.router.set_unreachable(f"node:{bad}")
                self.report.events.append(
                    f"provisioning: node {bad} failed attestation, partition {slot.index} replaced"
                )
                occupied = {s.node for s in self.conf.slots if s is not slot}
                spares = [n for n in self.committee.alive if n not in occupied]
                if not spares:
                    self.report.stalled = True
                    raise RunFailed(f"no spare node after attestation failure on {bad}")
                slot.node = min(spares)
                slot.eid = None

    def _install_slot(self, slot, arm_round: int | None = None) -> None:
        """Install, attest, and provision one partition's enclave."""
        cfg = self.cfg
        node_party = f"node:{slot.node}"
        _, reply, _ = self.router.call(
            "committee", node_party, MessageKind.InstallProg,
            json.dumps(
                {
                    "taskid": cfg.taskid_bytes.hex(),
                    "code_id": self.program.code_id.hex(),
                    "hook": self.program.aggregation_hook,
                    "epc_budget": cfg.epc_budget,
                    "paging": cfg.paging,
                    "rng_seed": committee_mod.derive_seed(cfg.seed, f"enclave:{slot.index}:{slot.node}"),
                }
            ).encode(),
        )
        obj = json.loads(reply.decode())
        if not obj.get("ok"):
            raise RunFailed(f"install failed on node {slot.node}: {obj}")
        eid = int(obj["eid"])
        slot.eid = eid

        priv, point = crypto.ecdh_keypair(self.committee.rng)
        _, reply, _ = self.router.call(
            "committee", node_party, MessageKind.RaHandshake1,
            transport.pack_ra1(cfg.taskid_bytes, eid, "committee", point),
        )
        peer_point, quoted = transport.unpack_ra2(reply)
        if quoted != self.program.measurement:
            raise crypto.MeasurementMismatch(
                f"node {slot.node} installed a program measuring {quoted.hex()[:16]}…"
            )
        ssk = crypto.derive_session_key(priv, peer_point, "committee", eid, quoted)
        self.ssk_by_eid[eid] = ssk

        env = crypto.ae_encrypt(
            ssk,
            crypto.keydeliver_aad(cfg.taskid_bytes, b"sk_vk"),
            self.committee.vk.secret_scalar_bytes(),
            rng=self.committee.rng,
        )
        self._key_deliver(node_party, eid, transport.KEY_PURPOSE_SK, env, MessageKind.KeyDeliver)

        self._deliver_partition(slot)

        if arm_round is not None:
            self._arm_slot(slot, arm_round)

    def _deliver_partition(self, slot) -> None:
        cfg = self.cfg
        part = PartitionConf(
            layer_range=slot.layer_range,
            client_subset=(),
            chunk_base=slot.chunk_base,
            tx_capacity=cfg.tx_capacity,
        )
        env = crypto.ae_encrypt(
            self.ssk_by_eid[slot.eid],
            crypto.keydeliver_aad(cfg.taskid_bytes, b"partition"),
            part.to_json_bytes(),
            rng=self.committee.rng,
        )
        self._key_deliver(
            f"node:{slot.node}", slot.eid, transport.KEY_PURPOSE_PARTITION, env,
            MessageKind.RoundDeliver,
        )

    def _key_deliver(self, node_party, eid, purpose, env, kind) -> None:
        _, reply, _ = self.router.call(
            "committee", node_party, kind,
            transport.pack_key_deliver(self.cfg.taskid_bytes, eid, purpose, env),
        )
        obj = json.loads(reply.decode())
        if not obj.get("ok"):
            raise RunFailed(f"key delivery failed: {obj}")

    def _arm_slot(self, slot, round_index: int) -> None:
        taskid = self.cfg.taskid_bytes
        plain = struct.pack(">H", len(taskid)) + taskid + struct.pack(">Q", round_index)
        env = crypto.ae_encrypt(
            self.ssk_by_eid[slot.eid],
            crypto.keydeliver_aad(taskid, b"round"),
            plain,
            rng=self.committee.rng,
        )
        self._key_deliver(
            f"node:{slot.node}", slot.eid, transport.KEY_PURPOSE_ROUND, env, MessageKind.RoundDeliver
        )

    def _deliver_conf(self) -> None:
        body = self.conf.to_bytes()
        for uid in self.clients:
            self.router.call("committee", f"client:{uid}", MessageKind.ConfDeliver, body)
        for i, node in self.nodes.items():
            if i not in self.killed:
                try:
                    self.router.call("committee", f"node:{i}", MessageKind.ConfDeliver, body)
                except transport.DeliveryDropped:
                    pass

    # -- failure machinery -----------------------------------------------------

    def _apply_kills(self, round_index: int, phase: str) -> bool:
        victims = self._kills.get((round_index, phase), [])
        for node_id in victims:
            self.killed.add(node_id)
            self.router.set_unreachable(f"node:{node_id}")
            self.report.events.append(f"round {round_index}: node {node_id} killed ({phase})")
        return bool(victims)

    def _heartbeat_pass(self) -> None:
        for i, node in self.nodes.items():
            if i not in self.killed:
                node.send_heartbeat(self.clock.now_ms)
        while True:
            msg = self.router.recv("committee")
            if msg is None:
                break
            src, kind, payload, _ = msg
            if kind == MessageKind.Heartbeat:
                node_id, ts = transport.unpack_heartbeat(payload)
                self.committee.heartbeat(node_id, ts)

    def _detect_and_failover(self, round_index: int, resend: bool) -> None:
        """Run heartbeat intervals until pending deaths are detected, then
        migrate the affected partitions and (optionally) trigger re-sends."""
        pending = self.killed - self.committee.monitor.dead
        iters = (self.committee.monitor.threshold + 2) if pending else 1
        actions: list[FailoverAction] = []
        for _ in range(iters):
            self.clock.advance(self.committee.monitor.interval_ms)
            self._heartbeat_pass()
            try:
                actions = self.committee.monitor_tick(self.clock.now_ms)
            except NoSpareNodes as exc:
                self.report.stalled = True
                self.report.events.append(f"round {round_index}: stalled: {exc}")
                raise RunFailed(str(exc)) from exc
            if actions:
                break
        if not actions:
            return
        self.clock.advance(self.cfg.cost.reschedule_ms)
        reschedule_ms = self.cfg.cost.reschedule_ms
        connect_ms = 0.0
        for action in actions:
            slot = self.conf.slots[action.slot_index]
            self._install_slot_with_failover(slot, arm_round=round_index)
            connect_ms += self.cfg.cost.connect_ms_per_attestation
            subset = self.conf.subset(round_index, slot.index)
            if resend:
                self._deliver_conf()
                for uid in subset:
                    self._request_resend(uid, slot, round_index)
                    connect_ms += self.cfg.cost.connect_ms_per_attestation
            else:
                connect_ms += self.cfg.cost.connect_ms_per_attestation * len(subset)
            self.report.events.append(
                f"round {round_index}: partition {slot.index} moved "
                f"{action.dead_node} -> {action.new_node}"
            )
        if not resend:
            self._deliver_conf()
        self.clock.advance(connect_ms)
        self._failover_phases = {"Re-schedule": reschedule_ms, "Connect": connect_ms}

    # -- straggler handling ----------------------------------------------------

    def _resolve_stragglers(self, round_index: int) -> None:
        cfg = self.cfg
        for attempt in range(cfg.straggler_max_retries + 1):
            missing = {}
            for slot in self.conf.slots:
                node = self.nodes[slot.node]
                gone = node.missing_senders(cfg.taskid_bytes, round_index)
                if gone:
                    missing[slot.index] = gone
            if not missing:
                return
            self.clock.advance(cfg.cost.straggler_timeout_ms)
            if attempt == cfg.straggler_max_retries:
                if cfg.straggler_policy == "exclude":
                    self._replan_excluding(round_index, missing)
                    return
                raise RunFailed(f"stragglers never delivered: {missing}")
            for slot_index, uids in missing.items():
                slot = self.conf.slots[slot_index]
                self.report.events.append(
                    f"round {round_index}: stragglers {uids} on partition {slot_index}"
                )
                for uid in uids:
                    try:
                        self._request_resend(uid, slot, round_index)
                    except transport.DeliveryDropped:
                        pass

    def _request_resend(self, uid: int, slot, round_index: int) -> None:
        """Ask a client to re-send its cached slice to the slot's enclave."""
        self.router.call(
            "committee", f"client:{uid}", MessageKind.ResendRequest,
            json.dumps(
                {"slot": slot.index, "node": slot.node, "eid": slot.eid, "round": round_index}
            ).encode(),
        )

    def _replan_excluding(self, round_index: int, missing: dict[int, list[int]]) -> None:
        """Drop the stragglers from this round's plan and rebuild the layout."""
        cfg = self.cfg
        rc = self.conf.rounds[round_index]
        excluded = sorted({uid for uids in missing.values() for uid in uids})
        for slot in self.conf.slots:
            subset = tuple(u for u in rc.subsets[slot.index] if u not in excluded)
            if not subset:
                raise RunFailed(f"partition {slot.index} lost all clients to stragglers")
            rc.subsets[slot.index] = subset
        rc.participants = tuple(u for u in rc.participants if u not in excluded)
        self.conf.lay_out_chunks(round_index, cfg.model_meta(), cfg.tx_capacity)
        for slot in self.conf.slots:
            self._deliver_partition(slot)
        self.ledger.set_expected_chunks(
            "committee", cfg.taskid_bytes, self.conf.expected_chunks_per_round
        )
        self._deliver_conf()
        self.report.events.append(
            f"round {round_index}: excluded stragglers {excluded}, replanned layout"
        )

    # -- rounds -----------------------------------------------------------------

    def run_round(self, round_index: int) -> None:
        cfg = self.cfg
        self._failover_phases = {"Re-schedule": 0.0, "Connect": 0.0}

        self._apply_kills(round_index, "between")
        self._detect_and_failover(round_index, resend=False)

        if self.conf.lay_out_chunks(round_index, cfg.model_meta(), cfg.tx_capacity):
            for slot in self.conf.slots:
                self._deliver_partition(slot)
            self._deliver_conf()
        self.ledger.set_expected_chunks(
            "committee", cfg.taskid_bytes, self.conf.expected_chunks_per_round
        )
        for slot in self.conf.slots:
            self._arm_slot(slot, round_index)

        round_start = self.clock.now_ms
        arrivals: list[float] = []
        participants = self.conf.rounds[round_index].participants
        for uid in sorted(participants):
            arrivals.extend(self.clients[uid].client_round(round_index))
        send_phase = max(arrivals, default=round_start) - round_start

        if self._apply_kills(round_index, "collect"):
            self._detect_and_failover(round_index, resend=True)

        self._resolve_stragglers(round_index)
        self.actual_subsets.append(
            sorted({u for s in self.conf.slots for u in self.conf.subset(round_index, s.index)})
        )

        serial_ms = 0.0
        parallel_ms = 0.0
        accepted = rejected = 0
        upload_payload_bytes = 0
        for slot in self.conf.slots:
            node = self.nodes[slot.node]
            if round_index in self.tamper_rounds:
                node.tamper_next = True
            result = node.compute(cfg.taskid_bytes, round_index)
            dur = (
                result["plain_input_bytes"] * cfg.cost.proc_ns_per_byte
                + result["paged_bytes"] * cfg.cost.paging_ns_per_byte
            ) / 1e6
            if slot.serial:
                serial_ms += dur
            else:
                parallel_ms = max(parallel_ms, dur)
            upload_payload_bytes += result["uploaded_bytes"]
            for rec in result["receipts"]:
                self.report.receipts.append(rec)
                if rec["outcome"] == "accepted":
                    accepted += 1
                else:
                    rejected += 1
        aggregate_phase = serial_ms + parallel_ms
        self.clock.advance(aggregate_phase)

        chain_ms = apply_chain_model(upload_payload_bytes, self.ledger.params)
        self.clock.advance(chain_ms)

        if self.ledger.current_round(cfg.taskid_bytes) != round_index + 1:
            raise RunFailed(
                f"round {round_index} incomplete on the ledger "
                f"(at {self.ledger.current_round(cfg.taskid_bytes)})"
            )

        for uid in sorted(self.clients):
            self.clients[uid].client_get_global(round_index)
        global_model = self.owner.get_global_model(self.conf, round_index)
        self.report.round_models.append(global_model)
        self.report.round_model_digests.append(global_model.digest())

        self.report.rounds.append(
            {
                "phases": {
                    PHASE_SEND: send_phase,
                    PHASE_AGG: aggregate_phase,
                    PHASE_CHAIN: chain_ms,
                },
                "failover": dict(self._failover_phases),
                "accepted": accepted,
                "rejected": rejected,
                "participants": list(self.conf.rounds[round_index].participants),
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
        keys.extend(k.raw for k in self.ssk_by_eid.values())
        if self.committee.vk is not None:
            keys.append(self.committee.vk.secret_scalar_bytes())
        haystacks = []  # each one is scanned as the join of its chunks
        if self.tap is not None:
            haystacks.append([raw for _, _, raw in self.tap.frames])
        for node in self.nodes.values():
            haystacks.append([node.buffer_bytes()])
        haystacks.append([c.payload for c in self.ledger.storage.values()])
        hits = {"sentinel": 0, "keys": 0}
        for chunks in haystacks:
            counts = count_needles(chunks, [SENTINEL, *keys])
            hits["sentinel"] += counts[SENTINEL]
            hits["keys"] += sum(counts[k] for k in keys)
        return hits

    def verify(self) -> None:
        cfg = self.cfg
        oracle = oracle_run(cfg, subsets_by_round=self.actual_subsets)
        checks = {}
        end_to_end = matches_oracle(self.report, oracle)
        checks["end_to_end_matches_oracle"] = "pass" if end_to_end else "FAIL"

        expected_accepts = sum(r["accepted"] for r in self.report.rounds)
        stored = len(self.ledger.storage)
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
        self.setup()
        try:
            for r in range(self.cfg.rounds):
                self.run_round(r)
        except RunFailed:
            self.report.ok = False
            self.report.traffic_bytes_by_kind = dict(self.router.bytes_by_kind)
            return self.report
        if self.report.round_models:
            self.report.final_model_digest = self.report.round_models[-1].digest()
        self.report.traffic_bytes_by_kind = dict(self.router.bytes_by_kind)
        self.verify()
        return self.report


def run_task(config: RunConfig) -> RunReport:
    return TaskRun(config).run()


def matches_oracle(report: RunReport, oracle_models) -> bool:
    """Every round's model against the oracle's, with no round missing.

    Bit-exact only on the dyadic grid: int mode without the sentinel, whose
    value is off the grid. Otherwise within 1e-9 relative (1e-12 absolute).
    """
    cfg = RunConfig.from_json(report.config_json)
    exact = cfg.int_mode and not cfg.sentinel
    return len(oracle_models) == len(report.round_models) and all(
        got.bit_equal(want) if exact else got.allclose(want, rel=1e-9, abs_tol=1e-12)
        for got, want in zip(report.round_models, oracle_models)
    )


def verify_report(report: RunReport, oracle_models) -> dict:
    """Standalone acceptance summary against an external oracle run."""
    checks = dict(report.verification)
    checks["external_oracle"] = "pass" if matches_oracle(report, oracle_models) else "FAIL"
    checks["all"] = "pass" if all(v == "pass" for v in checks.values()) else "FAIL"
    return checks
