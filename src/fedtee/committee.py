"""Trusted coordinator: task parsing, partition planning, keys, failover.

The committee receives a task, selects the per-round participants, splits the
(layer x client) grid into partitions that respect the enclave memory budget,
assigns partitions to alive nodes, provisions signing keys, and watches
heartbeats so a dead node's partitions migrate to spares without stalling the
task. Planning is deterministic: one seed, one spec, and one alive set always
produce the same schedule.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass, field
from random import Random

from . import crypto, model
from .crypto import envelope_encoded_size
from .enclave import EnclaveProgram


class NoNodes(Exception):
    pass


class InsufficientNodes(Exception):
    pass


class CapacityInfeasible(Exception):
    """Even one (layer, client) cell exceeds the enclave budget."""


class NoSpareNodes(Exception):
    """Failover needed but no unused alive node remains; task is stalled."""


STRATEGIES = ("single", "clientmax", "layermax")


@dataclass
class TaskSpec:
    taskid: bytes
    clients: list[int]
    model_meta: dict[int, int]  # layer index -> element count
    rounds: int
    program: EnclaveProgram
    participation: float = 0.10
    strategy: str = "single"

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not (0.0 < self.participation <= 1.0):
            raise ValueError("participation must be in (0, 1]")
        if not self.model_meta:
            raise ValueError("model_meta must be non-empty")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")


@dataclass
class Slot:
    """One partition's fixed shape; the chunk run is laid out per round, and
    node/eid are filled at install time and change on failover."""

    index: int
    combine_group: int
    serial: bool
    layer_range: tuple[int, ...]
    chunk_base: int = 0
    n_chunks: int = 0
    node: int | None = None
    eid: int | None = None


@dataclass
class RoundConf:
    round: int
    participants: tuple[int, ...]
    # slot index -> the clients feeding that partition this round
    subsets: dict[int, tuple[int, ...]]


@dataclass
class Conf:
    """The complete schedule: fixed slots plus the per-round assignments.

    It is the one form of the schedule: the committee plans it, and clients
    and nodes receive it through :meth:`to_bytes` / :meth:`from_bytes`.
    """

    taskid: bytes
    measurement: bytes  # of the enclave program clients must attest
    slots: list[Slot]
    rounds: dict[int, RoundConf]
    expected_chunks_per_round: int = 0

    def subset(self, round_index: int, slot_index: int) -> tuple[int, ...]:
        return self.rounds[round_index].subsets[slot_index]

    def slots_for_client(self, round_index: int, client: int) -> list[Slot]:
        rc = self.rounds[round_index]
        return [s for s in self.slots if client in rc.subsets[s.index]]

    def lay_out_chunks(
        self, round_index: int, model_meta: dict[int, int], tx_capacity: int
    ) -> bool:
        """Give each slot a contiguous run of chunk indices, in slot order from
        zero, sized for this round's subsets; True if any run changed."""
        aad_len = len(crypto.output_aad(self.taskid, 0, 0))
        chunk_base = 0
        changed = False
        for slot in self.slots:
            counts = [model_meta[i] for i in slot.layer_range]
            payload = model.encoded_partial_size(len(self.subset(round_index, slot.index)), counts)
            n_chunks = -(-envelope_encoded_size(aad_len, payload) // tx_capacity)
            if (slot.chunk_base, slot.n_chunks) != (chunk_base, n_chunks):
                slot.chunk_base, slot.n_chunks = chunk_base, n_chunks
                changed = True
            chunk_base += n_chunks
        self.expected_chunks_per_round = chunk_base
        return changed

    def to_bytes(self) -> bytes:
        """Compact JSON: each slot's fields once, then per round (in order)
        only the participants and the subsets in slot order."""
        return json.dumps(
            {
                "taskid": self.taskid.hex(),
                "measurement": self.measurement.hex(),
                "expected_chunks_per_round": self.expected_chunks_per_round,
                "slots": [asdict(s) for s in self.slots],
                "rounds": [
                    [rc.participants, [rc.subsets[s.index] for s in self.slots]]
                    for _, rc in sorted(self.rounds.items())
                ],
            },
            separators=(",", ":"),
        ).encode()

    @classmethod
    def from_bytes(cls, data: bytes) -> "Conf":
        obj = json.loads(data)
        slots = [Slot(**{**s, "layer_range": tuple(s["layer_range"])}) for s in obj["slots"]]
        rounds = {
            r: RoundConf(
                r, tuple(participants), {s.index: tuple(c) for s, c in zip(slots, subsets)}
            )
            for r, (participants, subsets) in enumerate(obj["rounds"])
        }
        return cls(
            taskid=bytes.fromhex(obj["taskid"]),
            measurement=bytes.fromhex(obj["measurement"]),
            slots=slots,
            rounds=rounds,
            expected_chunks_per_round=obj["expected_chunks_per_round"],
        )


# ---------------------------------------------------------------------------
# Pure planning helpers
# ---------------------------------------------------------------------------

def derive_seed(seed: int, label: str) -> int:
    """Stable sub-seed for one labelled purpose under a master seed."""
    digest = hashlib.sha256(struct.pack(">Q", seed & (2**64 - 1)) + label.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def select_participants(
    clients: list[int],
    participation: float,
    round_index: int,
    seed: int,
    uniform_random: bool = False,
) -> tuple[int, ...]:
    """Seeded participant choice: round-robin by default, uniform on request."""
    ordered = sorted(clients)
    n = len(ordered)
    k = max(1, int(n * participation + 1e-9))
    if uniform_random:
        rng = Random(derive_seed(seed, f"participants:{round_index}"))
        return tuple(sorted(rng.sample(ordered, k)))
    start = (round_index * k) % n
    return tuple(sorted(ordered[(start + i) % n] for i in range(k)))


def _per_client_bytes(layer_counts: list[int], taskid_len: int) -> int:
    # What one client block costs inside an enclave: the encoded update plus
    # the 16-byte master-key rider that is decrypted alongside it.
    return model.encoded_update_size(taskid_len, layer_counts) + crypto.KEY_BYTES


def _client_capacity(
    layer_group: list[int], model_meta: dict[int, int], budget: int, taskid_len: int
) -> int:
    return budget // _per_client_bytes([model_meta[i] for i in layer_group], taskid_len)


def plan_partitions(
    strategy: str,
    n_participants: int,
    model_meta: dict[int, int],
    epc_budget: int,
    taskid_len: int,
    paging: bool,
) -> list[dict]:
    """Shape of the partition grid for one round (client ids filled in later).

    Returns dicts with layer_range, combine_group, serial, and the client
    block boundaries expressed as (start, size) over the sorted participants.
    """
    layer_indices = sorted(model_meta)
    full_bytes = _per_client_bytes([model_meta[i] for i in layer_indices], taskid_len)

    if strategy == "single":
        need = n_participants * full_bytes
        if need > epc_budget and not paging:
            raise CapacityInfeasible(
                f"single-enclave plan needs {need} bytes, budget {epc_budget} (paging off)"
            )
        return [
            {
                "layer_range": tuple(layer_indices),
                "combine_group": 0,
                "serial": False,
                "block": (0, n_participants),
            }
        ]

    if strategy == "layermax":
        cap = epc_budget // full_bytes
        if cap == 0:
            if not paging:
                raise CapacityInfeasible(
                    f"one client's full model ({full_bytes} bytes) exceeds budget {epc_budget}"
                )
            cap = 1
        out = []
        for start in range(0, n_participants, cap):
            size = min(cap, n_participants - start)
            out.append(
                {
                    "layer_range": tuple(layer_indices),
                    "combine_group": 0,
                    "serial": True,
                    "block": (start, size),
                }
            )
        return out

    # clientmax: client blocks take priority; contiguous layers merge into one
    # group only while the group still admits every participant at once.
    for idx in layer_indices:
        if _per_client_bytes([model_meta[idx]], taskid_len) > epc_budget:
            raise CapacityInfeasible(f"layer {idx} alone exceeds the enclave budget")
    groups: list[list[int]] = []
    i = 0
    while i < len(layer_indices):
        group = [layer_indices[i]]
        i += 1
        if _client_capacity(group, model_meta, epc_budget, taskid_len) >= n_participants:
            while (
                i < len(layer_indices)
                and _client_capacity(group + [layer_indices[i]], model_meta, epc_budget, taskid_len)
                >= n_participants
            ):
                group.append(layer_indices[i])
                i += 1
        groups.append(group)
    out = []
    for gi, group in enumerate(groups):
        cap = min(_client_capacity(group, model_meta, epc_budget, taskid_len), n_participants)
        for start in range(0, n_participants, cap):
            size = min(cap, n_participants - start)
            out.append(
                {
                    "layer_range": tuple(group),
                    "combine_group": gi,
                    "serial": False,
                    "block": (start, size),
                }
            )
    return out


def schedule(
    spec: TaskSpec,
    alive: list[int],
    epc_budget: int,
    tx_capacity: int,
    seed: int,
    paging: bool = False,
    uniform_random: bool = False,
) -> Conf:
    """Build the full task schedule deterministically.

    Partitions exactly cover the (layer x participant) grid each round, every
    partition respects the memory budget, chunk indices are contiguous from
    zero, and nodes are assigned lowest-id first.
    """
    if not alive:
        raise NoNodes("no alive nodes to schedule on")
    participants_by_round = {
        r: select_participants(spec.clients, spec.participation, r, seed, uniform_random)
        for r in range(spec.rounds)
    }
    k = len(participants_by_round[0])
    shapes = plan_partitions(
        spec.strategy, k, spec.model_meta, epc_budget, len(spec.taskid), paging
    )
    if len(shapes) > len(alive):
        raise InsufficientNodes(f"plan needs {len(shapes)} nodes, {len(alive)} alive")

    nodes_sorted = sorted(alive)
    slots = [
        Slot(
            index=idx,
            combine_group=shape["combine_group"],
            serial=shape["serial"],
            layer_range=shape["layer_range"],
            node=nodes_sorted[idx],
        )
        for idx, shape in enumerate(shapes)
    ]
    rounds = {}
    for r, participants in participants_by_round.items():
        ordered = sorted(participants)
        subsets = {}
        for slot, shape in zip(slots, shapes):
            start, size = shape["block"]
            subsets[slot.index] = tuple(ordered[start : start + size])
        rounds[r] = RoundConf(round=r, participants=participants, subsets=subsets)

    conf = Conf(
        taskid=spec.taskid, measurement=spec.program.measurement, slots=slots, rounds=rounds
    )
    conf.lay_out_chunks(0, spec.model_meta, tx_capacity)
    return conf


def exact_cover_holds(conf: Conf, model_meta: dict[int, int], round_index: int) -> bool:
    """Enumerate the (layer, client) grid and check it is covered exactly once."""
    rc = conf.rounds[round_index]
    seen: set[tuple[int, int]] = set()
    for slot in conf.slots:
        for layer in slot.layer_range:
            for client in rc.subsets[slot.index]:
                if (layer, client) in seen:
                    return False
                seen.add((layer, client))
    expected = {(l, c) for l in model_meta for c in rc.participants}
    return seen == expected


# ---------------------------------------------------------------------------
# Heartbeat monitor
# ---------------------------------------------------------------------------

@dataclass
class FailoverAction:
    dead_node: int
    slot_index: int
    new_node: int


@dataclass
class HeartbeatMonitor:
    """Declares a node dead after ``threshold`` missed beats."""

    interval_ms: float = 500.0
    threshold: int = 3
    last_beat: dict[int, float] = field(default_factory=dict)
    dead: set[int] = field(default_factory=set)

    def beat(self, node: int, timestamp: float) -> None:
        if node not in self.dead:
            self.last_beat[node] = timestamp

    def tick(self, now: float) -> list[int]:
        """Nodes newly declared dead at ``now``."""
        newly = [
            node
            for node, last in self.last_beat.items()
            if node not in self.dead and now - last > self.interval_ms * self.threshold
        ]
        self.dead.update(newly)
        return sorted(newly)


class Committee:
    """Live coordinator state for a single task."""

    def __init__(
        self,
        seed: int,
        interval_ms: float = 500.0,
        threshold: int = 3,
        uniform_random: bool = False,
    ) -> None:
        self.seed = seed
        self.rng = Random(derive_seed(seed, "committee"))
        self.monitor = HeartbeatMonitor(interval_ms=interval_ms, threshold=threshold)
        self.uniform_random = uniform_random
        self.registered: list[int] = []
        self.alive: list[int] = []
        self.spec: TaskSpec | None = None
        self.conf: Conf | None = None
        self.vk: crypto.SigKeyPair | None = None
        self.stalled = False

    def setup(self, nodes: list[int], responding: set[int] | None = None) -> list[int]:
        """Register nodes and keep the ones answering the initial ping."""
        if not nodes:
            raise NoNodes("no nodes registered")
        self.registered = sorted(nodes)
        self.alive = sorted(n for n in nodes if responding is None or n in responding)
        if not self.alive:
            raise NoNodes("no node answered the initial ping")
        now = 0.0
        for n in self.alive:
            self.monitor.beat(n, now)
        return list(self.alive)

    def accept_task(
        self, spec: TaskSpec, epc_budget: int, tx_capacity: int, paging: bool = False
    ) -> Conf:
        self.spec = spec
        self.conf = schedule(
            spec, self.alive, epc_budget, tx_capacity, self.seed, paging, self.uniform_random
        )
        self.vk = crypto.sig_keygen(
            hashlib.sha256(struct.pack(">Q", self.seed) + b"vk" + spec.taskid).digest()
        )
        return self.conf

    def heartbeat(self, node: int, timestamp: float) -> None:
        self.monitor.beat(node, timestamp)

    def monitor_tick(self, now: float) -> list[FailoverAction]:
        """Detect deaths and plan partition migration to spare nodes.

        Raises NoSpareNodes (and marks the task stalled) when a dead node's
        partitions have nowhere to go.
        """
        newly_dead = self.monitor.tick(now)
        if not newly_dead:
            return []
        self.alive = [n for n in self.alive if n not in self.monitor.dead]
        actions: list[FailoverAction] = []
        if self.conf is None:
            return actions
        occupied = {s.node for s in self.conf.slots if s.node is not None}
        for dead in newly_dead:
            for slot in self.conf.slots:
                if slot.node != dead:
                    continue
                spares = [n for n in self.alive if n not in occupied]
                if not spares:
                    self.stalled = True
                    raise NoSpareNodes(f"no spare node for partition {slot.index}")
                new_node = min(spares)
                occupied.add(new_node)
                actions.append(FailoverAction(dead, slot.index, new_node))
                slot.node = new_node
                slot.eid = None  # fresh install pending
        return actions

    def mark_dead(self, node: int) -> None:
        """Administrative death (e.g. attestation failure during provisioning)."""
        self.monitor.dead.add(node)
        self.alive = [n for n in self.alive if n != node]
