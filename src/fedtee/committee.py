"""The committee party: task parsing, partition planning, keys, failover.

The committee receives a task, selects the per-round participants, splits the
(layer x client) grid into partitions that respect the enclave memory budget,
assigns partitions to alive nodes, attests and provisions each enclave, sends
the schedule to every party, and watches heartbeats so a dead node's
partitions migrate to spares without stalling the task. Planning is
deterministic: one seed, one spec, and one alive set always produce the same
schedule.
"""

from __future__ import annotations

import hashlib
import itertools
import struct
from dataclasses import dataclass, field
from random import Random

from . import crypto, enclave, model, transport
from .crypto import envelope_encoded_size
from .enclave import EnclaveProgram
from .transport import MessageKind, pack, unpack

PARTY = "committee"


class RunFailed(Exception):
    """The task cannot go on; the run ends in a failed report."""


class NoNodes(RunFailed):
    """No node is registered, answers the initial ping, or is left alive."""


class InsufficientNodes(RunFailed):
    """The plan needs more partitions than there are alive nodes."""


class CapacityInfeasible(RunFailed):
    """Even one (layer, client) cell exceeds the enclave budget."""


class NoSpareNodes(RunFailed):
    """Failover needed but no unused alive node remains; task is stalled."""


STRATEGIES = ("single", "clientmax", "layermax")


def check_task_shape(rounds: int, participation: float, strategy: str, model_meta) -> None:
    """Reject a task shape no schedule can serve (shared by TaskSpec and RunConfig)."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if not (0.0 < participation <= 1.0):
        raise ValueError("participation must be in (0, 1]")
    if not model_meta:
        raise ValueError("model_meta must be non-empty")
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")


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
        check_task_shape(self.rounds, self.participation, self.strategy, self.model_meta)


@dataclass
class Slot:
    """One partition: its layers, and the node and enclave holding it (the
    eid is filled at install time; both change on failover)."""

    index: int
    layer_range: tuple[int, ...]
    node: int
    eid: int | None = None


@dataclass
class RoundConf:
    # slot index -> the clients feeding that partition this round
    subsets: dict[int, tuple[int, ...]]

    @property
    def participants(self) -> tuple[int, ...]:
        return tuple(sorted({u for subset in self.subsets.values() for u in subset}))


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

    def subset(self, round_index: int, slot_index: int) -> tuple[int, ...]:
        return self.rounds[round_index].subsets[slot_index]

    def slots_for_client(self, round_index: int, client: int) -> list[Slot]:
        rc = self.rounds[round_index]
        return [s for s in self.slots if client in rc.subsets[s.index]]

    def to_bytes(self) -> bytes:
        """The ``CONF_DELIVER`` body: one row per slot (index, node, eid 0
        while not installed, then its layers), then one row per round and
        slot, in that order, holding the slot's clients that round."""
        return pack(
            transport.CONF_DELIVER, self.taskid, self.measurement,
            [(s.index, s.node, s.eid or 0, *s.layer_range) for s in self.slots],
            [rc.subsets[s.index] for _, rc in sorted(self.rounds.items()) for s in self.slots],
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "Conf":
        taskid, measurement, slot_rows, subset_rows = unpack(transport.CONF_DELIVER, data)
        slots = [
            Slot(index, tuple(layers), node, eid or None)
            for index, node, eid, *layers in slot_rows
        ]
        k = len(slots)
        if not k or len(subset_rows) % k:
            raise ValueError("schedule subsets do not fill whole rounds")
        rounds = {
            r: RoundConf({s.index: subset_rows[r * k + j] for j, s in enumerate(slots)})
            for r in range(len(subset_rows) // k)
        }
        return cls(taskid, measurement, slots, rounds)


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


def plan_partitions(
    strategy: str,
    n_participants: int,
    model_meta: dict[int, int],
    epc_budget: int,
    taskid_len: int,
    paging: bool,
) -> list[tuple[tuple[int, ...], int, int]]:
    """Shape of the partition grid for one round (client ids filled in later).

    The layers form groups, and each group is cut into blocks of as many
    clients as fit the budget. Returns one ``(layer_range, first, count)``
    per partition: its layers, and its client block as a run over the sorted
    participants.
    """
    layers = sorted(model_meta)

    def capacity(group: list[int]) -> int:
        return epc_budget // _per_client_bytes([model_meta[i] for i in group], taskid_len)

    full_bytes = _per_client_bytes([model_meta[i] for i in layers], taskid_len)
    if strategy == "single":
        need = n_participants * full_bytes
        if need > epc_budget and not paging:
            raise CapacityInfeasible(
                f"single-enclave plan needs {need} bytes, budget {epc_budget} (paging off)"
            )
        groups, caps = [layers], [n_participants]
    elif strategy == "layermax":
        if full_bytes > epc_budget and not paging:
            raise CapacityInfeasible(
                f"one client's full model ({full_bytes} bytes) exceeds budget {epc_budget}"
            )
        groups, caps = [layers], [max(capacity(layers), 1)]
    else:
        # clientmax: client blocks take priority; contiguous layers merge into
        # one group only while the group still admits every participant at once.
        for idx in layers:
            if capacity([idx]) == 0:
                raise CapacityInfeasible(f"layer {idx} alone exceeds the enclave budget")
        groups = []
        for idx in layers:
            if groups and capacity(groups[-1] + [idx]) >= n_participants:
                groups[-1].append(idx)
            else:
                groups.append([idx])
        caps = [min(capacity(group), n_participants) for group in groups]
    return [
        (tuple(group), first, min(cap, n_participants - first))
        for group, cap in zip(groups, caps)
        for first in range(0, n_participants, cap)
    ]


def schedule(
    spec: TaskSpec,
    alive: list[int],
    epc_budget: int,
    seed: int,
    paging: bool = False,
    uniform_random: bool = False,
) -> Conf:
    """Build the full task schedule deterministically.

    Partitions exactly cover the (layer x participant) grid each round, every
    partition respects the memory budget, and nodes are assigned lowest-id
    first.
    """
    if not alive:
        raise NoNodes("no alive nodes to schedule on")
    participants_by_round = [
        sorted(select_participants(spec.clients, spec.participation, r, seed, uniform_random))
        for r in range(spec.rounds)
    ]
    shapes = plan_partitions(
        spec.strategy, len(participants_by_round[0]), spec.model_meta, epc_budget,
        len(spec.taskid), paging,
    )
    if len(shapes) > len(alive):
        raise InsufficientNodes(f"plan needs {len(shapes)} nodes, {len(alive)} alive")
    nodes = sorted(alive)
    slots = [Slot(i, layer_range, nodes[i]) for i, (layer_range, _, _) in enumerate(shapes)]
    rounds = {
        r: RoundConf(
            {i: tuple(ordered[first : first + count]) for i, (_, first, count) in enumerate(shapes)}
        )
        for r, ordered in enumerate(participants_by_round)
    }
    return Conf(spec.taskid, spec.program.measurement, slots, rounds)


def chunk_bases(
    conf: Conf, round_index: int, model_meta: dict[int, int], tx_capacity: int
) -> list[int]:
    """Each slot's first chunk index in the round, in slot order from zero,
    then the round's chunk count. Each slot's output takes a contiguous run
    of chunks, sized for its subset that round."""
    aad_len = len(crypto.output_aad(conf.taskid, 0, 0))
    n_chunks = []
    for slot in conf.slots:
        counts = [model_meta[i] for i in slot.layer_range]
        payload = model.encoded_partial_size(len(conf.subset(round_index, slot.index)), counts)
        n_chunks.append(-(-envelope_encoded_size(aad_len, payload) // tx_capacity))
    return list(itertools.accumulate(n_chunks, initial=0))


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




# Per key-delivery purpose: the AAD label the enclave checks, and the frame kind.
_KEY_DELIVERIES = {
    transport.KEY_PURPOSE_SK: (b"sk_vk", MessageKind.KeyDeliver),
    transport.KEY_PURPOSE_PARTITION: (b"partition", MessageKind.RoundDeliver),
    transport.KEY_PURPOSE_ROUND: (b"round", MessageKind.RoundDeliver),
}


class Committee:
    """The committee party for a single task.

    It sends every frame whose source is ``"committee"``. Built without a
    router it only plans and watches heartbeats.
    """

    def __init__(
        self, seed: int, uniform_random: bool = False,
        router: transport.Router | None = None, ledger=None,
    ) -> None:
        self.seed = seed
        self.rng = Random(derive_seed(seed, "committee"))
        self.monitor = HeartbeatMonitor()
        self.uniform_random = uniform_random
        self.router = router
        self.ledger = ledger
        self.registered: list[int] = []
        self.alive: list[int] = []
        self.spec: TaskSpec | None = None
        self.conf: Conf | None = None
        self.chunk_bases: list[int] = []  # the open round's, see chunk_bases()
        self.vk: crypto.SigKeyPair | None = None
        self.ssk_by_eid: dict[int, crypto.SymKey] = {}
        self.gone: set[int] = set()  # nodes it no longer contacts
        self.events: list[str] = []
        self.stalled = False
        if router is not None:
            router.register(PARTY, handler=self.handle)

    def handle(self, src: str, kind: MessageKind, payload: bytes):
        """Acknowledge a task submission; heartbeats wait in the mailbox."""
        if kind != MessageKind.SubmitTask:
            return transport.err(transport.RemoteError(f"committee cannot handle {kind.name}"))
        unpack(transport.SUBMIT_TASK, payload)
        return transport.ok()

    def setup(self, nodes: list[int], responding: set[int] | None = None) -> list[int]:
        """Register nodes and keep the ones answering the initial ping."""
        if not nodes:
            raise NoNodes("no nodes registered")
        if responding is None and self.router is not None:
            responding = {n for n in nodes if self._answers_ping(n)}
        self.registered = sorted(nodes)
        self.alive = sorted(n for n in nodes if responding is None or n in responding)
        if not self.alive:
            raise NoNodes("no node answered the initial ping")
        for n in self.alive:
            self.monitor.beat(n, 0.0)
        return list(self.alive)

    def _answers_ping(self, node: int) -> bool:
        try:
            self.router.call(PARTY, f"node:{node}", MessageKind.Ping, pack(transport.PING))
        except transport.DeliveryDropped:
            return False
        return True

    def accept_task(
        self, spec: TaskSpec, epc_budget: int, tx_capacity: int, paging: bool = False
    ) -> Conf:
        self.spec = spec
        self.epc_budget, self.tx_capacity, self.paging = epc_budget, tx_capacity, paging
        self.conf = schedule(spec, self.alive, epc_budget, self.seed, paging, self.uniform_random)
        self.vk = crypto.sig_keygen(
            hashlib.sha256(struct.pack(">Q", self.seed) + b"vk" + spec.taskid).digest()
        )
        return self.conf

    # -- provisioning ------------------------------------------------------------

    def provision(self) -> None:
        """Publish the verification key, install every partition, and send
        the schedule to every party."""
        self.ledger.upload_pk(PARTY, self.spec.taskid, self.vk.public_bytes())
        for slot in self.conf.slots:
            self.install(slot)
        self.deliver_conf()

    def install(
        self, slot: Slot, arm_round: int | None = None, stage: str = "provisioning"
    ) -> None:
        """Provision one partition; a node failing attestation is cut off and
        the partition moves to the lowest spare node. ``stage`` names when,
        in the events."""
        while True:
            try:
                self._install(slot, arm_round)
                return
            except crypto.MeasurementMismatch:
                bad = slot.node
                self.mark_dead(bad)
                self.cut_off(bad)
                failed = f"{stage}: node {bad} failed attestation, partition {slot.index}"
                try:
                    slot.node, slot.eid = self._spare(slot), None
                except NoSpareNodes:
                    self.events.append(f"{failed} not replaced: no spare node")
                    raise
                self.events.append(f"{failed} replaced")

    def _call(self, node: int, kind: MessageKind, body: bytes) -> bytes:
        """One request to ``node``; a failure it reports ends the run."""
        _, reply, _ = self.router.call(PARTY, f"node:{node}", kind, body)
        try:
            return transport.check_reply(reply)
        except Exception as exc:
            raise RunFailed(f"{kind.name} failed on node {node}: {exc}") from exc

    def _install(self, slot: Slot, arm_round: int | None) -> None:
        """Install, attest, and provision one partition's enclave."""
        spec = self.spec
        installed = self._call(
            slot.node, MessageKind.InstallProg,
            pack(
                transport.INSTALL_PROG, spec.taskid, spec.program.code_id,
                spec.program.aggregation_hook, self.epc_budget, self.paging,
                derive_seed(self.seed, f"enclave:{slot.index}:{slot.node}"),
            ),
        )
        (slot.eid,) = unpack(transport.INSTALLED, installed)
        self.ssk_by_eid[slot.eid] = enclave.attest(
            self.router, PARTY, slot.node, spec.taskid, slot.eid, spec.program.measurement,
            self.rng,
        )
        self._key_deliver(slot, transport.KEY_PURPOSE_SK, self.vk.secret_scalar_bytes())
        self._key_deliver(
            slot, transport.KEY_PURPOSE_PARTITION,
            pack(transport.PARTITION, slot.layer_range, self.tx_capacity),
        )
        if arm_round is not None:
            self._arm(slot, arm_round)

    def _arm(self, slot: Slot, round_index: int) -> None:
        plain = pack(
            transport.ROUND_ARM, self.spec.taskid, round_index, self.chunk_bases[slot.index]
        )
        self._key_deliver(slot, transport.KEY_PURPOSE_ROUND, plain)

    def _key_deliver(self, slot: Slot, purpose: int, plain: bytes) -> None:
        """Seal ``plain`` under the slot enclave's session key and deliver it."""
        label, kind = _KEY_DELIVERIES[purpose]
        taskid = self.spec.taskid
        env = crypto.ae_encrypt(
            self.ssk_by_eid[slot.eid], crypto.keydeliver_aad(taskid, label), plain, rng=self.rng
        )
        self._call(slot.node, kind, pack(transport.KEY_DELIVER, taskid, slot.eid, purpose, env))

    def deliver_conf(self) -> None:
        body = self.conf.to_bytes()
        for uid in self.spec.clients:
            self.router.call(PARTY, f"client:{uid}", MessageKind.ConfDeliver, body)
        for node in self.registered:
            if node not in self.gone:
                try:
                    self.router.call(PARTY, f"node:{node}", MessageKind.ConfDeliver, body)
                except transport.DeliveryDropped:
                    pass

    # -- rounds ----------------------------------------------------------------------

    def open_round(self, round_index: int) -> None:
        """Lay out the round's chunks, tell the ledger how many to expect, and
        arm every partition's enclave with the round and its chunk base."""
        spec = self.spec
        self.chunk_bases = chunk_bases(self.conf, round_index, spec.model_meta, self.tx_capacity)
        self.ledger.set_expected_chunks(PARTY, spec.taskid, self.chunk_bases[-1])
        for slot in self.conf.slots:
            self._arm(slot, round_index)

    def request_resend(self, uid: int, slot: Slot, round_index: int) -> None:
        """Ask a client to re-send its cached slice to the slot's enclave."""
        self.router.call(
            PARTY, f"client:{uid}", MessageKind.ResendRequest,
            pack(transport.RESEND_REQUEST, slot.index, round_index),
        )

    def replan_excluding(self, round_index: int, excluded: list[int]) -> None:
        """Drop the stragglers from this round's plan, re-arm every enclave
        for the new layout, and send the new schedule."""
        rc = self.conf.rounds[round_index]
        for slot in self.conf.slots:
            subset = tuple(u for u in rc.subsets[slot.index] if u not in excluded)
            if not subset:
                raise RunFailed(f"partition {slot.index} lost all clients to stragglers")
            rc.subsets[slot.index] = subset
        self.open_round(round_index)
        self.deliver_conf()

    # -- failover ----------------------------------------------------------------------

    def read_heartbeats(self) -> None:
        """Drain the mailbox into the heartbeat monitor."""
        while (msg := self.router.recv(PARTY)) is not None:
            _, kind, payload, _ = msg
            if kind == MessageKind.Heartbeat:
                self.monitor.beat(*unpack(transport.HEARTBEAT, payload))

    def cut_off(self, node: int) -> None:
        """Stop contacting ``node``, which is off the network from now on."""
        self.gone.add(node)
        self.router.set_unreachable(f"node:{node}")

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
        for dead in newly_dead:
            for slot in self.conf.slots:
                if slot.node == dead:
                    slot.node, slot.eid = self._spare(slot), None  # fresh install pending
                    actions.append(FailoverAction(dead, slot.index, slot.node))
        return actions

    def _spare(self, slot: Slot) -> int:
        """The lowest alive node that holds no other partition."""
        occupied = {s.node for s in self.conf.slots if s is not slot}
        spares = [n for n in self.alive if n not in occupied]
        if not spares:
            self.stalled = True
            raise NoSpareNodes(f"no spare node for partition {slot.index}")
        return min(spares)

    def move_partitions(
        self, actions: list[FailoverAction], round_index: int, resend: bool
    ) -> None:
        """Reinstall each moved partition. With ``resend`` the round is open:
        the new enclave is armed for it, and the partition's clients re-send
        their cached slices to it. Otherwise :meth:`open_round` arms it."""
        for action in actions:
            slot = self.conf.slots[action.slot_index]
            self.install(slot, round_index if resend else None, f"round {round_index}")
            if resend:
                self.deliver_conf()
                for uid in self.conf.subset(round_index, slot.index):
                    self.request_resend(uid, slot, round_index)
            self.events.append(
                f"round {round_index}: partition {slot.index} moved "
                f"{action.dead_node} -> {slot.node}"
            )
        if not resend:
            self.deliver_conf()

    def mark_dead(self, node: int) -> None:
        """Administrative death (e.g. attestation failure during provisioning)."""
        self.monitor.dead.add(node)
        self.alive = [n for n in self.alive if n != node]
