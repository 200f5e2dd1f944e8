"""Scheduling: participant selection, partition planning, heartbeat failover."""

import pytest

from conftest import build_program
from fedtee import crypto, model
from fedtee.config import FaultEvent
from fedtee.committee import (
    CapacityInfeasible,
    Committee,
    Conf,
    FAILOVER_THRESHOLD,
    HEARTBEAT_INTERVAL_MS,
    InsufficientNodes,
    NoNodes,
    NoSpareNodes,
    TaskSpec,
    _per_client_bytes,
    chunk_bases,
    schedule,
    select_participants,
)
from fedtee.enclave import make_eid_allocator
from fedtee.harness import VirtualClock
from fedtee.roles import Node
from fedtee.transport import FaultPlan, Router

TASKID = b"sched-task-16byt"


def make_spec(n_clients=6, meta=None, strategy="clientmax", participation=1.0, rounds=3,
              clients=None):
    return TaskSpec(
        taskid=TASKID,
        clients=clients if clients is not None else list(range(n_clients)),
        model_meta=meta or {0: 100, 1: 100},
        rounds=rounds,
        program=build_program(),
        participation=participation,
        strategy=strategy,
    )


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


def committee_with_nodes(nodes, seed=0, faults=()):
    """A committee over a clocked router on which ``nodes`` are registered."""
    router = Router(VirtualClock(), FaultPlan(faults))
    alloc = make_eid_allocator()
    return Committee(seed=seed, router=router, nodes={n: Node(n, router, alloc) for n in nodes})


def budget_for_blocks(meta, layer, n_clients, taskid_len=len(TASKID)):
    """Budget that fits exactly ``n_clients`` single-layer blocks per enclave."""
    per_client = model.encoded_update_size(taskid_len, [meta[layer]]) + 16
    return per_client * n_clients


# ---------------------------------------------------------------------------
# Setup / participants
# ---------------------------------------------------------------------------

def test_setup_alive_sets():
    comm = committee_with_nodes([1, 2, 3], seed=1)
    assert comm.setup([1, 2, 3]) == [1, 2, 3]
    ping_lost = FaultEvent(kind="drop", message_kind="Ping", dest="node:2")
    comm = committee_with_nodes([1, 2, 3], seed=1, faults=[ping_lost])
    assert comm.setup([1, 2, 3]) == [1, 3]
    assert comm.alive == {1: 0, 3: 0}  # no poll missed yet
    with pytest.raises(NoNodes):
        committee_with_nodes([], seed=1).setup([])


def test_participant_selection_round_robin_and_fraction():
    clients = list(range(100))
    r0 = select_participants(clients, 0.10, 0, seed=5)
    r1 = select_participants(clients, 0.10, 1, seed=5)
    assert len(r0) == len(r1) == 10
    assert r0 == tuple(range(10))
    assert r1 == tuple(range(10, 20))
    assert select_participants(clients, 0.10, 0, seed=5) == r0  # deterministic


def test_participant_selection_uniform_mode_is_seeded():
    clients = list(range(50))
    a = select_participants(clients, 0.2, 3, seed=9, uniform_random=True)
    b = select_participants(clients, 0.2, 3, seed=9, uniform_random=True)
    c = select_participants(clients, 0.2, 3, seed=10, uniform_random=True)
    assert a == b
    assert len(a) == 10
    assert a != c or a == c  # different seeds may collide; just check shape
    assert all(x in clients for x in a)


# ---------------------------------------------------------------------------
# Partition planning
# ---------------------------------------------------------------------------

def test_single_strategy_one_partition():
    spec = make_spec(strategy="single")
    conf = schedule(spec, alive=[0], epc_budget=1 << 30, seed=0)
    assert len(conf.slots) == 1
    slot = conf.slots[0]
    assert slot.layer_range == (0, 1)
    assert conf.subset(0, 0) == tuple(range(6))


def test_single_strategy_budget_violation_without_paging():
    spec = make_spec(strategy="single")
    with pytest.raises(CapacityInfeasible):
        schedule(spec, alive=[0], epc_budget=1000, seed=0)
    conf = schedule(spec, alive=[0], epc_budget=1000, seed=0, paging=True)
    assert len(conf.slots) == 1


def test_clientmax_four_client_blocks_split_six_clients():
    # capacity of four single-layer client blocks per enclave, six clients:
    # layer 0 goes {c1..c4} -> partition, {c5,c6} -> next partition, and
    # layer 1, a group of its own, is cut the same way.
    meta = {0: 100, 1: 100}
    clients = [1, 2, 3, 4, 5, 6]
    spec = make_spec(meta=meta, clients=clients)
    budget = budget_for_blocks(meta, 0, 4)
    conf = schedule(spec, alive=[0, 1, 2, 3], epc_budget=budget, seed=0)
    layer0 = [s for s in conf.slots if s.layer_range == (0,)]
    assert len(layer0) == 2
    assert conf.subset(0, layer0[0].index) == (1, 2, 3, 4)
    assert conf.subset(0, layer0[1].index) == (5, 6)
    assert [s.layer_range for s in conf.slots] == [(0,), (0,), (1,), (1,)]
    layer1 = conf.slots[2:]
    assert [conf.subset(0, s.index) for s in layer1] == [(1, 2, 3, 4), (5, 6)]


def test_clientmax_groups_layers_when_everyone_fits():
    meta = {0: 10, 1: 10, 2: 10, 3: 10}
    spec = make_spec(n_clients=4, meta=meta)
    budget = budget_for_blocks(meta, 0, 64)  # plenty: all layers, all clients
    conf = schedule(spec, alive=[0], epc_budget=budget, seed=0)
    assert len(conf.slots) == 1
    assert conf.slots[0].layer_range == (0, 1, 2, 3)


def test_clientmax_single_cell_too_big_is_infeasible():
    meta = {0: 10_000}
    spec = make_spec(meta=meta)
    with pytest.raises(CapacityInfeasible):
        schedule(spec, alive=[0, 1], epc_budget=1_000, seed=0)
    with pytest.raises(CapacityInfeasible):  # paging does not split a layer
        schedule(spec, alive=[0, 1], epc_budget=1_000, seed=0, paging=True)


def test_layermax_full_model_per_client_subset_serialized():
    meta = {0: 100, 1: 100}
    spec = make_spec(n_clients=6, meta=meta, strategy="layermax")
    per_client = model.encoded_update_size(len(TASKID), [100, 100]) + 16
    conf = schedule(spec, alive=[0, 1, 2], epc_budget=per_client * 2, seed=0)
    assert len(conf.slots) == 3
    for slot in conf.slots:
        assert slot.layer_range == (0, 1)
        assert len(conf.subset(0, slot.index)) == 2


def test_layermax_full_model_over_budget_needs_paging():
    meta = {0: 100, 1: 100}
    spec = make_spec(n_clients=3, meta=meta, strategy="layermax")
    budget = _per_client_bytes([100, 100], len(TASKID)) - 1  # one client's full model does not fit
    with pytest.raises(CapacityInfeasible):
        schedule(spec, alive=[0, 1, 2], epc_budget=budget, seed=0)
    conf = schedule(spec, alive=[0, 1, 2], epc_budget=budget, seed=0, paging=True)
    assert [conf.subset(0, s.index) for s in conf.slots] == [(0,), (1,), (2,)]


def test_insufficient_nodes():
    meta = {0: 100}
    spec = make_spec(meta=meta)
    budget = budget_for_blocks(meta, 0, 1)  # one client block per enclave -> 6 partitions
    with pytest.raises(InsufficientNodes):
        schedule(spec, alive=[0, 1], epc_budget=budget, seed=0)


def test_single_client_single_node_any_strategy():
    for strategy in ("single", "clientmax", "layermax"):
        spec = make_spec(n_clients=1, strategy=strategy)
        conf = schedule(spec, alive=[0], epc_budget=1 << 30, seed=0)
        assert len(conf.slots) == 1
        assert conf.subset(0, 0) == (0,)
        assert conf.slots[0].layer_range == (0, 1)


def test_exact_cover_across_strategies_and_seeds():
    meta = {0: 50, 1: 70, 2: 20}
    for strategy in ("single", "clientmax", "layermax"):
        for seed in range(5):
            spec = make_spec(n_clients=8, meta=meta, strategy=strategy, participation=0.5)
            budget = (model.encoded_update_size(len(TASKID), [70]) + 16) * 3
            if strategy != "clientmax":
                budget = 1 << 30
            conf = schedule(spec, alive=list(range(8)), epc_budget=budget, seed=seed)
            for r in range(spec.rounds):
                assert exact_cover_holds(conf, meta, r)


def test_chunk_indices_contiguous_from_zero():
    meta = {0: 5000, 1: 5000}
    spec = make_spec(n_clients=6, meta=meta)
    budget = budget_for_blocks(meta, 0, 2)
    conf = schedule(spec, alive=list(range(6)), epc_budget=budget, seed=0)
    bases = chunk_bases(conf, 0, meta, 10_000)
    assert bases[0] == 0 and len(bases) == len(conf.slots) + 1
    aad_len = len(crypto.output_aad(TASKID, 0, 0))
    for slot, base, end in zip(conf.slots, bases, bases[1:]):
        counts = [meta[i] for i in slot.layer_range]
        payload = model.encoded_partial_size(len(conf.subset(0, slot.index)), counts)
        # each output takes the fewest whole chunks that hold its envelope
        assert end - base == -(-crypto.envelope_encoded_size(aad_len, payload) // 10_000) > 1


def test_schedule_deterministic_given_seed():
    spec = make_spec(n_clients=10, participation=0.4)
    a = schedule(spec, alive=[0, 1, 2, 3], epc_budget=1 << 30, seed=7)
    b = schedule(spec, alive=[0, 1, 2, 3], epc_budget=1 << 30, seed=7)
    assert a.to_bytes() == b.to_bytes()
    assert Conf.from_bytes(a.to_bytes()) == a


def test_nodes_assigned_lowest_id_first():
    spec = make_spec(strategy="single")
    conf = schedule(spec, alive=[9, 4, 7], epc_budget=1 << 30, seed=0)
    assert conf.slots[0].node == 4


def test_resnet18_partition_count_matches_packing_bound():
    # 50 participants of the resnet18-sized preset against a 128 MiB budget:
    # the plan should use exactly ceil(total batch bytes / budget) enclaves.
    from fedtee.config import MODEL_PRESETS, preset_layer_meta

    meta = preset_layer_meta(MODEL_PRESETS["resnet18"])
    budget = 128 * 1024 * 1024
    spec = make_spec(clients=list(range(50)), meta=meta, participation=1.0)
    conf = schedule(spec, alive=list(range(64)), epc_budget=budget, seed=0)

    per_client = model.encoded_update_size(len(TASKID), list(meta.values())) + 16
    assert _per_client_bytes(list(meta.values()), len(TASKID)) == per_client
    # the whole model as one range: one client fits the budget, two do not
    one = _per_client_bytes([11_180_000], 16)
    assert abs(one - 89.44e6) < 1e5
    assert one <= budget < 2 * one
    total_bytes = 50 * per_client
    lower_bound = -(-total_bytes // budget)  # exhaustive packing floor
    assert len(conf.slots) == lower_bound
    for r in range(spec.rounds):
        assert exact_cover_holds(conf, meta, r)


# ---------------------------------------------------------------------------
# Heartbeats and failover
# ---------------------------------------------------------------------------

def test_monitor_declares_dead_after_threshold_misses():
    assert (HEARTBEAT_INTERVAL_MS, FAILOVER_THRESHOLD) == (500.0, 3)
    comm = committee_with_nodes([1, 2])
    comm.setup([1, 2])
    conf = comm.accept_task(make_spec(strategy="single"), epc_budget=1 << 30, tx_capacity=1 << 20)
    for _ in range(FAILOVER_THRESHOLD):  # polls missed by both, up to the threshold
        assert comm.monitor_tick() == []
    assert comm.alive == {1: 3, 2: 3}
    comm.nodes[2].send_heartbeat()
    assert comm.monitor_tick() == [(1, conf.slots[0])]  # node 1 missed a fourth poll
    assert comm.alive == {2: 0}
    comm.nodes[1].send_heartbeat()  # a node declared dead is not brought back
    assert comm.monitor_tick() == []  # already declared
    assert comm.alive == {2: 1}


def test_no_dropouts_empty_actions():
    comm = committee_with_nodes(range(4))
    comm.setup([0, 1, 2, 3])
    spec = make_spec(strategy="single")
    comm.accept_task(spec, epc_budget=1 << 30, tx_capacity=1 << 20)
    for node in comm.alive:
        comm.nodes[node].send_heartbeat()
    assert comm.monitor_tick() == []
    assert comm.alive == dict.fromkeys(range(4), 0)


def test_failover_moves_partition_to_lowest_spare():
    comm = committee_with_nodes(range(4))
    comm.setup([0, 1, 2, 3])
    spec = make_spec(strategy="single")
    conf = comm.accept_task(spec, epc_budget=1 << 30, tx_capacity=1 << 20)
    assert conf.slots[0].node == 0
    for poll in range(FAILOVER_THRESHOLD + 1):
        for node in (1, 2, 3):
            comm.nodes[node].send_heartbeat()
        moved = comm.monitor_tick()
        if poll < FAILOVER_THRESHOLD:
            assert moved == [] and conf.slots[0].node == 0
    assert moved == [(0, conf.slots[0])]
    assert conf.slots[0].node == 1
    assert conf.slots[0].eid is None
    assert list(comm.alive) == [1, 2, 3]


def test_no_spare_nodes_marks_stalled():
    comm = committee_with_nodes([0])
    comm.setup([0])
    spec = make_spec(strategy="single")
    comm.accept_task(spec, epc_budget=1 << 30, tx_capacity=1 << 20)
    for _ in range(FAILOVER_THRESHOLD):
        assert comm.monitor_tick() == []
    assert not comm.stalled
    with pytest.raises(NoSpareNodes):
        comm.monitor_tick()
    assert comm.stalled


def test_one_lost_beat_after_a_round_keeps_a_live_node():
    # a round passes between polls; a detector that counted time would take
    # the one lost beat for a node silent that whole round
    lost = FaultEvent(kind="drop", message_kind="Heartbeat", src="node:0")
    comm = committee_with_nodes(range(4), faults=[lost])
    comm.setup([0, 1, 2, 3])
    conf = comm.accept_task(make_spec(strategy="single"), epc_budget=1 << 30, tx_capacity=1 << 20)
    comm.router.clock.advance(2_500.0)
    assert comm.fail_over(0) == {}
    assert comm.alive == dict.fromkeys(range(4), 0)
    assert conf.slots[0].node == 0 and comm.events == []
