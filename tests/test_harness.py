"""Orchestration: traffic model, phases, verification, faults, CLI."""

import dataclasses
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ledger_storage, stub_sealed_model_envelopes, tap_bytes, use_leaky_cipher
from fedtee import crypto, model, transport
from fedtee.cli import main as cli_main
from fedtee.committee import Committee, _per_client_bytes
from fedtee.config import SENTINEL, FaultEvent, MODEL_PRESETS, RunConfig, preset_layer_meta
from fedtee.harness import (
    PHASE_AGG,
    PHASE_CHAIN,
    PHASE_SEND,
    PROC_NS_PER_BYTE,
    SCAN_BLOCK,
    NeedleScan,
    TaskRun,
    matches_oracle,
    oracle_run,
    run_task,
    traffic_fedtee,
    traffic_vanilla_fl,
)
from fedtee.enclave import EnclaveProgram
from fedtee.ledger import Ledger
from fedtee.roles import Client, LedgerParty, Node
from fedtee.transport import Frame, MessageKind


def small_config(**kw):
    base = dict(
        taskid="harness-task",
        n_clients=6,
        n_nodes=4,
        rounds=3,
        participation=1.0,
        strategy="single",
        layers={0: 8, 1: 4},
        seed=33,
        epc_budget=1 << 30,
    )
    base.update(kw)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# Traffic model (frozen reference totals for the four preset sizes)
# ---------------------------------------------------------------------------

def test_traffic_mlp_ten_clients():
    assert round(traffic_vanilla_fl(10, 50, 0.042), 2) == 42
    assert round(traffic_fedtee(10, 50, 0.042), 2) == 44.1


def test_traffic_resnet18_five_hundred_clients():
    assert round(traffic_vanilla_fl(500, 50, 42.64), 2) == 2_132_000
    assert round(traffic_fedtee(500, 50, 42.64), 2) == 2_134_132


def test_traffic_zero_clients():
    assert traffic_vanilla_fl(0, 50, 0.042) == 0
    assert traffic_fedtee(0, 50, 0.042) == 0


def test_model_presets_resolve_within_one_percent():
    for preset in MODEL_PRESETS.values():
        meta = preset_layer_meta(preset)
        assert len(meta) == 8
        total_bytes = 8 * sum(meta.values())
        assert abs(total_bytes - preset.size_bytes) / preset.size_bytes < 0.01


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------

def test_chain_phase_at_least_one_block_interval():
    report = run_task(small_config(chain="fabric"))
    for rd in report.rounds:
        assert rd["phases"][PHASE_CHAIN] >= 2000.0


def test_phase_names_match_report_keys():
    report = run_task(small_config())
    assert set(report.rounds[0]["phases"]) == {
        "SendModeltoSGX", "Aggregate", "SendResulttoChain",
    }


def test_paging_run_slower_than_fitting_baseline():
    # paging on with inputs at 2x the budget vs paging off at half the size
    def agg_time(n_elems, budget, paging):
        cfg = small_config(
            layers={0: n_elems}, epc_budget=budget, paging=paging, rounds=1, n_clients=4,
        )
        return run_task(cfg).rounds[0]["phases"][PHASE_AGG]

    per_client = model.encoded_update_size(len("harness-task"), [500]) + 16
    budget = 4 * per_client  # four 500-element updates fill it exactly
    fits = agg_time(500, budget, paging=False)
    paged = agg_time(1_000, budget, paging=True)  # double the elements, same budget
    assert paged > fits > 0


def test_lower_bandwidth_stretches_send_phase():
    def send_phase(rate):
        cfg = small_config(rounds=1, bandwidth_bytes_per_ms=rate)
        return run_task(cfg).rounds[0]["phases"][PHASE_SEND]

    assert send_phase(None) == 0.0
    slow, fast = send_phase(100.0), send_phase(10_000.0)
    assert slow > fast > 0.0


def test_multi_enclave_beats_single_on_oversized_workload():
    layers = {i: 250 for i in range(4)}
    taskid = "direction-task"
    per_client = model.encoded_update_size(len(taskid), [250] * 4)
    budget = 40 * per_client // 4  # single enclave exactly 4x over budget at 40 clients

    def agg_plus_upload(strategy, n):
        cfg = RunConfig(
            taskid=taskid, n_clients=n, n_nodes=20, rounds=1, participation=1.0,
            strategy=strategy, layers=layers, seed=2, paging=True,
            epc_budget=budget, tx_capacity=1 << 20,
        )
        report = run_task(cfg)
        assert report.ok
        phases = report.rounds[0]["phases"]
        return phases[PHASE_AGG] + phases[PHASE_CHAIN]

    gaps = []
    for n in (40, 80, 160):
        single = agg_plus_upload("single", n)
        multi = agg_plus_upload("clientmax", n)
        assert multi < single
        gaps.append(single - multi)
    assert gaps[0] < gaps[1] < gaps[2]


def test_chain_presets_order_end_to_end():
    results = {}
    for chain in ("fabric", "fabric-mod", "tendermint"):
        report = run_task(small_config(chain=chain))
        results[chain] = report.rounds[0]["phases"][PHASE_CHAIN]
    assert results["fabric-mod"] == pytest.approx(0.5 * results["fabric"])
    assert results["tendermint"] <= results["fabric-mod"]


# ---------------------------------------------------------------------------
# Verification and reporting
# ---------------------------------------------------------------------------

def test_report_reproducible_for_same_seed_and_config():
    a = run_task(small_config(strategy="clientmax", epc_budget=4096, tx_capacity=600))
    b = run_task(small_config(strategy="clientmax", epc_budget=4096, tx_capacity=600))
    assert a.digest() == b.digest()
    c = run_task(small_config(strategy="clientmax", epc_budget=4096, tx_capacity=600, seed=34))
    assert c.digest() != a.digest()


def test_verify_report_against_external_oracle():
    cfg = small_config(int_mode=True)
    report = run_task(cfg)
    oracle = oracle_run(cfg)
    assert matches_oracle(cfg, report, oracle)
    assert report.ok
    assert not matches_oracle(cfg, report, oracle[:-1])


def test_verify_fails_when_a_round_model_is_missing():
    run = TaskRun(small_config(int_mode=True))
    report = run.run()
    assert report.verification["end_to_end_matches_oracle"] == "pass"
    report.round_models.pop()
    run.verify()
    assert report.verification["end_to_end_matches_oracle"] == "FAIL"
    assert not report.ok


def _clients_on_pool(monkeypatch):
    """Every oracle round with 2 or more clients draws them on the pool, one
    task each, even on one CPU; returns the client lists the pool was given."""
    monkeypatch.setattr(crypto, "CPUS", max(crypto.CPUS, 2))
    calls, pool_map = [], crypto.pool_map
    monkeypatch.setattr(
        crypto, "pool_map", lambda fn, *cols: calls.append(list(cols[0])) or pool_map(fn, *cols)
    )
    return calls


@pytest.mark.parametrize(
    "kw",
    [dict(int_mode=True), dict(int_mode=True, sentinel=True), dict(int_mode=False)],
    ids=["int", "int-sentinel", "float"],
)
def test_oracle_same_bits_with_clients_on_pool_and_inline(monkeypatch, kw):
    cfg = small_config(layers={0: 600, 1: 500}, **kw)
    calls = _clients_on_pool(monkeypatch)
    seen, synth = [], model.synth_local_update  # a wrapper set on the module sees each draw
    monkeypatch.setattr(model, "synth_local_update", lambda *a, **k: seen.append(a[1]) or synth(*a, **k))
    # the layers stay below the bar, the model reaches it: one task per client
    monkeypatch.setattr(model, "PARALLEL_MIN", 1100)
    pooled = oracle_run(cfg)
    assert calls == [list(range(cfg.n_clients))] * cfg.rounds
    assert sorted(seen) == sorted(list(range(cfg.n_clients)) * cfg.rounds)
    monkeypatch.setattr(model, "PARALLEL_MIN", 2**62)
    inline = oracle_run(cfg)
    assert len(calls) == cfg.rounds  # nothing more on the pool
    assert len(pooled) == len(inline) == cfg.rounds
    assert all(p.bit_equal(i) for p, i in zip(pooled, inline))


def test_oracle_memory_is_round_models_plus_one_rounds_updates(monkeypatch):
    """The last round's updates are released before the next round's are
    drawn, with the clients on the pool."""
    import tracemalloc

    n, layers, clients = 2**16, 4, 4
    cfg = small_config(int_mode=True, n_clients=clients, layers={i: n for i in range(layers)})
    oracle_run(small_config(int_mode=True))  # the first run imports modules lazily
    calls = _clients_on_pool(monkeypatch)
    tracemalloc.start()
    try:
        out = oracle_run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [list(range(clients))] * cfg.rounds
    assert len(out) == cfg.rounds
    layer, models = 8 * n, cfg.rounds + clients  # the initial model counts as one in round 0
    assert peak <= models * layers * layer + min(crypto.CPUS, clients) * layer + 64 * 1024


@pytest.mark.parametrize("int_mode", [True, False], ids=["int", "float"])
@pytest.mark.parametrize("layers_on_pool", [True, False], ids=["layers-on-pool", "inline"])
def test_oracle_memory_is_round_models_one_sum_and_two_updates(monkeypatch, layers_on_pool, int_mode):
    """With clients drawn one after another, each update is folded as it
    is drawn: the oracle holds its round models, one sum, the update being
    folded and the one being drawn, one layer-sized scratch per worker (an
    int-mode draw's integers) and the fold's scratch block."""
    import tracemalloc

    n, layers, clients = 2**16, 4, 4
    cfg = small_config(int_mode=int_mode, sentinel=True, n_clients=clients,
                       layers={i: n for i in range(layers)})
    oracle_run(small_config(int_mode=int_mode))  # the first run imports modules lazily
    monkeypatch.setattr(crypto, "CPUS", max(crypto.CPUS, 2) if layers_on_pool else 1)
    monkeypatch.setattr(model, "PARALLEL_MIN", n)
    assert model._threaded([n] * layers) is layers_on_pool
    tracemalloc.start()
    try:
        out = oracle_run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == cfg.rounds
    layer = 8 * n
    models = cfg.rounds + 2  # the sum is the round's model; the initial model counts in round 0
    workers = min(crypto.CPUS, layers) if layers_on_pool else 1
    # 128 KiB for objects and numpy's cast buffers (an int-mode draw adds int64 to float64)
    assert peak <= models * layers * layer + workers * layer + 8 * model.FOLD_BLOCK + 128 * 1024


def test_sentinel_clean_run_passes_confidentiality():
    report = run_task(small_config(sentinel=True, taps=True))
    assert report.verification["confidentiality_sentinel_hits"] == "pass"
    assert report.verification["confidentiality_key_hits"] == "pass"
    assert report.ok


def test_leaky_stub_cipher_trips_the_detector(monkeypatch):
    """Self-test: a cipher that embeds the plaintext must be caught."""
    use_leaky_cipher(monkeypatch)
    run = TaskRun(small_config(sentinel=True, taps=True, rounds=1))
    report = run.run()
    assert not report.ok
    conf = run.committee.conf
    n_sends = sum(len(conf.subset(0, s.index)) for s in conf.slots)
    assert stub_sealed_model_envelopes(run.tap) == n_sends > 0

    # brute-force recount over the same haystacks the scan reads
    keys = [run.owner.msk.raw, run.committee.vk.secret_scalar_bytes()]
    keys += [k.raw for c in run.clients.values() for k in c.ssk_by_enclave.values()]
    keys += [k.raw for k in run.committee.ssk_by_eid.values()]
    ledger_bytes = b"".join(c.payload for c in ledger_storage(run.ledger).values())
    haystacks = [tap_bytes(run.tap), ledger_bytes]
    haystacks += [node.buffer_bytes() for node in run.nodes.values()]
    sentinel_hits = sum(hay.count(SENTINEL) for hay in haystacks)
    key_hits = sum(hay.count(k) for hay in haystacks for k in keys)
    assert sentinel_hits > 0 and key_hits > 0
    assert report.verification["confidentiality_sentinel_hits"] == f"FAIL ({sentinel_hits} hits)"
    assert report.verification["confidentiality_key_hits"] == f"FAIL ({key_hits} hits)"


_FILLER = bytes(range(256)) * (SCAN_BLOCK // 256 + 1)


@st.composite
def needle_haystacks(draw, needle=st.binary(min_size=16, max_size=40)):
    """Needles planted near chunk edges and, at times, the scan's block edge."""
    needles = draw(st.lists(needle, min_size=1, max_size=3))
    if draw(st.booleans()):
        needles.append(b"ab" * 8)  # overlaps itself
    if draw(st.booleans()):
        needles.append(draw(st.sampled_from(needles)))  # listed twice
    lead = draw(st.one_of(st.integers(0, 48), st.integers(SCAN_BLOCK - 48, SCAN_BLOCK + 8)))
    pieces = draw(
        st.lists(
            st.one_of(
                st.binary(max_size=12),
                st.builds(lambda n, k: n * k, st.sampled_from(needles), st.integers(1, 3)),
                st.builds(lambda n, k: n[:k], st.sampled_from(needles), st.integers(1, 39)),
                st.just(b"a"),
            ),
            max_size=12,
        )
    )
    hay = _FILLER[:lead] + b"".join(pieces)
    # cuts land near the needles; a repeated cut makes an empty chunk
    cuts = sorted(draw(st.lists(st.integers(max(0, lead - 16), len(hay)), max_size=8)))
    chunks = [hay[a:b] for a, b in zip([0, *cuts], [*cuts, len(hay)])]
    return chunks, needles


@given(needle_haystacks())
@settings(max_examples=120, deadline=None)
def test_count_needles_equals_bytes_count(case):
    chunks, needles = case
    joined = b"".join(chunks)
    counts = NeedleScan(needles).count(chunks)
    for n in needles:
        assert counts[n] == joined.count(n)


_KEY_SIZED = st.one_of(st.binary(min_size=16, max_size=16), st.binary(min_size=32, max_size=32))


@given(needle_haystacks(_KEY_SIZED))
@settings(max_examples=60, deadline=None)
def test_count_needles_of_key_sizes_equals_bytes_count(case):
    """16- and 32-byte needles, as the leak scan has."""
    chunks, needles = case
    joined = b"".join(chunks)
    counts = NeedleScan(needles).count(chunks)
    for n in needles:
        assert counts[n] == joined.count(n)


def test_count_needles_counts_a_16_byte_needle_once_at_any_offset():
    rng = random.Random(5)
    needle, other = rng.randbytes(16), rng.randbytes(32)  # other sets a 31-byte carry
    noise = rng.randbytes(2 * SCAN_BLOCK + 64)
    # where the scan's buffers start and end: each after the first is led by the carry
    edges = [0, SCAN_BLOCK - 31, SCAN_BLOCK, 2 * SCAN_BLOCK - 31, 2 * SCAN_BLOCK]
    for pos in sorted({e + d for e in edges for d in range(-16, 17) if e + d >= 0} | {*range(8)}):
        hay = noise[:pos] + needle + noise[pos + 16 :]
        assert hay.count(needle) == 1 and other not in hay
        a, b = sorted((pos + 5, SCAN_BLOCK + 3))  # one cut inside the needle
        chunks = [hay[:a], hay[a:b], hay[b:]]
        assert NeedleScan([needle, other]).count(chunks) == {needle: 1, other: 0}, pos


def test_count_needles_finds_a_needle_across_the_block_edge():
    needle = bytes(range(231, 199, -1))  # descending, so never in the filler
    for before_edge in range(1, len(needle)):
        chunks = [_FILLER[: SCAN_BLOCK - before_edge], needle[:5], needle[5:]]
        scan = NeedleScan([needle, needle[:16]])
        assert scan.count(chunks) == {needle: 1, needle[:16]: 1}


def test_count_needles_rejects_short_needles():
    with pytest.raises(ValueError):
        NeedleScan([b"x" * 16, b"123456789abcdef"])


@pytest.mark.parametrize("int_mode", [False, True])
def test_sentinel_partitioned_sums_match_oracle(int_mode):
    """Partitioned sums of the sentinel's huge element may differ from the
    oracle's sequential sum by an ulp; only the dyadic grid is bit-exact."""
    cfg = RunConfig(
        n_clients=30, n_nodes=4, rounds=3, participation=1.0, strategy="clientmax",
        layers={0: 512, 1: 512}, epc_budget=85_000, sentinel=True, seed=0,
        int_mode=int_mode,
    )
    report = run_task(cfg)
    assert report.verification["end_to_end_matches_oracle"] == "pass"
    assert report.ok
    assert matches_oracle(cfg, report, oracle_run(cfg))


def test_failover_phases_reported_exactly_when_recovery_happened():
    cfg = small_config(
        rounds=4,
        faults=[FaultEvent(kind="kill_node", node=0, round=2, phase="collect")],
    )
    report = run_task(cfg)
    assert report.ok
    for i, rd in enumerate(report.rounds):
        if i == 2:
            assert rd["failover"]["Re-schedule"] > 0
            assert rd["failover"]["Connect"] > 0
        else:
            assert rd["failover"]["Re-schedule"] == 0
            assert rd["failover"]["Connect"] == 0


def test_detection_that_moves_no_partition_keeps_the_rounds_failover_phases():
    # node 0's partition moves to node 4 before round 1 opens; spare node 5
    # then dies at collect, and its detection moves nothing
    cfg = RunConfig(
        n_clients=6, n_nodes=6, rounds=2, participation=1.0, strategy="clientmax",
        layers={0: 24, 1: 16}, epc_budget=800, seed=5, int_mode=True,
        faults=[
            FaultEvent(kind="kill_node", node=0, round=1, phase="between"),
            FaultEvent(kind="kill_node", node=5, round=1, phase="collect"),
        ],
    )
    report = run_task(cfg)
    assert report.ok
    assert report.rounds[1]["failover"] == {"Re-schedule": 2.0, "Connect": 20.0}
    assert report.events == [
        "round 1: node 0 killed (between)",
        "round 1: partition 0 moved 0 -> 4",
        "round 1: node 5 killed (collect)",
    ]
    # the wait for node 5 ends once it is declared dead: 4 polls, not 5
    assert report.traffic_bytes_by_kind["Heartbeat"] == 546


def test_lost_resend_request_during_failover_is_asked_again():
    # node 0's partition moves at collect, and the first request for a
    # client to re-send to the new enclave is lost; the straggler chase asks again
    cfg = RunConfig(
        n_clients=6, n_nodes=6, rounds=3, participation=1.0, strategy="clientmax",
        layers={0: 24, 1: 16}, epc_budget=800, seed=0,
        faults=[
            FaultEvent(kind="kill_node", node=0, round=1, phase="collect"),
            FaultEvent(kind="drop", message_kind="ResendRequest", count=1),
        ],
    )
    report = run_task(cfg)
    assert report.ok
    assert report.events == [
        "round 1: node 0 killed (collect)",
        "round 1: partition 0 moved 0 -> 4",
        "round 1: stragglers [0] on partition 0",
    ]


def test_between_round_kill_recovers_bit_exact():
    base = dict(rounds=4, int_mode=True)
    faulty = small_config(
        **base, faults=[FaultEvent(kind="kill_node", node=1, round=1, phase="between")]
    )
    clean = small_config(**base)
    r_faulty = run_task(faulty)
    r_clean = run_task(clean)
    assert r_faulty.ok and r_clean.ok
    assert r_faulty.round_models[-1].bit_equal(r_clean.round_models[-1])


def test_no_spare_nodes_reports_stalled_not_hung():
    cfg = small_config(
        n_nodes=1,
        faults=[FaultEvent(kind="kill_node", node=0, round=1, phase="between")],
    )
    report = run_task(cfg)
    assert report.stalled
    assert not report.ok
    assert any("stalled" in e for e in report.events)


def test_dropped_envelope_triggers_retry_and_completes():
    cfg = small_config(
        faults=[FaultEvent(kind="drop", message_kind="ModelEnvelope", count=1)]
    )
    report = run_task(cfg)
    assert report.ok
    assert any("straggler" in e for e in report.events)


def test_straggler_exclusion_policy_replans_round():
    cfg = small_config(
        straggler_policy="exclude",
        straggler_max_retries=1,
        faults=[FaultEvent(kind="drop", message_kind="ModelEnvelope",
                           src="client:0", count=999)],
    )
    report = run_task(cfg)
    assert report.ok
    assert any("excluded stragglers [0]" in e for e in report.events)
    assert all(0 not in rd["participants"] for rd in report.rounds)


def test_straggler_exclusion_that_empties_a_partition_fails_the_run():
    # partition 3 holds only client 4, so excluding it leaves that partition empty
    cfg = small_config(
        n_clients=5, n_nodes=8, rounds=2, strategy="clientmax", layers={0: 24, 1: 16},
        epc_budget=800, seed=5, straggler_policy="exclude", straggler_max_retries=1,
        faults=[FaultEvent(kind="drop", message_kind="ModelEnvelope",
                           src="client:4", count=999)],
    )
    report = run_task(cfg)
    assert not report.ok
    assert report.events == [
        "round 0: stragglers [4] on partition 1",
        "round 0: stragglers [4] on partition 3",
        "round 0: failed: partition 3 lost all clients to stragglers",
    ]


def test_tampered_install_is_replaced_during_provisioning():
    cfg = small_config(faults=[FaultEvent(kind="tamper_install", node=0)])
    report = run_task(cfg)
    assert report.ok
    assert any("failed attestation" in e for e in report.events)


def _kill_after_tampered_spares(*tampered):
    faults = [FaultEvent(kind="tamper_install", node=n) for n in tampered]
    return faults + [FaultEvent(kind="kill_node", node=0, round=1, phase="between")]


def test_failover_event_names_the_node_the_partition_ends_on():
    # the spare the monitor picks (node 1) fails attestation, so slot 0 ends on node 2
    base = dict(n_nodes=3, int_mode=True)
    report = run_task(small_config(**base, faults=_kill_after_tampered_spares(1)))
    clean = run_task(small_config(**base))
    assert report.ok and clean.ok
    assert all(a.bit_equal(b) for a, b in zip(report.round_models, clean.round_models))
    assert "round 1: partition 0 moved 0 -> 2" in report.events


@pytest.mark.parametrize("kill_round", [None, 0, 1], ids=["no-kill", "kill-round-0", "kill-round-1"])
def test_killed_node_that_never_answered_the_ping_is_not_awaited(kill_round):
    # node 1 misses the initial ping, so the committee never holds it alive:
    # it is never polled, and killing it must not make a round wait for it
    base = dict(n_nodes=3, rounds=2)
    clean = run_task(small_config(**base))
    faults = [FaultEvent(kind="drop", message_kind="Ping", dest="node:1")]
    if kill_round is not None:
        faults.append(FaultEvent(kind="kill_node", node=1, round=kill_round))
    report = run_task(small_config(**base, faults=faults))
    assert clean.ok and report.ok
    # one heartbeat interval per round, as in the clean run, from one node fewer
    beats = clean.traffic_bytes_by_kind["Heartbeat"]
    assert beats == 78
    assert report.traffic_bytes_by_kind["Heartbeat"] == beats * 2 // 3 == 52


def test_failover_onto_only_tampered_spares_ends_stalled():
    report = run_task(small_config(n_nodes=3, faults=_kill_after_tampered_spares(1, 2)))
    assert report.stalled
    assert not report.ok
    stalls = [e for e in report.events if "stalled" in e]
    assert stalls == ["round 1: stalled: no spare node for partition 0"]  # logged once
    # each attestation failure names the round, and whether a spare took the partition
    assert report.events == [
        "round 1: node 0 killed (between)",
        "round 1: node 1 failed attestation, partition 0 replaced",
        "round 1: node 2 failed attestation, partition 0 not replaced: no spare node",
        "round 1: stalled: no spare node for partition 0",
    ]


@pytest.mark.parametrize(
    "kw, reason",
    [
        (dict(epc_budget=0), "single-enclave plan needs"),
        (dict(strategy="clientmax", epc_budget=0), "alone exceeds the enclave budget"),
        (dict(strategy="clientmax", n_nodes=1, epc_budget=200), "plan needs 12 nodes, 1 alive"),
    ],
    ids=["single-capacity", "clientmax-capacity", "insufficient-nodes"],
)
def test_infeasible_plan_ends_in_a_setup_failure_report(kw, reason):
    report = run_task(small_config(**kw))
    assert not report.ok and not report.stalled
    assert report.rounds == [] and report.verification == {}
    assert len(report.events) == 1
    assert report.events[0].startswith("setup: failed: ") and reason in report.events[0]


def test_no_node_answering_the_ping_ends_in_a_setup_failure_report():
    report = run_task(small_config(n_clients=4, n_nodes=1, rounds=1, faults=[
        FaultEvent(kind="drop", message_kind="Ping", dest="node:0"),
    ]))
    assert not report.ok and not report.stalled
    assert report.rounds == [] and report.verification == {}
    assert report.events == ["setup: failed: no node answered the initial ping"]


@pytest.mark.parametrize("kind", list(MessageKind), ids=lambda kind: kind.name)
@pytest.mark.parametrize("strategy", ["single", "clientmax", "layermax"])
def test_every_dropped_frame_ends_in_a_report(strategy, kind):
    report = run_task(small_config(n_nodes=6, rounds=2, strategy=strategy, faults=[
        FaultEvent(kind="drop", message_kind=kind.name, count=1),
    ]))
    assert report.ok or re.match(r"(setup|round \d+): failed: ", report.events[-1])


@pytest.mark.parametrize("strategy", ["single", "clientmax", "layermax"])
def test_dropped_committee_delivery_ends_in_a_setup_report(strategy):
    # every delivery into an enclave is a KeyDeliver; the first is node 0's signing key
    report = run_task(small_config(n_nodes=6, rounds=2, strategy=strategy, faults=[
        FaultEvent(kind="drop", message_kind="KeyDeliver", src="committee", count=1),
    ]))
    assert not report.ok and not report.stalled
    assert report.events == ["setup: failed: dropped KeyDeliver committee->node:0"]


def test_an_output_failing_its_tag_ends_the_round_in_a_report(monkeypatch):
    from fedtee.roles import TaskOwner

    cfg = small_config(strategy="clientmax", n_nodes=6, layers={0: 24, 1: 16}, epc_budget=800)
    read = TaskOwner.get_global_model
    taskid = cfg.taskid_bytes

    def read_after_flip(owner, conf, round_index):
        if round_index == 1:  # the last payload byte of partition 0's output is its tag's
            stored = owner.ledger.by_round[(taskid, 1)]
            last = max(i for i in stored if i < run.committee.chunk_bases[1])
            payload = bytearray(stored[last].payload)
            payload[-1] ^= 0x01
            stored[last] = dataclasses.replace(stored[last], payload=bytes(payload))
        return read(owner, conf, round_index)

    monkeypatch.setattr(TaskOwner, "get_global_model", read_after_flip)
    run = TaskRun(cfg)
    report = run.run()
    assert len(run.committee.conf.slots) > 1
    assert not report.ok and not report.stalled
    assert len(report.rounds) == 1 and report.verification == {}
    assert report.events[-1] == "round 1: failed: output of partition 0 failed authentication"


@pytest.mark.parametrize("dest, ok", [("node:0", False), ("node:3", True)], ids=["holder", "spare"])
def test_schedule_dropped_on_its_way_to_a_node(dest, ok):
    # node 0 holds the one partition and cannot work without the schedule;
    # spare node 3 is sent it again if a partition ever moves there
    report = run_task(small_config(faults=[
        FaultEvent(kind="drop", message_kind="ConfDeliver", dest=dest),
    ]))
    assert report.ok is ok
    if not ok:
        assert report.events == ["setup: failed: dropped ConfDeliver committee->node:0"]


@pytest.mark.parametrize("party", ["client:2", "node:0", "node:3"], ids=["client", "holder", "spare"])
def test_a_party_refusing_the_schedule_ends_the_run(party, monkeypatch):
    # unlike a lost frame, a refusal ends the run even from a spare node
    role, _, n = party.partition(":")
    cls = Client if role == "client" else Node
    handle = cls.handle

    def refusing(self, src, kind, payload):
        if kind == MessageKind.ConfDeliver and self.party == party:
            raise ValueError("schedule unreadable")
        return handle(self, src, kind, payload)

    monkeypatch.setattr(cls, "handle", refusing)
    report = run_task(small_config())
    assert not report.ok and not report.stalled
    assert report.rounds == [] and report.verification == {}
    assert report.events == [
        f"setup: failed: ConfDeliver failed on {role} {n}: ValueError: schedule unreadable"
    ]


def test_an_install_the_node_refuses_ends_the_run():
    run = TaskRun(small_config())
    run.program = EnclaveProgram(run.program.code_id, "nope")
    report = run.run()
    assert not report.ok and not report.stalled
    assert report.rounds == [] and report.verification == {}
    assert report.events == [
        "setup: failed: InstallProg failed on node 0: ValueError: unknown aggregation hook 'nope'"
    ]


@pytest.mark.parametrize(
    "cls, kind, event",
    [
        (Ledger, MessageKind.ChunkUpload, "round 0: failed: ValueError: store refused"),
        (Node, MessageKind.ModelEnvelope, "round 0: failed: ValueError: refused ModelEnvelope"),
        (Node, MessageKind.RaHandshake1, "setup: failed: ValueError: refused RaHandshake1"),
        (Client, MessageKind.InitModel, "setup: failed: ValueError: refused InitModel"),
        (Client, MessageKind.KeyDeliver, "setup: failed: ValueError: refused KeyDeliver"),
        (Committee, MessageKind.SubmitTask, "setup: failed: ValueError: refused SubmitTask"),
    ],
    ids=["ChunkUpload", "ModelEnvelope", "RaHandshake1", "InitModel", "KeyDeliver", "SubmitTask"],
)
def test_every_refused_call_ends_in_a_report(cls, kind, event, monkeypatch):
    # a Nack is a RemoteError, which is a RunFailed, whichever call it answers
    if cls is Ledger:  # the storage contract refuses the run; its party answers a Nack
        def refusing(self, sender, run):
            raise ValueError("store refused")

        monkeypatch.setattr(Ledger, "upload_run", refusing)
    else:
        handle = cls.handle

        def refusing(self, src, got, payload):
            if got == kind:
                raise ValueError(f"refused {kind.name}")
            return handle(self, src, got, payload)

        monkeypatch.setattr(cls, "handle", refusing)
    report = run_task(small_config(rounds=1))
    assert not report.ok and not report.stalled
    assert report.verification == {}
    assert report.events[-1] == event


def test_a_receipt_count_that_disagrees_with_the_run_ends_in_a_report(monkeypatch):
    handle = LedgerParty.handle

    def one_reason_short(self, src, kind, payload):
        reply = handle(self, src, kind, payload)
        if kind == MessageKind.ChunkUpload:
            (reasons,) = transport.unpack(transport.RECEIPT, reply[1])
            reply = reply[0], transport.pack(transport.RECEIPT, reasons[1:])
        return reply

    monkeypatch.setattr(LedgerParty, "handle", one_reason_short)
    report = run_task(small_config(rounds=1))
    assert not report.ok and not report.stalled
    assert report.rounds == [] and report.verification == {}
    assert report.events == ["round 0: failed: node 0: 0 receipts for a run of 1 chunks"]


@pytest.mark.parametrize("strategy", ["single", "clientmax", "layermax"])
def test_a_round_the_ledger_cannot_complete_ends_in_the_owners_report(strategy, monkeypatch):
    # the committee declares one more chunk than the nodes will upload
    budget = 1 << 30 if strategy == "single" else 700
    cfg = small_config(strategy=strategy, n_nodes=6, layers={0: 8, 1: 8}, epc_budget=budget,
                       tx_capacity=64)
    run = TaskRun(cfg)
    declare = run.ledger.set_expected_chunks
    monkeypatch.setattr(
        run.ledger, "set_expected_chunks", lambda sender, taskid, n: declare(sender, taskid, n + 1)
    )
    report = run.run()  # no exception escapes
    n = run.committee.chunk_bases[-1]
    assert len(run.committee.conf.slots) > (strategy != "single")
    assert not report.ok and not report.stalled
    assert report.rounds == [] and report.verification == {}
    assert report.events[-1] == f"round 0: failed: LedgerIncomplete: round 0 has {n} of {n + 1} chunks"


def test_dropped_frame_event_names_the_frame():
    report = run_task(small_config(faults=[FaultEvent(kind="drop", message_kind="SubmitTask")]))
    assert not report.ok and not report.stalled
    assert report.rounds == [] and report.verification == {}
    assert report.events == ["setup: failed: dropped SubmitTask owner->committee"]


def _straggler_failure_config():
    return RunConfig(
        n_clients=6, n_nodes=6, rounds=2, strategy="clientmax", straggler_max_retries=0,
        faults=[FaultEvent(kind="drop", message_kind="ModelEnvelope", src="client:0", count=1)],
    )


def test_failed_run_records_why_in_its_events():
    report = run_task(_straggler_failure_config())
    assert not report.ok and not report.stalled
    assert report.rounds == [] and report.verification == {}
    assert report.events == ["round 0: failed: stragglers never delivered: {0: [0]}"]


@pytest.mark.parametrize("strategy, per_enclave", [("layermax", 2), ("clientmax", 3)])
def test_aggregate_phase_runs_layermax_partitions_one_after_another(
    strategy, per_enclave, monkeypatch
):
    # six clients in equal partitions: three full models of two clients
    # (layermax), or each of two equal layers in two blocks of three (clientmax)
    layers = {0: 8, 1: 8}
    cell = list(layers.values()) if strategy == "layermax" else [8]
    budget = per_enclave * _per_client_bytes(cell, len(b"harness-task"))
    cfg = small_config(strategy=strategy, n_nodes=6, rounds=1, layers=layers, epc_budget=budget)
    charges = []
    compute = Node.compute

    def charged(node, taskid, round_index):
        result = compute(node, taskid, round_index)
        assert result["paged_bytes"] == 0
        charges.append(result["plain_input_bytes"] * PROC_NS_PER_BYTE / 1e6)
        return result

    monkeypatch.setattr(Node, "compute", charged)
    report = run_task(cfg)
    assert report.ok
    assert len(charges) == 6 // per_enclave * len(layers) // len(cell) > 1
    assert len(set(charges)) == 1  # equal partitions
    expected = sum(charges) if strategy == "layermax" else max(charges)
    assert report.rounds[0]["phases"][PHASE_AGG] == expected


def test_round_after_straggler_exclusion_only_arms_the_enclaves():
    from test_golden import CONFIGS, _config

    run = TaskRun(_config(**CONFIGS["straggler-exclude"]))
    tap = run.router.add_tap()
    run.setup()
    run.run_round(0)
    assert "round 0: excluded stragglers [3], replanned layout" in run.report.events
    start = len(tap.frames)
    run.run_round(1)
    # what the committee sends in round 1 before the first client frame
    sent = []
    for src, _, raw in tap.frames[start:]:
        if src.startswith("client:"):
            break
        if src == "committee":
            sent.append(Frame.from_bytes(raw))
    assert [f.kind for f in sent] == [MessageKind.KeyDeliver] * len(run.committee.conf.slots)
    purposes = [transport.unpack(transport.KEY_DELIVER, f.payload)[1] for f in sent]
    assert purposes == [transport.KEY_PURPOSE_ROUND] * len(sent)


def _committee_frames(run, tap, last_round):
    """Run rounds 0..``last_round``; the frames the committee sent in the
    last one, as (dest, kind, payload)."""
    run.setup()
    for r in range(last_round):
        run.run_round(r)
    start = len(tap.frames)
    run.run_round(last_round)
    frames = [(dest, Frame.from_bytes(raw)) for src, dest, raw in tap.frames[start:]
              if src == "committee"]
    return [(dest, f.kind, f.payload) for dest, f in frames]


def test_failover_before_a_round_opens_asks_no_client_to_resend():
    from test_golden import CONFIGS, _config

    run = TaskRun(_config(**CONFIGS["kill-between"]))
    tap = run.router.add_tap()
    sent = _committee_frames(run, tap, 2)
    assert "round 2: partition 0 moved 0 -> 4" in run.report.events
    assert MessageKind.ResendRequest not in [kind for _, kind, _ in sent]


def test_failover_in_an_open_round_arms_the_new_enclave_once_and_asks_each_client_once():
    from test_golden import CONFIGS, _config

    run = TaskRun(_config(**CONFIGS["kill-collect"]))
    tap = run.router.add_tap()
    sent = _committee_frames(run, tap, 1)
    assert "round 1: partition 1 moved 1 -> 4" in run.report.events
    slot = run.committee.conf.slots[1]
    resends = [dest for dest, kind, _ in sent if kind == MessageKind.ResendRequest]
    assert sorted(resends) == [f"client:{uid}" for uid in run.committee.conf.subset(1, 1)]
    arms = [
        transport.unpack(transport.KEY_DELIVER, payload)[:2]
        for dest, kind, payload in sent
        if dest == "node:4" and kind == MessageKind.KeyDeliver
    ]
    assert arms.count((slot.eid, transport.KEY_PURPOSE_ROUND)) == 1


def test_failover_of_two_partitions_sends_the_schedule_once():
    from test_golden import _config

    kills = [FaultEvent(kind="kill_node", node=n, round=1, phase="collect") for n in (0, 1)]
    run = TaskRun(_config(int_mode=True, faults=kills))
    tap = run.router.add_tap()
    sent = _committee_frames(run, tap, 1)
    assert run.report.events[2:] == [
        "round 1: partition 0 moved 0 -> 4", "round 1: partition 1 moved 1 -> 5"
    ]
    confs = sorted(dest for dest, kind, _ in sent if kind == MessageKind.ConfDeliver)
    parties = [f"client:{uid}" for uid in run.clients] + [f"node:{n}" for n in run.committee.alive]
    assert confs == sorted(parties)
    resends = [dest for dest, kind, _ in sent if kind == MessageKind.ResendRequest]
    conf = run.committee.conf
    assert len(resends) == len(conf.subset(1, 0)) + len(conf.subset(1, 1))
    run.run_round(2)
    run.verify()
    assert run.report.ok


def test_hundred_clients_ten_percent_participation():
    # 100 clients, 10 participating per round, 10-element model, 20 rounds
    base = dict(
        taskid="hundred",
        n_clients=100,
        n_nodes=6,
        rounds=20,
        participation=0.10,
        layers={0: 10},
        seed=12,
        epc_budget=1 << 30,
        tx_capacity=1 << 20,
    )
    single = run_task(RunConfig(**base, strategy="single"))
    assert single.ok
    assert all(len(rd["participants"]) == 10 for rd in single.rounds)

    # the same task split into client blocks over several enclaves agrees
    # within 1e-9, and bit-exactly on the dyadic grid
    per_client = model.encoded_update_size(len("hundred"), [10]) + 16
    multi_base = dict(base, strategy="clientmax", epc_budget=per_client * 3)
    multi = run_task(RunConfig(**multi_base))
    assert multi.ok
    assert len(multi.rounds) == 20
    assert single.round_models[-1].allclose(multi.round_models[-1], rel=1e-9)

    i_single = run_task(RunConfig(**dict(base, int_mode=True)))
    i_multi = run_task(RunConfig(**dict(multi_base, int_mode=True)))
    assert i_single.round_models[-1].bit_equal(i_multi.round_models[-1])

    # killing a node at round 5 still completes via failover
    faulty = run_task(RunConfig(**dict(
        multi_base, int_mode=True,
        faults=[FaultEvent(kind="kill_node", node=0, round=5, phase="collect")],
    )))
    assert faulty.ok
    assert faulty.round_models[-1].bit_equal(i_multi.round_models[-1])


def test_honest_task_uploads_exactly_one_verification_key(monkeypatch):
    uploads = []
    upload_pk = Ledger.upload_pk

    def counted(self, *args):
        uploads.append(args)
        return upload_pk(self, *args)

    monkeypatch.setattr(Ledger, "upload_pk", counted)
    run = TaskRun(small_config())
    run.setup()
    assert len(uploads) == 1
    assert run.ledger.tasks[run.cfg.taskid_bytes].vk_pk == run.committee.vk.public_bytes()


def test_traffic_accounting_nonzero_for_protocol_kinds():
    report = run_task(small_config(rounds=2))
    traffic = report.traffic_bytes_by_kind
    for kind in ("ModelEnvelope", "ChunkUpload", "LedgerRead", "Heartbeat", "ConfDeliver"):
        assert traffic.get(kind, 0) > 0


def test_traffic_counts_do_not_depend_on_a_tap():
    cfg = small_config(rounds=2, bandwidth_bytes_per_ms=50.0)
    untapped = run_task(cfg)
    run = TaskRun(cfg)
    tap = run.router.add_tap()
    tapped = run.run()
    assert tapped.traffic_bytes_by_kind == untapped.traffic_bytes_by_kind
    assert sum(len(raw) for _, _, raw in tap.frames) == sum(tapped.traffic_bytes_by_kind.values())
    assert tapped.rounds == untapped.rounds  # shaped channels time the same frame sizes


# ---------------------------------------------------------------------------
# Config and CLI
# ---------------------------------------------------------------------------

def test_config_json_roundtrip(tmp_path):
    cfg = small_config(int_mode=True, faults=[FaultEvent(kind="tamper_chunk", round=1)])
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    again = RunConfig.from_file(str(path))
    assert again.to_json() == cfg.to_json()


def test_cli_run_exit_codes(tmp_path):
    cfg = small_config(rounds=2)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    report_path = tmp_path / "report.json"
    code = cli_main(
        ["run", "--config", str(cfg_path), "--report", str(report_path), "--int-mode"]
    )
    assert code == 0
    obj = json.loads(report_path.read_text())
    assert obj["ok"] is True
    assert len(obj["rounds"]) == 2


def test_cli_mode_and_chain_overrides(tmp_path):
    cfg = small_config(rounds=1, epc_budget=1 << 30)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    code = cli_main(
        ["run", "--config", str(cfg_path), "--mode", "layermax", "--chain", "tendermint",
         "--seed", "77"]
    )
    assert code == 0


def _faults(**kw):
    return dict(faults=[FaultEvent(**kw)])


@pytest.mark.parametrize(
    "bad",
    [
        pytest.param(dict(tx_capacity=0), id="tx_capacity-0"),
        pytest.param(dict(chain="nope"), id="unknown-chain"),
        pytest.param(_faults(kind="drop", message_kind="NoSuchKind"), id="drop-unknown-kind"),
        pytest.param(_faults(kind="drop", message_kind="RoundDeliver"), id="drop-retired-kind"),
        pytest.param(_faults(kind="drop", count=0), id="drop-count-0"),
        pytest.param(_faults(kind="drop", count=-3), id="drop-count-negative"),
        pytest.param(_faults(kind="drop", dest="node:9"), id="drop-missing-dest"),
        pytest.param(_faults(kind="drop", src="cleint:0"), id="drop-misspelt-src"),
        pytest.param(_faults(kind="tamper_install", node=4), id="tamper-missing-node"),
        pytest.param(_faults(kind="explode"), id="unknown-fault-kind"),
        pytest.param(_faults(kind="kill_node", node=99), id="kill-missing-node"),
        pytest.param(_faults(kind="kill_node", node=0, phase="colect"), id="kill-bad-phase"),
        pytest.param(_faults(kind="kill_node", node=0, round=3), id="kill-missing-round"),
        pytest.param(_faults(kind="tamper_chunk", round=-1), id="tamper-missing-round"),
        pytest.param(dict(straggler_policy="exclud"), id="unknown-straggler-policy"),
        pytest.param(dict(strategy="bogus"), id="unknown-strategy"),
        pytest.param(dict(rounds=0), id="rounds-0"),
        pytest.param(dict(n_clients=0), id="n_clients-0"),
        pytest.param(dict(n_nodes=0), id="n_nodes-0"),
        pytest.param(dict(layers={-1: 4, 0: 4}), id="negative-layer-index"),
        pytest.param(dict(layers={0: 4, 1: -1}), id="negative-layer-size"),
        pytest.param(dict(sentinel=True, layers={1: 1, 2: 8}), id="sentinel-layer-too-small"),
        pytest.param(dict(straggler_max_retries=-1), id="negative-straggler-retries"),
        pytest.param(dict(bandwidth_bytes_per_ms=0), id="bandwidth-0"),
        pytest.param(dict(bandwidth_bytes_per_ms=-1.0), id="bandwidth-negative"),
        pytest.param(dict(seed=-1), id="seed-negative"),
        pytest.param(dict(seed=2**64), id="seed-2**64"),
    ],
)
def test_bad_config_rejected_when_built(bad):
    with pytest.raises(ValueError):
        small_config(**bad)


def test_cli_bad_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"tx_capacity": 0}')
    faults_path = tmp_path / "faults.json"
    faults_path.write_text('[{"kind": "kill_node", "node": 99}]')
    missing = tmp_path / "missing.json"
    two_rounds = tmp_path / "two-rounds.json"
    two_rounds.write_text('{"rounds": 2}')
    late_kill = tmp_path / "late-kill.json"
    late_kill.write_text('[{"kind": "kill_node", "node": 0, "round": 7}]')
    configs = []
    for i, text in enumerate(
        ['{"cost": {"reschedule_ms": 2.0}}', '{"preset_layers": 0}', '{"n_clients": 0}',
         '{"faults": [{"kind": "drop", "count": 0}]}',
         '{"faults": [{"kind": "drop", "src": "cleint:0"}]}']
    ):
        configs.append(tmp_path / f"bad-{i}.json")
        configs[-1].write_text(text)
    for argv in (["--config", str(cfg_path)], ["--faults", str(faults_path)],
                 ["--config", str(missing)],
                 ["--config", str(two_rounds), "--faults", str(late_kill)],
                 *(["--config", str(path)] for path in configs)):
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", *argv])
        assert exc.value.code == 2
        assert "bad config" in capsys.readouterr().err
