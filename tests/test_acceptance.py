"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; the tests never loosen at run time. The
plaintext oracle used throughout is a crypto-free, ledger-free re-execution
with the same seeds.
"""

import time
from random import Random

import numpy as np
import pytest

from conftest import (
    TASKID,
    arm_round,
    build_program,
    client_inputs,
    ledger_storage,
    provision_enclave,
    simple_update,
    stub_sealed_model_envelopes,
    use_leaky_cipher,
    with_envelope_field,
)
from fedtee import crypto, model
from fedtee.committee import TaskSpec, schedule
from fedtee.config import FaultEvent, RunConfig
from fedtee.enclave import RoundMismatch, SignedChunk
from fedtee.harness import (
    PHASE_AGG,
    PHASE_CHAIN,
    TaskRun,
    oracle_run,
    run_task,
    traffic_fedtee,
    traffic_vanilla_fl,
)
from fedtee.ledger import CHAIN_PRESETS, Ledger, apply_chain_model


def _line(num, name, t0, budget_s):
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE {num:02d} PASS {name} ({elapsed:.2f}s, budget {budget_s:.0f}s)")
    assert elapsed < budget_s


# ---------------------------------------------------------------------------
# 1. Traffic-model reproduction: all 32 reference cells, exact at printed
#    precision (S in MB, R = 50).
# ---------------------------------------------------------------------------

TRAFFIC_TABLE = {
    # size_mb: {clients: (vanilla, with_chain)}
    0.042: {10: (42, 44.1), 50: (210, 212.1), 100: (420, 422.1), 500: (2100, 2102.1)},
    0.085: {10: (85, 89.25), 50: (425, 429.25), 100: (850, 854.25), 500: (4250, 4254.25)},
    42.64: {10: (42_640, 44_772), 50: (213_200, 215_332),
            100: (426_400, 428_532), 500: (2_132_000, 2_134_132)},
    81.2: {10: (81_200, 85_260), 50: (406_000, 410_060),
           100: (812_000, 816_060), 500: (4_060_000, 4_064_060)},
}


def test_acceptance_01_traffic_table():
    t0 = time.time()
    cells = 0
    for size_mb, by_clients in TRAFFIC_TABLE.items():
        for n, (want_fl, want_chain) in by_clients.items():
            assert round(traffic_vanilla_fl(n, 50, size_mb), 2) == round(want_fl, 2)
            assert round(traffic_fedtee(n, 50, size_mb), 2) == round(want_chain, 2)
            cells += 2
    assert cells == 32
    _line(1, "traffic model reproduces all 32 table cells", t0, 1.0)


# ---------------------------------------------------------------------------
# 2. Client-block partition reproduction: capacity 4, six clients.
# ---------------------------------------------------------------------------

def test_acceptance_02_clientmax_partition_shape():
    t0 = time.time()
    meta = {0: 100, 1: 100}
    taskid = b"fig4-partition-x"
    spec = TaskSpec(
        taskid=taskid,
        clients=[1, 2, 3, 4, 5, 6],
        model_meta=meta,
        rounds=1,
        program=build_program(),
        participation=1.0,
        strategy="clientmax",
    )
    budget = (model.encoded_update_size(len(taskid), [100]) + 16) * 4  # 4 client blocks
    conf = schedule(spec, alive=[0, 1, 2, 3], epc_budget=budget, seed=0)
    first_layer = [s for s in conf.slots if s.layer_range == (0,)]
    assert len(first_layer) == 2
    assert conf.subset(0, first_layer[0].index) == (1, 2, 3, 4)
    assert conf.subset(0, first_layer[1].index) == (5, 6)
    # each layer is its own group, cut into the same two client blocks
    assert [s.layer_range for s in conf.slots] == [(0,), (0,), (1,), (1,)]
    _line(2, "client-block partition: {c1..c4} | {c5,c6}, one layer group", t0, 1.0)


# ---------------------------------------------------------------------------
# 3. Cross-mode aggregation equivalence over 50 seeded configs.
# ---------------------------------------------------------------------------

def _mode_config(seed, n, meta, strategy, int_mode, taskid):
    full = model.encoded_update_size(len(taskid), list(meta.values()))
    return RunConfig(
        taskid=taskid,
        n_clients=n,
        n_nodes=10,
        rounds=1,
        participation=1.0,
        strategy=strategy,
        layers=meta,
        seed=seed,
        int_mode=int_mode,
        paging=True,  # the single-enclave run pages instead of splitting
        epc_budget=full * (n // 2 + 1),
        tx_capacity=1 << 20,
    )


def test_acceptance_03_cross_mode_equivalence():
    t0 = time.time()
    rng = Random(2024)
    for case in range(50):
        n = rng.randint(4, 64)
        n_layers = rng.randint(1, 8)
        meta = {i: rng.randint(4, 10) for i in range(n_layers)}
        taskid = f"xmode-{case}"
        for int_mode in (False, True):
            finals = {}
            for strategy in ("single", "clientmax", "layermax"):
                cfg = _mode_config(rng.randint(0, 2**32), n, meta, strategy, int_mode, taskid)
                cfg.seed = case * 3 + 1  # same data seed across the three modes
                report = run_task(cfg)
                assert report.ok, f"case {case} {strategy} failed"
                finals[strategy] = report.round_models[-1]
            if int_mode:
                assert finals["single"].bit_equal(finals["clientmax"]), f"case {case}"
                assert finals["single"].bit_equal(finals["layermax"]), f"case {case}"
            else:
                assert finals["single"].allclose(finals["clientmax"], rel=1e-9), f"case {case}"
                assert finals["single"].allclose(finals["layermax"], rel=1e-9), f"case {case}"
    _line(3, "50 seeded configs: three modes agree (1e-9 rel; bit-exact dyadic)", t0, 30.0)


# ---------------------------------------------------------------------------
# 4. Oracle correctness: 20 end-to-end runs, >= 10 rounds each.
# ---------------------------------------------------------------------------

def test_acceptance_04_end_to_end_oracle():
    t0 = time.time()
    strategies = ("single", "clientmax", "layermax")
    for case in range(20):
        int_mode = case % 2 == 0
        meta = {0: 8, 1: 6}
        taskid = f"oracle-{case}"
        full = model.encoded_update_size(len(taskid), list(meta.values()))
        cfg = RunConfig(
            taskid=taskid,
            n_clients=6,
            n_nodes=8,
            rounds=10,
            participation=0.5,
            strategy=strategies[case % 3],
            layers=meta,
            seed=1000 + case,
            int_mode=int_mode,
            paging=True,
            epc_budget=full * 2,
            tx_capacity=1 << 20,
        )
        report = run_task(cfg)
        assert report.ok
        oracle = oracle_run(cfg)
        assert len(oracle) == 10
        for r, (got, want) in enumerate(zip(report.round_models, oracle)):
            if int_mode:
                assert got.bit_equal(want), f"case {case} round {r}"
            else:
                assert got.allclose(want, abs_tol=1e-12), f"case {case} round {r}"
    _line(4, "20 runs x 10 rounds: on-chain model equals plaintext oracle", t0, 60.0)


# ---------------------------------------------------------------------------
# 5. Authenticity: fuzzed uploads and tampered envelopes, zero acceptances.
# ---------------------------------------------------------------------------

def test_acceptance_05_authenticity_fuzz():
    t0 = time.time()
    ctx = provision_enclave(clients=(1, 2), layer_range=(0,), tx_capacity=600)
    updates = [
        simple_update(1, [np.linspace(0, 1, 200)], dataset_size=3),
        simple_update(2, [np.linspace(1, 2, 200)], dataset_size=5),
    ]
    out = ctx["host"].resume(ctx["eid"], client_inputs(ctx, updates))
    chunks = out.chunks
    assert len(chunks) >= 2

    led = Ledger("committee")
    led.create_task(TASKID)
    led.upload_pk("committee", TASKID, ctx["vk"].public_bytes())
    led.set_expected_chunks("committee", TASKID, len(chunks))

    rng = Random(5)
    rejections = 0
    for _ in range(1000):
        c = rng.choice(chunks)
        field = rng.choice(["payload", "sigma", "round", "index"])
        if field == "payload":
            data = bytearray(c.payload)
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            mutated = SignedChunk(c.taskid, c.round, c.index, bytes(data), c.sigma)
        elif field == "sigma":
            data = bytearray(c.sigma.raw)
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            mutated = SignedChunk(c.taskid, c.round, c.index, c.payload,
                                  crypto.Signature(bytes(data)))
        elif field == "round":
            mutated = SignedChunk(c.taskid, c.round ^ (1 << rng.randrange(64)),
                                  c.index, c.payload, c.sigma)
        else:
            mutated = SignedChunk(c.taskid, c.round, c.index ^ (1 << rng.randrange(31)),
                                  c.payload, c.sigma)
        receipt = led.upload_global_model("node:0", mutated)
        rejections += (not receipt.accepted)
    assert rejections == 1000
    assert len(ledger_storage(led)) == 0

    # tampered client envelopes: every single-bit mutation aborts the resume
    ctx2 = provision_enclave(clients=(1, 2), layer_range=(0,), round_index=0)
    base_inputs = client_inputs(ctx2, [
        simple_update(1, [[1.0, 2.0]], dataset_size=2),
        simple_update(2, [[3.0, 4.0]], dataset_size=4),
    ])
    failures = 0
    for _ in range(1000):
        which = rng.randrange(2)
        env_m, env_k, sender = base_inputs[which]
        victim = rng.choice(["m", "k"])
        env = env_m if victim == "m" else env_k
        field = rng.choice(["nonce", "ciphertext", "tag"])
        data = bytearray(getattr(env, field))
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        mutated_env = with_envelope_field(env, field, data)
        trial = list(base_inputs)
        trial[which] = (
            (mutated_env, env_k, sender) if victim == "m" else (env_m, mutated_env, sender)
        )
        try:
            ctx2["host"].resume(ctx2["eid"], trial)
        except crypto.AuthFailure:
            failures += 1
    assert failures == 1000
    _line(5, "1000 fuzzed chunks rejected + 1000 tampered envelopes refused", t0, 30.0)


# ---------------------------------------------------------------------------
# 6. Confidentiality: sentinel never leaves enclave/client state; the
#    detector itself is proven live by a leaky stub cipher.
# ---------------------------------------------------------------------------

def test_acceptance_06_confidentiality(monkeypatch):
    t0 = time.time()
    cfg = RunConfig(
        taskid="confidential",
        n_clients=6,
        n_nodes=4,
        rounds=3,
        participation=1.0,
        strategy="clientmax",
        layers={0: 8, 1: 8},
        seed=9,
        sentinel=True,
        taps=True,
        epc_budget=1 << 30,
        tx_capacity=1 << 20,
    )
    report = run_task(cfg)
    assert report.ok
    assert report.verification["confidentiality_sentinel_hits"] == "pass"
    assert report.verification["confidentiality_key_hits"] == "pass"

    # detector self-test: a cipher that embeds the plaintext must be flagged
    use_leaky_cipher(monkeypatch)
    leaky_run = TaskRun(cfg)
    leaky_report = leaky_run.run()
    monkeypatch.undo()
    conf = leaky_run.committee.conf
    n_sends = sum(len(conf.subset(r, s.index)) for r in range(cfg.rounds) for s in conf.slots)
    assert stub_sealed_model_envelopes(leaky_run.tap) == n_sends > 0
    assert leaky_report.verification["confidentiality_sentinel_hits"].startswith("FAIL")
    assert not leaky_report.ok
    _line(6, "zero sentinel/key leaks; leaky-cipher self-test trips detector", t0, 30.0)


# ---------------------------------------------------------------------------
# 7. Failover: kills on 4/8/16-node runs terminate verified and bit-identical.
# ---------------------------------------------------------------------------

def test_acceptance_07_failover():
    t0 = time.time()
    scenarios = [
        (4, 1, [(1, "between")]),                        # 25% of 4
        (8, 2, [(1, "between"), (3, "collect")]),        # 25% of 8
        (16, 4, [(1, "between"), (1, "collect"), (3, "between"), (3, "collect")]),
    ]
    for n_nodes, n_layers_divisor, kill_points in scenarios:
        n_layers = max(1, n_nodes // 4)
        meta = {i: 6 for i in range(n_layers)}
        taskid = f"failover-{n_nodes}"
        per_single = model.encoded_update_size(len(taskid), [6]) + 16
        base = dict(
            taskid=taskid,
            n_clients=8,
            n_nodes=n_nodes,
            rounds=5,
            participation=1.0,
            strategy="clientmax",
            layers=meta,
            seed=77 + n_nodes,
            int_mode=True,
            epc_budget=per_single * 4,  # two partitions per layer
            tx_capacity=1 << 20,
        )
        clean = run_task(RunConfig(**base))
        assert clean.ok

        faults = [
            FaultEvent(kind="kill_node", node=i, round=r, phase=phase)
            for i, (r, phase) in enumerate(kill_points)
        ]
        faulty = run_task(RunConfig(**base, faults=faults))
        assert faulty.ok, f"{n_nodes}-node failover run did not verify"
        assert faulty.round_models[-1].bit_equal(clean.round_models[-1])
        recovery_rounds = {r for r, _ in kill_points}
        for r, rd in enumerate(faulty.rounds):
            if r in recovery_rounds:
                assert rd["failover"]["Re-schedule"] > 0
                assert rd["failover"]["Connect"] > 0
            else:
                assert rd["failover"]["Re-schedule"] == 0
                assert rd["failover"]["Connect"] == 0
    _line(7, "kills on 4/8/16 nodes: verified, bit-identical, phases reported", t0, 60.0)


# ---------------------------------------------------------------------------
# 8. Multi- vs single-enclave direction under paging pressure.
# ---------------------------------------------------------------------------

def test_acceptance_08_multi_vs_single_direction():
    t0 = time.time()
    layers = {i: 250 for i in range(4)}
    taskid = "direction"
    per_client = model.encoded_update_size(len(taskid), [250] * 4)
    budget = 40 * per_client // 4  # single enclave 4x over budget at 40 clients

    def agg_plus_upload(strategy, n):
        cfg = RunConfig(
            taskid=taskid, n_clients=n, n_nodes=20, rounds=1, participation=1.0,
            strategy=strategy, layers=layers, seed=4, paging=True,
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
        assert multi < single, f"n={n}: multi {multi} !< single {single}"
        gaps.append(single - multi)
    assert gaps[0] < gaps[1] < gaps[2]
    _line(8, "client-split beats single enclave; gap grows over 40/80/160", t0, 30.0)


# ---------------------------------------------------------------------------
# 9. Chain-preset latency ratios.
# ---------------------------------------------------------------------------

def test_acceptance_09_chain_preset_ratios():
    t0 = time.time()
    for payload in (1, 50_000, 2_000_000, 77_000_000):
        fab = apply_chain_model(payload, CHAIN_PRESETS["fabric"])
        mod = apply_chain_model(payload, CHAIN_PRESETS["fabric-mod"])
        tend = apply_chain_model(payload, CHAIN_PRESETS["tendermint"])
        assert mod == 0.5 * fab
        assert tend <= mod
    # and end to end through full runs
    latencies = {}
    for chain in ("fabric", "fabric-mod", "tendermint"):
        cfg = RunConfig(
            taskid="chains", n_clients=4, n_nodes=2, rounds=1, participation=1.0,
            strategy="single", layers={0: 8}, seed=6, chain=chain, epc_budget=1 << 30,
        )
        report = run_task(cfg)
        latencies[chain] = report.rounds[0]["phases"][PHASE_CHAIN]
    assert latencies["fabric-mod"] == 0.5 * latencies["fabric"]
    assert latencies["tendermint"] <= latencies["fabric-mod"]
    _line(9, "halved-interval preset = 0.5x latency; dynamic preset <= it", t0, 5.0)


# ---------------------------------------------------------------------------
# 10. Replay and duplicate protection, 500 trials.
# ---------------------------------------------------------------------------

def test_acceptance_10_replay_protection():
    t0 = time.time()
    # (a) accepted chunks can never be stored twice
    ctx = provision_enclave(clients=(1, 2), layer_range=(0,), tx_capacity=400)
    updates = [
        simple_update(1, [np.linspace(0, 1, 100)], dataset_size=2),
        simple_update(2, [np.linspace(1, 2, 100)], dataset_size=3),
    ]
    out = ctx["host"].resume(ctx["eid"], client_inputs(ctx, updates))
    led = Ledger("committee")
    led.create_task(TASKID)
    led.upload_pk("committee", TASKID, ctx["vk"].public_bytes())
    led.set_expected_chunks("committee", TASKID, len(out.chunks))
    for c in out.chunks:
        assert led.upload_global_model("node:0", c).accepted

    rng = Random(8)
    rejected = 0
    for _ in range(250):
        receipt = led.upload_global_model("node:0", rng.choice(out.chunks))
        assert receipt.reason in ("DuplicateIndex", "WrongRound")
        rejected += (not receipt.accepted)
    assert rejected == 250

    # (b) prior-round client envelopes are refused by the enclave
    ctx2 = provision_enclave(clients=(1,), layer_range=(0,), round_index=0)
    stale = client_inputs(ctx2, [simple_update(1, [[1.0]], round_index=0)], round_index=0)
    ctx2["host"].resume(ctx2["eid"], stale)

    refused = 0
    for trial in range(250):
        arm_round(ctx2["host"], ctx2["eid"], ctx2["committee_ssk"], trial + 1, ctx2["rng"])
        with pytest.raises(RoundMismatch):
            ctx2["host"].resume(ctx2["eid"], stale)
        refused += 1
    assert refused == 250
    _line(10, "500/500 replays rejected (duplicate index / stale round)", t0, 10.0)
