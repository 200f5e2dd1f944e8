"""Orchestration: traffic model, phases, verification, faults, CLI."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtee import crypto, model
from fedtee.cli import main as cli_main
from fedtee.config import SENTINEL, FaultEvent, MODEL_PRESETS, RunConfig, preset_layer_meta
from fedtee.harness import (
    PHASE_AGG,
    PHASE_CHAIN,
    PHASE_SEND,
    SCAN_BLOCK,
    TaskRun,
    count_needles,
    oracle_run,
    run_task,
    traffic_fedtee,
    traffic_vanilla_fl,
    verify_report,
)


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
    checks = verify_report(report, oracle)
    assert checks["external_oracle"] == "pass"
    assert checks["all"] == "pass"
    assert verify_report(report, oracle[:-1])["external_oracle"] == "FAIL"


def test_verify_fails_when_a_round_model_is_missing():
    run = TaskRun(small_config(int_mode=True))
    report = run.run()
    assert report.verification["end_to_end_matches_oracle"] == "pass"
    report.round_models.pop()
    run.verify()
    assert report.verification["end_to_end_matches_oracle"] == "FAIL"
    assert not report.ok


def test_sentinel_clean_run_passes_confidentiality():
    report = run_task(small_config(sentinel=True, taps=True))
    assert report.verification["confidentiality_sentinel_hits"] == "pass"
    assert report.verification["confidentiality_key_hits"] == "pass"
    assert report.ok


def test_leaky_stub_cipher_trips_the_detector(monkeypatch):
    """Self-test: a cipher that embeds the plaintext must be caught."""

    def leaky_encrypt(key, aad, plaintext, rng=None):
        tag = hashlib.sha256(key.raw + aad + plaintext).digest()[:16]
        return crypto.Envelope(b"\x00" * 12, aad, plaintext, tag)

    def leaky_decrypt(key, env):
        tag = hashlib.sha256(key.raw + env.aad + env.ciphertext).digest()[:16]
        if tag != env.tag:
            raise crypto.AuthFailure("stub cipher tag mismatch")
        return env.ciphertext

    monkeypatch.setattr(crypto, "ae_encrypt", leaky_encrypt)
    monkeypatch.setattr(crypto, "ae_decrypt", leaky_decrypt)
    run = TaskRun(small_config(sentinel=True, taps=True, rounds=1))
    report = run.run()
    assert not report.ok

    # brute-force recount over the same haystacks the scan reads
    keys = [run.owner.msk.raw, run.committee.vk.secret_scalar_bytes()]
    keys += [k.raw for c in run.clients.values() for k in c.ssk_by_enclave.values()]
    keys += [k.raw for k in run.ssk_by_eid.values()]
    haystacks = [run.tap.raw_bytes(), b"".join(c.payload for c in run.ledger.storage.values())]
    haystacks += [node.buffer_bytes() for node in run.nodes.values()]
    sentinel_hits = sum(hay.count(SENTINEL) for hay in haystacks)
    key_hits = sum(hay.count(k) for hay in haystacks for k in keys)
    assert sentinel_hits > 0 and key_hits > 0
    assert report.verification["confidentiality_sentinel_hits"] == f"FAIL ({sentinel_hits} hits)"
    assert report.verification["confidentiality_key_hits"] == f"FAIL ({key_hits} hits)"


_FILLER = bytes(range(256)) * (SCAN_BLOCK // 256 + 1)


@st.composite
def needle_haystacks(draw):
    """Needles planted near chunk edges and, at times, the scan's block edge."""
    needles = draw(st.lists(st.binary(min_size=8, max_size=24), min_size=1, max_size=3))
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
                st.builds(lambda n, k: n[:k], st.sampled_from(needles), st.integers(1, 23)),
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
    counts = count_needles(chunks, needles)
    for n in needles:
        assert counts[n] == joined.count(n)


def test_count_needles_finds_a_needle_across_the_block_edge():
    needle = bytes(range(231, 199, -1))  # descending, so never in the filler
    for before_edge in range(1, len(needle)):
        chunks = [_FILLER[: SCAN_BLOCK - before_edge], needle[:5], needle[5:]]
        assert count_needles(chunks, [needle, needle[:8]]) == {needle: 1, needle[:8]: 1}


def test_count_needles_rejects_short_needles():
    with pytest.raises(ValueError):
        count_needles([b"x" * 32], [b"x" * 16, b"1234567"])


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
    assert verify_report(report, oracle_run(cfg))["all"] == "pass"


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


def test_tampered_install_is_replaced_during_provisioning():
    cfg = small_config(faults=[FaultEvent(kind="tamper_install", node=0)])
    report = run_task(cfg)
    assert report.ok
    assert any("failed attestation" in e for e in report.events)


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


def test_honest_task_uploads_exactly_one_verification_key():
    run = TaskRun(small_config())
    run.setup()
    uploads = [e for e in run.ledger.events if e.kind == "upload_pk"]
    assert len(uploads) == 1
    assert uploads[0].detail["rotated"] is False


def test_traffic_accounting_nonzero_for_protocol_kinds():
    report = run_task(small_config(rounds=2))
    traffic = report.traffic_bytes_by_kind
    for kind in ("ModelEnvelope", "ChunkUpload", "LedgerRead", "Heartbeat", "ConfDeliver"):
        assert traffic.get(kind, 0) > 0


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
