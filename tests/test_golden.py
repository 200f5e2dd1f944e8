"""Golden report digests: the same configs must keep producing the same bytes.

A change that alters a wire format changes ``GOLDEN`` on purpose and says
why; any other change to them is a change in behaviour. ``MASKED`` pins the
same reports with ``traffic_bytes_by_kind`` left out, so it holds across a
wire change: a report that still matches it behaved the same.
"""

import functools
import hashlib
import json

import pytest

from fedtee.config import FaultEvent, RunConfig
from fedtee.harness import run_task


def _config(**kw):
    base = dict(
        taskid="golden-task",
        n_clients=6,
        n_nodes=6,
        rounds=3,
        participation=1.0,
        strategy="clientmax",
        layers={0: 24, 1: 16},
        epc_budget=800,
        seed=5,
    )
    base.update(kw)
    return RunConfig(**base)


def _drop(src, count):
    return FaultEvent(kind="drop", message_kind="ModelEnvelope", src=src, count=count)


CONFIGS = {
    "single-float": dict(strategy="single", epc_budget=1 << 20),
    "single-int": dict(strategy="single", epc_budget=1 << 20, int_mode=True),
    "clientmax-float": dict(),
    "clientmax-int": dict(int_mode=True),
    "layermax-float": dict(strategy="layermax"),
    "layermax-int": dict(strategy="layermax", int_mode=True),
    "kill-collect": dict(
        int_mode=True, faults=[FaultEvent(kind="kill_node", node=1, round=1, phase="collect")]
    ),
    "kill-between": dict(
        int_mode=True, faults=[FaultEvent(kind="kill_node", node=0, round=2, phase="between")]
    ),
    "drop": dict(faults=[_drop("client:2", 1)]),
    "straggler-exclude": dict(
        straggler_policy="exclude", straggler_max_retries=1, faults=[_drop("client:3", 999)]
    ),
    "tamper-chunk": dict(faults=[FaultEvent(kind="tamper_chunk", round=1)]),
    "tamper-install": dict(faults=[FaultEvent(kind="tamper_install", node=0)]),
    "paging": dict(strategy="single", epc_budget=1000, paging=True),
    "sentinel-taps": dict(sentinel=True, taps=True),
    "chunks-64": dict(tx_capacity=64),
    "uniform-tendermint": dict(
        participation=0.5, uniform_random_participants=True, chain="tendermint"
    ),
}

GOLDEN = {
    "chunks-64": "25d9749e294a49dd85a3757d13001faf1c89d57c48d95aef83f54e83fab27ed5",
    "clientmax-float": "c65e45a36ba77da9676eb843351f62cf1951c8f1de9a65f1fd75643e8c691f99",
    "clientmax-int": "2f04f1130d60e35b96f7aa4ff7134e17ec7ced0c38b577211d49c3d0f27c7079",
    "drop": "413e5a7a90fd098fb5e88832fcb2a744d5738bbfd529dced43e1febb9f477cc8",
    "kill-between": "72fd272a3e28eb21d3203a849dc9387ae3da1052771cd019de8a54736f4bb92a",
    "kill-collect": "8f9a97806477c6dbb5d473b12275e6d2784f8edfc782bc124ef3841d1d544b86",
    "layermax-float": "3c1dee442bb6505ac7319873003775c08e64084f536afd58351ff1867d8b1e3f",
    "layermax-int": "cccc1181d58c892d55c247008ce1c4bbf71ecae9513bf435126d3d96006d1112",
    "paging": "ea5f9db9cb4a38bb7a1214b71643132e2cacc3958ef996defcbffe43a17edc43",
    "sentinel-taps": "2307302491fc6c52fa1ec3144b354813a5280caf3db5f47e6a895c1dd4faab1d",
    "single-float": "60427a6305205910ceb0f789e8c042a697675769b26bf977b64628ba5a58bb70",
    "single-int": "016f0d566f9f0812c69cf1c10b09244dad0cc5cef28f1c03af71578a886e4b8b",
    "straggler-exclude": "ea298381cefe2c098331515821e1845c4992ee3ca3098aaaa20607fefa696e06",
    "tamper-chunk": "4a68e9b15f4e69093e0bd6d5e982f95de5f60a8f4f639c77cbd77c28ba8e0404",
    "tamper-install": "16e0aff0f43fb99ea2a4dca8c6d46d804abddc4bfcc0c64221297e83b07c9862",
    "uniform-tendermint": "0d75137b4bf3004f6b1d2900924468063e9bb924f643c5bc65856a14f1dcc89c",
}

MASKED = {
    "chunks-64": "dd0caf14456575a1d4b089c7371253cf6e75ac0f82d9356ed018f4cc1bebd658",
    "clientmax-float": "ca1bbf04dff9df2cb7ebe000959596c77bac923f5b989afc4453862a63e1679c",
    "clientmax-int": "a5374b90716bb6fc5dd5145d86a189ac6cc98a4566fd10180fdd00827c3755d6",
    "drop": "250cf99d997783bd4cd0cbc84c6534890935303242b669d0ba4053407be578f2",
    "kill-between": "1f0ffc416060d3e0041f45471639227070aab9f16ffcff50e28513b75fc893bb",
    "kill-collect": "a95a934d1d61e6740748c468fc1bb0b7e6c1a1dbbfb8a1ddf28b95386f878298",
    "layermax-float": "ee18e5464885f134de458058022a5149cd6da910345148e1b8cbf30feaf7a4a6",
    "layermax-int": "ba1ebe2abd2e9eb96678ba069f2c1baa603d0bf4e9fb4376acf23a75fb6928ba",
    "paging": "ac3f6089f1eedf1ca054c33e8742c6cf8823e277f45b8954053f35bfc45d149c",
    "sentinel-taps": "30335191e607bfdccf625007352a0ab9c888381b2430055b8f2a487566bf884b",
    "single-float": "321f3fd65a181c45373293e529caceed24c9bd52b861a2e0c05d7d5251ab6670",
    "single-int": "a9201e3a76785d01674ca9ea4496e277d7f27601cedeb1d5bbce4e8f817e9cd8",
    "straggler-exclude": "55eac30af756c17b66cf02884a3885c3c90096954722ac91c85d1d72d3dcf300",
    "tamper-chunk": "1a6560af140a4ba8633ca1ddbd858a57a552537e85e2738815b12957aa13636f",
    "tamper-install": "4bb678164f44d6fc3c7ec3e8b1c5529315dbe991c0fa142afb3d6312dc609752",
    "uniform-tendermint": "69b17cea5e40a1154688018f427a583b01baa91aaf6b4c01cda21b28487cc2ad",
}


@functools.cache
def _report(name):
    return run_task(_config(**CONFIGS[name]))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_digest_is_pinned(name):
    assert _report(name).digest() == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_without_traffic_is_pinned(name):
    obj = json.loads(_report(name).to_json())
    del obj["traffic_bytes_by_kind"]
    masked = json.dumps(obj, sort_keys=True, indent=2)
    assert hashlib.sha256(masked.encode()).hexdigest() == MASKED[name]
