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
    "chunks-64": "77f6325ed2eb5503d4b7106769074b95b99726a6200bcbfe4996fdadbe12b096",
    "clientmax-float": "feff85e29a4bd09971083583c522bb380cc71d26f80606e470a2ea03affc28b0",
    "clientmax-int": "ae13a75d76acfeb7c6b8c946dd6cee5b9ec2e585e7108590003b31f02f11920a",
    "drop": "eede1139d1c8bc7d56e957c91b98d5dc700f94bc2002b07b30ac8e514a4d8be8",
    "kill-between": "0cd2a37171d42c6f7678da1cabe9acb6b1e8d165606b718c27aac2933fb29f1a",
    "kill-collect": "fc05a4f2b5bfb8c82a497600a645ac9204546ae28769b6798dc924aa6b9ddaef",
    "layermax-float": "1e76fbb4ada139aa958b8576eec9c5dcf3a18f24e652631af91e8aba719aa613",
    "layermax-int": "348413814380b7ad88ad81ff6e3b1e47441d826d8303e15e6e0bd195178ec98e",
    "paging": "590f6a39521ff1c437db3b40d4a5f6af3cf763f3bd6cda8de13e73aae69646e3",
    "sentinel-taps": "e5575e5aaf88b35b573dadceeffdc6cde6fe90292bfcacaf489cc11e86a42cc9",
    "single-float": "76d8623931e6599a7fe96d1dac465402cc7c83118262748b3845075eab917675",
    "single-int": "ceae392b5f5cff18f81f81b1e1de25677e252504640723c06b522475cc14c61b",
    "straggler-exclude": "c261b01b134c5f76234d978e2b3acd0ae2d923a6dbcd3f0aeb0d9a869db4643e",
    "tamper-chunk": "5858a3d5f42af27baaabf8c056460b8b0ca24a32dc3656113da255a74637e78d",
    "tamper-install": "187abe1d0c4bd460d2a5f19188e8e9e64c4935924d95cec48c359da1830974db",
    "uniform-tendermint": "cd40557090208f6e60cc4b8099b6f37de288e988f04eef64978ab4692e45077b",
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
