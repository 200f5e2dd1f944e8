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
    "chunks-64": "51aa9f2a2648fee5e36aabcb228e1d7d33002d64d8d838825b1adcabb416fb8a",
    "clientmax-float": "f7301470fe42e47de5eb0c92502318f3c3d67c82ba03cb6aadb05a71069d00fc",
    "clientmax-int": "86284a9c2750d21c57ba4c49ef7c1aa3d2ef752c2714521ca37b00ae4587433c",
    "drop": "cf0ad2bf2fce7e0a47df5ca1cd90121291299d036ebb83f7ce1372935370b4f6",
    "kill-between": "ccaecd83a142ca7ba10a283766287183823274e786fd73f36be7afc341605bce",
    "kill-collect": "d305595bd53f358284b6f4ef6bc58f573ce1356a9062d5c0d22aba7783399ff8",
    "layermax-float": "76753c3cf4e6c32853f8187225ad542a460f8f52ccc1284c5432db63d2e9bc4c",
    "layermax-int": "83b36cda4e9d19b9120e72c5a000ce9b6ac76d423dafcbdabd2f7b4f26c6a7bd",
    "paging": "e88e1b8fc5d4fda4d69eaac9c678daf8004c2fed6ea9b09c3694b940b9e27700",
    "sentinel-taps": "63d45127b40930f47662d0ae228cfca27bbff5e3d0215b9238df481033171163",
    "single-float": "202754bf26d43f7d5b90b588a4beae4049ebc2829b3085e19904f1f7355edf7d",
    "single-int": "45e46617965d6e74d801403421f4da6b49fe6fcb8a83a8d52c997abb3ae6c58b",
    "straggler-exclude": "ef14c7f824c856090080f14c286c20fa221ee977e5b157f1f2b4d7691461cbfb",
    "tamper-chunk": "df0d0ffeb52605e53b700aa62bc604086c2a7f91e1b20505c09d3aadb66cb524",
    "tamper-install": "ea2cb030e133ed7d934ed693216f086be97257706e2f1a23b00b35045fb41950",
    "uniform-tendermint": "674018072f684cb1a91ec86112d34ccdad6309dfa05ec4d747d7a481ce0708f2",
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
