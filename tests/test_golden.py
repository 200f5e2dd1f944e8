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
    "chunks-64": "85736e5e5d68eef35c9e905dd1149dfc282f62ec1ef50135da66bd114ff965b7",
    "clientmax-float": "43e72078ece756c6b832a6dd14c42cc1f6562328def5671fe131843b4e8beecb",
    "clientmax-int": "172fcc6dfc3e88abcd0576b35e2c6ea6d726aff8ae7a3c419a8791544583e613",
    "drop": "2082a3bf8123ef5f4e5af1b3d8bce31871e62b72b0065f6d59cb3cccbfba055f",
    "kill-between": "715de813d864d2cb2828e0859b68699f3a108d6a25d8d6f47f4845aa454fb807",
    "kill-collect": "0e3aba20318e85b22403cbccc12a4c6b3b658ddee5fa2225f210ca0957ecf690",
    "layermax-float": "70661a37232ee7272f69d5dad9b50301be279933cf045be6b93ceba14adeb07b",
    "layermax-int": "0b436c4ff37295cdb8e04df096a4ed5e8ac9e0ec0632dd669a3b46ec0f6fe26d",
    "paging": "b8348a3eb0bf78b7ffa7e4f08395ffb926afa324f0f47038e3bffc84451ad875",
    "sentinel-taps": "d7e212f9a836a04a908a5b7a10527fbcda2d2521646b020dbe2aa7356b12b75e",
    "single-float": "560c15b80f01ba93883ad0dd0e803c907e71d3dfb9d63f26ea77ff7eadcbf2ef",
    "single-int": "b7521beb1b8b0b94a41c56211ed484782daac40ad7091b020d9dcd8042520ff4",
    "straggler-exclude": "53e0254873674c26d95384c1b13f0fb976ceb249a89bcbbefc510c9dddfe368a",
    "tamper-chunk": "13a802489c8fc7719d56f72825f3c454e365b5adab3cc4ba5391d506c87ed623",
    "tamper-install": "4e5e293b19138a1f28aeb930912e4f15dacc5c28e3c99f8e5ea25c042deb0de1",
    "uniform-tendermint": "44e19ac9f03f8f6ceaab4e809ec9c0aa3e00d557424c808bbdcd666c1732b6e2",
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
