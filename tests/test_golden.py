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
    "chunks-64": "fe343cf3c8481adff9aa79acc2b1141d3c5b806eea1ed89a875d80fca2427ef6",
    "clientmax-float": "4b882fb72e2c10485ec824f3594863afeff7a210536720fdc592762adb6f4504",
    "clientmax-int": "ec887e17d5d8eebd90bd34952f808863d819708eae843b217242b9a3717e11ce",
    "drop": "8186dc72fcde4633845f54c795d7c2ab622142e0add084a7e60f47bb0956dd92",
    "kill-between": "9e9388a08636ac8c54376182a7fbbe28cabb93af808e286da5537e80135ae737",
    "kill-collect": "78a5956e1da0df6e6eaabc6c4389352d85d47c59e9e193c67c464d2c18a5238c",
    "layermax-float": "4bb2ee4897e690f757142725cf6473a42ba4805d22b48023ea3f959af7d59082",
    "layermax-int": "9bd4e04b60a2801bde5aa0c63b27ab672bcd2b8f4de78ee0c50b4c2936b857e9",
    "paging": "efdbee926afd043938032c9c6b25ff5ca23d4f833dba4f193553496d65e6e1af",
    "sentinel-taps": "7e5d8d89b7e83c2cdf5e22c93480e575c011dfcb1cba57f23220b83ba911811b",
    "single-float": "0db6ec8e688e4fae86a8b37d2e691b373d1d605b03553550ed5c1abe9f7effb8",
    "single-int": "61bc7bc29f38a80347623699da11138b9d7e1cdc6dd05bc9a43227505bf72d2f",
    "straggler-exclude": "47ada853166c2bf3778ee756b41e60310a78c004e26c0520e55e33099447d094",
    "tamper-chunk": "03803c70b7c3102645bac8c50c873e8b19d81adbb61d6b4814bc6c665d634770",
    "tamper-install": "6dd6583522aaa182b05ebb8051fdef42c440fd8a03106dcb8ccaffa9b2f7c5b7",
    "uniform-tendermint": "8f696ca65c9e067c46a8abd4be8bbe60ecdce76d2ac2003ec2e154ed137ec9e1",
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
