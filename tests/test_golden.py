"""Golden report digests: the same configs must keep producing the same bytes.

A change that alters a wire format changes these digests on purpose and says
why; any other change to them is a change in behaviour.
"""

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
    "chunks-64": "0e9e3ff15007eb87ac4d76fdb953a1e783c27a4a5a78d1347ed347b3aadd0fdf",
    "clientmax-float": "5ea297ecd2db5d2fb6ebc384b9c4e8d769ef8f98b50295e7b1a9ac8b618becd8",
    "clientmax-int": "8020166a1ac8100dfc90713a6d3109f2da6f3ac8736aae3c917361e69fbc8cfd",
    "drop": "4b76a373c7b05866c317341bc059cb6a2e09dbb9f04c76dcde9bf20b5f59ca2b",
    "kill-between": "00a6f16954374fb250f79d9e09801ce66633e0a1bcaa4c7955775b07e3694e0e",
    "kill-collect": "fa3de0dbb5b207530dc905e039d64ad11f8fe34cf0608103b2c973e1fe7a0de6",
    "layermax-float": "a82b2af952695d1c7b6fc7e694f0bbe38e7e54c3295c77bec408f03cb0819938",
    "layermax-int": "b0d2ecdd80b1360d0f1fb40ed9821a7c0d760bb52987fcbd3bee3debcb140af2",
    "paging": "ce97bbe52e540bca580e1df27d72f9afa171a61bce129c09066046bec597260a",
    "sentinel-taps": "af54ab1ce1f8af929f6feb309c422cda872f6ae5ba53ef5de6c1a0d044155eee",
    "single-float": "1d7550911dd3bd337d67be4c78dd4ce192767f83195106ed1bdac798c8f74fa3",
    "single-int": "a198150eed0510c4715b8455e8f904f84ee3729c67208b0a31b9c4adb4b21db6",
    "straggler-exclude": "4251cad87c25a8ef3b5b939cb7909fcab6fdc4d3f47d03b29d61624c911a99fa",
    "tamper-chunk": "124a7289df8b87213c46b4b59e4936b322f695634d6a3840ad47e3d1bd1027cf",
    "tamper-install": "0cb4b564fd8be8363e1cb617af3c9921ddd50d8241f34dc398fc52d0e0d80575",
    "uniform-tendermint": "79f82f487561f0016f275659390ed44e9bbd4149e53c6df561dea9a6010247db",
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_digest_is_pinned(name):
    report = run_task(_config(**CONFIGS[name]))
    assert report.digest() == GOLDEN[name]
