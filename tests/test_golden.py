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
    "chunks-64": "63764e91d2ce00a32c7510ef73f22e85e34f6c9ab21210d6cb3109950e23281a",
    "clientmax-float": "aedfef0953327a8109ada04b12931b2b3620fb4e344ba1e845eebf3abfaa8ab8",
    "clientmax-int": "6417af4c1fc4174682f45bdc8f54ea888b63245f4100521d41d27b95f13e9940",
    "drop": "177b78e5dc25937173a879ad52ce2d8ba1ef1bd9f0628274dece2c1c8e97d3f7",
    "kill-between": "2098f201b3940ca5e5e414334b2cc169a66501be9110acb8127d434060b4a6e7",
    "kill-collect": "d77c718d6c5efac7acf173361c9031d67cb837ed0b86ebee5087e70ef1f3d49e",
    "layermax-float": "58e1e908f2dd3f572fda7aae6581affc7f1b8a384dfc31b726238b15fa9f1d4f",
    "layermax-int": "cb3d39b6671ac42bcda710583312297ff44d3cdd1cf98cccd78c8919e2ea76aa",
    "paging": "1df6a8dfda2a5588585d11b864562802193d62fba1385c920f5dc4f385d4b16e",
    "sentinel-taps": "fc3769a65a90d57016b13c40735cd564b1da3e5eee0e02009e5874059637a393",
    "single-float": "2e8a3e1c293c2086235a2cbeb011a190ab3d3c1e6f208783d4b5d27b3ebd5fe3",
    "single-int": "30719085f62cbbc6a0c98db4ca132d797d00b6dfa72033f4c6f3a1ef79de7da7",
    "straggler-exclude": "9c2619e714ea68c8c52ba83f257fcbc9823917e9cfc8a11d934c04ef082f8476",
    "tamper-chunk": "e67ab3ea1ec7025b08213b5a7470260d6e3afce22306a4e61577fa4119672058",
    "tamper-install": "7f499d8edbf0e6d6941e45ba38aac5e15ff8fc0ec4f4d29ce54ac955cdd540aa",
    "uniform-tendermint": "69bc939583e54a3411980c42025c32f703eb04451ffa9247479538adf8386efb",
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_digest_is_pinned(name):
    report = run_task(_config(**CONFIGS[name]))
    assert report.digest() == GOLDEN[name]
