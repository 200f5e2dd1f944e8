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
    "chunks-64": "6ece231a83366a21601f8ae9eede846fbc26368c87d1169689838aef8e8e2d66",
    "clientmax-float": "f7863ef310b159b045598e59d2e05f12f08076348362693328cec72f71f5641b",
    "clientmax-int": "c84ecbcd29b4d9ba4193f6081e4183c3897d4b5b22fcc059b197451871b123fe",
    "drop": "a9a4e41633b399327c8bfac3ce9eef48b97911b461a06a29301f22ac6ac4a5c1",
    "kill-between": "8b40e3bb59c8e5104e00faeabe7e8677a9134995bda59d7eaf80286ff7fa627f",
    "kill-collect": "9121f37b0102c0dc36f07784639a9ffb4f55efb682fccdcefd931241c2612ddf",
    "layermax-float": "6019f4816ea59ecda604a44fbfe2eadf265e2c5a154f1afeadf72fdc1e99306f",
    "layermax-int": "89481d8411d4b6143652d1fe28d8ff264ff04147239275080239f1705a811ba3",
    "paging": "f60a00fcd799798fce82471f6e16ec7a554fa5b71b822b91da26755031731c17",
    "sentinel-taps": "c5512798bedae4ee3f9d299586b4151da53ddf7f39d0d0687883628c7d88d007",
    "single-float": "186416c18fd542eecbdcb2fd374cacc1456464d070412542d7cb9d294f44f397",
    "single-int": "6544b0d6464d4326c240cdb985c372bca0da86cc2e5581ec601db3c42261255b",
    "straggler-exclude": "90859c5ba3b84d5835210aa69ab863fa54c9d6fa441f5b396889f310ea6a90b3",
    "tamper-chunk": "db03abdbfe42727cf7eb6314444ee1747d19a97aeabd390d39cf94ac32a6fbcb",
    "tamper-install": "fcc54c97d6ecf2d7289132aa3fe29bbbd1eb00d4d80238897fcbfe8a77f4b044",
    "uniform-tendermint": "b16eb75f9641bfbf53fd7bf8ed695d135417f55cbe709e532ec0cc5f3ea043c0",
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_digest_is_pinned(name):
    report = run_task(_config(**CONFIGS[name]))
    assert report.digest() == GOLDEN[name]
