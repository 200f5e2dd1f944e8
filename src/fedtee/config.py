"""Run configuration: model presets, chain presets, fault schedule.

Config files are JSON with the same keys as :class:`RunConfig`. Model presets
carry a declared parameter count and byte size; the synthetic layer
structure is sized so its 8-byte elements occupy the preset's byte size
within 1%, which is what the capacity planner actually packs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from . import model
from .committee import check_task_shape, derive_seed
from .ledger import CHAIN_PRESETS
from .transport import COMMITTEE, MessageKind


@dataclass(frozen=True)
class ModelPreset:
    name: str
    parameters: int
    size_bytes: int


MODEL_PRESETS = {
    "mlp": ModelPreset("mlp", 10_901, 42_580),            # 42.58 KB
    "cnn": ModelPreset("cnn", 22_340, 85_310),            # 85.31 KB
    "resnet18": ModelPreset("resnet18", 11_180_000, 42_640_000),   # 42.64 MB
    "resnet50": ModelPreset("resnet50", 21_290_000, 81_200_000),   # 81.20 MB
    "alexnet": ModelPreset("alexnet", 1_250_000, 4_760_000),       # 4.76 MB
    "bert": ModelPreset("bert", 97_540_000, 390_160_000),          # 390.16 MB
}


def preset_layer_meta(preset: ModelPreset, n_layers: int = 8) -> dict[int, int]:
    """Split the preset's element budget into ``n_layers`` near-equal layers."""
    total = preset.size_bytes // 8
    base, extra = divmod(total, n_layers)
    return {i: base + (1 if i < extra else 0) for i in range(n_layers)}


FAULT_KINDS = ("kill_node", "drop", "tamper_chunk", "tamper_install")


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


@dataclass
class FaultEvent:
    kind: str  # one of FAULT_KINDS
    round: int = 0
    phase: str = "between"  # kill point: "between" rounds or mid-round "collect"
    node: int | None = None
    message_kind: str | None = None  # for drops
    src: str | None = None
    dest: str | None = None
    count: int = 1

    def check(self, n_clients: int, n_nodes: int, rounds: int) -> None:
        """Reject a fault naming a kind, node, round, phase, message or party
        the run lacks, and a drop of no frames."""
        _require(self.kind in FAULT_KINDS, f"unknown fault kind {self.kind!r}")
        if self.kind in ("kill_node", "tamper_chunk"):
            _require(self.round in range(rounds), f"{self.kind}: no round {self.round!r}")
        if self.kind in ("kill_node", "tamper_install"):
            _require(self.node in range(n_nodes), f"{self.kind}: no node {self.node!r}")
        if self.kind == "kill_node":
            _require(self.phase in ("between", "collect"), f"unknown kill phase {self.phase!r}")
        if self.kind == "drop":
            kinds = (None, *MessageKind.__members__)
            _require(self.message_kind in kinds, f"unknown message kind {self.message_kind!r}")
            _require(self.count >= 1, f"drop: count {self.count!r} drops no frame")
            parties = {"owner", COMMITTEE, "ledger"}
            parties.update(f"client:{i}" for i in range(n_clients))
            parties.update(f"node:{j}" for j in range(n_nodes))
            for end in (self.src, self.dest):
                _require(end is None or end in parties, f"drop: no party {end!r}")


@dataclass
class RunConfig:
    taskid: str = "task-0"
    n_clients: int = 10
    n_nodes: int = 4
    rounds: int = 5
    participation: float = 0.10
    strategy: str = "single"  # single | clientmax | layermax
    chain: str = "fabric"
    model_preset: str | None = None
    layers: dict[int, int] = field(default_factory=lambda: {0: 16, 1: 16})
    epc_budget: int = 128 * 1024 * 1024
    tx_capacity: int = 2 * 1024 * 1024
    seed: int = 0
    int_mode: bool = False
    paging: bool = False
    sentinel: bool = False
    taps: bool = False
    straggler_policy: str = "wait-all"  # or "exclude"
    straggler_max_retries: int = 5
    uniform_random_participants: bool = False
    bandwidth_bytes_per_ms: float | None = None  # client->node cap; None = unconstrained
    faults: list[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        """Reject a config no run can serve, so it fails here and not mid-run."""
        self.layers = {int(k): int(v) for k, v in self.layers.items()}
        preset, policy = self.model_preset, self.straggler_policy
        _require(preset in (None, *MODEL_PRESETS), f"unknown model_preset {preset!r}")
        meta, bandwidth = self.model_meta(), self.bandwidth_bytes_per_ms
        check_task_shape(self.rounds, self.participation, self.strategy, meta)
        _require(min(meta) >= 0 and min(meta.values()) >= 0, "negative layer index or size")
        _require(not self.sentinel or meta[min(meta)] >= 2, "sentinel needs 2 elements in layer 0")
        _require(self.n_clients >= 1 and self.n_nodes >= 1, "n_clients and n_nodes must be >= 1")
        _require(0 <= self.seed < 2**64, "seed must be in [0, 2**64)")
        _require(self.chain in CHAIN_PRESETS, f"unknown chain {self.chain!r}")
        _require(self.tx_capacity >= 1, "tx_capacity must be >= 1")
        _require(policy in ("wait-all", "exclude"), f"unknown straggler_policy {policy!r}")
        _require(self.straggler_max_retries >= 0, "straggler_max_retries must be >= 0")
        _require(bandwidth is None or bandwidth > 0, "bandwidth_bytes_per_ms must be > 0")
        for ev in self.faults:
            ev.check(self.n_clients, self.n_nodes, self.rounds)

    @property
    def taskid_bytes(self) -> bytes:
        return self.taskid.encode()

    def model_meta(self) -> dict[int, int]:
        if self.model_preset is not None:
            return preset_layer_meta(MODEL_PRESETS[self.model_preset])
        return dict(self.layers)

    def to_json(self) -> str:
        obj = asdict(self)
        obj["layers"] = {str(k): v for k, v in self.layers.items()}
        return json.dumps(obj, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        obj = json.loads(text)
        if "faults" in obj:
            obj["faults"] = [FaultEvent(**f) for f in obj["faults"]]
        return cls(**obj)

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


def load_fault_schedule(path: str) -> list[FaultEvent]:
    with open(path, "r", encoding="utf-8") as fh:
        return [FaultEvent(**f) for f in json.load(fh)]


def initial_model(config: RunConfig) -> model.WeightVector:
    """Seeded initial weights in [-1, 1); on the dyadic grid in int mode."""
    rng = np.random.default_rng(derive_seed(config.seed, "m_init"))
    meta = config.model_meta()
    idxs = sorted(meta)
    if config.int_mode:
        values = [rng.integers(-256, 257, size=meta[idx]) * model.INT_MODE_QUANTUM for idx in idxs]
    else:
        values = model.uniform_layers(rng, [meta[idx] for idx in idxs], -1.0, 1.0)
    return model.WeightVector([model.Layer(idx, v) for idx, v in zip(idxs, values)])


# Planted in every synthetic local update when leak detection is on: two
# adjacent float64 elements whose little-endian bytes form this pattern.
SENTINEL = bytes.fromhex("deadbeefcafef00d" "0ddf0efac2b3a1d0")


def plant_sentinel(wv: model.WeightVector) -> None:
    """Write SENTINEL over the first two elements of layer 0."""
    first = wv.layers[0].values
    if len(first) < 2:
        raise ValueError("layer 0 too small to carry the sentinel")
    first[:2] = np.frombuffer(SENTINEL, dtype="<f8")
