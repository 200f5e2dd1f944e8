"""Weight vectors, canonical byte encoding, and weighted averaging.

The aggregation rule is the dataset-size-weighted mean: every element of the
output is sum(D_i * w_i) / sum(D_i) over the contributing clients. Summation
runs in ascending client-id order per layer, in 64-bit floats, with a single
division at the end; partial aggregates preserve the scaled sums so that a
partitioned execution merges to the same result (bit-exactly when weights are
kept on a dyadic grid, within 1e-9 relative otherwise).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np


class MalformedModel(Exception):
    """Encoded model bytes are truncated or internally inconsistent."""


class ShapeMismatch(Exception):
    """Inputs do not share one layer structure."""


class EmptyInput(Exception):
    """Aggregation over zero updates."""


class CoverageGap(Exception):
    """Partial aggregates leave some (layer, client) cell uncovered."""


class CoverageOverlap(Exception):
    """Partial aggregates cover some (layer, client) cell more than once."""


@dataclass
class Layer:
    index: int
    values: np.ndarray  # float64, 1-D

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)


@dataclass
class WeightVector:
    """Ordered layers of 64-bit weights; indices strictly increasing."""

    layers: list[Layer]

    def __post_init__(self) -> None:
        indices = [l.index for l in self.layers]
        if any(i < 0 for i in indices) or any(b <= a for a, b in zip(indices, indices[1:])):
            raise ValueError("layer indices must be non-negative and strictly increasing")

    def structure(self) -> tuple[tuple[int, int], ...]:
        return tuple((l.index, len(l.values)) for l in self.layers)

    def layer(self, index: int) -> Layer:
        for l in self.layers:
            if l.index == index:
                return l
        raise KeyError(index)

    def slice_layers(self, layer_range: tuple[int, ...]) -> "WeightVector":
        wanted = set(layer_range)
        picked = [Layer(l.index, l.values.copy()) for l in self.layers if l.index in wanted]
        if len(picked) != len(wanted):
            raise ShapeMismatch(f"missing layers {wanted - {l.index for l in picked}}")
        return WeightVector(picked)

    def copy(self) -> "WeightVector":
        return WeightVector([Layer(l.index, l.values.copy()) for l in self.layers])

    def allclose(self, other: "WeightVector", rel: float = 0.0, abs_tol: float = 0.0) -> bool:
        if self.structure() != other.structure():
            return False
        return all(
            np.allclose(a.values, b.values, rtol=rel, atol=abs_tol)
            for a, b in zip(self.layers, other.layers)
        )

    def bit_equal(self, other: "WeightVector") -> bool:
        return self.structure() == other.structure() and all(
            a.values.tobytes() == b.values.tobytes()
            for a, b in zip(self.layers, other.layers)
        )

    def digest(self) -> str:
        h = hashlib.sha256()
        for l in self.layers:
            h.update(struct.pack(">IQ", l.index, len(l.values)))
            h.update(l.values.astype("<f8").tobytes())
        return h.hexdigest()


@dataclass
class LocalUpdate:
    """One client's trained weights for a round, with its dataset size."""

    taskid: bytes
    client: int
    round: int
    weights: WeightVector
    dataset_size: int

    def __post_init__(self) -> None:
        if self.dataset_size < 1:
            raise ValueError("dataset_size must be >= 1")


@dataclass
class PartialAggregate:
    """Scaled sums over a client subset, restricted to a layer subset.

    ``scaled_sum`` holds sum(D_i * w_i) per element, ``weight_sum`` holds
    sum(D_i); dividing only after the merge keeps partitioned execution
    equivalent to the unpartitioned average.
    """

    scaled_sum: WeightVector
    weight_sum: int
    layer_range: tuple[int, ...]
    client_set: tuple[int, ...]

    def __post_init__(self) -> None:
        covered = tuple(l.index for l in self.scaled_sum.layers)
        if covered != tuple(sorted(self.layer_range)):
            raise ValueError("scaled_sum must carry exactly the layers in layer_range")


# ---------------------------------------------------------------------------
# Canonical byte encodings
# ---------------------------------------------------------------------------
# Update: taskid_len(u16 BE) + taskid + round(u64 BE) + client(u64 BE)
#         + dataset_size(u64 BE) + layer_count(u32 BE);
#         per layer: layer_index(u32 BE) + element_count(u64 BE)
#         + elements as little-endian IEEE-754 binary64.

_UPDATE_FIXED_HEADER = 2 + 8 + 8 + 8 + 4
_LAYER_HEADER = 4 + 8


def encoded_update_size(taskid_len: int, layer_elem_counts: list[int] | tuple[int, ...]) -> int:
    return (
        _UPDATE_FIXED_HEADER
        + taskid_len
        + sum(_LAYER_HEADER + 8 * n for n in layer_elem_counts)
    )


def _with_layers(parts: list[bytes], wv: WeightVector) -> bytes:
    """``parts`` followed by layer_count(u32 BE) and every layer."""
    parts.append(struct.pack(">I", len(wv.layers)))
    for l in wv.layers:
        parts.append(struct.pack(">IQ", l.index, len(l.values)))
        parts.append(l.values.astype("<f8").tobytes())
    return b"".join(parts)


def _read_layers(data: bytes, off: int) -> WeightVector:
    """The layer count and layers starting at ``off``, which must end ``data``."""
    (n_layers,) = struct.unpack_from(">I", data, off)
    off += 4
    layers = []
    prev = -1
    for _ in range(n_layers):
        idx, count = struct.unpack_from(">IQ", data, off)
        off += _LAYER_HEADER
        if idx <= prev:
            raise MalformedModel("layer indices not strictly increasing")
        prev = idx
        end = off + 8 * count
        if end > len(data):
            raise MalformedModel("element count exceeds available bytes")
        layers.append(Layer(idx, np.frombuffer(data[off:end], dtype="<f8").astype(np.float64)))
        off = end
    if off != len(data):
        raise MalformedModel("trailing bytes after last layer")
    return WeightVector(layers)


def encode_model(u: LocalUpdate) -> bytes:
    parts = [struct.pack(">H", len(u.taskid)), u.taskid]
    parts.append(struct.pack(">QQQ", u.round, u.client, u.dataset_size))
    return _with_layers(parts, u.weights)


def decode_model(data: bytes) -> LocalUpdate:
    try:
        (tid_len,) = struct.unpack_from(">H", data, 0)
        off = 2
        taskid = data[off : off + tid_len]
        if len(taskid) != tid_len:
            raise MalformedModel("truncated taskid")
        off += tid_len
        round_index, client, dataset_size = struct.unpack_from(">QQQ", data, off)
        weights = _read_layers(data, off + 24)
    except struct.error as exc:
        raise MalformedModel("truncated header") from exc
    if dataset_size < 1:
        raise MalformedModel("dataset_size must be >= 1")
    return LocalUpdate(taskid, client, round_index, weights, dataset_size)


# Partial: weight_sum(u64 BE) + client_count(u32 BE) + client ids (u64 BE, asc)
#          + layer_count(u32 BE); per layer as in the update encoding.

def encoded_partial_size(n_clients: int, layer_elem_counts: list[int] | tuple[int, ...]) -> int:
    return 8 + 4 + 8 * n_clients + 4 + sum(_LAYER_HEADER + 8 * n for n in layer_elem_counts)


def encode_partial(p: PartialAggregate) -> bytes:
    parts = [struct.pack(">QI", p.weight_sum, len(p.client_set))]
    parts.extend(struct.pack(">Q", cid) for cid in p.client_set)
    return _with_layers(parts, p.scaled_sum)


def decode_partial(data: bytes) -> PartialAggregate:
    try:
        weight_sum, n_clients = struct.unpack_from(">QI", data, 0)
        clients = struct.unpack_from(f">{n_clients}Q", data, 12)
        wv = _read_layers(data, 12 + 8 * n_clients)
    except struct.error as exc:
        raise MalformedModel("truncated partial aggregate") from exc
    return PartialAggregate(
        scaled_sum=wv,
        weight_sum=weight_sum,
        layer_range=tuple(l.index for l in wv.layers),
        client_set=clients,
    )


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def fedavg(updates: list[LocalUpdate]) -> WeightVector:
    """Dataset-size-weighted average, summed in ascending client-id order."""
    if not updates:
        raise EmptyInput("no updates to aggregate")
    ordered = sorted(updates, key=lambda u: u.client)
    structure = ordered[0].weights.structure()
    for u in ordered[1:]:
        if u.weights.structure() != structure:
            raise ShapeMismatch(
                f"client {u.client} has structure {u.weights.structure()}, expected {structure}"
            )
    total = sum(u.dataset_size for u in ordered)
    out = []
    for pos, (idx, count) in enumerate(structure):
        acc = np.zeros(count, dtype=np.float64)
        for u in ordered:
            acc += u.dataset_size * u.weights.layers[pos].values
        out.append(Layer(idx, acc / total))
    return WeightVector(out)


def partial_aggregate(updates: list[LocalUpdate], layer_range: tuple[int, ...]) -> PartialAggregate:
    """Scaled sums over ``updates`` restricted to ``layer_range`` (no division)."""
    if not updates:
        raise EmptyInput("no updates to aggregate")
    ordered = sorted(updates, key=lambda u: u.client)
    wanted = tuple(sorted(layer_range))
    sliced = [u.weights.slice_layers(wanted) for u in ordered]
    structure = sliced[0].structure()
    for u, s in zip(ordered[1:], sliced[1:]):
        if s.structure() != structure:
            raise ShapeMismatch(f"client {u.client} disagrees on sliced structure")
    out = []
    for pos, (idx, count) in enumerate(structure):
        acc = np.zeros(count, dtype=np.float64)
        for u, s in zip(ordered, sliced):
            acc += u.dataset_size * s.layers[pos].values
        out.append(Layer(idx, acc))
    return PartialAggregate(
        scaled_sum=WeightVector(out),
        weight_sum=sum(u.dataset_size for u in ordered),
        layer_range=wanted,
        client_set=tuple(u.client for u in ordered),
    )


def combine_partials(parts: list[PartialAggregate]) -> WeightVector:
    """Merge an exact cover of partial aggregates and divide by the total weight.

    ``parts`` must arrive in ascending partition-index order; cells covered
    twice raise CoverageOverlap, and layers whose merged client sets or weight
    sums disagree raise CoverageGap.
    """
    if not parts:
        raise EmptyInput("no partial aggregates to combine")
    per_layer: dict[int, dict] = {}
    for p in parts:
        for l in p.scaled_sum.layers:
            slot = per_layer.setdefault(
                l.index, {"acc": None, "weight": 0, "clients": set()}
            )
            dup = slot["clients"].intersection(p.client_set)
            if dup:
                raise CoverageOverlap(f"layer {l.index}: clients {sorted(dup)} covered twice")
            slot["clients"].update(p.client_set)
            slot["weight"] += p.weight_sum
            if slot["acc"] is None:
                slot["acc"] = l.values.copy()
            elif len(slot["acc"]) != len(l.values):
                raise ShapeMismatch(f"layer {l.index} element counts disagree")
            else:
                slot["acc"] = slot["acc"] + l.values
    all_clients = set().union(*(set(p.client_set) for p in parts))
    weights = {idx: slot["weight"] for idx, slot in per_layer.items()}
    for idx, slot in per_layer.items():
        if slot["clients"] != all_clients:
            raise CoverageGap(
                f"layer {idx} covers {sorted(slot['clients'])}, expected {sorted(all_clients)}"
            )
    if len(set(weights.values())) != 1:
        raise CoverageGap(f"per-layer weight sums disagree: {weights}")
    total = next(iter(weights.values()))
    return WeightVector(
        [Layer(idx, per_layer[idx]["acc"] / total) for idx in sorted(per_layer)]
    )


# ---------------------------------------------------------------------------
# Synthetic training surrogate
# ---------------------------------------------------------------------------

INT_MODE_QUANTUM = 1.0 / 256.0  # dyadic grid for the exact-arithmetic test mode


def _derive_rng(seed: int, client: int, round_index: int) -> np.random.Generator:
    material = struct.pack(">QQQ", seed & (2**64 - 1), client, round_index)
    digest = hashlib.sha256(b"synth\x00" + material).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def synth_local_update(
    global_model: WeightVector,
    client: int,
    round_index: int,
    seed: int,
    *,
    taskid: bytes,
    perturb: float = 0.05,
    int_mode: bool = False,
) -> LocalUpdate:
    """Deterministic stand-in for local training.

    Adds a seeded perturbation (|delta| <= ``perturb``) to each element and
    draws a dataset size in [1, 1000]. In ``int_mode`` the incoming weights
    are snapped to the dyadic grid and perturbations stay on it, so weighted
    sums remain exact in 64-bit floats regardless of summation order.
    """
    rng = _derive_rng(seed, client, round_index)
    layers = []
    for l in global_model.layers:
        if int_mode:
            base = np.round(l.values / INT_MODE_QUANTUM) * INT_MODE_QUANTUM
            steps = int(max(1, round(perturb / INT_MODE_QUANTUM)))
            delta = rng.integers(-steps, steps + 1, size=len(l.values)) * INT_MODE_QUANTUM
        else:
            base = l.values
            delta = rng.uniform(-perturb, perturb, size=len(l.values))
        layers.append(Layer(l.index, base + delta))
    dataset_size = int(rng.integers(1, 1001))
    return LocalUpdate(taskid, client, round_index, WeightVector(layers), dataset_size)
