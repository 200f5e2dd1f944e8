"""Weight vectors, canonical byte encoding, and weighted averaging.

The aggregation rule is the dataset-size-weighted mean: every element of the
output is sum(D_i * w_i) / sum(D_i) over the contributing clients. Both
:func:`fedavg` and :func:`partial_aggregate` run one fold, which takes the
updates one at a time in ascending client-id order and adds each one's
D_i * w_i to every layer's sum, in 64-bit floats, so an aggregator holds one
sum and the update in hand rather than the whole batch. A single division
comes at the end; partial aggregates preserve the scaled sums so that a
partitioned execution merges to the same result (bit-exactly when weights are
kept on a dyadic grid, within 1e-9 relative otherwise).

Decoded layers are read-only views of the encoded bytes, and sliced layers
share their arrays with the vector they were sliced from; neither copies a
weight. Code that needs to write weights works on a fresh array.

The model-sized numeric passes (synthetic draws, scaled sums, divisions) run
one task per layer, on the process's thread pool once a model's layers are
large enough for numpy's released GIL to pay; each task writes only its own
layer's output, so the bits are those of the layer-by-layer loop. A round's
clients whose layers are too small for that, in a model large enough to
pay, are drawn one pool task per client instead; otherwise
:func:`synth_round` yields them one after another, each drawn only when the
fold asks for it.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator

import numpy as np

from . import crypto
from .crypto import new_buffer

_F8 = np.dtype("<f8")  # every weight, in memory and encoded


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

    def slice_layers(self, layer_range: tuple[int, ...]) -> "WeightVector":
        wanted = set(layer_range)
        picked = [l for l in self.layers if l.index in wanted]
        if len(picked) != len(wanted):
            raise ShapeMismatch(f"missing layers {wanted - {l.index for l in picked}}")
        return WeightVector(picked)

    def allclose(self, other: "WeightVector", rel: float = 0.0, abs_tol: float = 0.0) -> bool:
        """``np.allclose`` per layer. Equal layers with no NaN are close at any
        tolerance, ±inf included, so ``np.array_equal`` decides them first."""
        if self.structure() != other.structure():
            return False
        return all(
            np.array_equal(a.values, b.values)
            or np.allclose(a.values, b.values, rtol=rel, atol=abs_tol)
            for a, b in zip(self.layers, other.layers)
        )

    def bit_equal(self, other: "WeightVector") -> bool:
        """Bytewise equality: 0.0 differs from -0.0, a NaN equals its own bits."""
        return self.structure() == other.structure() and all(
            np.array_equal(a.values.view(np.uint64), b.values.view(np.uint64))
            for a, b in zip(self.layers, other.layers)
        )

    def digest(self) -> str:
        h = hashlib.sha256()
        for l in self.layers:
            h.update(struct.pack(">IQ", l.index, len(l.values)))
            h.update(np.ascontiguousarray(l.values, dtype=_F8))
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
    client_set: tuple[int, ...]


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


def _write_layers(out, off: int, wv: WeightVector):
    """layer_count(u32 BE) and every layer into ``out`` from ``off``, which
    they must fill to the end; each layer's array is copied once, in place."""
    struct.pack_into(">I", out, off, len(wv.layers))
    off += 4
    for l in wv.layers:
        n = len(l.values)
        struct.pack_into(">IQ", out, off, l.index, n)
        off += _LAYER_HEADER
        np.frombuffer(out, _F8, n, off)[:] = l.values
        off += 8 * n
    if off != len(out):
        raise ValueError(f"encoding takes {off} bytes, buffer holds {len(out)}")
    return out


def _read_layers(data: bytes, off: int) -> WeightVector:
    """The layer count and layers starting at ``off``, which must end ``data``.

    Each layer is a read-only view of ``data``, even of a writable buffer."""
    data = memoryview(data).toreadonly()
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
        layers.append(Layer(idx, np.frombuffer(data, _F8, count, off)))
        off = end
    if off != len(data):
        raise MalformedModel("trailing bytes after last layer")
    return WeightVector(layers)


def encode_model(u: LocalUpdate, out=None) -> memoryview:
    """The update's encoding, written into ``out``, which it must fill
    exactly, or, without it, into a fresh buffer; returns the buffer written."""
    tid = len(u.taskid)
    if out is None:
        out = new_buffer(encoded_update_size(tid, [len(l.values) for l in u.weights.layers]))
    struct.pack_into(f">H{tid}sQQQ", out, 0, tid, u.taskid, u.round, u.client, u.dataset_size)
    return _write_layers(out, 2 + tid + 24, u.weights)


def decode_model(data: bytes) -> LocalUpdate:
    """``data`` may be a memoryview, which spares a copy of every layer."""
    try:
        (tid_len,) = struct.unpack_from(">H", data, 0)
        off = 2
        taskid = bytes(data[off : off + tid_len])
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


def encode_partial(p: PartialAggregate, out=None) -> memoryview:
    """As :func:`encode_model`, for a partial aggregate."""
    n = len(p.client_set)
    if out is None:
        out = new_buffer(encoded_partial_size(n, [len(l.values) for l in p.scaled_sum.layers]))
    struct.pack_into(f">QI{n}Q", out, 0, p.weight_sum, n, *p.client_set)
    return _write_layers(out, 12 + 8 * n, p.scaled_sum)


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
        client_set=clients,
    )


# ---------------------------------------------------------------------------
# Per-layer passes
# ---------------------------------------------------------------------------

# Layers from this many elements up run on the pool, one task per layer.
PARALLEL_MIN = 2**18


def _threaded(sizes: list[int]) -> bool:
    """Whether layers of these element counts go to the pool."""
    return crypto.CPUS >= 2 and len(sizes) >= 2 and max(sizes) >= PARALLEL_MIN


def _each_layer(fn, outs: list[np.ndarray], *columns) -> None:
    """``fn(outs[k], *(column[k] for column in columns))`` for every layer k.

    The calls run on the process's pool (:func:`crypto.pool_map`) when
    :func:`_threaded` holds, else inline in layer order. Each call writes
    only into its own ``outs[k]``, which the caller allocated, and may hold
    one layer-sized scratch array.
    """
    if not _threaded([len(out) for out in outs]):
        for args in zip(outs, *columns):
            fn(*args)
        return
    crypto.pool_map(fn, outs, *columns)


def synth_round(global_model: WeightVector, clients, round_index: int, seed: int, *,
                taskid: bytes, int_mode: bool = False) -> Iterator[LocalUpdate]:
    """:func:`synth_local_update` for each of ``clients``, yielded in
    ascending client order.

    One level of parallelism only: a model whose layers :func:`_threaded`
    sends to the pool has its clients drawn one after another, each only
    when the caller asks for it; otherwise a model of ``PARALLEL_MIN``
    elements or more draws each client as one pool task, all at the first
    request. Each client draws from its own stream, so the bits are the
    loop's.
    """
    clients = sorted(clients)
    sizes = [len(l.values) for l in global_model.layers]

    def draw(client: int, out=None) -> LocalUpdate:  # by name, so a wrapper sees every call
        return synth_local_update(global_model, client, round_index, seed,
                                  taskid=taskid, int_mode=int_mode, out=out)

    if (not _threaded(sizes) and crypto.CPUS >= 2 and len(clients) >= 2
            and sum(sizes) >= PARALLEL_MIN):
        # The weights are allocated on this thread. An array a worker made
        # goes back to the worker's malloc arena when it is freed here, and
        # glibc returns a freed arena top to the kernel, so every round's
        # updates would be faulted in afresh.
        outs = [[np.empty(n) for n in sizes] for _ in clients]
        yield from crypto.pool_map(draw, clients, outs)
        return
    for c in clients:
        yield draw(c)


def uniform_layers(rng: np.random.Generator, sizes: list[int], low: float, high: float,
                   bases: list[np.ndarray] | None = None,
                   out: list[np.ndarray] | None = None) -> list[np.ndarray]:
    """``rng.uniform(low, high, n)`` for each ``n`` of ``sizes`` in order, each
    plus its ``bases`` layer when given, and ``rng`` left after the last draw;
    written into the arrays of ``out`` when given.

    The draws are numpy's own ``uniform`` formula, so bit for bit the same.
    On the pool every double takes one step of ``rng``'s PCG64 stream, so
    layer k draws from a copy advanced past the layers before it.
    """
    outs = [np.empty(n) for n in sizes] if out is None else out
    if not _threaded(sizes):
        for o, base in zip(outs, bases or repeat(None)):
            _uniform_into(o, rng, low, high - low, base)
        return outs
    gens, offset = [], 0
    for n in sizes:
        bits = np.random.PCG64()
        bits.state = rng.bit_generator.state
        bits.advance(offset)
        gens.append(np.random.Generator(bits))
        offset += n
    rng.bit_generator.advance(offset)
    _each_layer(_uniform_into, outs, gens, repeat(low), repeat(high - low),
                repeat(None) if bases is None else bases)
    return outs


def _uniform_into(out: np.ndarray, rng: np.random.Generator, low: float, span: float,
                  base: np.ndarray | None) -> None:
    """numpy's ``uniform``, low + span * random(), written into ``out``; then + base."""
    rng.random(out=out)
    out *= span
    out += low
    if base is not None:
        out += base


def _add_scaled(acc: np.ndarray, values: np.ndarray, d: float, tmp: np.ndarray | None = None) -> None:
    """acc += d * values through ``tmp`` (else a fresh array), one block of up
    to ``FOLD_BLOCK`` elements at a time: each element gets ``acc + d * value``,
    as through a layer-sized temporary."""
    if tmp is None:
        tmp = np.empty(min(len(acc), FOLD_BLOCK))
    for i in range(0, len(acc), FOLD_BLOCK):
        a = acc[i : i + FOLD_BLOCK]
        t = tmp[: len(a)]
        np.multiply(values[i : i + FOLD_BLOCK], d, out=t)
        a += t


def _divide(out: np.ndarray, acc: np.ndarray, total: int) -> None:
    np.divide(acc, total, out=out)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

# The fold's products go through scratch arrays of at most this many elements.
FOLD_BLOCK = 2**16


def _fold(updates: Iterable[LocalUpdate], layer_range: tuple[int, ...] | None = None) -> PartialAggregate:
    """Scaled sums over ``updates``, restricted to ``layer_range`` unless it
    is None: each update, as it arrives, adds D * w to every layer's sum.

    ``updates`` may be any iterable, such as a generator that makes each
    update only when the fold asks for it, even in the buffer of the last:
    the fold reads no update after it asks for the next. Updates must
    arrive in strictly ascending client order, so every element is summed
    from 0.0 in that order, and the bits do not depend on how the updates
    were delivered. How the layers are summed is decided once, from the
    first update's structure: on the pool, each task through a scratch
    block of its own; else through one scratch array.
    """
    wanted = None if layer_range is None else tuple(sorted(layer_range))
    sums = None
    weight_sum, clients = 0, []
    for u in updates:
        wv = u.weights if wanted is None else u.weights.slice_layers(wanted)
        if sums is None:
            structure = wv.structure()
            sizes = [n for _, n in structure]
            sums = [np.zeros(n) for n in sizes]
            threaded = _threaded(sizes)
            scratch = np.empty(0 if threaded else min(max(sizes, default=0), FOLD_BLOCK))
            tmps = [scratch[:n] for n in sizes]
        elif wv.structure() != structure:
            raise ShapeMismatch(f"client {u.client} has structure {wv.structure()}, expected {structure}")
        elif u.client <= clients[-1]:
            raise ValueError(f"client {u.client} after client {clients[-1]}: not in ascending order")
        d = float(u.dataset_size)  # numpy turns the int into this double on every call
        if threaded:
            crypto.pool_map(_add_scaled, sums, [l.values for l in wv.layers], repeat(d))
        else:
            for acc, l, tmp in zip(sums, wv.layers, tmps):
                _add_scaled(acc, l.values, d, tmp)
        weight_sum += u.dataset_size
        clients.append(u.client)
    if sums is None:
        raise EmptyInput("no updates to aggregate")
    return PartialAggregate(
        scaled_sum=WeightVector([Layer(idx, acc) for (idx, _), acc in zip(structure, sums)]),
        weight_sum=weight_sum,
        client_set=tuple(clients),
    )


def fedavg(updates: Iterable[LocalUpdate]) -> WeightVector:
    """Dataset-size-weighted average of updates in ascending client order:
    the fold, then each sum divided in place."""
    part = _fold(updates)
    sums = [l.values for l in part.scaled_sum.layers]
    _each_layer(_divide, sums, sums, repeat(part.weight_sum))
    return part.scaled_sum


def partial_aggregate(updates: Iterable[LocalUpdate], layer_range: tuple[int, ...]) -> PartialAggregate:
    """Scaled sums over ``updates`` restricted to ``layer_range`` (no division)."""
    return _fold(updates, layer_range)


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
                slot["acc"] = l.values  # never written: the merge below makes a new array
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
    idxs = sorted(per_layer)
    accs = [per_layer[idx]["acc"] for idx in idxs]
    outs = [np.empty(len(acc)) for acc in accs]
    _each_layer(_divide, outs, accs, repeat(total))
    return WeightVector([Layer(idx, out) for idx, out in zip(idxs, outs)])


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
    out: list[np.ndarray] | None = None,
) -> LocalUpdate:
    """Deterministic stand-in for local training.

    Adds a seeded perturbation (|delta| <= ``perturb``) to each element and
    draws a dataset size in [1, 1000]. In ``int_mode`` the incoming weights
    are snapped to the dyadic grid and perturbations stay on it, so weighted
    sums remain exact in 64-bit floats regardless of summation order. With
    ``out``, one array per layer, the weights are written there.
    """
    rng = _derive_rng(seed, client, round_index)
    if int_mode:
        # Layer by layer: bounded integers take a varying number of steps,
        # so this stream cannot be split by layer.
        steps = int(max(1, round(perturb / INT_MODE_QUANTUM)))
        layers = []
        for l, o in zip(global_model.layers, out or repeat(None)):
            # The quantum is 2**-8, so scaling by it or by 256 is exact and
            # commutes with rounding: this is round(v / Q) * Q + k * Q bit for
            # bit, -0.0 + 0 giving +0.0 on both, through one buffer.
            g = np.multiply(l.values, 256.0, out=o)
            np.rint(g, out=g)
            g += rng.integers(-steps, steps + 1, size=len(l.values))
            g *= INT_MODE_QUANTUM
            layers.append(Layer(l.index, g))
    else:
        outs = uniform_layers(rng, [len(l.values) for l in global_model.layers],
                              -perturb, perturb, [l.values for l in global_model.layers], out)
        layers = [Layer(l.index, o) for l, o in zip(global_model.layers, outs)]
    dataset_size = int(rng.integers(1, 1001))
    return LocalUpdate(taskid, client, round_index, WeightVector(layers), dataset_size)
