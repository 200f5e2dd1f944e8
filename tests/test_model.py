"""Weight math: encoding, weighted averaging, and partial-sum combination."""

import hashlib
import os
import signal
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtee import crypto, model
from fedtee.model import (
    CoverageGap,
    CoverageOverlap,
    EmptyInput,
    Layer,
    LocalUpdate,
    MalformedModel,
    PartialAggregate,
    ShapeMismatch,
    WeightVector,
    combine_partials,
    decode_model,
    encode_model,
    fedavg,
    partial_aggregate,
    synth_local_update,
)

TASK = b"task-model"


def make_update(client, elements_by_layer, dataset_size, round_index=0):
    layers = [Layer(i, np.array(vals, dtype=np.float64)) for i, vals in enumerate(elements_by_layer)]
    return LocalUpdate(TASK, client, round_index, WeightVector(layers), dataset_size)


def fedavg_fraction_oracle(updates):
    """Exact weighted mean via rationals, independent of the float path."""
    total = sum(u.dataset_size for u in updates)
    out = []
    for pos, layer in enumerate(updates[0].weights.layers):
        vals = []
        for j in range(len(layer.values)):
            acc = Fraction(0)
            for u in updates:
                acc += u.dataset_size * Fraction(u.weights.layers[pos].values[j])
            vals.append(float(acc / total))
        out.append(vals)
    return out


# ---------------------------------------------------------------------------
# Canonical encoding
# ---------------------------------------------------------------------------

@given(
    n_layers=st.integers(1, 4),
    counts=st.lists(st.integers(1, 9), min_size=4, max_size=4),
    client=st.integers(0, 2**32),
    dataset=st.integers(1, 10**6),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_encode_decode_roundtrip(n_layers, counts, client, dataset, data):
    layers = []
    for i in range(n_layers):
        vals = data.draw(
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_size=counts[i],
                max_size=counts[i],
            )
        )
        layers.append(Layer(i, np.array(vals)))
    u = LocalUpdate(TASK, client, 3, WeightVector(layers), dataset)
    decoded = decode_model(encode_model(u))
    assert decoded.taskid == TASK
    assert decoded.client == client
    assert decoded.round == 3
    assert decoded.dataset_size == dataset
    assert decoded.weights.bit_equal(u.weights)


# Bit patterns a float64 may hold beyond plain numbers: -0.0, +-inf, and NaNs
# with and without payloads, quiet and signalling.
_SPECIAL_BITS = [
    0x8000000000000000,
    0x7FF0000000000000,
    0xFFF0000000000000,
    0x7FF8000000000000,
    0x7FF0000000000001,
    0xFFF8000000000ABC,
]


def _f64(bits) -> np.ndarray:
    return np.array(bits, dtype="<u8").view("<f8")


@st.composite
def _layers(draw):
    """Layers of any float64 bits, some empty, some strided views."""
    out = []
    index = -1
    for _ in range(draw(st.integers(0, 4))):
        index += draw(st.integers(1, 3))
        bits = draw(
            st.lists(
                st.one_of(st.sampled_from(_SPECIAL_BITS), st.integers(0, 2**64 - 1)),
                max_size=6,
            )
        )
        step = draw(st.sampled_from([1, 2]))
        values = np.repeat(_f64(bits), step)[::step]  # step 2 gives a strided view
        out.append(Layer(index, values))
    return WeightVector(out)


def _layers_in_original_layout(wv: WeightVector) -> bytes:
    """The layer encoding as first specified, each layer through ``tobytes``."""
    parts = [struct.pack(">I", len(wv.layers))]
    for l in wv.layers:
        parts.append(struct.pack(">IQ", l.index, len(l.values)))
        parts.append(l.values.astype("<f8").tobytes())
    return b"".join(parts)


@given(wv=_layers(), client=st.integers(0, 2**64 - 1), dataset=st.integers(1, 2**64 - 1))
@settings(max_examples=60, deadline=None)
def test_codecs_keep_the_original_byte_layout(wv, client, dataset):
    u = LocalUpdate(TASK, client, 9, wv, dataset)
    header = struct.pack(">H", len(TASK)) + TASK + struct.pack(">QQQ", 9, client, dataset)
    encoded = encode_model(u)
    assert encoded == header + _layers_in_original_layout(wv)
    assert decode_model(encoded).weights.bit_equal(wv)

    clients = (1, 5, 7)
    p = PartialAggregate(wv, dataset, clients)
    head = struct.pack(">QI3Q", dataset, len(clients), *clients)
    encoded = model.encode_partial(p)
    assert encoded == head + _layers_in_original_layout(wv)
    assert model.decode_partial(encoded).scaled_sum.bit_equal(wv)


def test_bit_equal_is_bytewise():
    def vector(*bits):
        return WeightVector([Layer(0, _f64(bits))])

    assert not vector(0).bit_equal(vector(0x8000000000000000))  # 0.0 vs -0.0
    assert vector(0).allclose(vector(0x8000000000000000))  # equal as numbers
    nan = 0x7FF8000000000123
    assert vector(nan, 1).bit_equal(vector(nan, 1))  # a NaN equals its own bits
    assert not vector(nan).bit_equal(vector(0x7FF8000000000124))


_SPECIAL = st.sampled_from([0.0, -0.0, 1.0, 1.0 + 1e-12, 1.0 + 1e-6, np.inf, -np.inf, np.nan, 1e300])


@st.composite
def vector_pairs(draw):
    """Two vectors of one structure: equal, near-equal, or special values."""
    sizes = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
    value = st.one_of(_SPECIAL, st.floats(-1e3, 1e3))
    pairs = []
    for n in sizes:
        a = draw(st.lists(value, min_size=n, max_size=n))
        b = [draw(st.one_of(st.just(x), value, st.just(x * (1 + 1e-10)))) for x in a]
        pairs.append((np.array(a, dtype=np.float64), np.array(b, dtype=np.float64)))
    return [WeightVector([Layer(i, v[side]) for i, v in enumerate(pairs)]) for side in (0, 1)]


@given(vector_pairs(), st.sampled_from([(0.0, 0.0), (1e-9, 1e-12), (1e-3, 0.0)]))
@settings(max_examples=200, deadline=None)
def test_allclose_agrees_with_numpy_per_layer(pair, tol):
    a, b = pair
    rel, abs_tol = tol
    want = all(
        np.allclose(x.values, y.values, rtol=rel, atol=abs_tol) for x, y in zip(a.layers, b.layers)
    )
    assert a.allclose(b, rel=rel, abs_tol=abs_tol) == want


def test_decoded_layers_are_read_only_views_of_the_input():
    u = make_update(1, [[1.0, 2.0], [], [3.0]], 5)
    for encoded, decode in (
        (encode_model(u), lambda data: decode_model(data).weights),
        (
            model.encode_partial(partial_aggregate([u], (0, 1, 2))),
            lambda data: model.decode_partial(data).scaled_sum,
        ),
    ):
        for data in (encoded, memoryview(encoded), bytearray(encoded)):
            wv = decode(data)
            for l in wv.layers:
                if len(l.values):
                    assert np.shares_memory(l.values, np.frombuffer(data, np.uint8))
                with pytest.raises(ValueError):
                    l.values[:1] = 0.0


def test_slice_layers_shares_arrays():
    wv = make_update(1, [[1.0], [2.0, 3.0], [4.0]], 1).weights
    sliced = wv.slice_layers((0, 2))
    assert [l.index for l in sliced.layers] == [0, 2]
    # the layers' indices are their positions in wv
    for l in sliced.layers:
        assert l.values is wv.layers[l.index].values


def test_truncated_bytes_rejected():
    u = make_update(1, [[1.0, 2.0, 3.0]], 5)
    blob = encode_model(u)
    with pytest.raises(MalformedModel):
        decode_model(blob[:-8])
    with pytest.raises(MalformedModel):
        decode_model(bytes(blob) + b"\x00")
    with pytest.raises(MalformedModel):
        decode_model(blob[: len(blob) // 2])


def test_mlp_sized_vector_encodes_to_expected_bytes():
    # A 10,901-element single-layer vector: elements at 8 bytes plus headers.
    u = make_update(0, [np.zeros(10_901)], 1)
    blob = encode_model(u)
    header = 2 + len(TASK) + 8 + 8 + 8 + 4 + (4 + 8)
    assert len(blob) == 10_901 * 8 + header
    assert model.encoded_update_size(len(TASK), [10_901]) == len(blob)


def test_non_increasing_layer_indices_rejected():
    u = make_update(0, [[1.0], [2.0]], 1)
    blob = bytearray(encode_model(u))
    # overwrite the second layer's index (4 bytes BE) with 0, equal to the first
    second_header = 2 + len(TASK) + 28 + (4 + 8) + 8
    blob[second_header : second_header + 4] = (0).to_bytes(4, "big")
    with pytest.raises(MalformedModel):
        decode_model(bytes(blob))
    blob = bytearray(model.encode_partial(partial_aggregate([u], (0, 1))))
    # the partial's layers follow weight_sum, one client id and the layer count
    second_header = 8 + 4 + 8 + 4 + (4 + 8) + 8
    blob[second_header : second_header + 4] = (0).to_bytes(4, "big")
    with pytest.raises(MalformedModel):
        model.decode_partial(bytes(blob))


# ---------------------------------------------------------------------------
# fedavg
# ---------------------------------------------------------------------------

def test_single_update_returns_it_exactly():
    u = make_update(4, [[0.5, -2.25, 7.0]], 13)
    assert fedavg([u]).bit_equal(u.weights)


def test_equal_weights_arithmetic_mean():
    a = make_update(1, [[2.0]], 10)
    b = make_update(2, [[4.0]], 10)
    out = fedavg([a, b])
    assert out.layers[0].values[0] == 3.0


def test_three_clients_weighted_mean_matches_rational_oracle():
    updates = [
        make_update(1, [[1.0]], 1),
        make_update(2, [[2.0]], 2),
        make_update(3, [[3.0]], 3),
    ]
    out = fedavg(updates)
    # (1*1 + 2*2 + 3*3) / 6, computed exactly then rounded once to binary64
    assert out.layers[0].values[0] == 2.3333333333333335
    assert out.layers[0].values[0] == fedavg_fraction_oracle(updates)[0][0]


def test_empty_input_and_shape_mismatch():
    with pytest.raises(EmptyInput):
        fedavg([])
    a = make_update(1, [[1.0, 2.0]], 1)
    b = make_update(2, [[1.0]], 1)
    with pytest.raises(ShapeMismatch):
        fedavg([a, b])


@given(data=st.data(), n_clients=st.integers(2, 6), n_elems=st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_convexity_per_element(data, n_clients, n_elems):
    updates = []
    for c in range(n_clients):
        vals = data.draw(
            st.lists(
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64),
                min_size=n_elems,
                max_size=n_elems,
            )
        )
        updates.append(make_update(c, [vals], data.draw(st.integers(1, 1000))))
    out = fedavg(updates).layers[0].values
    stacked = np.stack([u.weights.layers[0].values for u in updates])
    lo, hi = stacked.min(axis=0), stacked.max(axis=0)
    slack = 4 * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
    assert np.all(out >= lo - slack)
    assert np.all(out <= hi + slack)


@given(data=st.data(), n_clients=st.integers(1, 6))
@settings(max_examples=30, deadline=None)
def test_idempotence_on_consensus(data, n_clients):
    vals = data.draw(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, width=64),
            min_size=3,
            max_size=3,
        )
    )
    updates = [
        make_update(c, [vals], data.draw(st.integers(1, 1000))) for c in range(n_clients)
    ]
    out = fedavg(updates).layers[0].values
    assert np.allclose(out, np.array(vals), atol=1e-12, rtol=0)


# ---------------------------------------------------------------------------
# Partial aggregation
# ---------------------------------------------------------------------------

def _updates_two_layers(n, seed=0, int_mode=False):
    rng = np.random.default_rng(seed)
    out = []
    for c in range(n):
        if int_mode:
            layers = [rng.integers(-256, 257, size=4) / 256.0 for _ in range(2)]
        else:
            layers = [rng.uniform(-1, 1, size=4) for _ in range(2)]
        out.append(
            make_update(c, layers, int(rng.integers(1, 1000)))
        )
    return out


def test_single_part_equals_fedavg_bit_exactly():
    updates = _updates_two_layers(5)
    part = partial_aggregate(updates, (0, 1))
    assert combine_partials([part]).bit_equal(fedavg(updates))


def test_split_clients_matches_fedavg_within_tolerance():
    updates = _updates_two_layers(4, seed=3)
    parts = []
    for layer in (0, 1):
        parts.append(partial_aggregate(updates[:2], (layer,)))
        parts.append(partial_aggregate(updates[2:], (layer,)))
    combined = combine_partials(parts)
    assert combined.allclose(fedavg(updates), rel=1e-9)


def test_overlapping_parts_rejected():
    updates = _updates_two_layers(4)
    parts = [
        partial_aggregate(updates[:2], (0, 1)),
        partial_aggregate(updates[1:], (0, 1)),  # client 1 covered twice
    ]
    with pytest.raises(CoverageOverlap):
        combine_partials(parts)


def test_gap_rejected():
    updates = _updates_two_layers(4)
    parts = [
        partial_aggregate(updates, (0,)),
        partial_aggregate(updates[:3], (1,)),  # layer 1 misses client 3
    ]
    with pytest.raises(CoverageGap):
        combine_partials(parts)


@given(seed=st.integers(0, 10**6), n_clients=st.integers(2, 8))
@settings(max_examples=25, deadline=None)
def test_partition_equivalence_property(seed, n_clients):
    updates = _updates_two_layers(n_clients, seed=seed)
    rng = np.random.default_rng(seed + 1)
    cut = int(rng.integers(1, n_clients))
    parts = []
    for layer in (0, 1):
        parts.append(partial_aggregate(updates[:cut], (layer,)))
        if cut < n_clients:
            parts.append(partial_aggregate(updates[cut:], (layer,)))
    assert combine_partials(parts).allclose(fedavg(updates), rel=1e-9)


@given(seed=st.integers(0, 10**6), n_clients=st.integers(2, 8))
@settings(max_examples=25, deadline=None)
def test_partition_equivalence_bit_exact_on_dyadic_grid(seed, n_clients):
    updates = _updates_two_layers(n_clients, seed=seed, int_mode=True)
    rng = np.random.default_rng(seed + 1)
    cut = int(rng.integers(1, n_clients))
    parts = []
    for layer in (0, 1):
        parts.append(partial_aggregate(updates[:cut], (layer,)))
        if cut < n_clients:
            parts.append(partial_aggregate(updates[cut:], (layer,)))
    assert combine_partials(parts).bit_equal(fedavg(updates))


def test_partial_encoding_roundtrip():
    updates = _updates_two_layers(3)
    part = partial_aggregate(updates, (0, 1))
    decoded = model.decode_partial(model.encode_partial(part))
    assert decoded.weight_sum == part.weight_sum
    assert decoded.client_set == part.client_set
    assert decoded.scaled_sum.bit_equal(part.scaled_sum)
    assert model.encoded_partial_size(3, [4, 4]) == len(model.encode_partial(part))


# ---------------------------------------------------------------------------
# Synthetic training surrogate
# ---------------------------------------------------------------------------

def _global_model():
    return WeightVector([Layer(0, np.linspace(-1, 1, 8)), Layer(1, np.zeros(4))])


def test_synth_is_deterministic():
    g = _global_model()
    a = synth_local_update(g, 3, 2, 42, taskid=TASK)
    b = synth_local_update(g, 3, 2, 42, taskid=TASK)
    assert a.weights.bit_equal(b.weights)
    assert a.dataset_size == b.dataset_size


def test_synth_differs_across_clients():
    g = _global_model()
    a = synth_local_update(g, 1, 0, 42, taskid=TASK)
    b = synth_local_update(g, 2, 0, 42, taskid=TASK)
    assert not a.weights.bit_equal(b.weights)


def test_synth_perturbation_bounded():
    g = _global_model()
    eps = 0.125
    u = synth_local_update(g, 5, 7, 9, taskid=TASK, perturb=eps)
    for base, got in zip(g.layers, u.weights.layers):
        assert np.all(np.abs(got.values - base.values) <= eps + 1e-15)
    assert 1 <= u.dataset_size <= 1000


def test_synth_int_mode_stays_on_grid():
    g = _global_model()
    u = synth_local_update(g, 5, 7, 9, taskid=TASK, int_mode=True)
    for layer in u.weights.layers:
        scaled = layer.values * 256.0
        assert np.all(scaled == np.round(scaled))


# ---------------------------------------------------------------------------
# Per-layer passes: the pool and the inline loop give the same bits
# ---------------------------------------------------------------------------

def _through_pool(monkeypatch):
    """Every model with 2 layers goes through the pool, even on one CPU."""
    monkeypatch.setattr(model, "PARALLEL_MIN", 1)
    monkeypatch.setattr(crypto, "CPUS", max(crypto.CPUS, 2))


def _pooled_and_inline(monkeypatch, fn):
    """``fn()`` with every layer on the pool, then with every layer inline."""
    _through_pool(monkeypatch)
    pooled = fn()
    monkeypatch.setattr(model, "PARALLEL_MIN", 2**62)
    return pooled, fn()


def _three_layers(sizes=(5, 1000, 37)):
    rng = np.random.default_rng(11)
    return WeightVector([Layer(i, rng.uniform(-1, 1, n)) for i, n in enumerate(sizes)])


@pytest.mark.parametrize("sentinel", [False, True], ids=["plain", "sentinel"])
def test_synth_float_same_bits_on_pool_and_inline(monkeypatch, sentinel):
    from fedtee.config import plant_sentinel

    def synth():
        u = synth_local_update(_three_layers(), 4, 2, 42, taskid=TASK)
        if sentinel:
            plant_sentinel(u.weights)
        return u

    pooled, inline = _pooled_and_inline(monkeypatch, synth)
    assert pooled.weights.bit_equal(inline.weights)
    assert pooled.dataset_size == inline.dataset_size


def test_initial_model_same_bits_on_pool_and_inline(monkeypatch):
    from fedtee.config import RunConfig, initial_model

    cfg = RunConfig(layers={0: 5, 1: 1000, 3: 37}, seed=8)
    pooled, inline = _pooled_and_inline(monkeypatch, lambda: initial_model(cfg))
    assert pooled.bit_equal(inline)


def test_aggregation_same_bits_on_pool_and_inline(monkeypatch):
    updates = [synth_local_update(_three_layers(), c, 0, 3, taskid=TASK) for c in range(5)]

    def aggregate():
        parts = [partial_aggregate(updates[:2], (0, 1, 2)), partial_aggregate(updates[2:], (0, 1, 2))]
        return fedavg(updates), parts, combine_partials(parts)

    (avg_p, parts_p, comb_p), (avg_i, parts_i, comb_i) = _pooled_and_inline(monkeypatch, aggregate)
    assert avg_p.bit_equal(avg_i)
    assert all(p.scaled_sum.bit_equal(i.scaled_sum) for p, i in zip(parts_p, parts_i))
    assert comb_p.bit_equal(comb_i)


@pytest.mark.parametrize("sizes", [(5, 1000, 37), (2**18, 2**18 + 3, 2**18 + 1)],
                         ids=["inline", "pool"])
def test_large_layers_match_layer_by_layer_uniform(monkeypatch, sizes):
    """At the default threshold, small layers stay inline and 3 layers of
    >= 2**18 elements go through the pool; both draw what layer-by-layer
    ``rng.uniform`` draws."""
    from fedtee.config import RunConfig, initial_model

    monkeypatch.setattr(crypto, "CPUS", max(crypto.CPUS, 2))
    cfg = RunConfig(layers=dict(enumerate(sizes)), seed=6)
    digest = hashlib.sha256(struct.pack(">Q", cfg.seed) + b"m_init").digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
    want_init = [rng.uniform(-1.0, 1.0, size=n) for n in sizes]
    got_init = initial_model(cfg)
    assert all(np.array_equal(w, g.values) for w, g in zip(want_init, got_init.layers))

    rng = model._derive_rng(3, 7, 1)
    want = [np.add(base, rng.uniform(-0.05, 0.05, size=len(base))) for base in want_init]
    want_size = int(rng.integers(1, 1001))
    got = synth_local_update(got_init, 7, 1, 3, taskid=TASK)
    assert WeightVector([Layer(i, w) for i, w in enumerate(want)]).bit_equal(got.weights)
    assert got.dataset_size == want_size


@pytest.mark.parametrize("int_mode", [False, True], ids=["float", "int"])
def test_synth_into_given_arrays_keeps_the_bits(int_mode):
    g = _three_layers()
    want = synth_local_update(g, 4, 2, 42, taskid=TASK, int_mode=int_mode)
    out = [np.full(len(l.values), np.nan) for l in g.layers]
    got = synth_local_update(g, 4, 2, 42, taskid=TASK, int_mode=int_mode, out=out)
    assert all(l.values is o for l, o in zip(got.weights.layers, out))
    assert got.weights.bit_equal(want.weights)
    assert got.dataset_size == want.dataset_size


def _edge_layers():
    """Values where snapping to the int-mode grid could go wrong: signed
    zeros, half-quantum ties, subnormals, magnitudes of 2**45 and more,
    infinities, and random draws."""
    q = model.INT_MODE_QUANTUM
    ties = [s * (k + 0.5) * q for k in range(4) for s in (1, -1)]
    tiny = [5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308]
    huge = [s * x for x in (2.0**45, 2.0**45 + q / 2, 2.0**52 + 0.5, 2.0**53 + 2, 1e300) for s in (1, -1)]
    edge = np.array([0.0, -0.0, *ties, *tiny, *huge, np.inf, -np.inf])
    rng = np.random.default_rng(12)
    drawn = np.concatenate([rng.uniform(-4, 4, 500), rng.integers(-4000, 4000, 500) * q / 2])
    return WeightVector([Layer(0, edge), Layer(1, drawn), Layer(2, edge[::-1].copy())])


def _int_mode_reference(g):
    """Client 4's round-2 update of ``g`` at seed 42 and its dataset size,
    drawn layer by layer and snapped as round(v / Q) * Q + k * Q."""
    rng = model._derive_rng(42, 4, 2)
    want = []
    for l in g.layers:
        base = np.round(l.values / model.INT_MODE_QUANTUM) * model.INT_MODE_QUANTUM
        want.append(base + rng.integers(-13, 14, size=len(l.values)) * model.INT_MODE_QUANTUM)
    return WeightVector([Layer(l.index, w) for l, w in zip(g.layers, want)]), int(rng.integers(1, 1001))


def test_int_mode_synth_is_drawn_in_layer_order(monkeypatch):
    g = _three_layers()
    want, want_size = _int_mode_reference(g)
    for u in _pooled_and_inline(
        monkeypatch, lambda: synth_local_update(g, 4, 2, 42, taskid=TASK, int_mode=True)
    ):
        assert u.weights.bit_equal(want)
        assert u.dataset_size == want_size


def test_int_mode_synth_snaps_edge_values_as_the_reference():
    g = _edge_layers()
    want, want_size = _int_mode_reference(g)
    u = synth_local_update(g, 4, 2, 42, taskid=TASK, int_mode=True)
    assert u.weights.bit_equal(want)
    assert u.dataset_size == want_size


@pytest.mark.parametrize("block", [7, 1000, 2**16], ids=["blocks", "one-layer-whole", "whole-layers"])
def test_fold_gives_the_bits_of_layer_sized_products(monkeypatch, block):
    """Each sum is 0.0 + D * w over the clients in order, whether the products
    go through scratch blocks or whole layers, on the pool or inline, and
    whether the updates come as a list or one at a time."""
    monkeypatch.setattr(model, "FOLD_BLOCK", block)
    g = _three_layers()
    updates = [synth_local_update(g, c, 0, 3, taskid=TASK) for c in range(4)]
    total = sum(u.dataset_size for u in updates)
    want = []
    for pos in range(len(g.layers)):
        acc = np.zeros(len(g.layers[pos].values))
        for u in updates:
            acc += u.weights.layers[pos].values * u.dataset_size
        want.append(acc / total)
    for got in (*_pooled_and_inline(monkeypatch, lambda: fedavg(iter(updates))), fedavg(updates)):
        assert all(np.array_equal(a.values.view(np.uint64), b.view(np.uint64))
                   for a, b in zip(got.layers, want))


def test_fold_refuses_updates_out_of_client_order():
    a, b = make_update(1, [[1.0]], 1), make_update(2, [[2.0]], 1)
    for bad in ([b, a], [a, a]):
        with pytest.raises(ValueError, match="not in ascending order"):
            fedavg(bad)
        with pytest.raises(ValueError, match="not in ascending order"):
            partial_aggregate(iter(bad), (0,))


def test_inline_path_makes_no_pool_call(monkeypatch):
    class NoPool:
        def map(self, *args):
            raise AssertionError("inline path used the pool")

    monkeypatch.setattr(crypto, "_pool", NoPool())
    g = WeightVector([Layer(0, np.zeros(2**18)), Layer(1, np.zeros(2**18))])
    monkeypatch.setattr(crypto, "CPUS", 1)
    fedavg([synth_local_update(g, c, 0, 1, taskid=TASK) for c in range(2)])
    monkeypatch.setattr(crypto, "CPUS", 2)
    small = _three_layers()
    fedavg([synth_local_update(small, c, 0, 1, taskid=TASK) for c in range(2)])


def test_fedavg_memory_is_outputs_plus_one_scratch_layer_per_worker():
    import tracemalloc

    n, layers = 2**18, 8
    g = WeightVector([Layer(i, np.zeros(n)) for i in range(layers)])
    updates = [synth_local_update(g, c, 0, 1, taskid=TASK) for c in range(4)]
    tracemalloc.start()
    try:
        out = fedavg(updates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.structure() == g.structure()
    outputs = layers * 8 * n
    assert peak <= outputs + min(crypto.CPUS, layers) * 8 * n + 64 * 1024


@pytest.mark.parametrize("name", ["single-float", "clientmax-float", "layermax-float"])
def test_golden_reports_through_the_pool(monkeypatch, name):
    from fedtee.harness import run_task
    from test_golden import CONFIGS, GOLDEN, _config

    _through_pool(monkeypatch)
    assert run_task(_config(**CONFIGS[name])).digest() == GOLDEN[name]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_builds_its_own_pool(monkeypatch):
    _through_pool(monkeypatch)
    updates = [synth_local_update(_three_layers(), c, 0, 3, taskid=TASK) for c in range(3)]
    want = fedavg(updates)  # the parent's pool exists from here on
    pid = os.fork()
    if pid == 0:  # a child that waited on the parent's threads would hang until the alarm
        signal.alarm(10)
        ok = False
        try:  # an error must end the child here, not hand it back to the test runner
            ok = fedavg(updates).bit_equal(want)
        finally:
            os._exit(0 if ok else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
