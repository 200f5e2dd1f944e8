"""Weight math: encoding, weighted averaging, and partial-sum combination."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtee import model
from fedtee.model import (
    CoverageGap,
    CoverageOverlap,
    EmptyInput,
    Layer,
    LocalUpdate,
    MalformedModel,
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


def test_truncated_bytes_rejected():
    u = make_update(1, [[1.0, 2.0, 3.0]], 5)
    blob = encode_model(u)
    with pytest.raises(MalformedModel):
        decode_model(blob[:-8])
    with pytest.raises(MalformedModel):
        decode_model(blob + b"\x00")
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
