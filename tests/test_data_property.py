"""Property tests of the synthetic images, label-distribution KS and the
two partitioners.

Images are compared bytewise with the float64-temporary oracle and KS values
with the scalar-loop oracle in `helpers`. Partition datasets carry 1x1
images: the partitioners read only the labels.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedconv.data import (DataError, Dataset, _client_preferences, _mean_ks,
                          ks_two, mean_pairwise_ks, partition_iid,
                          partition_label_skew, synth_dataset)

from helpers import mean_pairwise_ks_oracle, synth_images_oracle


@settings(max_examples=40)
@given(seed=st.integers(0, 2**31 - 1), num_classes=st.integers(1, 10),
       per_class=st.integers(1, 6), resolution=st.integers(1, 33),
       split=st.sampled_from(["train", "test"]))
def test_synth_images_match_oracle(seed, num_classes, per_class, resolution, split):
    got = synth_dataset(seed, num_classes, per_class, resolution, split).images
    want = synth_images_oracle(seed, num_classes, per_class, resolution, split)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _dataset(labels, num_classes):
    labels = np.asarray(labels, dtype=np.int64)
    return Dataset(np.zeros((len(labels), 3, 1, 1), dtype=np.uint8), labels,
                   "train", num_classes)


@st.composite
def client_counts(draw):
    """Per-client class counts; every client has at least one sample."""
    c = draw(st.integers(1, 8))
    m = draw(st.integers(1, 7))
    rows = [draw(st.lists(st.integers(0, 12), min_size=c, max_size=c)
                 .filter(lambda r: sum(r) > 0)) for _ in range(m)]
    return c, rows


@settings(max_examples=150)
@given(case=client_counts(), order_seed=st.integers(0, 2**16))
def test_mean_pairwise_ks_matches_oracle(case, order_seed):
    c, rows = case
    labels = np.concatenate([np.repeat(np.arange(c), r) for r in rows])
    bounds = np.cumsum([0] + [sum(r) for r in rows])
    # Client ids are inserted in a shuffled order; KS must not depend on it.
    ids = np.random.default_rng(order_seed).permutation(len(rows))
    partition = {int(i): np.arange(bounds[i], bounds[i + 1]) for i in ids}
    got = mean_pairwise_ks(partition, labels, c)
    assert math.isclose(got, mean_pairwise_ks_oracle(rows), rel_tol=0, abs_tol=1e-12)
    for i in range(len(rows) - 1):
        p = np.asarray(rows[i]) / sum(rows[i])
        q = np.asarray(rows[i + 1]) / sum(rows[i + 1])
        assert math.isclose(ks_two(p, q), mean_pairwise_ks_oracle(rows[i:i + 2]),
                            rel_tol=0, abs_tol=1e-12)


@st.composite
def labelled_sets(draw):
    c = draw(st.integers(1, 8))
    labels = draw(st.lists(st.integers(0, c - 1), min_size=1, max_size=60))
    return c, labels


@settings(max_examples=150)
@given(case=labelled_sets(), clients=st.integers(1, 60), seed=st.integers(0, 2**31))
def test_partition_iid_deals_each_index_once_evenly(case, clients, seed):
    c, labels = case
    clients = min(clients, len(labels))
    partition = partition_iid(_dataset(labels, c), clients, seed)
    assert sorted(partition) == list(range(clients))
    dealt = np.concatenate(list(partition.values()))
    np.testing.assert_array_equal(np.sort(dealt), np.arange(len(labels)))
    sizes = [len(v) for v in partition.values()]
    assert max(sizes) - min(sizes) <= 1


@settings(max_examples=150)
@given(clients=st.integers(2, 8), classes=st.integers(2, 10),
       per_class=st.integers(1, 30), target=st.floats(0.01, 1.0),
       tolerance=st.floats(0.01, 0.2), seed=st.integers(0, 2**31))
def test_partition_label_skew_lands_within_tolerance_or_raises(
        clients, classes, per_class, target, tolerance, seed):
    labels = np.repeat(np.arange(classes), per_class)
    try:
        partition = partition_label_skew(_dataset(labels, classes), clients,
                                         target, tolerance, seed)
    except DataError as e:
        # Only three refusals are legitimate: a target past the reachable
        # maximum, rounding that misses it, or a client dealt no sample.
        if "unreachable" in str(e):
            assert target > _mean_ks(_client_preferences(clients, classes)) + tolerance
        else:
            assert "misses target" in str(e) or "no samples" in str(e), str(e)
        return
    dealt = np.concatenate(list(partition.values()))
    np.testing.assert_array_equal(np.sort(dealt), np.arange(len(labels)))
    counts = [np.bincount(labels[partition[cid]], minlength=classes).tolist()
              for cid in sorted(partition)]
    assert abs(mean_pairwise_ks_oracle(counts) - target) <= tolerance + 1e-12


@settings(max_examples=150)
@given(clients=st.integers(1, 40), classes=st.integers(1, 30),
       beta=st.floats(0.0, 1.0))
def test_mixed_preferences_ks_is_linear_in_the_weight(clients, classes, beta):
    # Uniform rows cancel in every pairwise CDF gap, which is what lets
    # partition_label_skew set its mixing weight in closed form.
    prefs = _client_preferences(clients, classes)
    uniform = np.full((clients, classes), 1.0 / classes)
    mixed = _mean_ks((1.0 - beta) * uniform + beta * prefs)
    assert math.isclose(mixed, beta * _mean_ks(prefs), rel_tol=0, abs_tol=1e-12)


def test_mean_pairwise_ks_rejects_an_empty_client():
    with pytest.raises(DataError, match="no samples"):
        mean_pairwise_ks({0: np.array([0]), 1: np.array([], dtype=np.int64)},
                         np.array([0]), 2)
