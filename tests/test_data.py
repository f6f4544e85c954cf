"""Dataset generation/ingestion, KS statistics, and partitioners."""

import numpy as np
import pytest

from fedconv.data import (DataError, build_shared_pool, ks_two,
                          label_histograms, load_cifar10_binary,
                          mean_pairwise_ks, partition_iid,
                          partition_label_skew, synth_dataset, to_input)

RECORD = 3073
PER_FILE = 10_000


def write_cifar_file(path, labels=None, seed=0):
    rng = np.random.default_rng(seed)
    recs = rng.integers(0, 256, size=(PER_FILE, RECORD), dtype=np.uint8)
    recs[:, 0] = (np.arange(PER_FILE) % 10) if labels is None else labels
    path.write_bytes(recs.tobytes())
    return recs


class TestCifarLoader:
    def test_valid_file_has_10000_samples(self, tmp_path):
        f = tmp_path / "data_batch_1.bin"
        recs = write_cifar_file(f)
        ds = load_cifar10_binary(f)
        assert len(ds) == PER_FILE
        assert ds.images.shape == (PER_FILE, 3, 32, 32)
        # first record's label is its first byte; pixels ingest bit-exactly
        assert ds.labels[0] == recs[0, 0]
        np.testing.assert_array_equal(ds.images[0].ravel(), recs[0, 1:])

    def test_truncated_file_rejected(self, tmp_path):
        f = tmp_path / "data_batch_1.bin"
        write_cifar_file(f)
        f.write_bytes(f.read_bytes()[:-100])
        with pytest.raises(DataError, match="bytes"):
            load_cifar10_binary(f)

    def test_label_byte_out_of_range_rejected(self, tmp_path):
        f = tmp_path / "bad.bin"
        write_cifar_file(f, labels=np.full(PER_FILE, 11, dtype=np.uint8))
        with pytest.raises(DataError, match="label"):
            load_cifar10_binary(f)

    def test_directory_layout(self, tmp_path):
        for i in (1, 2):
            write_cifar_file(tmp_path / f"data_batch_{i}.bin", seed=i)
        write_cifar_file(tmp_path / "test_batch.bin", seed=9)
        train = load_cifar10_binary(tmp_path, "train")
        test = load_cifar10_binary(tmp_path, "test")
        assert len(train) == 2 * PER_FILE and len(test) == PER_FILE

    def test_missing_path(self, tmp_path):
        with pytest.raises(DataError):
            load_cifar10_binary(tmp_path / "nope.bin")


class TestSynthDataset:
    def test_deterministic_bitwise(self):
        a = synth_dataset(7, 4, 20, 32)
        b = synth_dataset(7, 4, 20, 32)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_uniform_label_histogram(self):
        ds = synth_dataset(0, 5, 13, 32)
        counts = np.bincount(ds.labels, minlength=5)
        np.testing.assert_array_equal(counts, np.full(5, 13))

    def test_splits_differ(self):
        a = synth_dataset(0, 4, 10, 32, "train")
        b = synth_dataset(0, 4, 10, 32, "test")
        assert not np.array_equal(a.images, b.images)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_to_input_is_the_three_step_expression(self, dtype):
        images = synth_dataset(1, 4, 8, 32, "train").images
        want = ((images.astype(dtype) / 255.0) - 0.5) / 0.25
        got = to_input(images, dtype)
        assert got.dtype == dtype and got.tobytes() == want.tobytes()

    def test_nearest_centroid_beats_chance(self):
        train = synth_dataset(3, 4, 50, 32, "train")
        test = synth_dataset(3, 4, 25, 32, "test")
        xtr = to_input(train.images).reshape(len(train), -1)
        xte = to_input(test.images).reshape(len(test), -1)
        centroids = np.stack([xtr[train.labels == k].mean(axis=0) for k in range(4)])
        pred = np.argmin(
            ((xte[:, None, :] - centroids[None]) ** 2).sum(axis=2), axis=1)
        acc = (pred == test.labels).mean()
        assert acc > 0.9  # far above the 0.25 chance level


class TestKs:
    def test_equal_distributions(self):
        p = np.array([0.2, 0.3, 0.5])
        assert ks_two(p, p) == 0.0

    def test_disjoint_one_hots(self):
        assert ks_two(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_hand_case(self):
        assert abs(ks_two(np.array([0.7, 0.3]), np.array([0.3, 0.7])) - 0.4) < 1e-12

    def test_symmetry_and_bounds_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.dirichlet(np.ones(6))
            q = rng.dirichlet(np.ones(6))
            d = ks_two(p, q)
            assert 0.0 <= d <= 1.0
            assert d == ks_two(q, p)
            assert ks_two(p, p) == 0.0

    def test_rejects_non_distributions(self):
        with pytest.raises(DataError):
            ks_two(np.array([0.5, 0.6]), np.array([0.5, 0.5]))


class TestMeanPairwiseKs:
    def test_identical_clients(self):
        labels = np.tile(np.arange(4), 8)
        part = {0: np.arange(16), 1: np.arange(16, 32)}
        assert mean_pairwise_ks(part, labels, 4) == 0.0

    def test_two_fully_disjoint_clients(self):
        labels = np.array([0] * 8 + [1] * 8)
        part = {0: np.arange(8), 1: np.arange(8, 16)}
        assert mean_pairwise_ks(part, labels, 2) == 1.0

    def test_three_client_hand_case(self):
        # client 0: all class 0; client 1: all class 1; client 2: half/half
        labels = np.array([0] * 4 + [1] * 4 + [0, 0, 1, 1])
        part = {0: np.arange(4), 1: np.arange(4, 8), 2: np.arange(8, 12)}
        # pairs: (0,1) -> 1.0, (0,2) -> 0.5, (1,2) -> 0.5
        want = (1.0 + 0.5 + 0.5) / 3
        assert abs(mean_pairwise_ks(part, labels, 2) - want) < 1e-12


class TestPartitionIid:
    def test_balanced_set_mean_ks_zero(self):
        ds = synth_dataset(0, 10, 50, 32)  # 500 samples, divisible by 5
        part = partition_iid(ds, 5, seed=1)
        assert mean_pairwise_ks(part, ds.labels, 10) == 0.0

    def test_sizes_differ_by_at_most_one(self):
        ds = synth_dataset(0, 3, 17, 32)  # 51 samples over 4 clients
        part = partition_iid(ds, 4, seed=1)
        sizes = [len(v) for v in part.values()]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 51

    def test_deterministic_and_disjoint(self):
        ds = synth_dataset(2, 4, 25, 32)
        a = partition_iid(ds, 5, seed=3)
        b = partition_iid(ds, 5, seed=3)
        for cid in a:
            np.testing.assert_array_equal(a[cid], b[cid])
        all_idx = np.concatenate(list(a.values()))
        assert len(np.unique(all_idx)) == len(ds)


class TestPartitionLabelSkew:
    def test_target_zero_equals_iid(self):
        ds = synth_dataset(0, 4, 25, 32)
        skew = partition_label_skew(ds, 4, target_ks=0.0, tolerance=0.05, seed=5)
        iid = partition_iid(ds, 4, seed=5)
        for cid in iid:
            np.testing.assert_array_equal(skew[cid], iid[cid])

    @pytest.mark.parametrize("target", [0.49, 0.57])
    def test_paper_scale_targets_achieved(self, target):
        ds = synth_dataset(1, 10, 500, 32)  # balanced 10-class, 5000 samples
        part = partition_label_skew(ds, 5, target_ks=target, tolerance=0.02, seed=2)
        realized = mean_pairwise_ks(part, ds.labels, 10)
        assert abs(realized - target) <= 0.05

    @pytest.mark.parametrize("target", [0.49, 0.57])
    def test_paper_scale_targets_hit_up_to_rounding(self, target):
        # The mixing weight is exact, so only per-class rounding of 500
        # samples separates the realized KS from the target.
        ds = synth_dataset(1, 10, 500, 32)
        part = partition_label_skew(ds, 5, target_ks=target, tolerance=0.02, seed=2)
        realized = mean_pairwise_ks(part, ds.labels, 10)
        assert abs(realized - target) <= 1e-3

    def test_target_above_reachable_maximum_within_tolerance(self):
        # 3 clients over 2 classes reach at most 2/3, inside 0.05 of 0.7.
        ds = synth_dataset(7, 2, 60, 32)
        part = partition_label_skew(ds, 3, target_ks=0.7, tolerance=0.05, seed=1)
        realized = mean_pairwise_ks(part, ds.labels, 2)
        assert abs(realized - 0.7) <= 0.05
        assert realized == pytest.approx(2 / 3, abs=1e-12)

    def test_disjoint_and_exhaustive(self):
        ds = synth_dataset(3, 4, 50, 32)
        part = partition_label_skew(ds, 4, target_ks=0.6, tolerance=0.02, seed=3)
        all_idx = np.concatenate(list(part.values()))
        assert len(np.unique(all_idx)) == len(ds)

    def test_high_skew_with_clients_sharing_classes(self):
        ds = synth_dataset(4, 2, 100, 32)
        part = partition_label_skew(ds, 2, target_ks=0.9, tolerance=0.02, seed=4)
        realized = mean_pairwise_ks(part, ds.labels, 2)
        assert abs(realized - 0.9) <= 0.02

    def test_unreachable_target_raises(self):
        ds = synth_dataset(5, 2, 30, 32)
        # 6 clients over 2 classes: disjoint support is impossible
        with pytest.raises(DataError, match=r"unreachable.*\(at most 0\.3333\)"):
            partition_label_skew(ds, 6, target_ks=0.95, tolerance=0.01, seed=6)

    def test_deterministic(self):
        ds = synth_dataset(6, 4, 50, 32)
        a = partition_label_skew(ds, 4, 0.5, 0.02, seed=7)
        b = partition_label_skew(ds, 4, 0.5, 0.02, seed=7)
        for cid in a:
            np.testing.assert_array_equal(a[cid], b[cid])


class TestSharedPool:
    def make_partition(self, n_per=100, clients=2):
        return {cid: np.arange(cid * n_per, (cid + 1) * n_per)
                for cid in range(clients)}

    def test_five_percent_counting(self):
        part = self.make_partition(100, 2)
        out = build_shared_pool(part, 0.05, seed=0)
        assert all(len(v) == 110 for v in out.values())

    def test_pool_indices_subset_of_union(self):
        part = self.make_partition(50, 3)
        out = build_shared_pool(part, 0.1, seed=1)
        union = set(np.concatenate(list(part.values())).tolist())
        for cid in part:
            added = set(out[cid].tolist())
            assert added <= union

    def test_deterministic(self):
        part = self.make_partition(64, 3)
        a = build_shared_pool(part, 0.05, seed=2)
        b = build_shared_pool(part, 0.05, seed=2)
        for cid in a:
            np.testing.assert_array_equal(a[cid], b[cid])

    def test_bad_fraction(self):
        with pytest.raises(DataError):
            build_shared_pool(self.make_partition(), 0.0, seed=0)


class TestHistograms:
    def test_label_histograms(self):
        labels = np.array([0, 0, 1, 2, 2, 2])
        part = {0: np.array([0, 1, 2]), 1: np.array([3, 4, 5])}
        h = label_histograms(part, labels, 3)
        np.testing.assert_array_equal(h[0], [2, 1, 0])
        np.testing.assert_array_equal(h[1], [0, 0, 3])
