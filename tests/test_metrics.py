"""Evaluation, TMS accounting, checkpoints, and report files."""

import struct
import tracemalloc
from collections import OrderedDict
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedconv import autodiff as ad
from fedconv import reporting
from fedconv.autodiff import Tensor
from fedconv.data import synth_dataset, to_input
from fedconv.models import ArchConfig, Network
from fedconv.reporting import (CheckpointError, ExperimentReport, RoundRecord,
                               evaluate, load_checkpoint, rounds_to_target,
                               save_checkpoint, tms, write_report)


class FixedLogitsModel:
    """Evaluation stub returning a constant or a lookup row of logits."""

    def __init__(self, logits_fn, num_classes):
        self.logits_fn = logits_fn
        self.num_classes = num_classes
        self.dtype = np.dtype(np.float32)

    def eval(self):
        return self

    def forward(self, x):
        n = x.shape[0]
        return Tensor(self.logits_fn(n))


class TestEvaluate:
    def test_constant_class_on_balanced_set(self):
        ds = synth_dataset(0, 4, 25, 32, "test")
        z = np.zeros((1, 4))
        z[0, 2] = 5.0
        model = FixedLogitsModel(lambda n: np.tile(z, (n, 1)), 4)
        assert evaluate(model, ds.images, ds.labels) == 25.0

    def test_perfect_memorization(self):
        ds = synth_dataset(1, 4, 10, 32, "test")
        cursor = {"pos": 0}

        def fn(n):
            lo = cursor["pos"]
            cursor["pos"] += n
            out = np.full((n, 4), -10.0)
            out[np.arange(n), ds.labels[lo:lo + n]] = 10.0
            return out

        model = FixedLogitsModel(fn, 4)
        assert evaluate(model, ds.images, ds.labels, batch_size=8) == 100.0

    def test_three_sample_manual_argmax(self):
        images = np.zeros((3, 3, 32, 32), dtype=np.uint8)
        labels = np.array([0, 1, 1])
        rows = iter([np.array([[3.0, 1.0], [0.5, 2.0], [4.0, 0.0]])])
        model = FixedLogitsModel(lambda n: next(rows), 2)
        # argmax by hand: 0, 1, 0 -> two of three correct
        assert abs(evaluate(model, images, labels) - 100.0 * 2 / 3) < 1e-12

    def test_accuracy_does_not_depend_on_batch_size(self):
        # A BN + GELU model with a ResNet stem, whose column matrix is built
        # in blocks above 64 images, in eval mode with trained-looking running
        # statistics. Labelled with its own full-set predictions, it must
        # score 100% at every batch size, so no prediction may move.
        arch = ArchConfig(stem="resnet", block="normal", channels=(4, 8, 8, 8),
                          depths=(1, 1, 1, 1), kernel_size=3, activation="gelu",
                          act_placement="all", norm_placement="all",
                          norm_kind="bn", num_classes=4, input_resolution=32)
        model = Network(arch)
        rng = np.random.default_rng(3)
        model.init_params(rng)
        state = model.state_dict()
        for name, value in state.items():
            if name.endswith("running_mean"):
                value[...] = rng.normal(0.0, 0.5, value.shape)
            elif name.endswith("running_var"):
                value[...] = rng.uniform(0.5, 2.0, value.shape)
        model.load_state_dict(state)
        ds = synth_dataset(2, 4, 75, 32, "test")
        with ad.no_grad():
            own = model.eval().forward(Tensor(to_input(ds.images))).data.argmax(axis=1)
        assert len(np.unique(own)) > 1
        accs = {bs: evaluate(model, ds.images, ds.labels, batch_size=bs)
                for bs in (16, 64, 128, 256)}
        assert len(set(accs.values())) == 1, accs
        for bs in accs:
            assert evaluate(model, ds.images, own, batch_size=bs) == 100.0, bs


class TestRoundsToTarget:
    def recs(self, accs, start=1):
        return [RoundRecord(i, a, 0.1) for i, a in enumerate(accs, start)]

    def test_unreached_target_absent(self):
        assert rounds_to_target(self.recs([50.0, 60.0]), 90.0) is None

    def test_first_crossing_round(self):
        assert rounds_to_target(self.recs([80.0, 91.0]), 90.0) == 2

    def test_paper_scale_anchor(self):
        # 25.6M-parameter model reaching the target in round 5
        records = self.recs([70, 80, 85, 88, 90.5], start=1)
        assert rounds_to_target(records, 90.0) == 5
        assert tms(25_600_000, 5) == 128_000_000


class TestTms:
    def test_exact_product(self):
        assert tms(25_600_000, 5) == 128_000_000

    def test_zero_rounds(self):
        assert tms(123, 0) == 0


class TestCheckpoint:
    def entries(self):
        rng = np.random.default_rng(0)
        return OrderedDict([
            ("model.stem.conv1.weight", rng.standard_normal((4, 3, 3, 3)).astype(np.float32)),
            ("model.head.bias", rng.standard_normal(4)),
            ("model.bn.running_var", rng.uniform(0.5, 2.0, 4).astype(np.float32)),
            ("opt.t", np.array(17, dtype=np.int64)),
        ])

    def test_round_trip_bitwise(self, tmp_path):
        entries = self.entries()
        save_checkpoint(entries, tmp_path / "ckpt")
        loaded = load_checkpoint(tmp_path / "ckpt")
        assert list(loaded.keys()) == list(entries.keys())
        for name, arr in entries.items():
            assert loaded[name].dtype == arr.dtype
            assert np.array_equal(loaded[name], arr), name

    @pytest.mark.parametrize("position", ["last", "before_another"])
    def test_zero_size_entry_round_trips(self, tmp_path, position):
        empty = ("opt.empty", np.zeros((0, 3), dtype=np.float32))
        full = ("model.w", np.arange(3.0))
        entries = OrderedDict([full, empty] if position == "last" else [empty, full])
        save_checkpoint(entries, tmp_path / "ckpt")
        loaded = load_checkpoint(tmp_path / "ckpt")
        assert list(loaded) == list(entries)
        for name, arr in entries.items():
            assert loaded[name].dtype == arr.dtype
            assert loaded[name].shape == arr.shape
            assert np.array_equal(loaded[name], arr), name

    @settings(max_examples=100,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(arrays=st.lists(
        st.sampled_from([np.float32, np.float64, np.int64]).flatmap(
            lambda dt: hnp.arrays(dt, hnp.array_shapes(min_dims=0, max_dims=4,
                                                       min_side=0, max_side=3))),
        min_size=1, max_size=4))
    def test_round_trip_any_shape_and_dtype_bitwise(self, tmp_path, arrays):
        entries = OrderedDict((f"e{i}", a) for i, a in enumerate(arrays))
        save_checkpoint(entries, tmp_path / "ckpt")
        loaded = load_checkpoint(tmp_path / "ckpt")
        assert list(loaded) == list(entries)
        for name, arr in entries.items():
            assert loaded[name].dtype == arr.dtype
            assert loaded[name].shape == arr.shape
            assert loaded[name].tobytes() == arr.tobytes(), name

    def test_truncated_blob_rejected(self, tmp_path):
        save_checkpoint(self.entries(), tmp_path / "ckpt")
        blob = tmp_path / "ckpt.blob"
        blob.write_bytes(blob.read_bytes()[:-8])
        with pytest.raises(CheckpointError, match="truncated|trailing"):
            load_checkpoint(tmp_path / "ckpt")

    def test_unknown_dtype_tag_rejected(self, tmp_path):
        save_checkpoint(self.entries(), tmp_path / "ckpt")
        manifest = tmp_path / "ckpt.manifest"
        manifest.write_text(manifest.read_text().replace("f32", "f16", 1))
        with pytest.raises(CheckpointError, match="dtype"):
            load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize("shape, offset", [("-2,-3", "0"), ("2,x", "0"),
                                               ("2,3", "zero")])
    def test_malformed_manifest_fields_rejected(self, tmp_path, shape, offset):
        # -2,-3 multiplies to the blob's 6 elements, so only a sign check
        # keeps it from reaching reshape.
        (tmp_path / "ckpt.manifest").write_text(f"w\tf32\t{shape}\t{offset}\n")
        (tmp_path / "ckpt.blob").write_bytes(bytes(24))
        with pytest.raises(CheckpointError, match="manifest line 1"):
            load_checkpoint(tmp_path / "ckpt")

    def test_duplicate_manifest_name_rejected(self, tmp_path):
        # Both lines are well-formed and contiguous; without a name check the
        # second silently replaces the first and loads as {"w": [2.0]}.
        (tmp_path / "ckpt.manifest").write_text("w\tf32\t1\t0\nw\tf32\t1\t4\n")
        (tmp_path / "ckpt.blob").write_bytes(
            np.array([1, 2], dtype="<f4").tobytes())
        with pytest.raises(CheckpointError, match="manifest line 2: .*'w'"):
            load_checkpoint(tmp_path / "ckpt")

    def test_unsupported_save_dtype(self, tmp_path):
        with pytest.raises(CheckpointError, match="dtype"):
            save_checkpoint({"x": np.zeros(2, dtype=np.float16)}, tmp_path / "c")

    def test_bytes_are_little_endian_ieee754(self, tmp_path):
        value = np.array([1.5, -2.25, 1e-3], dtype=np.float64)
        save_checkpoint({"v": value}, tmp_path / "ckpt")
        blob = (tmp_path / "ckpt.blob").read_bytes()
        manual = b"".join(struct.pack("<d", float(x)) for x in value)
        assert blob == manual

    def test_strided_and_scalar_entries_write_their_values(self, tmp_path):
        grid = np.arange(12.0).reshape(3, 4)
        entries = OrderedDict([("t", grid.T), ("s", np.array(2.5, dtype=np.float32))])
        save_checkpoint(entries, tmp_path / "ckpt")
        blob = (tmp_path / "ckpt.blob").read_bytes()
        assert blob == struct.pack("<12df", *grid.T.ravel(), 2.5)
        assert np.array_equal(load_checkpoint(tmp_path / "ckpt")["t"], grid.T)

    def test_save_makes_no_copy_of_the_state(self, tmp_path):
        # Each entry's buffer is written as it is: no tobytes() per entry and
        # no joined blob, each of which cost a full copy of the state.
        rng = np.random.default_rng(0)
        entries = OrderedDict(
            (f"model.w{i}", rng.standard_normal(1 << 16).astype(np.float32))
            for i in range(6))
        state_bytes = sum(a.nbytes for a in entries.values())
        assert state_bytes >= 1 << 20
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            save_checkpoint(entries, tmp_path / "ckpt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 0.5 * state_bytes, (peak - base) / state_bytes
        loaded = load_checkpoint(tmp_path / "ckpt")
        assert all(np.array_equal(loaded[n], a) for n, a in entries.items())


def make_report(**over):
    base = dict(
        config={"seed": 3, "note": "toy"},
        params=1000,
        partition_mean_ks=0.25,
        client_sizes=[8, 8],
        records=[RoundRecord(0, 25.0, None, 0.01),
                 RoundRecord(1, 75.0, 1.25, 0.5),
                 RoundRecord(2, 92.5, 0.7, 0.48)],
        target_accuracy=90.0,
    )
    base.update(over)
    return ExperimentReport(**base)


class TestReportFiles:
    def test_derived_fields_are_read_off_the_records(self):
        # target -> (rounds_to_target, tms) for records at 25, 75, 92.5 and
        # 80%: no target; first crossings at rounds 2 and 1 (75 meets 75);
        # a target never reached.
        cases = {None: (None, None), 90.0: (2, 2000), 75.0: (1, 1000),
                 95.0: (None, None)}
        for target, want in cases.items():
            report = make_report(target_accuracy=target)
            report.records.append(RoundRecord(3, 80.0, 0.9, 0.5))
            # `central` reports through this replace.
            for r in (report, replace(report, partition_mean_ks=None)):
                assert r.final_accuracy == 80.0
                assert (r.rounds_to_target, r.tms) == want, target

    def test_rounds_csv_text(self, tmp_path):
        records = [RoundRecord(0, 100 / 3, None, 1e-7),
                   RoundRecord(1, 200 / 3, 0.1 + 0.2, 0.48),
                   RoundRecord(2, 92.5, 2.0 ** -40, 12345.678)]
        csv_path, _ = write_report(make_report(records=records), tmp_path)
        header, *rows = csv_path.read_text(encoding="utf-8").splitlines()
        assert header == "round,accuracy,loss,seconds"
        assert len(rows) == len(records)
        for row, rec in zip(rows, records):
            rnd, acc, loss, secs = row.split(",")
            assert int(rnd) == rec.round
            assert (loss == "") == (rec.loss is None)
            for text, value in ((acc, rec.accuracy), (loss, rec.loss),
                                (secs, rec.seconds)):
                if value is not None:
                    assert struct.pack("<d", float(text)) == struct.pack("<d", value)

    def test_json_is_deterministic_and_excludes_timing(self, tmp_path):
        report = make_report()
        _, json_a = write_report(report, tmp_path / "a")
        _, json_b = write_report(report, tmp_path / "b")
        assert json_a.read_bytes() == json_b.read_bytes()
        assert b"seconds" not in json_a.read_bytes()

    def test_json_round_trip_fields(self, tmp_path):
        import json
        report = make_report()
        _, json_path = write_report(report, tmp_path)
        doc = json.loads(json_path.read_text())
        assert doc["params"] == 1000
        assert doc["tms"] == 2000
        assert doc["rounds_to_target"] == 2
        assert [r["accuracy"] for r in doc["records"]] == [25.0, 75.0, 92.5]
        assert doc["records"][0]["loss"] is None


def _disk_full_open(path, mode):
    """`open` for a disk that fills up: `write` stores half of its bytes,
    then raises ENOSPC."""
    f = open(path, mode)

    class HalfWriter:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            f.close()

        def write(self, data):
            f.write(data[:len(data) // 2])
            f.flush()
            raise OSError(28, "No space left on device")
    return HalfWriter()


class TestAtomicWrites:
    """A write that fails midway leaves the previous file whole and no temp
    file behind."""

    @staticmethod
    def snapshot(d):
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    def test_checkpoint_write_failure_keeps_previous(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(0)
        save_checkpoint({"w": rng.standard_normal((8, 8))}, tmp_path / "ckpt")
        before = self.snapshot(tmp_path)
        monkeypatch.setattr(reporting, "open", _disk_full_open, raising=False)
        with pytest.raises(OSError):
            save_checkpoint({"w": rng.standard_normal((8, 8))}, tmp_path / "ckpt")
        assert self.snapshot(tmp_path) == before
        assert sorted(before) == ["ckpt.blob", "ckpt.manifest"]

    def test_report_write_failure_keeps_previous(self, tmp_path, monkeypatch):
        write_report(make_report(), tmp_path)
        before = self.snapshot(tmp_path)
        monkeypatch.setattr(reporting, "open", _disk_full_open, raising=False)
        with pytest.raises(OSError):
            write_report(make_report(params=2000), tmp_path)
        assert self.snapshot(tmp_path) == before
        assert sorted(before) == ["report.json", "rounds.csv"]
