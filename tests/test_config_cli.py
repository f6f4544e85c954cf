"""Config validation and the command-line surface."""

import json

import numpy as np
import pytest

from fedconv.cli import main
from fedconv.config import ConfigValidationError, parse_experiment
from fedconv.reporting import save_checkpoint, write_report

from helpers import central_train


def base_doc(**over):
    doc = {
        "seed": 0,
        "arch": {
            "stem": "conv", "block": "invert_up", "channels": [4, 4, 4, 4],
            "depths": [1, 1, 1, 1], "kernel_size": 3, "activation": "silu",
            "act_placement": "act2", "norm_placement": "none",
            "norm_kind": "none", "num_classes": 4, "input_resolution": 32,
        },
        "fl": {"method": {"name": "fedavg"}, "rounds": 1, "local_epochs": 1,
               "batch_size": 16},
        "optimizer": {"kind": "adamw", "base_lr": 1e-3, "warmup_epochs": 0,
                      "total_epochs": 4},
        "data": {"source": "synthetic", "num_clients": 2,
                 "partition": {"kind": "iid"}, "num_classes": 4,
                 "per_class": 8, "test_per_class": 4, "resolution": 32},
    }
    for key, value in over.items():
        parts = key.split(".")
        node = doc
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        node[parts[-1]] = value
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def same_files(a, b, names):
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


# Tiny configs on which `fedconv central` must reproduce the oracle.
CENTRAL_CASES = {
    "adamw_agc_round_checkpoints": {
        "optimizer.agc": {"clipping": 0.01}, "save_round_checkpoints": True,
        "fl.rounds": 2},
    "local_epochs_2": {"fl.local_epochs": 2, "fl.rounds": 2},
    "sgd_momentum": {"optimizer.kind": "sgd", "optimizer.momentum": 0.9,
                     "optimizer.base_lr": 0.01},
    "bn": {"arch.norm_kind": "bn", "arch.norm_placement": "all"},
    "fedyogi": {"fl.method": {"name": "fedyogi", "eta_client": 0.02}},
    # Reaches the target at round 2 of 4, so the run stops early.
    "target_accuracy": {"target_accuracy": 50, "fl.rounds": 4,
                        "optimizer.base_lr": 0.003},
    "skew_sampled": {"data.num_clients": 4, "fl.clients_per_round": 2,
                     "data.partition": {"kind": "label_skew", "target_ks": 0.5,
                                        "tolerance": 0.05}},
}


# A NaN or infinite number at each numeric field, by path; each value is
# inside the field's bounds as the comparisons read NaN and infinity.
NON_FINITE_CASES = {
    "target_accuracy": {"target_accuracy": float("nan")},
    "optimizer.base_lr": {"optimizer.base_lr": float("inf")},
    "optimizer.weight_decay": {"optimizer.weight_decay": float("nan")},
    "fl.method.mu": {"fl.method": {"name": "fedprox", "mu": float("inf")}},
    "optimizer.agc.clipping": {"optimizer.agc": {"clipping": float("inf")}},
    "data.partition.tolerance": {"data.partition": {
        "kind": "label_skew", "target_ks": 0.5, "tolerance": float("nan")}},
}


class TestValidation:
    def test_valid_config_parses(self):
        exp = parse_experiment(base_doc())
        assert exp.seed == 0
        assert exp.arch.kernel_size == 3
        assert exp.fl.method.name == "fedavg"
        assert exp.dtype == np.dtype(np.float32)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigValidationError, match="bogus: unknown key"):
            parse_experiment(base_doc(bogus=1))

    def test_unknown_nested_key_reports_path(self):
        with pytest.raises(ConfigValidationError, match=r"fl\.extra: unknown key"):
            parse_experiment(base_doc(**{"fl.extra": True}))

    def test_multiple_errors_collected(self):
        doc = base_doc()
        doc["seed"] = -1
        doc["fl"]["rounds"] = "three"
        doc["optimizer"]["base_lr"] = 0
        with pytest.raises(ConfigValidationError) as exc:
            parse_experiment(doc)
        text = str(exc.value)
        assert "seed" in text and "fl.rounds" in text and "optimizer.base_lr" in text

    @pytest.mark.parametrize("path", ["arch", "fl", "optimizer", "data",
                                      "fl.method", "data.partition"])
    def test_null_section_is_a_validation_error(self, path):
        # A null section passed validation: the top-level ones and fl.method
        # crashed later with AttributeError, and a null partition ran as IID.
        with pytest.raises(ConfigValidationError,
                           match=rf"{path}: expected an object, got None"):
            parse_experiment(base_doc(**{path: None}))

    def test_integer_beyond_float_range_is_a_validation_error(self):
        # float() raised OverflowError on it, which the CLI printed as a traceback.
        with pytest.raises(ConfigValidationError,
                           match=r"optimizer\.base_lr: expected a finite number"):
            parse_experiment(base_doc(**{"optimizer.base_lr": 10**400}))

    def test_method_params_validated(self):
        with pytest.raises(ConfigValidationError, match="fraction"):
            parse_experiment(base_doc(**{"fl.method": {"name": "share", "fraction": 1.5}}))
        with pytest.raises(ConfigValidationError, match="unknown key"):
            parse_experiment(base_doc(**{"fl.method": {"name": "fedavg", "mu": 0.1}}))

    def test_partition_target_range(self):
        with pytest.raises(ConfigValidationError, match="target_ks"):
            parse_experiment(base_doc(**{"data.partition": {
                "kind": "label_skew", "target_ks": 1.0}}))

    def test_cross_field_class_count(self):
        with pytest.raises(ConfigValidationError, match="num_classes"):
            parse_experiment(base_doc(**{"arch.num_classes": 7}))

    def test_cifar_requires_path(self):
        doc = base_doc()
        doc["data"] = {"source": "cifar10", "num_clients": 2,
                       "partition": {"kind": "iid"}}
        doc["arch"]["num_classes"] = 10
        with pytest.raises(ConfigValidationError, match=r"data\.path"):
            parse_experiment(doc)

    def test_agc_section(self):
        exp = parse_experiment(base_doc(**{"optimizer.agc": {"clipping": 0.02}}))
        assert exp.optimizer.agc.clipping == 0.02
        assert exp.optimizer.agc.eps == 1e-3
        exp = parse_experiment(base_doc())
        assert exp.optimizer.agc is None

    def test_snapshot_excludes_output_dir(self):
        exp = parse_experiment(base_doc(output_dir="somewhere"))
        assert "output_dir" not in exp.raw
        assert exp.output_dir == "somewhere"


class TestCliTrain:
    def test_train_writes_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_doc())
        code = main(["train", "--config", cfg, "--out", str(tmp_path / "run")])
        assert code == 0
        assert (tmp_path / "run" / "rounds.csv").exists()
        assert (tmp_path / "run" / "report.json").exists()
        assert (tmp_path / "run" / "checkpoint.manifest").exists()
        assert "final_accuracy" in capsys.readouterr().out

    def test_train_seed_override_lands_in_report(self, tmp_path):
        cfg = write_config(tmp_path, base_doc())
        main(["train", "--config", cfg, "--seed", "9",
              "--out", str(tmp_path / "run")])
        doc = json.loads((tmp_path / "run" / "report.json").read_text())
        assert doc["config"]["seed"] == 9

    def test_negative_seed_override_is_one_error_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_doc())
        code = main(["train", "--config", cfg, "--seed", "-1",
                     "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed" in err
        assert "\n" not in err.strip("\n")

    def test_missing_out_dir_is_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_doc())
        code = main(["train", "--config", cfg])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip("\n")

    def test_invalid_config_single_error_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_doc(bogus=1))
        code = main(["train", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bogus" in err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_central_writes_same_shapes(self, tmp_path):
        cfg = write_config(tmp_path, base_doc())
        code = main(["central", "--config", cfg, "--out", str(tmp_path / "c")])
        assert code == 0
        doc = json.loads((tmp_path / "c" / "report.json").read_text())
        assert doc["partition_mean_ks"] is None
        assert len(doc["records"]) == 2  # round 0 + one epoch

    @pytest.mark.parametrize("over", CENTRAL_CASES.values(), ids=CENTRAL_CASES)
    def test_central_matches_oracle(self, tmp_path, over):
        # `central` is a one-client federated run; the pooled-data epoch loop
        # in the oracle must give the same report and checkpoints byte for byte.
        doc = base_doc(**over)
        cfg = write_config(tmp_path, doc)
        got, want = tmp_path / "c", tmp_path / "oracle"
        assert main(["central", "--config", cfg, "--out", str(got)]) == 0
        rounds, capture = {}, {}
        report = central_train(parse_experiment(doc), capture=capture,
                               round_checkpoint=lambda r, s: rounds.update({r: s}))
        write_report(report, want)
        assert same_files(got, want, ["report.json"])
        entries = {f"model.{n}": v for n, v in capture["state"].items()}
        entries.update((f"opt.client0.{k}", v)
                       for k, v in capture["optimizer"].state_dict().items())
        save_checkpoint(entries, want / "checkpoint")
        assert same_files(got, want, ["checkpoint.manifest", "checkpoint.blob"])
        if doc.get("save_round_checkpoints"):
            for r, state in rounds.items():
                save_checkpoint({f"model.{n}": v for n, v in state.items()},
                                want / f"round_{r:04d}")
        saved = sorted(p.name for p in got.glob("round_*"))
        assert saved == sorted(p.name for p in want.glob("round_*"))
        assert same_files(got, want, saved)


class TestCliPartition:
    def test_iid_prints_zero_ks(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_doc())
        code = main(["partition", "--config", cfg, "--out", str(tmp_path / "p")])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean_ks 0.0000" in out
        payload = json.loads((tmp_path / "p" / "partition.json").read_text())
        assert set(payload.keys()) == {"0", "1"}

    def test_label_skew_within_tolerance(self, tmp_path, capsys):
        doc = base_doc(**{
            "data.per_class": 50,
            "data.partition": {"kind": "label_skew", "target_ks": 0.5,
                               "tolerance": 0.05}})
        cfg = write_config(tmp_path, doc)
        code = main(["partition", "--config", cfg, "--out", str(tmp_path / "p")])
        assert code == 0
        ks = float(capsys.readouterr().out.split("mean_ks ")[1])
        assert abs(ks - 0.5) <= 0.05

    def test_unreachable_target_nonzero_exit(self, tmp_path, capsys):
        doc = base_doc(**{
            "data.num_clients": 8,
            "data.partition": {"kind": "label_skew", "target_ks": 0.95,
                               "tolerance": 0.01}})
        cfg = write_config(tmp_path, doc)
        code = main(["partition", "--config", cfg, "--out", str(tmp_path / "p")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


class TestCliFlopsSweepEval:
    def test_flops_prints_counts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_doc())
        assert main(["flops", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert out.startswith("params ") and "flops " in out

    def test_flops_calibrate(self, tmp_path, capsys):
        from fedconv.models import count_flops
        from fedconv.config import parse_experiment as pe
        doc = base_doc(**{"arch.depths": [2, 2, 6, 2]})
        target = count_flops(pe(doc).arch)
        cfg = write_config(tmp_path, base_doc())
        assert main(["flops", "--config", cfg, "--calibrate", str(target),
                     "--tolerance", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "calibrated_depths 2 2 6 2" in out

    def test_sweep_kernel_size(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_doc())
        code = main(["sweep", "--config", cfg, "--axis", "kernel_size",
                     "--values", "3", "5", "--out", str(tmp_path / "s")])
        assert code == 0
        text = (tmp_path / "s" / "sweep.csv").read_text()
        assert text.splitlines()[0] == "kernel_size,final_accuracy,best_accuracy,rounds_to_target,tms"
        assert len(text.splitlines()) == 3
        assert (tmp_path / "s" / "sweep_kernel_size_3" / "report.json").exists()

    @pytest.mark.parametrize("values", [["abc"], ["3", "4"], ["3", "abc"],
                                        ["3", "2.5"], ["3", "3"],
                                        ["3", "5", "3"], ["3", "03"],
                                        ["3", "1" + "0" * 5000]])
    def test_sweep_bad_value_is_one_error_line_and_runs_nothing(
            self, tmp_path, capsys, values):
        # A non-integer kernel size died in a ValueError traceback, and an
        # invalid one (even) was rejected only after the earlier cells ran.
        # A repeated one ran its cell twice and wrote its sweep.csv row twice.
        # A decimal of more digits than int() reads (4,300) was a traceback.
        cfg = write_config(tmp_path, base_doc())
        out = tmp_path / "s"
        code = main(["sweep", "--config", cfg, "--axis", "kernel_size",
                     "--values", *values, "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
        assert "kernel_size" in lines[0]
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("flags,named", [
        (["--calibrate", "nan"], "--calibrate"),
        (["--calibrate", "inf"], "--calibrate"),
        (["--calibrate=-inf"], "--calibrate"),
        (["--calibrate", "1e6", "--tolerance", "nan"], "--tolerance"),
        (["--calibrate", "1e6", "--tolerance", "inf"], "--tolerance")])
    def test_flops_non_finite_argument_is_one_error_line(self, tmp_path, capsys,
                                                         flags, named):
        # int(nan) raised ValueError and int(inf) OverflowError as tracebacks;
        # a nan tolerance was accepted and reported as "within nan%".
        cfg = write_config(tmp_path, base_doc())
        assert main(["flops", "--config", cfg, *flags]) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
        assert named in lines[0] and "finite" in lines[0]
        assert captured.out == ""

    @pytest.mark.parametrize("argv,named", [
        (["flops", "--config", "CFG", "--calibrate", "-inf"], "--calibrate"),
        (["sweep", "--config", "CFG", "--axis", "depth", "--values", "1"],
         "--axis"),
        (["train", "--config", "CFG", "--threads", "abc"], "--threads"),
        (["train"], "--config")])
    def test_argparse_usage_error_is_one_error_line(self, tmp_path, capsys,
                                                    argv, named):
        # argparse printed its multi-line `usage:` block before the error and
        # left through SystemExit instead of returning.
        cfg = write_config(tmp_path, base_doc())
        assert main([cfg if a == "CFG" else a for a in argv]) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
        assert named in lines[0]
        assert captured.out == ""

    def test_help_still_prints_usage_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage:") and "--config" in captured.out
        assert captured.err == ""

    def test_sweep_shares_partition_across_values(self, tmp_path):
        cfg = write_config(tmp_path, base_doc())
        main(["sweep", "--config", cfg, "--axis", "activation",
              "--values", "relu", "silu", "--out", str(tmp_path / "s")])
        a = json.loads((tmp_path / "s" / "sweep_activation_relu" / "report.json").read_text())
        b = json.loads((tmp_path / "s" / "sweep_activation_silu" / "report.json").read_text())
        assert a["partition_mean_ks"] == b["partition_mean_ks"]
        assert a["records"][0]["client_sizes"] == b["records"][0]["client_sizes"]

    def test_eval_prints_accuracy_from_checkpoint(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_doc())
        main(["train", "--config", cfg, "--out", str(tmp_path / "run")])
        capsys.readouterr()
        code = main(["eval", "--config", cfg,
                     "--checkpoint", str(tmp_path / "run" / "checkpoint")])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("accuracy ")
        # matches the final accuracy the training run reported
        doc = json.loads((tmp_path / "run" / "report.json").read_text())
        assert abs(float(out.split()[1]) - doc["final_accuracy"]) < 1e-3

    def test_eval_wrong_shaped_entry_is_one_error_line(self, tmp_path, capsys):
        from fedconv.reporting import load_checkpoint, save_checkpoint
        cfg = write_config(tmp_path, base_doc())
        main(["train", "--config", cfg, "--out", str(tmp_path / "run")])
        stem = tmp_path / "run" / "checkpoint"
        entries = load_checkpoint(stem)
        entries["model.head.bias"] = np.array([0.5], dtype=np.float32)
        save_checkpoint(entries, stem)
        capsys.readouterr()
        code = main(["eval", "--config", cfg, "--checkpoint", str(stem)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "head.bias" in lines[0]

    @staticmethod
    def assert_one_error_line(capsys, code, named):
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
        assert named in lines[0]

    @pytest.mark.parametrize("raw,named", [
        (b'\xff\xfe{"seed": 1}', "UTF-8"),
        (b"[" * 100_000, "nested"),
    ], ids=["not_utf8", "nested_100k"])
    def test_malformed_config_file_is_one_error_line(self, tmp_path, capsys,
                                                     raw, named):
        # The first raised UnicodeDecodeError, the second RecursionError out
        # of json.loads, both as tracebacks.
        cfg = tmp_path / "config.json"
        cfg.write_bytes(raw)
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
        self.assert_one_error_line(capsys, code, named)

    @pytest.mark.parametrize("path", NON_FINITE_CASES)
    def test_non_finite_number_is_one_error_line(self, tmp_path, capsys, path):
        # json reads NaN and Infinity, and each passed its field's bounds: a NaN
        # target never stopped training and wrote a literal NaN into
        # report.json; an infinite base_lr failed mid-run with exit 1.
        cfg = write_config(tmp_path, base_doc(**NON_FINITE_CASES[path]))
        code = main(["train", "--config", cfg, "--out", str(tmp_path / "run")])
        self.assert_one_error_line(capsys, code, f"{path}: ")
        assert not (tmp_path / "run").exists()

    def test_integer_beyond_the_digit_limit_is_one_error_line(self, tmp_path,
                                                               capsys):
        # json.loads raised Python's integer-string conversion ValueError
        # ("Exceeds the limit (4300 digits)"), which no clause caught.
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(base_doc()).replace(
            '"base_lr": 0.001', '"base_lr": 1' + "0" * 5000), encoding="utf-8")
        code = main(["flops", "--config", str(cfg)])
        self.assert_one_error_line(capsys, code, "digits")

    def test_duplicated_key_is_one_error_line(self, tmp_path, capsys):
        # json keeps the last of a repeated key, so this costed a k9 model.
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(base_doc()).replace(
            '"kernel_size": 3', '"kernel_size": 3, "kernel_size": 9'),
            encoding="utf-8")
        code = main(["flops", "--config", str(cfg)])
        self.assert_one_error_line(capsys, code, "'kernel_size'")

    def test_eval_manifest_not_utf8_is_one_error_line(self, tmp_path, capsys):
        # read_text raised UnicodeDecodeError as a traceback.
        cfg = write_config(tmp_path, base_doc())
        main(["train", "--config", cfg, "--out", str(tmp_path / "run")])
        stem = tmp_path / "run" / "checkpoint"
        (tmp_path / "run" / "checkpoint.manifest").write_bytes(
            b"\xffmodel.head.bias\tf32\t4\t0\n")
        capsys.readouterr()
        code = main(["eval", "--config", cfg, "--checkpoint", str(stem)])
        self.assert_one_error_line(capsys, code, "UTF-8")

    @pytest.mark.parametrize("shape,named", [
        ("4294967296,4294967296", "truncated"),
        ("0,1000000000000000000000000000000", "0,1000000000000000000000000000000"),
    ], ids=["count_wraps_int64", "unrepresentable"])
    def test_eval_oversized_shape_is_one_error_line(self, tmp_path, capsys,
                                                    shape, named):
        # np.prod wrapped 2**64 elements to 0, so the size check passed and
        # reshape raised ValueError; numpy cannot hold a 10**30 dimension.
        cfg = write_config(tmp_path, base_doc())
        stem = tmp_path / "checkpoint"
        (tmp_path / "checkpoint.manifest").write_text(
            f"model.head.bias\tf32\t{shape}\t0\n", encoding="utf-8")
        (tmp_path / "checkpoint.blob").write_bytes(b"")
        code = main(["eval", "--config", cfg, "--checkpoint", str(stem)])
        self.assert_one_error_line(capsys, code, named)

    def test_eval_missing_checkpoint(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_doc())
        code = main(["eval", "--config", cfg,
                     "--checkpoint", str(tmp_path / "nope")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
