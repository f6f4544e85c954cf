"""`fedconv sweep`: grids of `train` cells, resume, the ablation table, and
the committed ablation protocol."""

import csv
import json
import re
import shlex
from pathlib import Path

import pytest

import fedconv.cli as cli
from fedconv.cli import build_parser, main
from fedconv.config import grid_cells, load_grid, parse_experiment
from fedconv.federated import run_federated
from fedconv.models import BEST_SINGLE_ACT
from fedconv.reporting import (ablation_tables, claim_rows, claim_verdict,
                               sign_test_p, write_report)

from test_config_cli import base_doc, write_config

ROOT = Path(__file__).resolve().parents[1]

SKEW = {"data": {"partition": {"kind": "label_skew", "target_ks": 0.5,
                               "tolerance": 0.05}}}
TINY_GRID = {
    "axes": {
        "variant": {"recipe": {}, "relu": {"arch": {"activation": "relu"}}},
        "skew": {"iid": {}, "ks05": SKEW},
        "seed": {"4": {"seed": 4}, "5": {"seed": 5}},
    },
    "claims": [{"axis": "variant", "better": "recipe", "worse": "relu",
                "at": {"skew": "ks05"}}],
}


def write_grid(tmp_path, grid):
    path = tmp_path / "grid.json"
    path.write_text(grid if isinstance(grid, str) else json.dumps(grid),
                    encoding="utf-8")
    return str(path)


@pytest.fixture
def count_runs(monkeypatch):
    """The configs `run_federated` trains, in call order."""
    seen = []

    def counting(exp, *args, **kwargs):
        seen.append(exp.raw)
        return run_federated(exp, *args, **kwargs)

    monkeypatch.setattr(cli, "run_federated", counting)
    return seen


def tables(out):
    return {name: (out / name).read_bytes()
            for name in ("sweep.csv", "ablation.csv", "ablation.md")}


class TestGridSweep:
    def test_each_cell_is_the_train_run_of_its_merged_config(self, tmp_path):
        cfg = write_config(tmp_path, base_doc())
        out = tmp_path / "s"
        assert main(["sweep", "--config", cfg, "--grid",
                     write_grid(tmp_path, TINY_GRID), "--out", str(out)]) == 0
        assert len([p for p in out.iterdir() if p.is_dir()]) == 8
        for variant, part in TINY_GRID["axes"]["variant"].items():
            for skew in ("iid", "ks05"):
                for seed in (4, 5):
                    doc = base_doc(seed=seed)
                    doc["arch"].update(part.get("arch", {}))
                    if skew == "ks05":
                        doc["data"]["partition"] = SKEW["data"]["partition"]
                    ref = tmp_path / f"train_{variant}_{skew}_{seed}"
                    assert main(["train", "--config", write_config(tmp_path, doc),
                                 "--out", str(ref)]) == 0
                    cell = out / f"sweep_variant_{variant}_skew_{skew}_seed_{seed}"
                    assert ((cell / "report.json").read_bytes()
                            == (ref / "report.json").read_bytes())
        header = (out / "sweep.csv").read_text().splitlines()[0]
        assert header == ("variant,skew,seed,final_accuracy,best_accuracy,"
                          "rounds_to_target,tms")

    def test_one_axis_sweep_writes_the_former_loop_bytes(self, tmp_path):
        # The loop `--axis/--values` ran before it became a one-axis grid:
        # one run per value and a row per value, nothing else.
        doc = base_doc()
        cfg = write_config(tmp_path, doc)
        out, want = tmp_path / "s", tmp_path / "want"
        values = ["3", "5"]
        assert main(["sweep", "--config", cfg, "--axis", "kernel_size",
                     "--values", *values, "--out", str(out)]) == 0
        lines = ["kernel_size,final_accuracy,best_accuracy,rounds_to_target,tms"]
        for value in values:
            doc["arch"]["kernel_size"] = int(value)
            report = run_federated(parse_experiment(doc))
            write_report(report, want / f"sweep_kernel_size_{value}")
            best = max(r.accuracy for r in report.records)
            lines.append(f"{value},{report.final_accuracy!r},{best!r},,")
            name = f"sweep_kernel_size_{value}/report.json"
            assert (out / name).read_bytes() == (want / name).read_bytes()
        assert (out / "sweep.csv").read_text() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("axis,values", [
        ("norm_kind", ["none", "bn"]),
        ("block", ["invert_up", "normal"]),
        ("channels", ["[4,4,4,4]", "[8,8,8,8]"])])
    def test_axis_takes_any_arch_key(self, tmp_path, capsys, axis, values):
        # Only five arch keys could be swept, and neither block nor norm_kind.
        cfg = write_config(tmp_path, base_doc())
        out = tmp_path / "s"
        assert main(["sweep", "--config", cfg, "--axis", axis,
                     "--values", *values, "--out", str(out)]) == 0
        for value in values:
            doc = json.loads((out / f"sweep_{axis}_{value}" / "report.json").read_text())
            assert doc["config"]["arch"][axis] == json.loads(
                value if value.startswith("[") else json.dumps(value))
        assert capsys.readouterr().out.count(f"{axis}=") == 2
        with open(out / "sweep.csv", newline="") as f:
            assert [row[0] for row in csv.reader(f)] == [axis, *values]

    def test_resume_trains_only_the_missing_cell(self, tmp_path, count_runs):
        cfg = write_config(tmp_path, base_doc())
        grid = write_grid(tmp_path, TINY_GRID)
        out = tmp_path / "s"
        argv = ["sweep", "--config", cfg, "--grid", grid, "--out", str(out)]
        assert main(argv) == 0
        assert len(count_runs) == 8
        first = tables(out)
        gone = out / "sweep_variant_relu_skew_ks05_seed_4"
        kept = (gone / "report.json").read_bytes()
        (gone / "report.json").unlink()
        count_runs.clear()
        assert main(argv) == 0
        assert [(c["arch"]["activation"], c["seed"]) for c in count_runs] == [("relu", 4)]
        assert (gone / "report.json").read_bytes() == kept
        assert tables(out) == first
        count_runs.clear()
        assert main(argv) == 0
        assert count_runs == []
        assert tables(out) == first

    def test_report_of_another_config_stops_before_any_run(self, tmp_path, capsys,
                                                           count_runs):
        cfg = write_config(tmp_path, base_doc())
        grid = write_grid(tmp_path, TINY_GRID)
        out = tmp_path / "s"
        argv = ["sweep", "--config", cfg, "--grid", grid, "--out", str(out)]
        assert main(argv) == 0
        (out / "sweep_variant_recipe_skew_iid_seed_4" / "report.json").unlink()
        other = out / "sweep_variant_relu_skew_ks05_seed_5" / "report.json"
        doc = json.loads(other.read_text())
        doc["config"]["seed"] = 6
        other.write_text(json.dumps(doc))
        capsys.readouterr()
        count_runs.clear()
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
        assert "sweep_variant_relu_skew_ks05_seed_5" in lines[0]
        assert "another config" in lines[0]
        assert captured.out == "" and count_runs == []
        assert not (out / "sweep_variant_recipe_skew_iid_seed_4" / "report.json").exists()


def _grid(**change):
    grid = json.loads(json.dumps(TINY_GRID))
    for key, value in change.items():
        grid[key] = value
    return grid


def _axes(variant_entries):
    return {"axes": {"variant": variant_entries}}


# Each bad grid input: the grid file's text or document, extra flags, and a
# fragment the one error line must hold.
BAD_GRIDS = {
    "not_json": ('{"axes": ', [], "grid file is not valid JSON"),
    "key_twice": ('{"axes": {"a": {"x": {}}}, "axes": {"b": {"y": {}}}}', [],
                  "grid file: key 'axes' is given twice"),
    "unknown_key": (_grid(cells=[]), [], "grid.cells: unknown key"),
    "no_axes": ({"claims": []}, [], "grid.axes: expected a non-empty object"),
    "empty_axis": (_axes({}), [], "grid.axes.variant: expected a non-empty object"),
    "empty_name": (_axes({"": {}}), [], "name ''"),
    "dot_name": (_axes({".k3": {}}), [], "name '.k3'"),
    "slash_name": (_axes({"k/3": {}}), [], "name 'k/3'"),
    "space_name": (_axes({"k 3": {}}), [], "name 'k 3'"),
    "tab_axis_name": ({"axes": {"var\tiant": {"a": {}}}}, [], "name 'var\\tiant'"),
    "part_not_object": (_axes({"relu": ["relu"]}), [],
                        "grid.axes.variant.relu: expected an object"),
    "with_axis_values": (TINY_GRID, ["--axis", "kernel_size", "--values", "3"],
                         "--grid cannot be combined with --axis/--values"),
    "claim_unknown_entry": (_grid(claims=[{"axis": "variant", "better": "recipe",
                                           "worse": "gelu"}]), [],
                            "grid.claims[0].worse: axis 'variant' has no entry 'gelu'"),
    "claim_unknown_axis": (_grid(claims=[{"axis": "stem", "better": "conv",
                                          "worse": "swin"}]), [],
                           "axis 'stem' has no entry 'conv'"),
    "claim_at_unknown_entry": (_grid(claims=[{"axis": "variant", "better": "recipe",
                                              "worse": "relu", "at": {"skew": "ks09"}}]),
                               [], "grid.claims[0].at: axis 'skew' has no entry 'ks09'"),
    "claim_unknown_key": (_grid(claims=[{"axis": "variant", "better": "recipe",
                                         "worse": "relu", "why": "x"}]), [],
                          "grid.claims[0].why: unknown key"),
    "bad_cell": (_axes({"recipe": {}, "k4": {"arch": {"kernel_size": 4}}}), [],
                 "cell sweep_variant_k4: arch: kernel_size must be odd"),
    "shared_directory": ({"axes": {"a": {"x_b_y": {}, "x": {}},
                                   "b": {"z": {}, "y_b_z": {}}}}, [],
                         "cell sweep_a_x_b_y_b_z: two cells share its directory"),
}


@pytest.mark.parametrize("case", BAD_GRIDS)
def test_bad_grid_is_one_error_line_and_runs_nothing(tmp_path, capsys, count_runs,
                                                     case):
    grid, flags, named = BAD_GRIDS[case]
    cfg = write_config(tmp_path, base_doc())
    out = tmp_path / "s"
    code = main(["sweep", "--config", cfg, "--grid", write_grid(tmp_path, grid),
                 *flags, "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    assert named in lines[0], lines[0]
    assert captured.out == ""
    assert count_runs == []
    assert not out.exists()


class TestClaims:
    def test_sign_test_p(self):
        assert sign_test_p(5, 0) == 1 / 32
        assert sign_test_p(7, 1) == 9 / 256
        assert sign_test_p(0, 0) == 1.0
        assert sign_test_p(0, 3) == 1.0

    @pytest.mark.parametrize("wins,losses,verdict", [
        (5, 0, "reproduced"), (7, 1, "reproduced"), (6, 2, "inconclusive"),
        (0, 0, "inconclusive"), (1, 7, "contradicted"), (0, 5, "contradicted"),
        (4, 0, "inconclusive")])
    def test_verdict(self, wins, losses, verdict):
        assert claim_verdict(wins, losses) == verdict

    @staticmethod
    def cells(better, worse, params=(10, 10), macs=(5, 5)):
        """Paired cells of the one claim `a > b`, seed by seed."""
        def doc(acc, p):
            return {"final_accuracy": acc, "params": p, "partition_mean_ks": 0.5}
        return ([(("a", str(s)), doc(acc, params[0]), macs[0])
                 for s, acc in enumerate(better)]
                + [(("b", str(s)), doc(acc, params[1]), macs[1])
                   for s, acc in enumerate(worse)])

    CLAIM = [{"axis": "variant", "better": "a", "worse": "b"}]

    def test_ties_drop_out(self):
        rows = claim_rows(["variant", "seed"], self.cells(
            [90, 80, 80, 70, 100, 100, 100, 60], [80, 70, 80, 60, 100, 90, 100, 50]),
            self.CLAIM)
        row, = rows
        assert (row["pairs"], row["wins"], row["losses"], row["ties"]) == (8, 5, 0, 3)
        assert row["p"] == 1 / 32 and row["verdict"] == "reproduced"

    def test_no_untied_pair_is_inconclusive(self):
        row, = claim_rows(["variant", "seed"], self.cells([100] * 8, [100] * 8),
                          self.CLAIM)
        assert (row["wins"], row["losses"], row["ties"]) == (0, 0, 8)
        assert row["verdict"] == "inconclusive"

    def test_opposite_direction_is_contradicted(self):
        row, = claim_rows(["variant", "seed"], self.cells(
            [50, 60, 70, 80, 90, 90, 95, 99], [60, 70, 80, 90, 95, 95, 99, 90]),
            self.CLAIM)
        assert (row["wins"], row["losses"]) == (1, 7)
        assert row["p_opposite"] == 9 / 256 and row["verdict"] == "contradicted"

    @pytest.mark.parametrize("params,macs,capacity", [
        ((10, 10), (5, 5), ""), ((11, 10), (5, 5), "params"),
        ((10, 10), (6, 5), "macs"), ((11, 10), (6, 5), "params;macs"),
        ((9, 10), (4, 5), "")])
    def test_capacity_marks_a_bigger_better_side(self, params, macs, capacity):
        row, = claim_rows(["variant", "seed"],
                          self.cells([90] * 5, [80] * 5, params, macs), self.CLAIM)
        assert row["capacity"] == capacity

    def test_tables_list_each_compared_entry_cost(self):
        cells = self.cells([90] * 5, [80] * 5, (11, 10), (6, 5))
        table_csv, table_md = ablation_tables(["variant", "seed"], cells, self.CLAIM)
        assert table_csv.decode().splitlines()[1].startswith(
            "variant: a > b,,5,5,0,0,90.0,80.0,0.03125,1.0,reproduced,params;macs")
        md = table_md.decode()
        assert "| variant | a | 11 | 6 |" in md and "| variant | b | 10 | 5 |" in md


# ---------------------------------------------------------------------------
# the committed ablation protocol
# ---------------------------------------------------------------------------

# The paper's axes, as the arch keys a variant may change along each.
PAPER_AXES = {
    "norm": {"norm_kind", "norm_placement"},
    "activation placement": {"act_placement"},
    "activation": {"activation"},
    "kernel": {"kernel_size"},
    "stem": {"stem"},
    "block": {"block", "act_placement"},
}


def protocol_cells():
    """(entry names, config) of every cell of ablation/grid.json on
    ablation/base.json, as the sweep builds them."""
    base = json.loads((ROOT / "ablation" / "base.json").read_text())
    axes, claims = load_grid(ROOT / "ablation" / "grid.json")
    return axes, claims, list(grid_cells(base, axes).values())


class TestAblationProtocol:
    def test_cells_follow_the_protocol(self):
        axes, claims, cells = protocol_cells()
        assert list(axes) == ["variant", "skew", "seed"]
        assert len(cells) == len(axes["variant"]) * 3 * len(axes["seed"])
        seeds = {exp.seed for _, exp in cells}
        assert len(seeds) >= 8 and not seeds & {1, 2, 3}
        assert len({exp.optimizer.agc is None for _, exp in cells}) == 1
        assert all(exp.target_accuracy is None for _, exp in cells)
        ks = {names[1]: exp.data.target_ks for names, exp in cells}
        assert ks == {"iid": None, "ks080": 0.8, "ks095": 0.95}

    def test_each_variant_changes_one_paper_axis(self):
        axes, _, cells = protocol_cells()
        arch = {names[0]: exp.arch for names, exp in cells}
        assert len(arch) == 13
        moved = []
        for name, a in arch.items():
            if name == "recipe":
                continue
            assert set(axes["variant"][name]) == {"arch"}, name
            changed = {k for k in vars(a) if getattr(a, k) != getattr(arch["recipe"], k)}
            if "block" in changed:
                # A block keeps a single activation, at its best position.
                fits = ["block"] if changed <= PAPER_AXES["block"] else []
                assert a.act_placement == BEST_SINGLE_ACT[a.block], name
            else:
                fits = [axis for axis, keys in PAPER_AXES.items()
                        if axis != "block" and changed and changed <= keys]
            assert len(fits) == 1, (name, changed)
            assert fits != ["norm"] or "norm_kind" in changed, name
            moved.append(fits[0])
        assert set(moved) == set(PAPER_AXES)

    def test_claims_name_cells_that_exist(self):
        axes, claims, cells = protocol_cells()
        names = {n for n, _ in cells}
        assert claims
        for claim in claims:
            i = list(axes).index(claim["axis"])
            for side in ("better", "worse"):
                assert any(n[i] == claim[side] and all(
                    n[list(axes).index(a)] == e for a, e in claim.get("at", {}).items())
                    for n in names), claim
            assert claim["better"] == "recipe", claim


def readme_commands():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```sh\n(fedconv .*?)```", text, re.S).group(1)
    return [shlex.split(line, comments=True)
            for line in block.replace("\\\n", " ").splitlines() if line.strip()]


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda a: " ".join(a[:2]))
def test_readme_command_parses(argv):
    # A README line with a flag the parser no longer has would fail here,
    # without running anything.
    assert argv[0] == "fedconv"
    args = build_parser().parse_args(argv[1:])
    assert args.command == argv[1]
