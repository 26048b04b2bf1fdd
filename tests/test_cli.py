"""Command-line interface: inputs, outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from raschdesign.cli import main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def params_file(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"k": 2, "d": 1, "beta": {"1": -2.0, "2": -2.0}}))
    return path


def test_import_loads_no_scipy():
    # scipy is slow to import; only the NNLS membership test may load it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import raschdesign.cli, sys; "
        "print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["optimize", "--k", "2", "--d", "1", "--max-iterations", "0"],
    ["optimize", "--k", "2", "--d", "1", "--kw-tolerance", "0"],
    ["optimize", "--k", "2", "--d", "1", "--prune-threshold", "1e-8"],
    ["probe", "--k", "5", "--d", "2", "--s-range", "0.001:1.0",
     "--t-range", "0.001:1.0", "--samples", "0"],
], ids=["max-iterations", "kw-tolerance", "prune-threshold", "samples"])
def test_invalid_flag_values_exit_2(runner, tmp_path, argv):
    result = runner.invoke(main, argv + ["--out", str(tmp_path / "out.json")])
    assert result.exit_code == 2


class TestInequalities:
    def test_symmetric_witness_point(self, runner):
        result = runner.invoke(
            main, ["inequalities", "--k", "4", "--d", "2",
                   "--symmetric", "s=0.5556,t=0.8"],
        )
        assert result.exit_code == 0
        assert "not-optimal" in result.output
        assert "VIOLATED" in result.output
        violated = [line for line in result.output.splitlines() if "VIOLATED" in line]
        assert len(violated) == 1 and "{1,2,3,4}" in violated[0]

    def test_negative_parameters_optimal(self, runner, params_file):
        result = runner.invoke(main, ["inequalities", "--params", str(params_file)])
        assert result.exit_code == 0
        assert "verdict: optimal" in result.output
        assert "0.288986205362" in result.output

    def test_zero_parameters_not_optimal(self, runner):
        result = runner.invoke(main, ["inequalities", "--k", "2", "--d", "1"])
        assert result.exit_code == 0
        assert "not-optimal" in result.output

    def test_malformed_params_exit_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        result = runner.invoke(main, ["inequalities", "--params", str(bad)])
        assert result.exit_code == 2

    def test_conflicting_flags_exit_2(self, runner):
        result = runner.invoke(
            main, ["inequalities", "--k", "2", "--d", "1",
                   "--beta", "{}", "--symmetric", "s=0.5"],
        )
        assert result.exit_code == 2


class TestOptimize:
    def test_uniform_at_zero(self, runner, tmp_path):
        out = tmp_path / "design.json"
        result = runner.invoke(
            main, ["optimize", "--k", "3", "--d", "1", "--out", str(out)],
        )
        assert result.exit_code == 0
        design = json.loads(out.read_text())
        assert design["k"] == 3
        assert all(abs(v - 0.125) < 1e-9 for v in design["weights"].values())
        assert "structure=uniform" in result.output

    def test_corner_with_report_and_manifest(self, runner, tmp_path):
        out = tmp_path / "design.json"
        report = tmp_path / "report.json"
        result = runner.invoke(
            main, ["optimize", "--k", "2", "--d", "1", "--symmetric", "s=0.3",
                   "--out", str(out), "--report", str(report)],
        )
        assert result.exit_code == 0
        assert json.loads(report.read_text())["structure"] == "corner"
        manifest = json.loads((tmp_path / "design.json.manifest.json").read_text())
        assert manifest["command"] == "optimize"
        assert manifest["flags"]["symmetric"] == "s=0.3"
        assert str(out) in manifest["outputs"]

    def test_byte_identical_reruns(self, runner, tmp_path):
        args = ["optimize", "--k", "2", "--d", "1", "--symmetric", "s=0.45"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert runner.invoke(main, args + ["--out", str(out1)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(out2)]).exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_interior_certified(self, runner, tmp_path):
        out = tmp_path / "design.json"
        report = tmp_path / "report.json"
        result = runner.invoke(
            main, ["optimize", "--k", "2", "--d", "1", "--symmetric", "s=0.8",
                   "--out", str(out), "--report", str(report)],
        )
        assert result.exit_code == 0
        data = json.loads(report.read_text())
        assert data["structure"] == "interior"
        assert abs(data["final_kw_max"] - 3.0) < 1e-5


class TestCertify:
    def test_corner_default(self, runner, params_file):
        result = runner.invoke(main, ["certify", "--params", str(params_file)])
        assert result.exit_code == 0
        assert "verdict: optimal" in result.output

    def test_explicit_design(self, runner, tmp_path):
        design = tmp_path / "design.json"
        design.write_text(json.dumps(
            {"k": 2, "weights": {"00": 1 / 3, "10": 1 / 3, "01": 1 / 3}}
        ))
        result = runner.invoke(
            main, ["certify", "--k", "2", "--d", "1", "--symmetric", "s=0.8",
                   "--design", str(design)],
        )
        assert result.exit_code == 0
        assert "not-optimal" in result.output
        assert "worst-setting=11" in result.output

    def test_singular_design_exit_1(self, runner, tmp_path):
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"k": 2, "weights": {"00": 0.5, "10": 0.5}}))
        result = runner.invoke(
            main, ["certify", "--k", "2", "--d", "1", "--design", str(design)],
        )
        assert result.exit_code == 1


class TestCenterPath:
    def test_reference_grid(self, runner, tmp_path):
        out = tmp_path / "path.csv"
        result = runner.invoke(
            main, ["center-path", "--k", "2", "--d", "1",
                   "--lambdas", "1,0.8,0.5,0.4,0.2", "--out", str(out)],
        )
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "param,coord_1,coord_2,coord_3,log_det,status,inside"
        first = lines[1].split(",")
        assert [round(float(v), 3) for v in first[1:4]] == [0.25, 0.25, 0.25]
        assert first[6] == "true"
        last = lines[-1].split(",")
        assert last[6] == "false"

    def test_fine_grid_inside_flip(self, runner, tmp_path):
        out = tmp_path / "fine.csv"
        result = runner.invoke(
            main, ["center-path", "--k", "2", "--d", "1",
                   "--lambdas", "0.405:0.425:0.001", "--out", str(out)],
        )
        assert result.exit_code == 0
        inside = {}
        for line in out.read_text().splitlines()[1:]:
            cells = line.split(",")
            inside[round(float(cells[0]), 3)] = cells[6]
        flips = [
            lam for lam in sorted(inside) if lam + 0.001 in inside
            and inside[lam] != inside[round(lam + 0.001, 3)]
        ]
        assert flips == [0.414]
        assert inside[0.414] == "false" and inside[0.415] == "true"

    def test_matrices_export(self, runner, tmp_path):
        out = tmp_path / "path.csv"
        matrices = tmp_path / "matrices.json"
        result = runner.invoke(
            main, ["center-path", "--k", "2", "--d", "1", "--lambdas", "0.5",
                   "--out", str(out), "--matrices-out", str(matrices)],
        )
        assert result.exit_code == 0
        (entry,) = json.loads(matrices.read_text())
        assert entry["param"] == 0.5
        assert entry["labels"] == ["10", "01", "11"]
        assert len(entry["base"]) == 3 and len(entry["base"][0]) == 3
        assert len(entry["directions"]) == 3
        assert len(entry["center"]) == 3
        # base vertex of the slice is the rank-one matrix at the origin setting
        assert entry["base"][0][0] == 1.0 and entry["base"][1][1] == 0.0

    def test_exit_flag_printed(self, runner, tmp_path):
        out = tmp_path / "path.csv"
        result = runner.invoke(
            main, ["center-path", "--k", "2", "--d", "1",
                   "--lambdas", "0.43:0.40:0.001", "--out", str(out)],
        )
        # descending ranges are rejected as empty
        assert result.exit_code == 2
        result = runner.invoke(
            main, ["center-path", "--k", "2", "--d", "1",
                   "--lambdas", "0.5,0.42,0.41,0.4", "--out", str(out)],
        )
        assert result.exit_code == 0
        assert "exits the polytope at param=0.41" in result.output


class TestRegionSlice:
    def test_csv_shape(self, runner, tmp_path):
        out = tmp_path / "slice.csv"
        result = runner.invoke(
            main, ["region-slice", "--k", "4", "--d", "2",
                   "--s-grid", "0.2:0.6:0.2", "--t-grid", "0.5,1.0",
                   "--out", str(out)],
        )
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "s,t,lhs_3,lhs_4,binding_c,verdict"
        assert len(lines) == 1 + 3 * 2

    def test_twelve_digit_floats(self, runner, tmp_path):
        out = tmp_path / "slice.csv"
        runner.invoke(
            main, ["region-slice", "--k", "4", "--d", "2",
                   "--s-grid", "0.5556", "--t-grid", "0.8", "--out", str(out)],
        )
        row = out.read_text().splitlines()[1]
        assert "0.891259621466" in row

    def test_empty_grid_exit_2(self, runner, tmp_path):
        result = runner.invoke(
            main, ["region-slice", "--k", "4", "--d", "2",
                   "--s-grid", "", "--t-grid", "1.0",
                   "--out", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 2


class TestProbe:
    def test_deterministic_given_seed(self, runner, tmp_path):
        args = ["probe", "--k", "6", "--d", "2", "--s-range", "0.001:1.0",
                "--t-range", "0.001:1.0", "--samples", "5000", "--seed", "11"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert runner.invoke(main, args + ["--out", str(out1)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(out2)]).exit_code == 0
        assert out1.read_text() == out2.read_text()

    def test_report_schema(self, runner, tmp_path):
        out = tmp_path / "probe.json"
        result = runner.invoke(
            main, ["probe", "--k", "5", "--d", "2", "--s-range", "0.001:1.0",
                   "--t-range", "0.001:1.0", "--samples", "2000",
                   "--seed", "1", "--out", str(out)],
        )
        assert result.exit_code == 0
        data = json.loads(out.read_text())
        assert set(data) == {"3", "4", "5"}
        for entry in data.values():
            assert set(entry) == {
                "redundant_in_region", "witness", "n_violated", "n_witness",
            }
            assert entry["redundant_in_region"] == (entry["witness"] is None)

    def test_bad_range_exit_2(self, runner, tmp_path):
        result = runner.invoke(
            main, ["probe", "--k", "5", "--d", "2", "--s-range", "1.0:0.5",
                   "--t-range", "0.001:1.0", "--out", str(tmp_path / "p.json")],
        )
        assert result.exit_code == 2


class TestCompare:
    def test_full_agreement_at_order_one(self, runner, tmp_path):
        out = tmp_path / "cmp.json"
        result = runner.invoke(
            main, ["compare", "--k", "3", "--d", "1", "--samples", "100",
                   "--seed", "5", "--out", str(out)],
        )
        assert result.exit_code == 0
        data = json.loads(out.read_text())
        assert data["agreements"] == 100
        assert data["disagreements"] == []

    def test_order_two_reports_disagreements(self, runner, tmp_path):
        out = tmp_path / "cmp2.json"
        result = runner.invoke(
            main, ["compare", "--k", "3", "--d", "2", "--samples", "200",
                   "--seed", "5", "--beta-low", "-1.0", "--beta-high", "0.5",
                   "--out", str(out)],
        )
        assert result.exit_code == 0
        data = json.loads(out.read_text())
        for record in data["disagreements"]:
            assert {"beta", "theorem_optimal", "kw_optimal"} <= set(record)

    def test_echo_mode(self, runner, params_file):
        result = runner.invoke(main, ["compare", "--params", str(params_file), "--echo"])
        assert result.exit_code == 0
        assert "inequality system:" in result.output
        assert "saturated sensitivities" in result.output
        assert "x=11" in result.output


class TestSymmetryCommand:
    def test_flip_and_orbit(self, runner, tmp_path):
        out = tmp_path / "orbit.json"
        result = runner.invoke(
            main, ["symmetry", "--k", "2", "--d", "1",
                   "--beta", '{"1": -0.5}', "--element", "perm=2,1;flips=",
                   "--orbit", "--out", str(out)],
        )
        assert result.exit_code == 0
        assert "|det Q| = 1" in result.output
        orbit = json.loads(out.read_text())
        assert len(orbit) == 2  # swap moves the loading between the two rules

    def test_transformation_check_with_design(self, runner, tmp_path):
        design = tmp_path / "design.json"
        design.write_text(json.dumps(
            {"k": 2, "weights": {"00": 0.5, "10": 0.25, "01": 0.25}}
        ))
        result = runner.invoke(
            main, ["symmetry", "--k", "2", "--d", "1", "--beta", '{"1": -0.3}',
                   "--element", "flips=1,2", "--design", str(design)],
        )
        assert result.exit_code == 0
        assert "transformation residual=" in result.output

    def test_invalid_element_exit_2(self, runner):
        result = runner.invoke(
            main, ["symmetry", "--k", "2", "--d", "1", "--element", "perm=2,2"],
        )
        assert result.exit_code == 2
