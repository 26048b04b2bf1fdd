"""Command-line interface: inputs, outputs, exit codes, determinism."""

import csv
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from numpy.testing import assert_allclose

import raschdesign as rd
from raschdesign._lattice import corner_index, corner_labels
from raschdesign.cli import main
from raschdesign.regions import THEOREM_TOL

from conftest import dense_vertices


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def params_file(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"k": 2, "d": 1, "beta": {"1": -2.0, "2": -2.0}}))
    return path


def strict_json(text):
    """Parse JSON, rejecting the non-standard NaN and Infinity constants."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def random_params(tmp_path, k, d, seed):
    """Parameter file with base 0 and other beta uniform on [-2, 0.5]."""
    m = rd.InteractionModel(k, d)
    rng = np.random.default_rng(seed)
    theta = rd.ParameterVector(m, np.r_[0.0, rng.uniform(-2.0, 0.5, m.p - 1)])
    path = tmp_path / f"params_k{k}_d{d}.json"
    path.write_text(json.dumps({"k": k, "d": d, "beta": theta.as_dict()}))
    return path, theta


def reference_values(theta):
    m = theta.model
    return [(q.label, rd.evaluate_inequality(q, theta)) for q in rd.corner_inequalities(m)]


def test_import_loads_no_scipy():
    # scipy is slow to import, and the package needs none of it
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


#: A tiny run of each subcommand; ``{params}`` and ``{design}`` are input files.
FRESH_RUNS = {
    "inequalities": ["--params", "{params}", "--out", "inequalities.json"],
    "optimize": ["--k", "2", "--d", "1", "--symmetric", "s=0.3", "--out", "design.json",
                 "--report", "report.json"],
    "certify": ["--k", "2", "--d", "1", "--design", "{design}"],
    "center-path": ["--k", "2", "--d", "1", "--lambdas", "0.5,0.6", "--out", "path.csv",
                    "--matrices-out", "matrices.json"],
    "region-slice": ["--k", "3", "--d", "2", "--s-grid", "0.5", "--t-grid", "0.5",
                     "--out", "slice.csv"],
    "probe": ["--k", "3", "--d", "2", "--s-range", "0.1:1", "--t-range", "0.1:1",
              "--samples", "10", "--out", "probe.json"],
    "compare": ["--k", "3", "--d", "1", "--samples", "5", "--out", "compare.json"],
    "symmetry": ["--params", "{params}", "--element", "flips=1", "--design", "{design}",
                 "--orbit", "--out", "orbit.json"],
}


@pytest.mark.parametrize("command", sorted(FRESH_RUNS))
def test_fresh_process_matches_in_process(fresh_python, runner, tmp_path, monkeypatch,
                                          params_file, command):
    # numpy is loaded on first use in a fresh process, and eagerly here
    assert set(FRESH_RUNS) == set(main.commands)
    design = tmp_path / "given_design.json"
    design.write_text(json.dumps({"k": 2, "weights": {"00": 0.5, "10": 0.25, "01": 0.25}}))
    argv = [command, *(a.format(params=params_file, design=design)
                       for a in FRESH_RUNS[command])]
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    fresh.mkdir()
    here.mkdir()
    proc = fresh_python("-m", "raschdesign.cli", *argv, cwd=fresh)
    assert proc.returncode == 0, proc.stderr
    monkeypatch.chdir(here)
    result = runner.invoke(main, argv)
    assert result.exit_code == 0, result.output
    assert proc.stdout == result.output
    written = sorted(p.name for p in fresh.iterdir())
    assert written == sorted(p.name for p in here.iterdir())
    for name in written:
        assert (fresh / name).read_bytes() == (here / name).read_bytes(), name


@pytest.fixture(scope="module")
def numpy_loads_its_random():
    """Whether ``import numpy`` alone loads ``numpy.random``, as numpy 1 does."""
    code = "import numpy, sys; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    return out.stdout.strip() == "True"


@pytest.mark.parametrize("command", [*sorted(FRESH_RUNS), "compare --echo"])
def test_no_command_loads_numpy_random(fresh_python, tmp_path, params_file, command,
                                       numpy_loads_its_random):
    # probe and compare draw from the package's own SplitMix64 streams
    if numpy_loads_its_random:
        pytest.skip("this numpy imports numpy.random with numpy itself")
    design = tmp_path / "given_design.json"
    design.write_text(json.dumps({"k": 2, "weights": {"00": 0.5, "10": 0.25, "01": 0.25}}))
    args = ["--params", "{params}", "--echo"] if command == "compare --echo" else \
        FRESH_RUNS[command]
    argv = [command.split()[0], *(a.format(params=params_file, design=design)
                                  for a in args)]
    code = ("import sys\nfrom raschdesign.cli import main\n"
            "main(sys.argv[1:], standalone_mode=False)\n"
            "print('numpy.random' in sys.modules)")
    proc = fresh_python("-c", code, *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


#: Starts: (argv, exit code, whether the start loads numpy).
STARTS = {
    "version": (["--version"], 0, False),
    "help": (["--help"], 0, False),
    "optimize-help": (["optimize", "--help"], 0, False),
    "flag-conflict": (["inequalities", "--k", "2", "--d", "1", "--beta", '{"1": 0}',
                       "--symmetric", "s=0.5"], 2, False),
    "unwritable-out": (["optimize", "--k", "2", "--d", "1", "--out",
                        "missing/design.json"], 2, False),
    "computes": (["inequalities", "--k", "2", "--d", "1"], 0, True),
}
ENTRY_POINTS = {
    "module": ["-m", "raschdesign.cli"],
    # what the ``raschdesign`` console script runs
    "console-script": ["-c", "import sys; from raschdesign.cli import main; sys.exit(main())"],
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("start", list(STARTS))
def test_only_computing_starts_load_numpy(fresh_python, tmp_path, entry, start):
    argv, code, loads_numpy = STARTS[start]
    proc = fresh_python("-X", "importtime", *ENTRY_POINTS[entry], *argv, cwd=tmp_path)
    assert proc.returncode == code, proc.stderr
    imported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "click" in imported
    assert ("numpy._core" in imported) == loads_numpy
    assert "Traceback" not in proc.stderr


#: (command, option) for every option that names a file the command writes.
OUTPUT_OPTIONS = [
    (name, param.opts[0])
    for name, command in sorted(main.commands.items())
    for param in command.params
    if isinstance(param.type, click.Path) and not param.type.exists
]


@pytest.mark.parametrize("blocked", ["missing-directory", "file-as-directory"])
@pytest.mark.parametrize("command, option", OUTPUT_OPTIONS,
                         ids=[f"{c}{o}" for c, o in OUTPUT_OPTIONS])
def test_unwritable_output_exit_2_before_work(runner, tmp_path, command, option, blocked):
    folder = tmp_path / "folder"
    if blocked == "file-as-directory":
        folder.write_text("")
    argv = [command, *MANIFEST_CASES[command]["base"]]
    if option != "--out":
        argv += ["--out", str(tmp_path / "out.json")]
    result = runner.invoke(main, argv + [option, str(folder / "x.json")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # a usage error, not a traceback
    assert f"'{option}'" in result.output
    assert {p.name for p in tmp_path.iterdir()} <= {"folder"}


#: A command per route to an intensity beyond the float range (e^800).
#: ``{params}`` is {"k": 2, "d": 1, "beta": {"2": 800}}; ``{design}`` the corner design.
OVERFLOW_RUNS = {
    "compare": ["--params", "{params}", "--echo"],
    "symmetry": ["--k", "2", "--d", "1", "--beta", '{"1": 800}', "--element", "perm=2,1",
                 "--design", "{design}"],
    "center-path": ["--k", "2", "--d", "1", "--lambdas", "1e200", "--out", "path.csv"],
    "certify": ["--params", "{params}"],
    "optimize": ["--params", "{params}", "--out", "design.json"],
}


@pytest.mark.parametrize("command", sorted(OVERFLOW_RUNS))
def test_overflowing_intensity_exit_1(fresh_python, tmp_path, command):
    # a fresh process, so a numpy RuntimeWarning would reach its stderr
    params = tmp_path / "overflow.json"
    params.write_text(json.dumps({"k": 2, "d": 1, "beta": {"2": 800}}))
    design = tmp_path / "corner.json"
    design.write_text(json.dumps({"k": 2, "weights": {"00": 1 / 3, "10": 1 / 3,
                                                      "01": 1 / 3}}))
    argv = [arg.replace("{params}", str(params)).replace("{design}", str(design))
            for arg in OVERFLOW_RUNS[command]]
    proc = fresh_python("-m", "raschdesign.cli", command, *argv, cwd=tmp_path)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Error: intensity overflows at setting" in proc.stderr
    assert "nan" not in output and "RuntimeWarning" not in output
    assert "Traceback" not in output


def test_corner_sums_overflowing_both_ways_exit_1(fresh_python, tmp_path):
    # finite betas whose zeta sum for C = {1,2,3} would be inf - inf; a fresh
    # process, so a numpy RuntimeWarning would reach its stderr
    beta = '{"1": -1e308, "2": -1e308, "1,3": 1e308, "2,3": 1e308}'
    proc = fresh_python("-m", "raschdesign.cli", "inequalities", "--k", "3", "--d", "2",
                        "--beta", beta, cwd=tmp_path)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Error: the beta sum overflows at C={1,2,3}" in proc.stderr
    assert proc.stdout == ""
    assert "nan" not in output and "RuntimeWarning" not in output
    assert "Traceback" not in output


#: Commands run at the (3,2) point with every other beta -0.3; ``{params}``.
BASE_SHIFT_RUNS = {
    "optimize": ["--params", "{params}", "--out", "design.json"],
    "certify": ["--params", "{params}"],
    "compare": ["--params", "{params}", "--echo"],
    "inequalities": ["--params", "{params}"],
}


@pytest.mark.parametrize("command", sorted(BASE_SHIFT_RUNS))
def test_base_parameter_moves_no_answer(fresh_python, tmp_path, command):
    # a fresh process, so a numpy RuntimeWarning would reach its stderr
    m = rd.InteractionModel(3, 2)
    runs = {}
    for base in (0.0, 720.0, -720.0):
        folder = tmp_path / f"base{base:+g}"
        folder.mkdir()
        beta = {",".join(map(str, a)): (base if not a else -0.3) for a in m.subsets}
        params = folder / "params.json"
        params.write_text(json.dumps({"k": 3, "d": 2, "beta": beta}))
        argv = [arg.replace("{params}", str(params)) for arg in BASE_SHIFT_RUNS[command]]
        proc = fresh_python("-m", "raschdesign.cli", command, *argv, cwd=folder)
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stdout + proc.stderr
        runs[base] = proc.stdout
        if command == "optimize":
            runs[base] = re.sub(r"log-det=\S+", "", proc.stdout)
            runs[base] += (folder / "design.json").read_text()
    assert runs[720.0] == runs[0.0] and runs[-720.0] == runs[0.0]


@pytest.mark.parametrize("argv", [
    ["optimize", "--k", "2", "--d", "1", "--max-iterations", "0"],
    ["optimize", "--k", "2", "--d", "1", "--kw-tolerance", "0"],
    ["optimize", "--k", "2", "--d", "1", "--kw-tolerance", "1e-3"],
    ["optimize", "--k", "2", "--d", "1", "--prune-threshold", "1e-8"],
    ["probe", "--k", "5", "--d", "2", "--s-range", "0.001:1.0",
     "--t-range", "0.001:1.0", "--samples", "0"],
    ["compare", "--k", "3", "--d", "1", "--samples", "5",
     "--beta-low", "nan", "--beta-high", "1"],
    ["compare", "--k", "3", "--d", "1", "--samples", "5",
     "--beta-low", "-inf", "--beta-high", "1"],
    # both bounds are finite, but their difference is no float
    ["compare", "--k", "3", "--d", "2", "--samples", "5",
     "--beta-low", "-1e308", "--beta-high", "1e308"],
    ["inequalities", "--k", "2", "--d", "1", "--symmetric", "s=nan"],
    ["inequalities", "--k", "2", "--d", "1", "--symmetric", "s=inf"],
    ["inequalities", "--k", "3", "--d", "2", "--symmetric", "s=0.5,t=nan"],
    ["inequalities", "--k", "2", "--d", "1", "--beta", '{"1": NaN}'],
    ["inequalities", "--k", "2", "--d", "1", "--beta", '{"1": 1e999}'],
    ["inequalities", "--k", "2", "--d", "1", "--beta", '{"1": 1%s}' % ("0" * 400)],
    ["inequalities", "--k", "2", "--d", "1", "--symmetric", "s=-1"],
    ["inequalities", "--k", "3", "--d", "2", "--symmetric", "s=0.5,t=-1"],
    ["inequalities", "--k", "2", "--d", "1", "--symmetric", "s=0.5,t=0.5"],
], ids=["max-iterations", "kw-tolerance", "kw-tolerance-removed", "prune-threshold",
        "samples",
        "compare-beta-low-nan", "compare-beta-low-inf", "compare-range-overflow",
        "symmetric-s-nan",
        "symmetric-s-inf", "symmetric-t-nan", "beta-nan", "beta-overflow",
        "beta-int-overflow", "symmetric-s-negative", "symmetric-t-negative",
        "symmetric-t-at-d-1"])
def test_invalid_flag_values_exit_2(runner, tmp_path, argv):
    result = runner.invoke(main, argv + ["--out", str(tmp_path / "out.json")])
    assert result.exit_code == 2


@pytest.mark.parametrize("argv", [
    ["inequalities", "--k", "0", "--d", "1"],
    ["inequalities", "--k", "21", "--d", "1"],
    ["inequalities", "--k", "3", "--d", "4"],
    ["region-slice", "--k", "21", "--d", "2", "--s-grid", "0.5", "--t-grid", "0.5"],
    ["probe", "--k", "21", "--d", "2", "--s-range", "0.1:1", "--t-range", "0.1:1",
     "--samples", "10"],
    ["center-path", "--k", "0", "--d", "1", "--lambdas", "0.5"],
    ["compare", "--k", "3", "--d", "4", "--samples", "5"],
], ids=["k-zero", "k-above-limit", "d-above-k", "region-slice-k-above-limit",
        "probe-k-above-limit", "center-path-k-zero", "compare-d-above-k"])
def test_model_size_out_of_range_exit_2(runner, tmp_path, argv):
    out = tmp_path / "out.json"
    result = runner.invoke(main, argv + ["--out", str(out)])
    assert result.exit_code == 2
    assert "Usage:" in result.output
    assert not out.exists()


#: For every file-writing command: a base argv, and for each non-path option
#: an argv that changes that option's value.  ``fixed`` names the options
#: that cannot change while the command still writes its output.
MANIFEST_CASES = {
    "inequalities": dict(
        base=["--k", "3", "--d", "1", "--symmetric", "s=0.5"],
        variants={
            "k": ["--k", "4", "--d", "1", "--symmetric", "s=0.5"],
            "d": ["--k", "3", "--d", "2", "--symmetric", "s=0.5"],
            "beta": ["--k", "3", "--d", "1", "--beta", '{"1": -1}'],
            "symmetric": ["--k", "3", "--d", "1", "--symmetric", "s=0.6"],
        },
        fixed=set(),
    ),
    "optimize": dict(
        base=["--k", "2", "--d", "1", "--symmetric", "s=0.3"],
        variants={
            "k": ["--k", "3", "--d", "1", "--symmetric", "s=0.3"],
            "d": ["--k", "2", "--d", "2", "--symmetric", "s=0.3"],
            "beta": ["--k", "2", "--d", "1", "--beta", '{"1": -1.5, "2": -1.5}'],
            "symmetric": ["--k", "2", "--d", "1", "--symmetric", "s=0.2"],
            "max_iterations": ["--k", "2", "--d", "1", "--symmetric", "s=0.3",
                               "--max-iterations", "5000"],
        },
        fixed=set(),
    ),
    "center-path": dict(
        base=["--k", "2", "--d", "1", "--lambdas", "0.5,0.6"],
        variants={
            "k": ["--k", "3", "--d", "1", "--lambdas", "0.5,0.6"],
            "d": ["--k", "3", "--d", "2", "--lambdas", "0.5,0.6"],
            "lambdas": ["--k", "2", "--d", "1", "--lambdas", "0.5,0.7"],
        },
        fixed=set(),
    ),
    "region-slice": dict(
        base=["--k", "3", "--d", "2", "--s-grid", "0.5", "--t-grid", "0.5"],
        variants={
            "k": ["--k", "4", "--d", "2", "--s-grid", "0.5", "--t-grid", "0.5"],
            "s_grid": ["--k", "3", "--d", "2", "--s-grid", "0.4", "--t-grid", "0.5"],
            "t_grid": ["--k", "3", "--d", "2", "--s-grid", "0.5", "--t-grid", "0.4"],
            "d": ["--k", "4", "--d", "3", "--s-grid", "0.5", "--t-grid", "0.5"],
        },
        fixed=set(),
    ),
    "probe": dict(
        base=["--k", "3", "--d", "2", "--s-range", "0.1:1", "--t-range", "0.1:1",
              "--samples", "10", "--seed", "0"],
        variants={
            "k": ["--k", "4", "--d", "2", "--s-range", "0.1:1", "--t-range", "0.1:1",
                  "--samples", "10", "--seed", "0"],
            "s_range": ["--k", "3", "--d", "2", "--s-range", "0.2:1",
                        "--t-range", "0.1:1", "--samples", "10", "--seed", "0"],
            "t_range": ["--k", "3", "--d", "2", "--s-range", "0.1:1",
                        "--t-range", "0.2:1", "--samples", "10", "--seed", "0"],
            "samples": ["--k", "3", "--d", "2", "--s-range", "0.1:1",
                        "--t-range", "0.1:1", "--samples", "11", "--seed", "0"],
            "seed": ["--k", "3", "--d", "2", "--s-range", "0.1:1", "--t-range", "0.1:1",
                     "--samples", "10", "--seed", "1"],
            "d": ["--k", "4", "--d", "3", "--s-range", "0.1:1", "--t-range", "0.1:1",
                  "--samples", "10", "--seed", "0"],
        },
        fixed=set(),
    ),
    "compare": dict(
        base=["--k", "2", "--d", "1", "--samples", "3", "--seed", "0"],
        variants={
            "k": ["--k", "3", "--d", "1", "--samples", "3", "--seed", "0"],
            "d": ["--k", "2", "--d", "2", "--samples", "3", "--seed", "0"],
            "samples": ["--k", "2", "--d", "1", "--samples", "4", "--seed", "0"],
            "seed": ["--k", "2", "--d", "1", "--samples", "3", "--seed", "1"],
            "beta_low": ["--k", "2", "--d", "1", "--samples", "3", "--seed", "0",
                         "--beta-low", "-2"],
            "beta_high": ["--k", "2", "--d", "1", "--samples", "3", "--seed", "0",
                          "--beta-high", "0.5"],
        },
        fixed={"echo"},  # --echo prints one point and writes no file
    ),
    "symmetry": dict(
        base=["--k", "2", "--d", "1", "--beta", '{"1": 0.5}', "--element", "perm=2,1"],
        variants={
            "k": ["--k", "3", "--d", "1", "--beta", '{"1": 0.5}', "--element", "perm=2,1,3"],
            "d": ["--k", "2", "--d", "2", "--beta", '{"1": 0.5}', "--element", "perm=2,1"],
            "beta": ["--k", "2", "--d", "1", "--beta", '{"1": -2}', "--element", "perm=2,1"],
            "symmetric": ["--k", "2", "--d", "1", "--symmetric", "s=0.5",
                          "--element", "perm=2,1"],
            "element": ["--k", "2", "--d", "1", "--beta", '{"1": 0.5}',
                        "--element", "flips=1"],
            "orbit": ["--k", "2", "--d", "1", "--beta", '{"1": 0.5}', "--element", "perm=2,1",
                      "--orbit"],
        },
        fixed=set(),
    ),
}


@pytest.mark.parametrize("command", sorted(MANIFEST_CASES))
def test_every_flag_changes_the_manifest(runner, tmp_path, command):
    case = MANIFEST_CASES[command]
    options = {
        p.name for p in main.commands[command].params
        if not isinstance(p.type, click.Path)
    }
    assert set(case["variants"]) | case["fixed"] == options

    def manifest(argv, tag):
        out = tmp_path / f"{tag}.out"
        result = runner.invoke(main, [command, *argv, "--out", str(out)])
        assert result.exit_code == 0, result.output
        return strict_json(Path(f"{out}.manifest.json").read_text())

    base = manifest(case["base"], "base")
    assert set(base["flags"]) == options - {"seed"}
    for name, argv in case["variants"].items():
        changed = manifest(argv, name)
        if name == "seed":
            assert changed["seed"] != base["seed"]
        else:
            assert changed["flags"][name] != base["flags"][name], name


def test_manifest_lists_every_given_path(runner, tmp_path, params_file):
    design = tmp_path / "design.json"
    design.write_text(json.dumps(
        {"k": 2, "weights": {"00": 0.5, "10": 0.25, "01": 0.25}}
    ))
    out = tmp_path / "orbit.json"
    result = runner.invoke(
        main, ["symmetry", "--params", str(params_file), "--element", "flips=1",
               "--design", str(design), "--out", str(out)],
    )
    assert result.exit_code == 0
    manifest = strict_json((tmp_path / "orbit.json.manifest.json").read_text())
    assert manifest["command"] == "symmetry"
    assert manifest["inputs"] == [str(params_file), str(design)]
    assert manifest["outputs"] == [str(out)]
    assert manifest["seed"] is None


PROBE_ARGV = ["probe", "--k", "5", "--d", "2", "--s-range", "0.001:1.0",
              "--t-range", "0.001:1.0"]


@pytest.mark.parametrize("argv", [
    ["compare", "--k", "3", "--d", "1", "--samples", "-3"],
    ["compare", "--k", "3", "--d", "1", "--samples", "0"],
    ["compare", "--k", "3", "--d", "1", "--seed", "-1"],
    PROBE_ARGV + ["--samples", "-3"],
    PROBE_ARGV + ["--seed", "-1"],
], ids=["compare-negative-samples", "compare-zero-samples", "compare-seed",
        "probe-negative-samples", "probe-seed"])
def test_sample_and_seed_bounds_exit_2(runner, tmp_path, argv):
    out = tmp_path / "out.json"
    result = runner.invoke(main, argv + ["--out", str(out)])
    assert result.exit_code == 2
    assert "agreement" not in result.output
    assert not out.exists()


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

    def test_out_records_match_reference(self, runner, tmp_path):
        params, theta = random_params(tmp_path, 6, 2, seed=0)
        out = tmp_path / "ineq.json"
        result = runner.invoke(
            main, ["inequalities", "--params", str(params), "--out", str(out)],
        )
        assert result.exit_code == 0
        data = strict_json(out.read_text())
        records = data["inequalities"]
        reference = reference_values(theta)
        assert [tuple(r["C"]) for r in records] == [label for label, _ in reference]
        for record, (_, lhs) in zip(records, reference):
            assert math.isclose(record["lhs"], lhs, rel_tol=1e-12)
            assert record["satisfied"] == (lhs <= 1.0 + THEOREM_TOL)
        assert {r["satisfied"] for r in records} == {True, False}
        verdict = rd.is_corner_optimal_by_theorem(theta, theta.model)
        assert data["optimal"] == verdict.optimal
        assert data["max_lhs"] == verdict.max_directional_value

    def test_empty_system_writes_strict_json(self, runner, tmp_path):
        out = tmp_path / "f.json"
        result = runner.invoke(
            main, ["inequalities", "--k", "2", "--d", "2", "--out", str(out)],
        )
        assert result.exit_code == 0
        data = strict_json(out.read_text())
        assert data["inequalities"] == []
        assert data["optimal"] is True and data["max_lhs"] is None
        strict_json((tmp_path / "f.json.manifest.json").read_text())

    def test_infinite_lhs_is_not_written_as_json(self, runner, tmp_path):
        out = tmp_path / "f.json"
        result = runner.invoke(
            main, ["inequalities", "--k", "2", "--d", "1", "--beta", '{"1": 800}',
                   "--out", str(out)],
        )
        assert "lhs=inf" in result.output
        assert result.exit_code == 1
        assert not out.exists()

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


def whole_listing(theta):
    """Stdout and JSON of ``inequalities`` built whole in memory: every record,
    every line and json.dumps' chunks at once, as the command once built them."""
    m = theta.model
    labels = tuple(corner_labels(m.k, m.d))
    values = rd.corner_lhs(theta, m)
    verdict = rd.is_corner_optimal_by_theorem(theta, m)
    violated = set(verdict.violated_labels)
    records, lines = [], []
    for label, lhs in zip(labels, values.tolist()):
        satisfied = label not in violated
        records.append({"C": list(label), "lhs": lhs, "satisfied": satisfied})
        mark = "ok " if satisfied else "VIOLATED"
        lines.append("C={" + ",".join(map(str, label)) + "}" + f"  lhs={lhs:.12g}  {mark}")
    state = "optimal" if verdict.optimal else "not-optimal"
    if verdict.boundary:
        state += " (boundary)"
    lines.append(f"verdict: {state}  max-lhs={verdict.max_directional_value:.12g}")
    payload = {
        "k": m.k, "d": m.d, "inequalities": records, "optimal": verdict.optimal,
        "max_lhs": verdict.max_directional_value if labels else None,
    }
    return "\n".join(lines) + "\n", json.dumps(payload, indent=2, allow_nan=False) + "\n"


def mixed_beta(m, seed):
    """A beta map with entries uniform on [-1.5, 1], so of both signs."""
    rng = np.random.default_rng(seed)
    keys = (",".join(map(str, a)) for a in m.subsets[1:])
    return dict(zip(keys, rng.uniform(-1.5, 1.0, m.p - 1).tolist()))


class TestInequalitiesStreaming:
    @pytest.mark.parametrize("k, d, point, violated", [
        (12, 3, "s=0.5,t=0.9", 3003),  # 3797 inequalities: four write blocks
        (4, 2, "s=0.5556,t=0.8", 1),
        (6, 3, None, 7),  # mixed-sign beta
        (2, 2, None, 0),  # the empty system
    ])
    def test_bytes_equal_the_whole_construction(self, runner, tmp_path, k, d, point,
                                                violated):
        m = rd.InteractionModel(k, d)
        out = tmp_path / "f.json"
        argv = ["inequalities", "--k", str(k), "--d", str(d), "--out", str(out)]
        if point is not None:
            s, t = (float(part.split("=")[1]) for part in point.split(","))
            theta = rd.ParameterVector.symmetric(m, s, t)
            argv += ["--symmetric", point]
        elif k > d:
            beta = mixed_beta(m, seed=2)
            theta = rd.ParameterVector.from_dict(m, beta)
            argv += ["--beta", json.dumps(beta)]
        else:
            theta = rd.ParameterVector.zeros(m)
        result = runner.invoke(main, argv)
        assert result.exit_code == 0, result.output
        stdout, text = whole_listing(theta)
        assert result.output == stdout
        assert out.read_bytes() == text.encode()
        assert stdout.count("VIOLATED") == violated

    def test_memory_does_not_grow_with_the_system(self, runner, tmp_path):
        # (14,3) has 15914 inequalities: the listing is 0.8 MB and the JSON
        # 2.7 MB, and building both whole peaked at 33 MB
        runner.invoke(main, ["inequalities", "--k", "3", "--d", "1",
                             "--out", str(tmp_path / "warm.json")])
        corner_index.cache_clear()
        argv = ["inequalities", "--k", "14", "--d", "3", "--symmetric", "s=0.5,t=0.9",
                "--out", str(tmp_path / "f.json")]
        tracemalloc.start()
        try:
            result = runner.invoke(main, argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0
        assert result.output.count("\n") == 15914 + 1
        assert peak < 12e6


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

    @pytest.mark.parametrize("point", [
        ["--k", "2", "--d", "1", "--symmetric", "s=0.4145"],
        ["--k", "3", "--d", "2", "--symmetric", "s=0.5,t=1.5"],
    ], ids=["k2-interior", "k3-interior"])
    def test_optimized_design_round_trips(self, runner, tmp_path, point):
        # the optimizer stops by the certificate's rule, through the design file
        design = tmp_path / "design.json"
        result = runner.invoke(main, ["optimize", *point, "--out", str(design)])
        assert result.exit_code == 0, result.output
        assert "structure=interior" in result.output
        result = runner.invoke(main, ["certify", *point, "--design", str(design)])
        assert result.exit_code == 0, result.output
        assert result.output.startswith("verdict: optimal ")

    def test_singular_design_exit_1(self, runner, tmp_path):
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"k": 2, "weights": {"00": 0.5, "10": 0.5}}))
        result = runner.invoke(
            main, ["certify", "--k", "2", "--d", "1", "--design", str(design)],
        )
        assert result.exit_code == 1


class TestCenterPath:
    def test_membership_beyond_simplex_runs_without_scipy(self, fresh_python, tmp_path):
        # theta = 0 at (6,2): 57 chart settings of 64 and no witness, so the
        # center's membership is decided by the equivalence theorem
        code = (
            "import sys; sys.modules['scipy'] = None; "
            "from raschdesign.cli import main; "
            "main(['center-path', '--k', '6', '--d', '2', '--lambdas', '1',"
            " '--out', 'path.csv'])"
        )
        proc = fresh_python("-c", code, cwd=tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        rows = (tmp_path / "path.csv").read_text().splitlines()[1:]
        assert len(rows) == 1
        assert rows[0].split(",")[-2:] == ["converged", "true"]

    @pytest.mark.parametrize("lam", ["1e-200", "1e-155"])
    def test_underflowing_intensity_exit_1(self, fresh_python, tmp_path, lam):
        # lambda_11 = lam^2 is 0 or subnormal; a fresh process shows any RuntimeWarning
        proc = fresh_python("-m", "raschdesign.cli", "center-path", "--k", "2", "--d", "1",
                            "--lambdas", lam, "--out", "u.csv", cwd=tmp_path)
        output = proc.stdout + proc.stderr
        assert proc.returncode == 1, output
        assert "Error: 1/intensity overflows at setting 11" in proc.stderr
        assert "RuntimeWarning" not in output and "Traceback" not in output

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

    def test_chart_dimension_change_keeps_rows_rectangular(self, runner, tmp_path):
        # the chart has 6 coordinates at lambda=1 and 7 at the other points
        out = tmp_path / "path.csv"
        result = runner.invoke(
            main, ["center-path", "--k", "3", "--d", "1",
                   "--lambdas", "1,0.8,0.5,0.3", "--out", str(out)],
        )
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        assert {line.count(",") for line in lines} == {lines[0].count(",")}
        assert lines[0].split(",")[-4] == "coord_7"
        with out.open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert all(row["status"] in {"converged", "unbounded"} for row in rows)
        assert rows[0]["coord_7"] == ""

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

    def test_matrices_are_the_solved_slices(self, runner, tmp_path):
        # the chart has 6 directions at lambda=1 and 7 at the other points
        lambdas = [1.0, 0.8, 0.5]
        matrices = tmp_path / "matrices.json"
        result = runner.invoke(
            main, ["center-path", "--k", "3", "--d", "1",
                   "--lambdas", ",".join(map(str, lambdas)),
                   "--out", str(tmp_path / "path.csv"), "--matrices-out", str(matrices)],
        )
        assert result.exit_code == 0
        dump = json.loads(matrices.read_text())
        m = rd.InteractionModel(3, 1)
        assert [entry["param"] for entry in dump] == lambdas
        for lam, entry in zip(lambdas, dump):
            theta = rd.ParameterVector.symmetric(m, lam)
            pm = rd.polytope_vertices(theta, m)
            assert entry["labels"] == [rd.setting_string(x, 3) for x in pm.settings[1:]]
            vertices = dense_vertices(pm)
            np.testing.assert_array_equal(entry["base"], vertices[0])
            np.testing.assert_array_equal(
                entry["directions"], vertices[list(pm.settings[1:])] - vertices[0])
        assert [len(entry["directions"]) for entry in dump] == [6, 7, 7]

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

    def test_singular_hessian_exit_1(self, runner, tmp_path):
        # the hull holds 0 here (gamma of {1,...,5} is 4e-7), so the slice is
        # unbounded; Newton steps toward it once met a singular Hessian
        out = tmp_path / "path.csv"
        result = runner.invoke(
            main, ["center-path", "--k", "5", "--d", "2", "--lambdas", "0.95",
                   "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        with out.open(newline="") as handle:
            (row,) = csv.DictReader(handle)
        assert row["status"] == "unbounded"
        assert "exits the polytope" not in result.output

    def test_non_finite_lambda_exit_2(self, runner, tmp_path):
        out = tmp_path / "path.csv"
        result = runner.invoke(
            main, ["center-path", "--k", "2", "--d", "1",
                   "--lambdas", "nan,0.5", "--out", str(out)],
        )
        assert result.exit_code == 2
        assert "finite" in result.output
        assert not out.exists()


#: The grid or sampling options of the two slice commands.
SLICE_ARGV = {
    "region-slice": ["--s-grid", "0.1,0.5", "--t-grid", "0.5,1.2"],
    "probe": ["--s-range", "0.01:1", "--t-range", "1:1.3", "--samples", "2000",
              "--seed", "0"],
}


@pytest.mark.parametrize("command", sorted(SLICE_ARGV))
def test_slice_at_order_three(runner, tmp_path, command):
    out = tmp_path / "out"
    result = runner.invoke(main, [command, "--k", "10", "--d", "3", *SLICE_ARGV[command],
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    if command == "region-slice":
        header = out.read_text().splitlines()[0].split(",")
        assert header == ["s", "t", *(f"lhs_{c}" for c in range(4, 11)),
                          "binding_c", "verdict"]
    else:
        assert list(strict_json(out.read_text())) == [str(c) for c in range(4, 11)]


@pytest.mark.parametrize("command", sorted(SLICE_ARGV))
@pytest.mark.parametrize("k,d", [(10, 1), (3, 3)], ids=["d-1", "k-equals-d"])
def test_slice_without_a_pair_or_an_inequality_exit_2(runner, tmp_path, command, k, d):
    out = tmp_path / "out"
    result = runner.invoke(main, [command, "--k", str(k), "--d", str(d),
                                  *SLICE_ARGV[command], "--out", str(out)])
    assert result.exit_code == 2
    assert ("d >= 2" if d == 1 else "k >= 4") in result.output
    assert not list(tmp_path.iterdir())


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

    def test_streamed_csv_equals_formatted_rows(self, runner, tmp_path):
        # 37 x 61 points cross two block boundaries of the slice kernel
        s_grid, t_grid = np.linspace(0.05, 0.45, 37), np.linspace(0.6, 1.3, 61)
        out = tmp_path / "slice.csv"
        result = runner.invoke(
            main, ["region-slice", "--k", "12", "--d", "2",
                   "--s-grid", ",".join(map(repr, s_grid.tolist())),
                   "--t-grid", ",".join(map(repr, t_grid.tolist())),
                   "--out", str(out)],
        )
        assert result.exit_code == 0
        rows = rd.region_slice(rd.InteractionModel(12, 2), s_grid, t_grid)
        fmt = "{:.12g}".format
        expected = ["s,t," + ",".join(f"lhs_{c}" for c in range(3, 13))
                    + ",binding_c,verdict"]
        expected += [
            ",".join([fmt(r.s), fmt(r.t), *map(fmt, r.lhs), str(r.binding_c), r.verdict])
            for r in rows
        ]
        assert out.read_text() == "\n".join(expected) + "\n"
        with out.open(newline="") as handle:
            parsed = list(csv.DictReader(handle))
        assert len(parsed) == len(rows)
        for cells, row in zip(parsed, rows):
            assert (int(cells["binding_c"]), cells["verdict"]) == (row.binding_c, row.verdict)
            printed = [float(cells[key]) for key in ["s", "t"] + [f"lhs_{c}" for c in range(3, 13)]]
            assert_allclose(printed, [row.s, row.t, *row.lhs], rtol=1e-11)

    def test_edge_grid_raises_no_warning(self, runner, tmp_path):
        out = tmp_path / "slice.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(
                main, ["region-slice", "--k", "12", "--d", "2",
                       "--s-grid", "1e-9,1e-3,1,50", "--t-grid", "1e-3,1,1.3,100",
                       "--out", str(out)],
            )
        assert result.exit_code == 0, result.output
        text = out.read_text()
        assert len(text.splitlines()) == 17 and "nan" not in text

    def test_benchmark_grid_memory(self, runner, tmp_path):
        # 221 x 222 points at k=12; the whole-grid writer peaked at 55 MB
        argv = ["region-slice", "--k", "12", "--d", "2",
                "--s-grid", "0.01:1.00225:0.0045", "--t-grid", "0.5:1.49675:0.0045",
                "--out", str(tmp_path / "slice.csv")]
        tracemalloc.start()
        try:
            result = runner.invoke(main, argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0
        assert len((tmp_path / "slice.csv").read_text().splitlines()) == 1 + 221 * 222
        assert peak < 40e6

    def test_empty_grid_exit_2(self, runner, tmp_path):
        result = runner.invoke(
            main, ["region-slice", "--k", "4", "--d", "2",
                   "--s-grid", "", "--t-grid", "1.0",
                   "--out", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("s_grid,t_grid", [
        ("nan,0.5", "1"), ("0.5", "inf"), ("0.1:nan:0.1", "1"), ("0.1:inf:0.1", "1"),
    ])
    def test_non_finite_grid_exit_2(self, runner, tmp_path, s_grid, t_grid):
        out = tmp_path / "x.csv"
        result = runner.invoke(
            main, ["region-slice", "--k", "4", "--d", "2",
                   "--s-grid", s_grid, "--t-grid", t_grid, "--out", str(out)],
        )
        assert result.exit_code == 2
        assert "finite" in result.output
        assert not out.exists()


    def test_k_below_three_exit_2(self, runner, tmp_path):
        out = tmp_path / "x.csv"
        result = runner.invoke(
            main, ["region-slice", "--k", "2", "--d", "2",
                   "--s-grid", "0.5", "--t-grid", "0.5", "--out", str(out)],
        )
        assert result.exit_code == 2
        assert "k >= 3" in result.output
        assert not out.exists()

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

    @pytest.mark.parametrize("s_range", ["0.1:inf", "nan:1.0"])
    def test_non_finite_range_exit_2(self, runner, tmp_path, s_range):
        out = tmp_path / "p.json"
        result = runner.invoke(
            main, ["probe", "--k", "4", "--d", "2", "--s-range", s_range,
                   "--t-range", "1:2", "--samples", "10", "--out", str(out)],
        )
        assert result.exit_code == 2
        assert "finite" in result.output
        assert not out.exists()


    def test_k_below_three_exit_2(self, runner, tmp_path):
        out = tmp_path / "p.json"
        result = runner.invoke(
            main, ["probe", "--k", "2", "--d", "2", "--s-range", "0.1:1",
                   "--t-range", "0.1:1", "--samples", "10", "--out", str(out)],
        )
        assert result.exit_code == 2
        assert "k >= 3" in result.output
        assert not out.exists()

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

    def test_echo_lines_match_reference(self, runner, tmp_path):
        params, theta = random_params(tmp_path, 4, 2, seed=1)
        result = runner.invoke(main, ["compare", "--params", str(params), "--echo"])
        assert result.exit_code == 0
        listed = re.findall(r"C=\{([\d,]+)\}\s+lhs=(\S+)", result.output)
        reference = reference_values(theta)
        assert [tuple(map(int, c.split(","))) for c, _ in listed] == [
            label for label, _ in reference
        ]
        for (_, text), (_, lhs) in zip(listed, reference):
            assert math.isclose(float(text), lhs, rel_tol=1e-11)
        satisfied = [float(text) <= 1.0 + THEOREM_TOL for _, text in listed]
        assert satisfied == [lhs <= 1.0 + THEOREM_TOL for _, lhs in reference]
        assert set(satisfied) == {True, False}
        verdict = rd.is_corner_optimal_by_theorem(theta, theta.model)
        assert verdict.optimal == all(satisfied)

    def test_echo_with_out_is_a_usage_error(self, runner, params_file, tmp_path):
        out = tmp_path / "cmp.json"
        result = runner.invoke(
            main, ["compare", "--params", str(params_file), "--echo", "--out", str(out)]
        )
        assert result.exit_code == 2
        assert "Usage:" in result.output
        assert "--out" in result.output
        assert list(tmp_path.iterdir()) == [params_file]

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

    def test_orbit_at_k20(self, runner):
        cycle = ",".join(map(str, range(2, 21))) + ",1"
        result = runner.invoke(
            main, ["symmetry", "--k", "20", "--d", "2", "--symmetric", "s=0.5,t=0.9",
                   "--element", f"perm={cycle};flips=1", "--orbit"],
        )
        assert result.exit_code == 0, result.output
        assert "|det Q| = 1" in result.output
        # the cycle flips each rule once in 20 steps, so g^20 flips all rules
        assert "orbit size 40" in result.output

    def test_invalid_element_exit_2(self, runner):
        for k, element in [("2", "perm=2,2"), ("3", "perm=2,1"), ("3", "perm=2,1,3,4")]:
            result = runner.invoke(
                main, ["symmetry", "--k", k, "--d", "1", "--element", element],
            )
            assert result.exit_code == 2, (k, element, result.output)

    def test_design_of_the_wrong_k_prints_nothing(self, runner, tmp_path):
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"k": 3, "weights": {"000": 1.0}}))
        result = runner.invoke(
            main, ["symmetry", "--k", "2", "--d", "1", "--element", "flips=1",
                   "--design", str(design)],
        )
        assert result.exit_code == 2
        # no report line comes before the usage error
        assert result.output.startswith("Usage:"), result.output
        assert "expected k=2" in result.output

    def test_orbit_closes_at_a_rounding_boundary(self, runner, tmp_path):
        # at 0.1234567890125 rounding to 12 decimals drifts by one unit, which
        # once hid the return to theta; flips=1 has order 2
        out = tmp_path / "orbit.json"
        result = runner.invoke(
            main, ["symmetry", "--k", "2", "--d", "1",
                   "--beta", '{"": 0.1234567890125, "1": 0.7}', "--element", "flips=1",
                   "--orbit", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert "orbit size 2" in result.output
        assert len(json.loads(out.read_text())) == 2

    def test_design_check_at_large_base_parameter(self, runner, tmp_path):
        design = tmp_path / "corner.json"
        design.write_text(json.dumps({"k": 2, "weights": {"00": 1 / 3, "10": 1 / 3,
                                                          "01": 1 / 3}}))
        residuals = []
        for base in (0, 720):
            result = runner.invoke(
                main, ["symmetry", "--k", "2", "--d", "1",
                       "--beta", json.dumps({"": base, "1": -1}),
                       "--element", "perm=2,1", "--design", str(design)],
            )
            assert result.exit_code == 0, result.output
            residuals.append(re.search(r"transformation residual=.*", result.output)[0])
        assert residuals[0] == residuals[1]

    def test_one_command_builds_each_q_once(self, runner, tmp_path, monkeypatch):
        # |det Q|, the transformed beta, the orbit and the design check all
        # need Q_g or Q_{g^-1}; each is built once
        import raschdesign.symmetry as symmetry

        builds = []

        class Counted(symmetry.Representation):
            def __init__(self, element, *args):
                builds.append(element)
                super().__init__(element, *args)

        design = tmp_path / "design.json"
        design.write_text(json.dumps({"k": 6, "weights": {"000000": 0.5, "110000": 0.5}}))
        monkeypatch.setattr(symmetry, "Representation", Counted)
        # no other test acts with this element, so each build is counted
        result = runner.invoke(
            main, ["symmetry", "--k", "6", "--d", "2", "--symmetric", "s=0.5,t=0.9",
                   "--element", "perm=2,3,4,5,6,1;flips=1", "--orbit",
                   "--design", str(design)],
        )
        assert result.exit_code == 0, result.output
        assert "orbit size 12" in result.output
        assert len(builds) <= 2 and len(set(builds)) == len(builds), builds
