"""Self-tests of the benchmark: metric names and units, failure counting, spans.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_pass_emits_every_end_to_end_metric(workload):
    result = result_of(bench("--workload", workload, "--seed", "5", "--seconds", "1",
                             "--trace", "0", "--size", "tiny"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_emits_every_layer_metric_and_nests_spans():
    result = result_of(bench("--workload", "design", "--seed", "5", "--seconds", "1",
                             "--trace", "1", "--size", "tiny"))
    assert result["correct"] and result["failed"] == 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units("per_layer")

    spans = json.loads((run.WORK / "spans.json").read_text())
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    descendants_self = [0.0] * len(spans)
    for i in reversed(range(len(spans))):
        descendants_self[i] += own[i]
        if spans[i]["parent"] is not None:
            descendants_self[spans[i]["parent"]] += descendants_self[i]
    commands = [i for i, s in enumerate(spans) if s["parent"] is None]
    assert {spans[i]["name"].split(".")[0] for i in commands} == {"cli", "script"}
    for i in commands:
        width = spans[i]["end"] - spans[i]["start"]
        assert descendants_self[i] - own[i] <= width + 1e-9


def test_corrupted_outputs_are_counted_not_raised(tmp_path):
    cmds = workloads.build("design", 5, "tiny", tmp_path / "inputs")
    pass_dir = tmp_path / "pass"
    outcomes = run.run_pass(cmds, pass_dir, run.child_env())
    assert run.count_failures(cmds, [(pass_dir, outcomes)]) == (len(cmds), [])

    design = pass_dir / "design_k6_d2.json"
    data = json.loads(design.read_text())
    first, second = list(data["weights"])[:2]
    shift = data["weights"][first] / 2
    data["weights"][first] -= shift
    data["weights"][second] += shift
    design.write_text(json.dumps(data))
    (pass_dir / "transition.json").write_text("not json")

    attempted, reasons = run.count_failures(cmds, [(pass_dir, outcomes)])
    assert attempted == len(cmds)
    assert len(reasons) == 2
    assert any("optimize" in r and "KW certificate" in r for r in reasons)
    assert any("find_transition" in r and "could not be checked" in r for r in reasons)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "design", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
