"""Seeded command lists for the benchmark workloads.

Every workload is a closed loop with one client: its commands run one
after another, each as a user would type it.  The seed only jitters the
inputs inside narrow boxes around fixed regimes, so every seed asks for
about the same amount of work.  The program receives nothing but the
generated inputs: parameter and design files, ``--seed`` values and grids.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

WORKLOADS = ("design", "certify", "explore")
SIZES = ("full", "tiny")

#: Command families; each one's timing is reported as ``<family>_s``.
FAMILIES = (
    "optimize", "find_transition",
    "compare", "inequalities", "certify",
    "region_slice", "probe", "center_path", "symmetry",
)

SQRT2_M1 = math.sqrt(2.0) - 1.0


@dataclass(frozen=True)
class Command:
    """One invocation: a ``raschdesign`` subcommand or the transition script.

    ``argv`` follows the program name.  Output paths in it are relative to
    the directory the command runs in; input paths are absolute.
    ``expect`` holds what the output check needs to know.
    """

    family: str
    argv: tuple[str, ...]
    tool: str = "cli"
    expect: dict = field(default_factory=dict)


def _jitter(rng: random.Random, centre: float, half_width: float) -> float:
    return centre + rng.uniform(-half_width, half_width)


def _write_params(path: Path, k: int, d: int, s: float, t: float | None) -> str:
    """Exchangeable parameter file: beta_i = log s, beta_ij = log t."""
    beta = {}
    for size, value in ((1, s), (2, t)):
        if value is None or size > d:
            continue
        for subset in combinations(range(1, k + 1), size):
            beta[",".join(map(str, subset))] = math.log(value)
    path.write_text(json.dumps({"k": k, "d": d, "beta": beta}) + "\n")
    return str(path)


def _write_corner_design(path: Path, k: int, d: int) -> str:
    """Weight 1/p on every setting with at most d active rules."""
    support = [x for x in range(1 << k) if bin(x).count("1") <= d]
    bits = ["".join("1" if x >> i & 1 else "0" for i in range(k)) for x in support]
    path.write_text(json.dumps({"k": k, "weights": {b: 1.0 / len(bits) for b in bits}}) + "\n")
    return str(path)


def _grid(start: float, step: float, count: int) -> str:
    """``start:stop:step`` that the CLI expands to exactly ``count`` values."""
    return f"{start!r}:{start + (count - 0.5) * step!r}:{step!r}"


# (k, d, s centre, t centre).  (2,1) sits near the saturation point, where
# the ascent needs hundreds of iterations; the large-p rungs sit inside the
# corner region and converge in tens.
DESIGN_RUNGS = {
    "full": [(2, 1, 0.410, None), (6, 2, 0.5, 0.9), (10, 2, 0.5, 0.9),
             (10, 3, 0.35, 0.7), (12, 3, 0.30, 0.60)],
    "tiny": [(2, 1, 0.410, None), (6, 2, 0.5, 0.9)],
}


def _design(rng: random.Random, size: str, inputs: Path) -> list[Command]:
    cmds = []
    for k, d, s, t in DESIGN_RUNGS[size]:
        s = _jitter(rng, s, 0.0005 if d == 1 else 0.005)
        t = None if t is None else _jitter(rng, t, 0.005)
        params = _write_params(inputs / f"optimize_k{k}_d{d}.json", k, d, s, t)
        out = f"design_k{k}_d{d}.json"
        cmds.append(Command(
            "optimize",
            ("optimize", "--params", params, "--out", out,
             "--report", f"report_k{k}_d{d}.json"),
            expect={"params": params, "design": out},
        ))
    lo, hi = _jitter(rng, 0.3, 0.001), _jitter(rng, 0.5, 0.001)
    tol = 1e-4 if size == "full" else 2e-3
    cmds.append(Command(
        "find_transition",
        ("--k", "2", "--d", "1", "--lo", repr(lo), "--hi", repr(hi),
         "--tol", repr(tol), "--out", "transition.json"),
        tool="transition",
        expect={"out": "transition.json", "target": SQRT2_M1},
    ))
    return cmds


CERTIFY_SIZES = {
    # (k, d, samples) per compare run; d=1 has a known answer (no
    # disagreement).  "echo" is the single-point mode that runs the
    # saturated factorization next to the inequality system.
    "full": {"compare": [(3, 2, 300), (6, 2, 150), (10, 2, 12), (4, 1, 200)],
             "echo": (8, 2), "inequalities": (12, 3), "certify": [(12, 3), (10, 2)]},
    "tiny": {"compare": [(3, 2, 40), (4, 1, 40)],
             "echo": (4, 2), "inequalities": (6, 3), "certify": [(6, 3), (4, 2)]},
}


def _certify(rng: random.Random, size: str, inputs: Path) -> list[Command]:
    spec = CERTIFY_SIZES[size]
    cmds = []
    for k, d, samples in spec["compare"]:
        out = f"compare_k{k}_d{d}.json"
        cmds.append(Command(
            "compare",
            ("compare", "--k", str(k), "--d", str(d), "--samples", str(samples),
             "--seed", str(rng.randrange(2**31)), "--out", out),
            expect={"out": out, "k": k, "d": d, "samples": samples},
        ))
    k, d = spec["echo"]
    params = _write_params(inputs / f"echo_k{k}_d{d}.json", k, d,
                           _jitter(rng, 0.5, 0.005), _jitter(rng, 0.9, 0.005))
    cmds.append(Command(
        "compare", ("compare", "--params", params, "--echo"),
        expect={"params": params, "echo": True},
    ))
    k, d = spec["inequalities"]
    params = _write_params(inputs / f"inequalities_k{k}_d{d}.json", k, d,
                           _jitter(rng, 0.5, 0.005), _jitter(rng, 0.9, 0.005))
    out = f"inequalities_k{k}_d{d}.json"
    cmds.append(Command(
        "inequalities", ("inequalities", "--params", params, "--out", out),
        expect={"out": out, "k": k, "d": d},
    ))
    for k, d in spec["certify"]:
        params = _write_params(inputs / f"certify_k{k}_d{d}.json", k, d,
                               _jitter(rng, 0.5, 0.005), _jitter(rng, 0.9, 0.005))
        cmds.append(Command(
            "certify", ("certify", "--params", params), expect={"params": params},
        ))
    return cmds


EXPLORE_SIZES = {
    # region-slice grid (values per axis), probe samples, k=2 path points, k=3 path points
    "full": {"slice": (222, 222), "probe": 1_000_000, "path2": 81, "path3": 7},
    "tiny": {"slice": (20, 20), "probe": 10_000, "path2": 21, "path3": 3},
}


def _explore(rng: random.Random, size: str, inputs: Path) -> list[Command]:
    spec = EXPLORE_SIZES[size]
    cmds = []
    n_s, n_t = spec["slice"]
    step = 0.0045
    cmds.append(Command(
        "region_slice",
        ("region-slice", "--k", "12", "--d", "2",
         "--s-grid", _grid(0.01 + rng.uniform(0, 0.001), step, n_s),
         "--t-grid", _grid(0.5 + rng.uniform(0, 0.001), step, n_t),
         "--out", "slice.csv"),
        expect={"out": "slice.csv", "k": 12, "rows": n_s * n_t},
    ))
    cmds.append(Command(
        "probe",
        ("probe", "--k", "12", "--d", "2", "--s-range", "1e-09:1.0",
         "--t-range", "1.0:1.3", "--samples", str(spec["probe"]),
         "--seed", str(rng.randrange(2**31)), "--out", "probe.json"),
        expect={"out": "probe.json", "k": 12},
    ))
    # Descending grid (warm starts) on a 0.001 lattice spanning sqrt(2)-1.
    # The offset keeps every point at least 3e-4 away from the transition,
    # so membership never sits on the tolerance.
    half = spec["path2"] // 2
    offset = rng.uniform(0.0003, 0.0007)
    grid = [SQRT2_M1 + offset + 0.001 * j for j in range(half, -half - 1, -1)]
    cmds.append(Command(
        "center_path",
        ("center-path", "--k", "2", "--d", "1",
         "--lambdas", ",".join(repr(v) for v in grid), "--out", "path_k2.csv"),
        expect={"out": "path_k2.csv", "k": 2, "rows": len(grid), "flip": SQRT2_M1},
    ))
    n3 = spec["path3"]
    cmds.append(Command(
        "center_path",
        ("center-path", "--k", "3", "--d", "1",
         "--lambdas", _grid(0.3 + rng.uniform(0, 0.01), 0.05, n3), "--out", "path_k3.csv"),
        expect={"out": "path_k3.csv", "k": 3, "rows": n3},
    ))
    params = _write_params(inputs / "symmetry_k6_d2.json", 6, 2,
                           _jitter(rng, 0.5, 0.005), _jitter(rng, 0.9, 0.005))
    design = _write_corner_design(inputs / "corner_k6_d2.json", 6, 2)
    cmds.append(Command(
        "symmetry",
        ("symmetry", "--params", params, "--element", "perm=2,3,4,5,6,1;flips=1",
         "--orbit", "--design", design, "--out", "orbit.json"),
        expect={"out": "orbit.json"},
    ))
    return cmds


_WORKLOAD_COMMANDS = {"design": _design, "certify": _certify, "explore": _explore}


def build(workload: str, seed: int, size: str, inputs: Path) -> list[Command]:
    """Write the workload's input files under ``inputs``; return its commands."""
    inputs.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return _WORKLOAD_COMMANDS[workload](rng, size, inputs)
