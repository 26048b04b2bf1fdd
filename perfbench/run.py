"""Benchmark of the ``raschdesign`` command-line tools.

    python3 perfbench/run.py --workload design --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src``.  With ``--trace 0`` every command runs as a fresh
process, one after another (a closed loop with one client), and the last
line of standard output is a JSON object with the end-to-end metrics.
With ``--trace 1`` the commands of every workload run in this process,
once plain and once with spans around the public functions of each
module, and the JSON object holds the per-layer metrics.  BLAS thread
variables are passed through as found, never set; the effective thread
count is recorded in the environment line.  Scratch files go to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import workloads
from checks import check
from workloads import FAMILIES, WORKLOADS, Command

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
TRANSITION = Path(__file__).resolve().parent / "transition.py"

#: Fewest fresh ``--version`` starts timed for ``setup_s``.
SETUP_STARTS = 5
#: ``-X importtime`` runs whose median gives each ``*.import_s``.
IMPORT_RUNS = 5
#: A command running longer than this is killed and counted as failed.
COMMAND_TIMEOUT_S = 120.0
IMPORTED_MODULES = ("model", "regions", "geometry", "optimizer", "cli")
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Outcome:
    """One command invocation as the user sees it."""

    wall: float
    rc: int
    stdout: str
    max_rss_kb: int = 0
    cpu: float = 0.0
    output_bytes: int = 0


def child_env() -> dict[str, str]:
    """This process's environment with the checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def program(cmd: Command) -> list[str]:
    if cmd.tool == "transition":
        return [sys.executable, str(TRANSITION), *cmd.argv]
    return [sys.executable, "-m", "raschdesign.cli", *cmd.argv]


def launch(argv: list[str], cwd: Path, env: dict[str, str], log: str) -> Outcome:
    """Run one process to completion; wall time and max RSS from ``wait4``."""
    out_path, err_path = cwd / f"{log}.stdout", cwd / f"{log}.stderr"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(wall, proc.returncode, out_path.read_text(), usage.ru_maxrss,
                   usage.ru_utime + usage.ru_stime)


def setup_start(env: dict[str, str]) -> float:
    """Wall time of one fresh ``raschdesign --version`` start; raises if it fails."""
    res = launch([sys.executable, "-m", "raschdesign.cli", "--version"], WORK, env, "version")
    if res.rc != 0 or "version" not in res.stdout:
        raise RuntimeError("raschdesign --version failed: "
                           + (WORK / "version.stderr").read_text()[-500:])
    return res.wall


ENV_PROBE = r"""
import ctypes, json, os, platform
import numpy, scipy, scipy.linalg, raschdesign
blas = []
try:
    maps = open("/proc/self/maps").read().splitlines()
except OSError:
    maps = []
for path in sorted({l.split()[-1] for l in maps if "openblas" in l.lower() and ".so" in l}):
    lib, entry = ctypes.CDLL(path), {"library": os.path.basename(path)}
    for key, suffix, restype in (("threads", "get_num_threads", ctypes.c_int),
                                 ("config", "get_config", ctypes.c_char_p)):
        for prefix in ("scipy_openblas_", "openblas_"):
            for tail in ("64_", ""):
                try:
                    fn = getattr(lib, prefix + suffix + tail)
                except AttributeError:
                    continue
                fn.restype, fn.argtypes = restype, []
                value = fn()
                entry[key] = value.decode() if isinstance(value, bytes) else value
                break
            if key in entry:
                break
    blas.append(entry)
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "openblas": blas,
                  "raschdesign_file": raschdesign.__file__}))
"""


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_loc() -> int:
    """Non-blank lines of ``src/raschdesign``; recorded, not gated."""
    return sum(
        sum(1 for line in path.read_text().splitlines() if line.strip())
        for path in sorted((SRC / "raschdesign").rglob("*.py"))
    )


def environment(env: dict[str, str], workload: str, seed: int) -> dict:
    """Versions, BLAS threads and host facts; also checks where the package imports from.

    The probe process imports numpy, scipy and the package, so running it
    first also fills the byte-code and file caches before anything is timed.
    """
    probe = subprocess.run([sys.executable, "-c", ENV_PROBE], cwd=WORK, env=env,
                           capture_output=True, text=True, timeout=120)
    if probe.returncode != 0:
        raise RuntimeError("environment probe failed: " + probe.stderr[-500:])
    record = json.loads(probe.stdout.strip().splitlines()[-1])
    imported = Path(record.pop("raschdesign_file")).resolve()
    if SRC.resolve() not in imported.parents:
        raise RuntimeError(f"raschdesign imports from {imported}, not from {SRC}")
    threads = {e.get("threads") for e in record["openblas"]}
    record.update({
        "blas_threads": threads.pop() if len(threads) == 1 else sorted(threads, key=str),
        "blas_variables": {k: os.environ.get(k) for k in BLAS_VARIABLES},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "source_loc": source_loc(),
    })
    return record


def run_pass(cmds: list[Command], pass_dir: Path, env: dict[str, str]) -> list[Outcome]:
    pass_dir.mkdir(parents=True)
    return [launch(program(cmd), pass_dir, env, f"{i:02d}_{cmd.family}")
            for i, cmd in enumerate(cmds)]


def count_failures(cmds: list[Command], passes: list[tuple[Path, list[Outcome]]]):
    """Commands attempted, and one reason per command that failed."""
    import_from_checkout()
    attempted, reasons = 0, []
    for pass_dir, outcomes in passes:
        for cmd, res in zip(cmds, outcomes):
            attempted += 1
            reason = f"exit code {res.rc}" if res.rc else check(cmd, pass_dir, res.stdout)
            if reason:
                reasons.append(f"{pass_dir.name} {cmd.family} {' '.join(cmd.argv[:1])}: {reason}")
    return attempted, reasons


def import_from_checkout() -> None:
    """Import the package into this process from the checkout, for checks and tracing."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import raschdesign

    if SRC.resolve() not in Path(raschdesign.__file__).resolve().parents:
        raise RuntimeError(f"raschdesign imports from {raschdesign.__file__}, not {SRC}")


def untraced(workload: str, seed: int, seconds: float, size: str) -> dict:
    env = child_env()
    record = environment(env, workload, seed)
    cmds = workloads.build(workload, seed, size, WORK / "inputs")
    setup: list[float] = []
    passes: list[tuple[Path, list[Outcome]]] = []
    measured = 0.0
    while True:
        # One set-up start before each pass, outside the measured time, so
        # set-up is sampled across the same stretch of the run as the passes.
        setup.append(setup_start(env))
        start = time.perf_counter()
        pass_dir = WORK / f"pass_{len(passes):02d}"
        passes.append((pass_dir, run_pass(cmds, pass_dir, env)))
        measured += time.perf_counter() - start
        pass_s = statistics.median(sum(r.wall for r in p) for _, p in passes)
        if measured + pass_s > seconds:
            break
    while len(setup) < SETUP_STARTS:
        setup.append(setup_start(env))
    attempted, reasons = count_failures(cmds, passes)
    for pass_dir, outcomes in passes:
        print(pass_dir.name, "command seconds:", " ".join(f"{r.wall:.3f}" for r in outcomes),
              "cpu:", " ".join(f"{r.cpu:.3f}" for r in outcomes))

    # Median over passes per command, so one slow start does not move the sum.
    typical = [statistics.median(p[i].wall for _, p in passes) for i in range(len(cmds))]
    families = {}
    for family in FAMILIES:
        if any(c.family == family for c in cmds):
            families[f"{family}_s"] = sum(w for c, w in zip(cmds, typical) if c.family == family)
    print("passes:", len(passes), "commands per pass:", len(cmds),
          "failed_frac:", len(reasons) / attempted)
    print("command families, seconds per pass:", json.dumps(families))
    return {
        "attempted": attempted,
        "reasons": reasons,
        "environment": record,
        "metrics": {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (sum(typical), "s"),
            "peak_rss_mb": (max(r.max_rss_kb for _, p in passes for r in p) / 1024.0, "MB"),
        },
    }


def import_times(env: dict[str, str]) -> dict[str, float]:
    """Cumulative import time of each module, median over fresh processes."""
    samples = defaultdict(list)
    line = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s*raschdesign\.(\w+)$")
    for _ in range(IMPORT_RUNS):
        res = subprocess.run([sys.executable, "-X", "importtime", "-c", "import raschdesign.cli"],
                             cwd=WORK, env=env, capture_output=True, text=True, timeout=120)
        if res.returncode != 0:
            raise RuntimeError("import of raschdesign.cli failed: " + res.stderr[-500:])
        for match in map(line.match, res.stderr.splitlines()):
            if match:
                samples[match.group(2)].append(int(match.group(1)) * 1e-6)
    return {f"{mod}.import_s": statistics.median(samples[mod]) for mod in IMPORTED_MODULES}


def in_process(cmd: Command, cwd: Path, tracer, run_id: str) -> Outcome:
    """Run one command inside this process, as ``raschdesign.cli.main`` would."""
    import click
    import transition
    from raschdesign import cli

    before = {p.name: p.stat().st_size for p in cwd.iterdir()}
    captured = io.StringIO()
    span = None
    old_cwd = os.getcwd()
    os.chdir(cwd)
    start = time.perf_counter()
    try:
        if tracer is not None:
            tracer.run_id = run_id
            name = f"cli.{cmd.argv[0]}" if cmd.tool == "cli" else "script.find_transition"
            span = tracer.begin(name)
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(io.StringIO()):
            if cmd.tool == "cli":
                cli.main.main(list(cmd.argv), prog_name="raschdesign", standalone_mode=False)
                rc = 0
            else:
                rc = transition.main(list(cmd.argv))
    except click.exceptions.ClickException as exc:
        rc = exc.exit_code
    except click.exceptions.Exit as exc:
        rc = exc.exit_code
    except Exception:  # a crash is a failed command, counted and reported
        traceback.print_exc()
        rc = 1
    finally:
        if span is not None:
            tracer.end(span)
        wall = time.perf_counter() - start
        os.chdir(old_cwd)
    stdout = captured.getvalue()
    written = sum(p.stat().st_size for p in cwd.iterdir()
                  if before.get(p.name) != p.stat().st_size)
    return Outcome(wall, rc, stdout, output_bytes=written + len(stdout.encode()))


def traced(workload: str, seed: int, size: str) -> dict:
    """Per-layer metrics from in-process runs of every workload's commands.

    Every workload runs, whichever one was asked for, so every layer has
    spans in every traced run.  A tiny warm-up pass goes first; then each
    command runs plain and traced back to back, so warm-up and drift do
    not land on one side of ``trace.overhead_s``.
    """
    from tracing import Tracer, layer_metrics

    env = child_env()
    record = environment(env, workload, seed)
    imports = import_times(env)
    import_from_checkout()
    for name in WORKLOADS:
        warm_dir = WORK / f"{name}_warmup"
        warm_dir.mkdir(parents=True)
        for cmd in workloads.build(name, seed, "tiny", WORK / "inputs" / f"{name}_warmup"):
            in_process(cmd, warm_dir, None, "")

    tracer = Tracer()
    families: dict[str, float] = defaultdict(float)
    walls = {"plain": 0.0, "traced": 0.0}
    attempted, reasons, output_bytes = 0, [], 0
    for name in WORKLOADS:
        cmds = workloads.build(name, seed, size, WORK / "inputs" / name)
        dirs = {mode: WORK / f"{name}_{mode}" for mode in walls}
        outcomes = {mode: [] for mode in walls}
        for d in dirs.values():
            d.mkdir(parents=True)
        for i, cmd in enumerate(cmds):
            outcomes["plain"].append(in_process(cmd, dirs["plain"], None, ""))
            tracer.install()
            try:
                outcomes["traced"].append(
                    in_process(cmd, dirs["traced"], tracer, f"{name}:{i}:{cmd.family}"))
            finally:
                tracer.uninstall()
        for mode in walls:
            walls[mode] += sum(r.wall for r in outcomes[mode])
            n, why = count_failures(cmds, [(dirs[mode], outcomes[mode])])
            attempted, reasons = attempted + n, reasons + why
        for cmd, plain, traced_run in zip(cmds, outcomes["plain"], outcomes["traced"]):
            families[f"{cmd.family}_s"] += plain.wall
            if cmd.tool == "cli":
                output_bytes += traced_run.output_bytes
    (WORK / "spans.json").write_text(json.dumps(tracer.dump()))

    metrics = {name: (value, "s") for name, value in imports.items()}
    metrics.update({f"{family}_s": (families[f"{family}_s"], "s") for family in FAMILIES})
    metrics.update(layer_metrics(tracer))
    metrics["cli.output_bytes"] = (output_bytes, "byte")
    metrics["trace.overhead_s"] = (walls["traced"] - walls["plain"], "s")
    metrics["failed_frac"] = (len(reasons) / attempted, "ratio")
    return {
        "attempted": attempted,
        "reasons": reasons,
        "environment": record,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the raschdesign CLI.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny: a quick pass for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "raschdesign" / "cli.py").is_file():
        print(f"no raschdesign sources under {SRC}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        if args.trace:
            result = traced(args.workload, args.seed, args.size)
        else:
            result = untraced(args.workload, args.seed, args.seconds, args.size)
    except RuntimeError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1
    for reason in result["reasons"]:
        print("FAILED", reason, file=sys.stderr)
    print(json.dumps({"environment": result["environment"]}))
    failed = len(result["reasons"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
