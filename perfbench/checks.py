"""Output checks, run in the benchmark process after timing.

``check`` returns ``None`` when a command's output is right and a one-line
reason otherwise.  A check that cannot even read the output reports that
as the reason instead of raising, so every bad output is counted.  The
checks import ``raschdesign`` inside each function because the package
is put on the path from the checkout only once timing is over.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

from workloads import Command

#: Acceptance criterion 6: the transition lies within this of sqrt(2)-1.
TRANSITION_BOUND = 5e-3
#: Largest relative information-matrix residual of the symmetry law.
SYMMETRY_RESIDUAL = 1e-9
#: Relative agreement between 12-digit CLI output and a recomputation.
PRINTED_RTOL = 1e-8


def _read_json(run_dir: Path, name: str):
    return json.loads((run_dir / name).read_text())


def _read_csv(run_dir: Path, name: str) -> list[dict[str, str]]:
    with open(run_dir / name, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=PRINTED_RTOL)


def _optimize(cmd: Command, run_dir: Path, stdout: str) -> str | None:
    from raschdesign.regions import kw_certificate
    from raschdesign.serialize import load_design, load_parameters

    theta = load_parameters(cmd.expect["params"])
    w = load_design(run_dir / cmd.expect["design"], theta.model.k)
    verdict = kw_certificate(w, theta, theta.model)
    if not verdict.optimal:
        return (f"design fails the KW certificate: max sensitivity "
                f"{verdict.max_directional_value!r} > p={verdict.bound:g}")
    return None


def _find_transition(cmd: Command, run_dir: Path, stdout: str) -> str | None:
    found = _read_json(run_dir, cmd.expect["out"])["transition"]
    if abs(found - cmd.expect["target"]) > TRANSITION_BOUND:
        return f"transition {found!r} is not within {TRANSITION_BOUND} of sqrt(2)-1"
    return None


def _compare(cmd: Command, run_dir: Path, stdout: str) -> str | None:
    from raschdesign.model import InteractionModel
    from raschdesign.regions import KW_TOL, THEOREM_TOL

    e = cmd.expect
    if e.get("echo"):
        return _compare_echo(cmd, stdout)
    data = _read_json(run_dir, e["out"])
    found = data["disagreements"]
    if data["samples"] != e["samples"] or data["agreements"] + len(found) != e["samples"]:
        return f"agreements {data['agreements']} + disagreements {len(found)} != {e['samples']}"
    if e["d"] == 1 and found:
        return f"{len(found)} disagreements at d=1, where the systems agree"
    p = InteractionModel(e["k"], e["d"]).p
    for item in found:
        if item["theorem_optimal"] != (item["max_lhs"] <= 1.0 + THEOREM_TOL):
            return f"theorem flag does not match max_lhs={item['max_lhs']!r}"
        if item["kw_optimal"] != (item["kw_max"] <= p * (1.0 + KW_TOL)):
            return f"KW flag does not match kw_max={item['kw_max']!r}"
        if item["theorem_optimal"] == item["kw_optimal"]:
            return "a reported disagreement has equal flags"
    return None


def _compare_echo(cmd: Command, stdout: str) -> str | None:
    """Saturated sensitivities are 1 on the support and match the KW check."""
    from raschdesign.regions import corner_design, kw_certificate
    from raschdesign.serialize import load_parameters

    theta = load_parameters(cmd.expect["params"])
    m = theta.model
    values = {x: float(v) for x, v in re.findall(r"x=([01]+)\s+value=(\S+)", stdout)}
    if len(values) != 1 << m.k:
        return f"{len(values)} saturated values, expected {1 << m.k}"
    if any(not _close(v, 1.0) for x, v in values.items() if x.count("1") <= m.d):
        return "a saturated value on the support is not 1"
    verdict = kw_certificate(corner_design(m), theta, m)
    if not _close(max(values.values()) * m.p, verdict.max_directional_value):
        return "largest saturated value disagrees with the KW check"
    return None


def _inequalities(cmd: Command, run_dir: Path, stdout: str) -> str | None:
    k, d = cmd.expect["k"], cmd.expect["d"]
    data = _read_json(run_dir, cmd.expect["out"])
    expected = sum(math.comb(k, c) for c in range(d + 1, k + 1))
    records = data["inequalities"]
    if len(records) != expected:
        return f"{len(records)} inequalities, expected {expected}"
    if data["optimal"] != all(r["satisfied"] for r in records):
        return "verdict does not match the listed inequalities"
    return None


_VERDICT = re.compile(r"verdict: (\S+)\s+max-sensitivity=(\S+)")


def _certify(cmd: Command, run_dir: Path, stdout: str) -> str | None:
    from raschdesign.regions import corner_design, kw_certificate
    from raschdesign.serialize import load_parameters

    match = _VERDICT.search(stdout)
    if match is None:
        return "no verdict line"
    theta = load_parameters(cmd.expect["params"])
    verdict = kw_certificate(corner_design(theta.model), theta, theta.model)
    if (match.group(1) == "optimal") != verdict.optimal:
        return f"verdict {match.group(1)} disagrees with a recomputation"
    if not _close(float(match.group(2)), verdict.max_directional_value):
        return f"max-sensitivity {match.group(2)} != {verdict.max_directional_value!r}"
    return None


def _region_slice(cmd: Command, run_dir: Path, stdout: str) -> str | None:
    from raschdesign.model import InteractionModel
    from raschdesign.regions import symmetric_slice

    k = cmd.expect["k"]
    rows = _read_csv(run_dir, cmd.expect["out"])
    if len(rows) != cmd.expect["rows"]:
        return f"{len(rows)} rows, expected {cmd.expect['rows']}"
    m = InteractionModel(k, 2)
    for row in rows[:: max(1, len(rows) // 16)]:
        values = symmetric_slice(m, float(row["s"]), float(row["t"]))
        for c, value in values.items():
            if not _close(float(row[f"lhs_{c}"]), value):
                return f"lhs_{c} at s={row['s']}, t={row['t']} differs from symmetric_slice"
    return None


def _probe(cmd: Command, run_dir: Path, stdout: str) -> str | None:
    from raschdesign.model import InteractionModel
    from raschdesign.regions import THEOREM_TOL, symmetric_slice

    m = InteractionModel(cmd.expect["k"], 2)
    bound = 1.0 + THEOREM_TOL
    for c, entry in _read_json(run_dir, cmd.expect["out"]).items():
        if entry["witness"] is None:
            continue
        values = symmetric_slice(m, *entry["witness"])
        others = [v for c2, v in values.items() if c2 != int(c)]
        if not values[int(c)] > bound * (1 - 1e-12) or max(others) > bound * (1 + 1e-12):
            return f"witness for c={c} is not uniquely violated"
    return None


def _center_path(cmd: Command, run_dir: Path, stdout: str) -> str | None:
    rows = _read_csv(run_dir, cmd.expect["out"])
    if len(rows) != cmd.expect["rows"]:
        return f"{len(rows)} rows, expected {cmd.expect['rows']}"
    if "flip" not in cmd.expect:
        # UNBOUNDED is an accepted outcome until recession is certified.
        bad = {r["status"] for r in rows} - {"converged", "unbounded"}
        return f"unexpected status {sorted(bad)}" if bad else None
    if any(r["status"] != "converged" for r in rows):
        return "a center on the k=2 path did not converge"
    inside = [(float(r["param"]), r["inside"] == "true") for r in rows]
    flips = [(b, a) for a, b in zip(inside, inside[1:]) if a[1] != b[1]]
    if len(flips) != 1:
        return f"{len(flips)} membership flips, expected 1"
    (low, low_inside), (high, high_inside) = flips[0]
    if not (low < cmd.expect["flip"] < high and high_inside and not low_inside):
        return f"membership flip ({low}, {high}) does not bracket sqrt(2)-1"
    return None


def _symmetry(cmd: Command, run_dir: Path, stdout: str) -> str | None:
    if "|det Q| = 1\n" not in stdout:
        return "|det Q| is not 1"
    match = re.search(r"transformation residual=(\S+)", stdout)
    if match is None or not float(match.group(1)) <= SYMMETRY_RESIDUAL:
        return "transformation residual missing or above 1e-9"
    if not _read_json(run_dir, cmd.expect["out"]):
        return "empty orbit"
    return None


_CHECKS = {
    "optimize": _optimize, "find_transition": _find_transition,
    "compare": _compare, "inequalities": _inequalities, "certify": _certify,
    "region_slice": _region_slice, "probe": _probe,
    "center_path": _center_path, "symmetry": _symmetry,
}


def check(cmd: Command, run_dir: Path, stdout: str) -> str | None:
    """Why the command's output is wrong, or ``None`` when it is right."""
    try:
        return _CHECKS[cmd.family](cmd, run_dir, stdout)
    except Exception as exc:  # an unreadable output is a failed output
        return f"output could not be checked: {type(exc).__name__}: {exc}"
