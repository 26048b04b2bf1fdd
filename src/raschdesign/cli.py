"""Command-line front end.

Every analysis is exposed as a subcommand with file-based inputs and
outputs.  A command that writes files also writes ``<first
output>.manifest.json``, derived from its options: the given existing-file
options are its ``inputs``, the other given path options its ``outputs``
(in declaration order), ``--seed`` its ``seed``, and every other option
one of its ``flags``.  Identical manifests reproduce identical outputs.

Exit codes: 0 success, 1 computational failure (singularity,
non-convergence), 2 usage error, which includes a malformed input file, a
non-finite number, a --k/--d outside the model's range and an output whose
directory is missing or not writable.  All numeric output is printed with
12 significant digits.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from pathlib import Path

import click

from . import __version__
from ._numpy import np
from .exceptions import InputFormatError, RaschDesignError
from .model import InteractionModel, ParameterVector, setting_string
from .geometry import center_path
from .optimizer import OptimizerConfig, optimize_design
from .regions import (
    _VERDICTS,
    _slice_grid,
    _theorem_verdict,
    corner_design,
    corner_lhs,
    is_corner_optimal_by_theorem,
    kw_certificate,
    redundancy_probe,
    saturated_kw_values,
)
from .serialize import load_design, load_parameters, save_design, write_json


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _set(label) -> str:
    return "{" + ",".join(map(str, label)) + "}"


def _writes(param) -> bool:
    """Whether an option names a file the command writes."""
    return isinstance(param.type, click.Path) and not param.type.exists


def _write_manifest() -> None:
    """Write the running command's manifest next to its first output."""
    ctx = click.get_current_context()
    inputs, outputs, flags = [], [], {}
    for param in ctx.command.params:
        value = ctx.params[param.name]
        if isinstance(param.type, click.Path):
            if value is not None:
                (outputs if _writes(param) else inputs).append(str(value))
        elif param.name != "seed":
            flags[param.name] = value
    if not outputs:
        return
    manifest = {
        "command": ctx.command.name,
        "inputs": inputs,
        "flags": dict(sorted(flags.items())),
        "seed": ctx.params.get("seed"),
        "version": __version__,
        "outputs": outputs,
    }
    write_json(outputs[0] + ".manifest.json", manifest)


def _float(text, where: str) -> float:
    """Parse one number of the command line; only finite numbers pass."""
    try:
        value = float(text)
    except ValueError:
        raise click.UsageError(f"bad number {text!r} in {where}") from None
    if not math.isfinite(value):
        raise click.UsageError(f"{where} needs finite numbers, got {text!r}")
    return value


def _finite_option(ctx, param, value) -> float:
    return _float(value, param.opts[0])


def _model(k: int, d: int) -> InteractionModel:
    """The model of --k/--d; a size it rejects is a usage error."""
    try:
        return InteractionModel(k, d)
    except ValueError as exc:  # ModelSizeError is a ValueError too
        raise click.UsageError(str(exc)) from exc


def _slice_model(k: int, d: int) -> InteractionModel:
    """The order-2 model of an exchangeable (s, t) slice, which needs k >= 3."""
    if d != 2:
        command = click.get_current_context().command.name
        raise click.UsageError(f"{command} requires an order-2 model (--d 2)")
    if k < 3:
        raise click.UsageError(
            f"the d = 2 slice has inequalities only for k >= 3, got --k {k}"
        )
    return _model(k, d)


def _parse_symmetric(text: str) -> dict[str, float]:
    values = {}
    for part in text.split(","):
        if "=" not in part:
            raise click.UsageError(f"cannot parse symmetric point part {part!r}")
        key, _, raw = part.partition("=")
        key = key.strip()
        if key not in ("s", "t"):
            raise click.UsageError(f"symmetric point keys are s and t, got {key!r}")
        values[key] = _float(raw, "symmetric point")
    if "s" not in values:
        raise click.UsageError("symmetric point needs at least s=<value>")
    return values


def _resolve_theta(k, d, params, beta, symmetric) -> ParameterVector:
    """Build the parameter vector from --params / --beta / --symmetric flags."""
    given = sum(x is not None for x in (params, beta, symmetric))
    if given > 1:
        raise click.UsageError("give at most one of --params, --beta, --symmetric")
    if params is not None:
        theta = load_parameters(params)
        if k is not None and theta.model.k != k:
            raise click.UsageError(f"--k {k} conflicts with file k={theta.model.k}")
        if d is not None and theta.model.d != d:
            raise click.UsageError(f"--d {d} conflicts with file d={theta.model.d}")
        return theta
    if k is None or d is None:
        raise click.UsageError("--k and --d are required without --params")
    m = _model(k, d)
    if beta is not None:
        number = functools.partial(_float, where="--beta")
        try:
            mapping = json.loads(beta, parse_float=number, parse_int=number,
                                 parse_constant=number)
        except json.JSONDecodeError as exc:
            raise click.UsageError(f"--beta is not valid JSON: {exc}") from exc
        if not isinstance(mapping, dict):
            raise click.UsageError("--beta must be a JSON object")
        return ParameterVector.from_dict(m, mapping)
    if symmetric is not None:
        point = _parse_symmetric(symmetric)
        try:
            return ParameterVector.symmetric(m, point["s"], point.get("t"))
        except ValueError as exc:  # s or t not positive, or t at d = 1
            raise click.UsageError(f"--symmetric: {exc}") from exc
    return ParameterVector.zeros(m)


_K = click.option("--k", type=int, default=None, help="Number of rules.")
_D = click.option("--d", type=int, default=None, help="Interaction order.")
_PARAMS = click.option("--params", type=click.Path(exists=True, dir_okay=False),
                       default=None, help="Parameter JSON file.")
_POINT = (
    _K, _D, _PARAMS,
    click.option("--beta", type=str, default=None, help="Inline JSON beta map."),
    click.option("--symmetric", type=str, default=None,
                 help="Symmetric point s=..,t=.."),
)


def _point_options(func):
    """Declare the parameter-point options; the command receives ``theta``."""

    @functools.wraps(func)
    def command(k, d, params, beta, symmetric, **kwargs):
        return func(_resolve_theta(k, d, params, beta, symmetric), **kwargs)

    for option in reversed(_POINT):
        command = option(command)
    return command


def _parse_grid(text: str) -> list[float]:
    """Comma list ("1,0.8,0.5") or range ("0.40:0.43:0.001") of finite numbers."""
    where = f"grid {text!r}"
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise click.UsageError(f"grid {text!r} must be start:stop:step")
        start, stop, step = (_float(p, where) for p in parts)
        if step <= 0:
            raise click.UsageError("grid step must be positive")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        if count < 1:
            raise click.UsageError(f"grid {text!r} is empty")
        return [start + i * step for i in range(count)]
    values = [_float(p, where) for p in text.split(",") if p.strip()]
    if not values:
        raise click.UsageError(f"grid {text!r} is empty")
    return values


def _parse_element(text: str, k: int) -> GroupElement:
    from .symmetry import GroupElement

    perm = tuple(range(1, k + 1))
    flips: tuple[int, ...] = ()
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        key, _, raw = part.partition("=")
        try:
            values = tuple(int(v) for v in raw.split(",") if v.strip())
        except ValueError:
            raise click.UsageError(f"bad integer in element part {part!r}") from None
        if key == "perm":
            perm = values
        elif key == "flips":
            flips = values
        else:
            raise click.UsageError(f"element parts are perm=... or flips=..., got {key!r}")
    try:
        return GroupElement(perm, flips)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


class _Command(click.Command):
    """A subcommand whose domain errors exit 2 (bad input) or 1 (numeric failure).

    An output whose directory is missing or not writable is a usage error,
    raised before the command does any work.
    """

    def invoke(self, ctx):
        for param in self.params:
            path = ctx.params.get(param.name)
            if path is not None and _writes(param):
                folder = os.path.dirname(os.path.abspath(path))
                if not (os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)):
                    raise click.BadParameter(
                        f"directory {folder!r} is missing or not writable", ctx, param
                    )
        try:
            return super().invoke(ctx)
        except InputFormatError as exc:
            raise click.UsageError(str(exc), ctx) from exc
        except (RaschDesignError, ValueError) as exc:
            raise click.ClickException(str(exc)) from exc


class _Group(click.Group):
    command_class = _Command


@click.group(cls=_Group, context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(__version__)
def main() -> None:
    """D-optimal design toolkit for the Rasch Poisson counts model."""


@main.command()
@_point_options
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the listing as JSON instead of text only.")
def inequalities(theta, out):
    """List the corner-optimality inequalities with their values."""
    m = theta.model
    labels, values = corner_lhs(theta, m)
    verdict = _theorem_verdict(values, m)
    violated = set(verdict.violated_labels)
    records = []
    lines = []
    for label, lhs in zip(labels, values.tolist()):
        satisfied = label not in violated
        records.append({"C": list(label), "lhs": lhs, "satisfied": satisfied})
        mark = "ok " if satisfied else "VIOLATED"
        lines.append(f"C={_set(label)}  lhs={_fmt(lhs)}  {mark}")
    state = "optimal" if verdict.optimal else "not-optimal"
    if verdict.boundary:
        state += " (boundary)"
    lines.append(f"verdict: {state}  max-lhs={_fmt(verdict.max_directional_value)}")
    click.echo("\n".join(lines))
    if out:
        payload = {
            "k": m.k,
            "d": m.d,
            "inequalities": records,
            "optimal": verdict.optimal,
            # an empty system (d == k) has no maximum
            "max_lhs": verdict.max_directional_value if labels else None,
        }
        write_json(out, payload)
        _write_manifest()


@main.command()
@_point_options
@click.option("--max-iterations", type=click.IntRange(min=1),
              default=OptimizerConfig.max_iterations, show_default=True)
@click.option("--kw-tolerance", type=click.FloatRange(min=0, min_open=True),
              default=OptimizerConfig.kw_tolerance, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True,
              help="Design JSON output path.")
@click.option("--report", type=click.Path(dir_okay=False), default=None,
              help="Run-report JSON output path.")
def optimize(theta, max_iterations, kw_tolerance, out, report):
    """Compute a D-optimal approximate design for the given parameters."""
    cfg = OptimizerConfig(max_iterations=max_iterations, kw_tolerance=kw_tolerance)
    result = optimize_design(theta, theta.model, cfg)
    save_design(result.design, out)
    if report:
        write_json(report, {
            "iterations": result.iterations, "final_kw_max": result.final_kw_max,
            "log_det": result.log_det, "structure": result.structure.value,
            "converged": result.converged, "support_size": result.support_size,
        })
    click.echo(
        f"structure={result.structure.value}  iterations={result.iterations}"
        f"  kw-max={_fmt(result.final_kw_max)}  log-det={_fmt(result.log_det)}"
    )
    if not result.converged:
        raise click.ClickException("optimizer did not converge within the budget")
    _write_manifest()


@main.command()
@_point_options
@click.option("--design", "design_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Design to certify (default: corner design).")
def certify(theta, design_path):
    """Equivalence-theorem certificate for a design at given parameters."""
    m = theta.model
    w = load_design(design_path, m.k) if design_path else corner_design(m)
    verdict = kw_certificate(w, theta, m)
    click.echo(
        f"verdict: {'optimal' if verdict.optimal else 'not-optimal'}"
        f"  max-sensitivity={_fmt(verdict.max_directional_value)}"
        f"  bound={_fmt(verdict.bound)}"
        f"  worst-setting={''.join(map(str, verdict.worst_setting))}"
    )


@main.command("center-path")
@click.option("--k", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--lambdas", type=str, required=True,
              help="Intensity grid for all singletons: comma list or start:stop:step.")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@click.option("--matrices-out", type=click.Path(dir_okay=False), default=None,
              help="Also dump slice and center matrices as JSON row-major lists.")
def cmd_center_path(k, d, lambdas, out, matrices_out):
    """Analytic-center coordinates along a symmetric intensity path."""

    def rows_of(mat):
        return [[float(v) for v in row] for row in mat]

    grid = _parse_grid(lambdas)
    if any(v <= 0 for v in grid):
        raise click.UsageError("lambda values must be positive")
    m = _model(k, d)
    path = center_path([(lam, ParameterVector.symmetric(m, lam)) for lam in grid], m)
    # the chart dimension can change along the path; shorter rows are padded
    dim = max(len(row.result.coordinates) for row in path.rows)
    header = ["param", *(f"coord_{i + 1}" for i in range(dim)), "log_det", "status",
              "inside"]
    lines = [",".join(header)]
    for row in path.rows:
        res = row.result
        inside = "" if res.inside_polytope is None else str(res.inside_polytope).lower()
        coords = [_fmt(v) for v in res.coordinates]
        lines.append(",".join(
            [_fmt(row.param)]
            + coords + [""] * (dim - len(coords))
            + [_fmt(res.log_det), res.status.value, inside]
        ))
    Path(out).write_text("\n".join(lines) + "\n")
    if matrices_out:
        dump = [
            {
                "param": row.param,
                "labels": list(row.lmi.labels),
                "base": rows_of(row.lmi.base),
                "directions": [rows_of(dmat) for dmat in row.lmi.directions],
                "center": rows_of(row.result.matrix),
            }
            for row in path.rows
        ]
        write_json(matrices_out, dump)
    if path.first_exit is not None:
        click.echo(f"center exits the polytope at param={_fmt(path.first_exit)}")
    _write_manifest()


@main.command("region-slice")
@click.option("--k", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--s-grid", type=str, required=True, help="Comma list or start:stop:step.")
@click.option("--t-grid", type=str, required=True, help="Comma list or start:stop:step.")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def cmd_region_slice(k, d, s_grid, t_grid, out):
    """CSV of symmetric-slice inequality values over an (s, t) grid."""
    m = _slice_model(k, d)
    s_list, t_list = _parse_grid(s_grid), _parse_grid(t_grid)
    blocks = _slice_grid(m, s_list, t_list)
    # each grid value is formatted once, not once per row it appears in
    s_text = {v: _fmt(v) for v in s_list}
    t_text = {v: _fmt(v) for v in t_list}
    header = ["s", "t", *(f"lhs_{c}" for c in range(3, k + 1)), "binding_c", "verdict"]
    # lhs_3..lhs_k; "%.12g" prints the same digits as _fmt
    line = ",".join(["%s", "%s"] + ["%.12g"] * (k - 2) + ["%d", "%s"]) + "\n"
    with open(out, "w") as fh:
        fh.write(",".join(header) + "\n")
        for ss, tt, values, binding, verdict in blocks:
            fh.writelines(map(line.__mod__, zip(
                map(s_text.__getitem__, ss.tolist()),
                map(t_text.__getitem__, tt.tolist()),
                *values.tolist(), binding.tolist(),
                map(_VERDICTS.__getitem__, verdict.tolist()),
            )))
    _write_manifest()


@main.command()
@click.option("--k", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--s-range", type=str, required=True, help="lo:hi for s samples.")
@click.option("--t-range", type=str, required=True, help="lo:hi for t samples.")
@click.option("--samples", type=click.IntRange(min=1), default=100_000,
              show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def probe(k, d, s_range, t_range, samples, seed, out):
    """Redundancy probe: seeded sampling for uniquely violated inequalities."""

    def parse_range(text, name):
        parts = text.split(":")
        if len(parts) != 2:
            raise click.UsageError(f"--{name} must be lo:hi")
        lo, hi = (_float(p, f"--{name} {text!r}") for p in parts)
        if not 0 < lo < hi:
            raise click.UsageError(f"--{name} needs 0 < lo < hi")
        return lo, hi

    m = _slice_model(k, d)
    report = redundancy_probe(
        m, parse_range(s_range, "s-range"), parse_range(t_range, "t-range"),
        samples, seed,
    )
    write_json(out, report.as_dict())
    for c, entry in report.entries.items():
        state = (
            "no witness" if entry.redundant_in_region
            else f"witness at ({_fmt(entry.witness[0])}, {_fmt(entry.witness[1])})"
        )
        click.echo(f"c={c}: {state}  ({entry.n_witness} of {entry.n_violated} violations unique)")
    _write_manifest()


@main.command()
@_K
@_D
@_PARAMS
@click.option("--samples", type=click.IntRange(min=1), default=1000,
              show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--beta-low", type=float, default=-3.0, show_default=True,
              callback=_finite_option)
@click.option("--beta-high", type=float, default=1.0, show_default=True,
              callback=_finite_option)
@click.option("--echo", is_flag=True, help="Single-point mode: print both sensitivity systems.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def compare(k, d, params, samples, seed, beta_low, beta_high, echo, out):
    """Agreement report: inequality system vs. equivalence-theorem oracle.

    With --echo and --params, prints the per-C inequality values next to
    the per-setting saturated sensitivities for one parameter point.
    """
    if echo:
        if out is not None:
            raise click.UsageError("--echo prints one point and writes no file; drop --out")
        theta = _resolve_theta(k, d, params, None, None)
        m = theta.model
        w = corner_design(m)
        labels, values = corner_lhs(theta, m)
        saturated = saturated_kw_values(w, theta, m)
        click.echo("\n".join(
            ["inequality system:"]
            + [f"  C={_set(label)}  lhs={_fmt(lhs)}"
               for label, lhs in zip(labels, values.tolist())]
        ))
        click.echo("saturated sensitivities (value 1 on the support):")
        for x, value in saturated.items():
            click.echo(f"  x={setting_string(x, m.k)}  value={_fmt(value)}")
        return
    if params is not None:
        raise click.UsageError("--params is for --echo mode; grid mode uses --k/--d")
    if k is None or d is None:
        raise click.UsageError("--k and --d are required")
    m = _model(k, d)
    if beta_low >= beta_high:
        raise click.UsageError("--beta-low must be below --beta-high")
    rng = np.random.default_rng(seed)
    w = corner_design(m)
    disagreements = []
    for _ in range(samples):
        values = np.zeros(m.p)
        values[1:] = rng.uniform(beta_low, beta_high, size=m.p - 1)
        theta = ParameterVector(m, values)
        by_theorem = is_corner_optimal_by_theorem(theta, m)
        by_kw = kw_certificate(w, theta, m)
        if by_theorem.optimal != by_kw.optimal:
            disagreements.append({
                "beta": theta.as_dict(),
                "theorem_optimal": by_theorem.optimal,
                "kw_optimal": by_kw.optimal,
                "max_lhs": by_theorem.max_directional_value,
                "kw_max": by_kw.max_directional_value,
            })
    payload = {
        "k": k, "d": d, "samples": samples, "seed": seed,
        "agreements": samples - len(disagreements),
        "disagreements": disagreements,
    }
    click.echo(
        f"agreement: {payload['agreements']}/{samples}"
        f" ({len(disagreements)} disagreements)"
    )
    if out:
        write_json(out, payload)
        _write_manifest()


@main.command()
@_point_options
@click.option("--element", type=str, required=True,
              help='Group element, e.g. "perm=2,1,3;flips=1,3".')
@click.option("--design", "design_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Design to check the transformation law against.")
@click.option("--orbit", is_flag=True, help="List the parameter orbit under the element.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def symmetry(theta, element, design_path, orbit, out):
    """Apply a symmetry to parameters; optionally verify the matrix law."""
    from .symmetry import (
        act_on_design,
        act_on_parameters,
        parameter_orbit,
        representation_matrix,
        verify_transformation,
    )

    m = theta.model
    g = _parse_element(element, m.k)
    rep = representation_matrix(g, m)
    moved = act_on_parameters(g, theta, m)
    click.echo(f"|det Q| = {abs(rep.det)}")
    click.echo("transformed beta: " + json.dumps(moved.as_dict(), allow_nan=False))
    if orbit:
        orbit_list = [point.as_dict() for point in parameter_orbit(g, theta, m)]
        click.echo(f"orbit size {len(orbit_list)}")
    if design_path:
        w = load_design(design_path, m.k)
        report = verify_transformation(g, w, theta, m)
        click.echo(
            f"transformation residual={_fmt(report.max_residual)}"
            f"  det-difference={_fmt(report.det_difference)}"
        )
        moved_design = act_on_design(g, w)
        click.echo(
            "transformed design support: "
            + ",".join(setting_string(x, m.k) for x in moved_design.support)
        )
    if out:
        payload = orbit_list if orbit else [moved.as_dict()]
        write_json(out, payload)
        _write_manifest()


if __name__ == "__main__":
    sys.exit(main())
