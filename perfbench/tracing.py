"""Spans around the public functions of each ``raschdesign`` module.

Wrappers go on the public names in every module namespace that holds
them, so a call through ``regions.fisher_information`` is seen as well as
one through ``model.fisher_information``.  Work in private helpers (for
example ``optimizer._evaluate``) is only seen as part of its public
caller.  Spans stay in memory; self times are derived from them at the
end.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass

#: Module namespaces searched for wrapped names.
MODULES = ("", ".model", ".regions", ".optimizer", ".geometry", ".symmetry",
           ".serialize", ".cli")

#: (defining module, public function) pairs that get a span.
TRACED = {
    "model": ("fisher_information", "regression_matrix"),
    "regions": ("corner_inequalities", "evaluate_inequality",
                "is_corner_optimal_by_theorem", "sensitivities", "kw_certificate",
                "saturated_kw_values", "region_slice", "redundancy_probe"),
    "optimizer": ("optimize_design", "find_transition"),
    "geometry": ("polytope_vertices", "analytic_center", "log_det_gradient_hessian",
                 "polytope_membership", "center_path"),
    "symmetry": ("representation_matrix", "verify_transformation"),
    "serialize": ("load_parameters", "load_design", "save_design"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    #: What the name's result hook kept from the call, if it has a hook.
    result: object = None


def _optimizer_flops(iterations: int, m) -> float:
    """Operation count of the multiplicative ascent, computed, not measured.

    Per iteration over n = 2^k settings and p parameters: forming M costs
    2 n p^2, its Cholesky factor p^3 / 3, the sensitivity solve 2 n p^2
    and the row contraction 2 n p.
    """
    n, p = 1 << m.k, m.p
    return iterations * (4.0 * n * p * p + p ** 3 / 3.0 + 2.0 * n * p)


def _optimize_record(args, kwargs, result) -> dict:
    m = args[1] if len(args) > 1 else kwargs["m"]
    return {"iterations": result.iterations, "converged": result.converged,
            "support": result.support_size,
            "flops": _optimizer_flops(result.iterations, m)}


def _center_record(args, kwargs, result) -> dict:
    return {"iterations": result.iterations, "status": result.status.value}


#: Counts kept from return values, recorded at the same boundary as the span.
RESULT_HOOKS = {
    "optimizer.optimize_design": _optimize_record,
    "geometry.analytic_center": _center_record,
}


class Tracer:
    """Records nested spans; ``install`` wraps the traced functions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.run_id = ""
        self._undo: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        hook = RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if hook is not None:
                self.spans[index].result = hook(args, kwargs, result)
            return result
        return wrapper

    def install(self, package: str = "raschdesign") -> None:
        modules = [importlib.import_module(package + suffix) for suffix in MODULES]
        for owner, names in TRACED.items():
            defining = importlib.import_module(f"{package}.{owner}")
            for fname in names:
                original = getattr(defining, fname)
                wrapper = self._wrap(f"{owner}.{fname}", original)
                for module in modules:
                    if getattr(module, fname, None) is original:
                        self._undo.append((module, fname, original))
                        setattr(module, fname, wrapper)

    def uninstall(self) -> None:
        for module, fname, original in reversed(self._undo):
            setattr(module, fname, original)
        self._undo.clear()

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out

    def dump(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "run_id": s.run_id} for s in self.spans]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer counts and self times, with their units, from the recorded spans."""
    self_s = tracer.self_times()
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    for span, own in zip(tracer.spans, self_s):
        calls[span.name] += 1
        busy[span.name] += own

    def within(span: Span, name: str) -> bool:
        parent = span.parent
        while parent is not None:
            if tracer.spans[parent].name == name:
                return True
            parent = tracer.spans[parent].parent
        return False

    opt = [s for s in tracer.spans if s.name == "optimizer.optimize_design"
           and s.result is not None]
    iterations = sum(s.result["iterations"] for s in opt)
    centers = [s.result for s in tracer.spans
               if s.name == "geometry.analytic_center" and s.result is not None]
    newton = sum(c["iterations"] for c in centers)

    out: dict[str, tuple[float, str]] = {}
    for name in ("optimizer.optimize_design", "model.fisher_information",
                 "model.regression_matrix", "regions.corner_inequalities",
                 "regions.evaluate_inequality", "regions.is_corner_optimal_by_theorem",
                 "regions.sensitivities", "geometry.polytope_vertices",
                 "geometry.analytic_center", "geometry.log_det_gradient_hessian",
                 "geometry.polytope_membership", "symmetry.representation_matrix"):
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (busy[name], "s")
    for name in ("regions.kw_certificate", "regions.saturated_kw_values",
                 "regions.region_slice", "regions.redundancy_probe",
                 "symmetry.verify_transformation"):
        out[f"{name}.self_s"] = (busy[name], "s")
    out["optimizer.iterations"] = (iterations, "count")
    out["optimizer.s_per_iteration"] = (
        _ratio(busy["optimizer.optimize_design"], iterations), "s")
    out["optimizer.converged_ratio"] = (
        _ratio(sum(s.result["converged"] for s in opt), len(opt)), "ratio")
    out["optimizer.support_points"] = (sum(s.result["support"] for s in opt), "count")
    out["optimizer.flops_computed"] = (sum(s.result["flops"] for s in opt), "flop")
    out["optimizer.transition_optimize_calls"] = (_ratio(
        sum(within(s, "optimizer.find_transition") for s in opt),
        calls["optimizer.find_transition"]), "count")
    out["geometry.newton_iterations"] = (newton, "count")
    out["geometry.newton_accept_ratio"] = (
        _ratio(newton, calls["geometry.log_det_gradient_hessian"]), "ratio")
    out["geometry.unbounded_count"] = (
        sum(c["status"] == "unbounded" for c in centers), "count")
    out["cli.self_s"] = (sum(own for s, own in zip(tracer.spans, self_s)
                             if s.name.startswith("cli.")), "s")
    out["serialize.self_s"] = (
        sum(v for k, v in busy.items() if k.startswith("serialize.")), "s")
    return out
