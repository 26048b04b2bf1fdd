"""D-optimal approximate designs by multiplicative weight ascent.

The iteration w_x <- w_x * d(x) / p, with d(x) the sensitivity
lambda(x) f(x)^T M(w)^{-1} f(x), has the D-optimal designs as its fixed
points and never decreases log det M.  Convergence is declared through
the equivalence theorem: stop when max_x d(x) <= p (1 + tol).  M and d
come from two identities on the 2^k subset lattice, each one zeta
transform: M_AB sums w_x lambda(x) over x containing A|B, and
f(x)^T M^{-1} f(x) sums (M^{-1})_AB over A|B inside x.  An iteration
costs O(k 2^k + p^3) time and O(2^k + p^2) memory.

After every step that did not stop, settings that cannot carry weight in
any D-optimal design are deleted from the support by the bound of Harman
and Pronzato (2007, Stat. Probab. Lett. 77:90-94): with the gap
eps = max_x d(x) - p, a setting with

    d(x) < p (1 + eps/2 - sqrt(eps (4 + eps - 4/p)) / 2)

lies outside every D-optimal support.  The remaining support contains
every optimal one, which spans R^p, so deletion never loses rank.  The
iteration itself is deterministic (uniform seed design, no randomness).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .exceptions import (
    MonotonicityError,
    NoBracket,
    NumericalCheckError,
    SingularInformation,
)
from .model import (
    Design,
    InteractionModel,
    ParameterVector,
    _cholesky,
    _information,
    _sensitivities,
    intensities,
)


class DesignStructure(Enum):
    UNIFORM = "uniform"
    CORNER = "corner"
    SATURATED_OTHER = "saturated-other"
    INTERIOR = "interior"


@dataclass(frozen=True)
class OptimizerConfig:
    """Iteration limits and tolerances of the multiplicative ascent."""

    max_iterations: int = 200_000
    kw_tolerance: float = 1e-7
    seed_design: Design | None = None

    def __post_init__(self) -> None:
        if self.kw_tolerance <= 0:
            raise ValueError("kw_tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True, eq=False)
class OptimizerResult:
    design: Design
    iterations: int
    final_kw_max: float
    log_det: float
    structure: DesignStructure
    converged: bool
    #: log det per evaluated iterate (ascending within each support segment).
    log_det_trace: np.ndarray = field(repr=False)
    #: trace indices after which settings were deleted from the support.
    prune_iterations: tuple[int, ...]
    support_size: int
    caratheodory_ok: bool


def caratheodory_bound(m: InteractionModel) -> int:
    """Support size p(p-1)/2 + 1 that always suffices for any information matrix."""
    return m.p * (m.p - 1) // 2 + 1


def classify_structure(
    w: Design, m: InteractionModel, tol: float = 1e-6
) -> DesignStructure:
    """Uniform / corner / other-saturated / interior, by support and weights."""
    support = set(w.support)
    n = 1 << m.k
    if len(support) == n and all(
        abs(v - 1.0 / n) <= tol for v in w.weights.values()
    ):
        return DesignStructure.UNIFORM
    corner = {x for x in m.settings() if x.bit_count() <= m.d}
    if support == corner and all(
        abs(v - 1.0 / m.p) <= tol for v in w.weights.values()
    ):
        return DesignStructure.CORNER
    if len(support) == m.p:
        return DesignStructure.SATURATED_OTHER
    return DesignStructure.INTERIOR


def optimize_design(
    theta: ParameterVector,
    m: InteractionModel,
    cfg: OptimizerConfig | None = None,
) -> OptimizerResult:
    """Run the multiplicative ascent from the seed design (uniform by default).

    Raises ``SingularInformation`` when the seed design's information
    matrix does not span, and ``MonotonicityError`` if log det ever
    decreases across multiplicative steps (a broken-sensitivity symptom).
    A run that exhausts ``max_iterations`` returns the last iterate with
    ``converged=False``.
    """
    cfg = cfg or OptimizerConfig()
    n = 1 << m.k
    p = float(m.p)
    lam = intensities(theta, m)

    w = np.zeros(n)
    if cfg.seed_design is None:
        w[:] = 1.0 / n
    else:
        if cfg.seed_design.k != m.k:
            raise ValueError("seed design does not match the model's rule count")
        for mask, value in cfg.seed_design.weights.items():
            w[mask] = value

    trace: list[float] = []
    prunes: list[int] = []
    last_log_det: float | None = None
    converged = False
    kw_max = math.inf
    log_det = -math.inf
    iterations = 0

    for iterations in range(cfg.max_iterations + 1):
        try:
            low = _cholesky(_information(w * lam, m))
        except np.linalg.LinAlgError as exc:
            raise SingularInformation(
                "information matrix of the current iterate is singular"
            ) from exc
        log_det = 2.0 * float(np.sum(np.log(np.diag(low))))
        d = _sensitivities(low, lam, m)
        trace.append(log_det)
        if last_log_det is not None and log_det < last_log_det - 1e-12 * max(
            1.0, abs(last_log_det)
        ):
            raise MonotonicityError(
                f"log det fell from {last_log_det!r} to {log_det!r} "
                f"at iteration {iterations}"
            )
        last_log_det = log_det

        mean_d = float(w @ d)
        if abs(mean_d - p) > 1e-9 * p:
            raise NumericalCheckError(
                f"sum of w_x d(x) = {mean_d!r} deviates from p = {p} "
                f"at iteration {iterations}"
            )

        kw_max = float(np.max(d))
        if kw_max <= p * (1.0 + cfg.kw_tolerance):
            converged = True
            break
        if iterations == cfg.max_iterations:
            break

        active = w > 0
        w[active] *= d[active] / p
        w /= w.sum()

        # Harman-Pronzato deletion; the KW check failed, so eps > 0.
        eps = kw_max - p
        bound = p * (1.0 + eps / 2.0 - math.sqrt(eps * (4.0 + eps - 4.0 / p)) / 2.0)
        hopeless = (w > 0) & (d < bound)
        if hopeless.any():
            w[hopeless] = 0.0
            w /= w.sum()
            prunes.append(len(trace) - 1)
            last_log_det = None  # support changed; ascent restarts from here

    design = Design(m.k, {int(x): float(w[x]) for x in np.nonzero(w)[0]})
    support_size = len(design.support)
    return OptimizerResult(
        design=design,
        iterations=iterations,
        final_kw_max=kw_max,
        log_det=log_det,
        structure=classify_structure(design, m, tol=10 * cfg.kw_tolerance),
        converged=converged,
        log_det_trace=np.asarray(trace),
        prune_iterations=tuple(prunes),
        support_size=support_size,
        caratheodory_ok=support_size <= caratheodory_bound(m),
    )


def find_transition(
    path: Callable[[float], ParameterVector],
    m: InteractionModel,
    predicate: Callable[[OptimizerResult], bool],
    bracket: tuple[float, float],
    tol: float = 1e-3,
    cfg: OptimizerConfig | None = None,
) -> float:
    """Bisection for the parameter value where a structure predicate flips.

    ``path`` maps a scalar to a parameter vector; the predicate must take
    different values at the two bracket ends, else ``NoBracket`` is raised.
    Returns the bracket midpoint once its width is below ``tol``.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError(f"invalid bracket {bracket}")
    value_lo = predicate(optimize_design(path(lo), m, cfg))
    value_hi = predicate(optimize_design(path(hi), m, cfg))
    if value_lo == value_hi:
        raise NoBracket(
            f"predicate is {value_lo} at both ends of [{lo}, {hi}]"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if predicate(optimize_design(path(mid), m, cfg)) == value_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
