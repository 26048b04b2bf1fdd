"""D-optimal approximate designs by multiplicative ascent with vertex exchange.

The iteration w_x <- w_x * d(x) / p, with d(x) the sensitivity
lambda(x) f(x)^T M(w)^{-1} f(x), has the D-optimal designs as its fixed
points and never decreases log det M.  Every run starts from the uniform
design on all 2^k settings and stops by the equivalence theorem, at the
rule ``kw_certificate`` applies: max_x d(x) <= p (1 + KW_TOL).  So a
converged result is a design the certificate calls optimal; a run that
exhausts ``MAX_ITERATIONS`` (or a smaller budget) says so.  M and d
come from two identities on the 2^k subset lattice, each one zeta
transform: M_AB sums w_x lambda(x) over x containing A|B, and
f(x)^T M^{-1} f(x) sums (M^{-1})_AB over A|B inside x.  An iteration
costs O(k 2^k + p^3) time and O(2^k + p^2) memory.

Near a change of optimal support the multiplicative step crawls, so
each iteration after the first may put one vertex-exchange step
(Boehning 1986, Metrika 33:337-347; the first half of Yu's cocktail
algorithm, Stat. Comput. 21:475-481, 2011) before it.  The step moves
weight alpha from k, the support point with the smallest d, to
j = argmax d.  With a_x = sqrt(lambda_x) f(x) and d_jk = a_j^T M^{-1} a_k,
log det grows by log phi, where

    phi = (1 + alpha d_j)(1 - alpha d_k) + alpha^2 d_jk^2,

which is largest at alpha = (d_j - d_k) / (2 (d_j d_k - d_jk^2)), clipped
to (0, w_k].  The step is taken only when log phi is at least the gain
of the preceding multiplicative step, so no constant tunes it; it is
skipped at iteration 0 and right after a deletion, where that gain is
unknown.  The sensitivities of the new design follow from a rank-2
identity, d'(x) = d(x) - lambda_x v_x^T C^{-1} v_x with
v_x = (f(x)^T z_j, f(x)^T z_k), z = M^{-1} a and
C = diag(1/alpha, -1/alpha) + A^T M^{-1} A for A = (a_j, a_k).  f(x)^T z
for every x is one zeta transform of z placed on the masks, and an
LDL^T split of the 2 x 2 form needs two such transforms with one 2^k
buffer, so no second factorization is needed; the multiplicative step
then uses d'.  A step not taken costs O(2^k + p^2): the argmin over the
support and d_jk.  A step taken adds two zeta transforms, O(k 2^k).

After every step that did not stop, settings that cannot carry weight in
any D-optimal design are deleted from the support by the bound of Harman
and Pronzato (2007, Stat. Probab. Lett. 77:90-94): with the gap
eps = max_x d(x) - p, a setting with

    d(x) < p (1 + eps/2 - sqrt(eps (4 + eps - 4/p)) / 2)

lies outside every D-optimal support.  The remaining support contains
every optimal one, which spans R^p, so deletion never loses rank.

D-optimal weights on p points are uniform.  So a run that converges on
more than p settings evaluates, once, the uniform design on its p
heaviest settings, and returns that design when it is nonsingular and
passes the same KW test; near the end of the corner region this turns
a run that stopped with a small weight left on an extra setting into
the saturated optimum.  The iteration is deterministic.

An exchangeable parameter (``ParameterVector.exchangeable``: beta_A
depends on |A| alone) runs the same ascent on the k + 1 orbit weights
omega_c, orbit c being the C(k,c) settings with c active rules.  The
D-optimal M is unique, so an invariant design attains it (Pukelsheim,
Optimal Design of Experiments, 1993, ch. 13).  M of an invariant design
splits into Schrijver's blocks (IEEE Trans. IT 51, 2005): block
r = 0..min(d, k//2), of size at most d + 1, occurs C(k,r) - C(k,r-1) times
and is B_r = sum_c omega_c lambda_c h_rc h_rc^T, with
h_rc[i] = sqrt(C(c-r, i-r) C(k-i-r, c-i) / C(k,c)) for i = r..min(d, k-r)
(``_orbits``).  Then log det M = sum_r mu_r log det B_r and d is constant on
each orbit, so an iteration costs O(k d^3) and no p x p array exists.  The
exchange moves weight between whole orbits, from the argmin-d orbit of
the support to the argmax-d orbit, with its length from an exact Newton
line search on sum_r mu_r log det(B_r + alpha Delta_r); deletion removes
whole orbits; the snap takes the orbits of largest per-setting weight
when their sizes add up to exactly p, also when the support is those
orbits already, so a saturated result has weights 1/p exactly.  The
result spreads omega_c evenly over orbit c.  Every other parameter runs
on the 2^k lattice, which stays the orbit path's test oracle
(``_optimize_on_lattice``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from ._lattice import zeta
from ._numpy import np
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
from .regions import KW_TOL

#: Iteration budget of ``optimize_design`` and ``find_transition``.
MAX_ITERATIONS = 200_000
#: Absolute deviation from 1/n or 1/p that uniform and corner weights may show.
STRUCTURE_TOL = 1e-6


class DesignStructure(Enum):
    UNIFORM = "uniform"
    CORNER = "corner"
    SATURATED_OTHER = "saturated-other"
    INTERIOR = "interior"


@dataclass(frozen=True, eq=False)
class OptimizerResult:
    design: Design
    iterations: int
    final_kw_max: float
    log_det: float
    structure: DesignStructure
    converged: bool
    #: log det per evaluated iterate (ascending within each support segment);
    #: a snapped result's own log det is ``log_det``, not the last entry.
    log_det_trace: np.ndarray = field(repr=False)
    #: trace indices after which settings left the support: a
    #: Harman-Pronzato deletion or an exchange step that emptied w_k.
    prune_iterations: tuple[int, ...]
    support_size: int
    caratheodory_ok: bool


def caratheodory_bound(m: InteractionModel) -> int:
    """Support size p(p-1)/2 + 1 that always suffices for any information matrix."""
    return m.p * (m.p - 1) // 2 + 1


def classify_structure(w: Design, m: InteractionModel) -> DesignStructure:
    """Uniform / corner / other-saturated / interior, by support and weights."""
    support = set(w.support)
    n = 1 << m.k
    if len(support) == n and all(
        abs(v - 1.0 / n) <= STRUCTURE_TOL for v in w.weights.values()
    ):
        return DesignStructure.UNIFORM
    # the settings with at most d active rules are the parameter masks
    if support == set(m.masks) and all(
        abs(v - 1.0 / m.p) <= STRUCTURE_TOL for v in w.weights.values()
    ):
        return DesignStructure.CORNER
    if len(support) == m.p:
        return DesignStructure.SATURATED_OTHER
    return DesignStructure.INTERIOR


def _exchange(
    w: np.ndarray,
    d: np.ndarray,
    j: int,
    minv: np.ndarray,
    lam: np.ndarray,
    masks: np.ndarray,
    gain: float,
) -> tuple[np.ndarray, float, bool] | None:
    """Optimal-length vertex exchange to the best setting ``j = argmax d``.

    Moves weight alpha from k, the argmin of d over the support, to j
    when the exact log det gain log(phi) is at least ``gain``.  Returns
    the sensitivities of the new design, log(phi) and whether w_k was
    emptied, and updates ``w`` in place; returns None and leaves ``w``
    alone when the step is not taken.
    """
    k = int(np.where(w > 0, d, np.inf).argmin())
    d_j, d_k, w_k = float(d[j]), float(d[k]), float(w[k])
    # phi(alpha) <= 1 + alpha (d_j - d_k) for alpha <= w_k, since d_jk^2 <= d_j d_k
    if math.log1p(w_k * (d_j - d_k)) < gain:
        return None
    in_k = (masks & k) == masks
    u_j = ((masks & j) == masks) @ minv  # M^{-1} f_j, as M^{-1} is symmetric
    root_j, root_k = math.sqrt(lam[j]), math.sqrt(lam[k])
    d_jk = root_j * root_k * float(u_j @ in_k)
    det_g = d_j * d_k - d_jk * d_jk
    alpha = w_k if det_g <= 0.0 else min((d_j - d_k) / (2.0 * det_g), w_k)
    log_phi = math.log1p(alpha * (d_j - d_k) - alpha * alpha * det_g)
    if log_phi < gain:
        return None

    # d'(x) = d(x) - lambda_x v_x^T C^{-1} v_x with v_x = (f_x^T z_j, f_x^T z_k);
    # as c_jj > 0, v^T C^{-1} v = v_j^2 / c_jj + (c_jj / det C) (f_x^T y)^2
    # with y = z_k - (d_jk / c_jj) z_j, so two one-row transforms serve
    c_jj = 1.0 / alpha + d_j
    det_c = c_jj * (d_k - 1.0 / alpha) - d_jk * d_jk
    z_j = root_j * u_j
    y = root_k * (in_k @ minv) - (d_jk / c_jj) * z_j
    update = np.zeros_like(d)
    lattice = np.empty_like(d)
    for vec, scale in ((z_j, 1.0 / c_jj), (y, c_jj / det_c)):
        lattice.fill(0.0)
        lattice[masks] = vec
        zeta(lattice)
        lattice *= lattice
        lattice *= scale
        update += lattice
    update *= lam
    emptied = alpha == w_k
    w[j] += alpha
    w[k] = 0.0 if emptied else w_k - alpha
    return np.subtract(d, update, out=update), log_phi, emptied


class _Lattice:
    """The ascent's kernel on the weights of all 2^k settings."""

    def __init__(self, theta: ParameterVector, m: InteractionModel) -> None:
        self.m = m
        self.lam = intensities(theta.with_base_zero(), m)
        self.masks = np.asarray(m.masks, dtype=np.intp)

    def start(self) -> np.ndarray:
        """The uniform design on all 2^k settings."""
        n = 1 << self.m.k
        return np.full(n, 1.0 / n)

    def evaluate(self, w: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """log det M, the sensitivities d(x) and M^{-1} for the weights ``w``."""
        try:
            low = _cholesky(_information(w * self.lam, self.m))
        except np.linalg.LinAlgError as exc:
            raise SingularInformation(
                "information matrix of the current iterate is singular"
            ) from exc
        minv, d = _sensitivities(low, self.lam, self.m)
        return 2.0 * float(np.sum(np.log(np.diag(low)))), d, minv

    def exchange(self, w, d, j, minv, gain):
        """``_exchange`` on this kernel's intensities and masks."""
        return _exchange(w, d, j, minv, self.lam, self.masks, gain)

    def saturated(self, w: np.ndarray) -> tuple[np.ndarray, Design] | None:
        """The uniform design on the p heaviest settings, as weights and as a
        ``Design``, or None when the run is saturated already."""
        m = self.m
        support = np.flatnonzero(w)
        if len(support) <= m.p:
            return None
        top = support[np.argpartition(w[support], len(support) - m.p)[len(support) - m.p:]]
        weight = 1.0 / m.p
        uniform = np.zeros_like(w)
        uniform[top] = weight
        return uniform, Design(m.k, dict.fromkeys(top.tolist(), weight))

    def design(self, w: np.ndarray) -> Design:
        """The design with weight ``w[x]`` on each setting x."""
        return Design(self.m.k, {int(x): float(w[x]) for x in np.nonzero(w)[0]})


def optimize_design(
    theta: ParameterVector,
    m: InteractionModel,
    max_iterations: int = MAX_ITERATIONS,
) -> OptimizerResult:
    """Run the ascent from the uniform design.

    Raises ``ValueError`` when ``max_iterations < 1``,
    ``SingularInformation`` when an iterate's information matrix does not
    span, and ``MonotonicityError`` if log det ever
    decreases across exchange and multiplicative steps (a
    broken-sensitivity symptom).  A run that exhausts ``max_iterations``
    returns the last iterate with ``converged=False``.

    The ascent runs at base parameter 0 (``ParameterVector.with_base_zero``),
    so the weights and iterations have the same bits at every base
    parameter; ``log_det`` and ``log_det_trace`` add p beta_empty back and
    stay the log det of M(w) at ``theta``.  An exchangeable ``theta`` runs
    on the k + 1 orbit weights, any other on the 2^k lattice.
    """
    if theta.exchangeable:
        from ._orbits import Orbits

        return _optimize(Orbits, theta, m, max_iterations)
    return _optimize_on_lattice(theta, m, max_iterations)


def _optimize_on_lattice(
    theta: ParameterVector,
    m: InteractionModel,
    max_iterations: int = MAX_ITERATIONS,
) -> OptimizerResult:
    """``optimize_design`` on the 2^k lattice, whatever ``theta``: the path of
    a parameter that is not exchangeable and the orbit path's oracle."""
    return _optimize(_Lattice, theta, m, max_iterations)


def _optimize(kernel_type, theta, m, max_iterations) -> OptimizerResult:
    """The ascent on the kernel ``kernel_type(theta, m)``, as a result."""
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    kernel = kernel_type(theta, m)
    p = float(m.p)
    w = kernel.start()

    trace: list[float] = []
    prunes: list[int] = []
    last_log_det: float | None = None
    converged = False
    kw_max = math.inf
    log_det = -math.inf
    iterations = 0

    for iterations in range(max_iterations + 1):
        log_det, d, state = kernel.evaluate(w)
        trace.append(log_det)
        if last_log_det is not None and log_det < last_log_det - 1e-12 * max(
            1.0, abs(last_log_det)
        ):
            raise MonotonicityError(
                f"log det fell from {last_log_det!r} to {log_det!r} "
                f"at iteration {iterations}"
            )
        gain = None if last_log_det is None else log_det - last_log_det
        last_log_det = log_det
        _check_average(w, d, p, iterations)

        best = int(np.argmax(d))
        kw_max = float(d[best])
        if kw_max <= p * (1.0 + KW_TOL):
            converged = True
            break
        if iterations == max_iterations:
            break

        step_d = d
        if gain is not None:
            step = kernel.exchange(w, d, best, state, gain)
            if step is not None:
                step_d, log_phi, emptied = step
                last_log_det += log_phi
                if emptied:
                    prunes.append(len(trace) - 1)
                _check_average(w, step_d, p, iterations)
            del step
        # no p x p or second 2^k array lives into the next factorization
        del state

        # w_x d(x) / p, normalized; zero weights stay zero, as d is finite
        w *= step_d
        del step_d
        w /= w.sum()

        # Harman-Pronzato deletion; the KW check failed, so eps > 0.  The
        # bound speaks of every optimal design, so d of the iterate before
        # the exchange serves as well as d'.
        eps = kw_max - p
        bound = p * (1.0 + eps / 2.0 - math.sqrt(eps * (4.0 + eps - 4.0 / p)) / 2.0)
        hopeless = (w > 0) & (d < bound)
        if hopeless.any():
            w[hopeless] = 0.0
            w /= w.sum()
            prunes.append(len(trace) - 1)
            last_log_det = None  # support changed; ascent restarts from here

    # the snap then needs about as much memory as an iteration
    del state, d
    snapped = _snap(kernel, w, p) if converged else None
    if snapped is None:
        design = kernel.design(w)
    else:
        design, log_det, kw_max = snapped
    support_size = len(design.support)
    # M(w) at the base parameter is e^beta_empty times the M(w) iterated on
    scale = m.p * float(theta.values[0])
    return OptimizerResult(
        design=design,
        iterations=iterations,
        final_kw_max=kw_max,
        log_det=log_det + scale,
        structure=classify_structure(design, m),
        converged=converged,
        log_det_trace=np.asarray(trace) + scale,
        prune_iterations=tuple(prunes),
        support_size=support_size,
        caratheodory_ok=support_size <= caratheodory_bound(m),
    )


def _snap(kernel, w: np.ndarray, p: float) -> tuple[Design, float, float] | None:
    """The kernel's saturated design, if it is nonsingular and passes the KW test.

    D-optimal weights on p points are uniform, so a run that converged
    next to a saturated optimum ends here.  Returns that design, its log
    det and max d, or None.
    """
    candidate = kernel.saturated(w)
    if candidate is None:
        return None
    uniform, design = candidate
    try:
        log_det, d = kernel.evaluate(uniform)[:2]
    except SingularInformation:
        return None
    kw_max = float(np.max(d))
    if kw_max > p * (1.0 + KW_TOL):
        return None
    return design, log_det, kw_max


def _check_average(w: np.ndarray, d: np.ndarray, p: float, iterations: int) -> None:
    """Raise unless sum_x w_x d(x) = p, the trace of M^{-1} M."""
    mean_d = float(w @ d)
    if abs(mean_d - p) > 1e-9 * p:
        raise NumericalCheckError(
            f"sum of w_x d(x) = {mean_d!r} deviates from p = {p} "
            f"at iteration {iterations}"
        )


def find_transition(
    path: Callable[[float], ParameterVector],
    m: InteractionModel,
    predicate: Callable[[OptimizerResult], bool],
    bracket: tuple[float, float],
    tol: float = 1e-3,
    max_iterations: int = MAX_ITERATIONS,
) -> float:
    """Bisection for the parameter value where a structure predicate flips.

    ``path`` maps a scalar to a parameter vector; the predicate must take
    different values at the two bracket ends, else ``NoBracket`` is raised.
    Every optimizer run must converge, else ``NumericalCheckError`` names
    the parameter value and the budget.  Returns the bracket midpoint once
    its width is below ``tol``.
    """
    def verdict(value: float) -> bool:
        result = optimize_design(path(value), m, max_iterations)
        if not result.converged:
            raise NumericalCheckError(
                f"optimizer did not converge at parameter {value!r} within "
                f"max_iterations={max_iterations}"
            )
        return predicate(result)

    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError(f"invalid bracket {bracket}")
    value_lo = verdict(lo)
    value_hi = verdict(hi)
    if value_lo == value_hi:
        raise NoBracket(
            f"predicate is {value_lo} at both ends of [{lo}, {hi}]"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if verdict(mid) == value_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
