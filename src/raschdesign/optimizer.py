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
algorithm, Stat. Comput. 21:475-481, 2011) before it, written once for
both kernels (``_exchange``).  It moves weight alpha from a, the support
point with the smallest d, to j = argmax d.  M splits into blocks r of
multiplicity mu_r (one block, mu = 1, on the lattice; Schrijver's blocks
on the orbits, below), each changed by a rank-2 term, so log det grows by
f(alpha) = sum_r mu_r log phi_r with

    phi_r = 1 + alpha s_r - alpha^2 t_r,  s_r = P_r - N_r,  t_r = P_r N_r - X_r^2 >= 0,

where P_r and N_r are block r's shares of d_j and d_a (sum_r mu_r P_r = d_j)
and X_r their cross term; on the lattice P = d_j, N = d_a and
X = a_j^T M^{-1} a_a for a_x = sqrt(lambda_x) f(x).  For one block the
concave f peaks on (0, w_a] at min(s / 2t, w_a); for more, a safeguarded
Newton run on f' finds the peak (``_step_length``).  As log is concave,
f(alpha) <= n log(1 + alpha (d_j - d_a) / n) with n = sum_r mu_r, which
screens a step before any block is read.  The step is taken only when
f(alpha) is at least the gain of the preceding multiplicative step, so no
constant tunes it; it is skipped at iteration 0 and right after a
deletion, where that gain is unknown.  The multiplicative step then uses
the new d: the lattice's rank-2 update (``_Lattice.moved``) or the orbits'
evaluation.  On the lattice a step not taken costs O(2^k + p^2), and one
taken adds two zeta transforms, O(k 2^k).

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
exchange moves weight between whole orbits, and deletion removes whole
orbits; the snap takes the orbits of largest per-setting weight when
their sizes add up to exactly p, also when the support is those orbits
already, so a saturated result has weights 1/p exactly.  The result
spreads omega_c evenly over orbit c.  Every other parameter runs on the
2^k lattice, which stays the orbit path's test oracle
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
    #: Harman-Pronzato deletion or an exchange step that emptied w_a.
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


def _exchange(kernel, w, d, j, state, gain):
    """Move weight alpha from a, the argmin of d over the support, to
    ``j = argmax d`` when the gain log(phi) is at least ``gain``; ``state`` is
    ``kernel.evaluate``'s third value.  Updates ``w`` in place and returns the
    new sensitivities, log(phi) and whether w_a was emptied, else None."""
    a = int(np.where(w > 0, d, np.inf).argmin())
    w_a = float(w[a])
    n = sum(kernel.mu.tolist())
    # f(alpha) <= n log(1 + w_a (d_j - d_a) / n) on (0, w_a], by concavity
    if n * math.log1p(w_a * float(d[j] - d[a]) / n) < gain:
        return None
    s, t, carry = kernel.pair(d, state, j, a)
    alpha, log_phi = _step_length(s, t, kernel.mu, w_a)
    if log_phi < gain:
        return None
    emptied = alpha == w_a
    w[j] += alpha
    w[a] = 0.0 if emptied else w_a - alpha
    return kernel.moved(w, d, carry, alpha), log_phi, emptied


def _step_length(s, t, mu, w_a: float) -> tuple[float, float]:
    """The alpha in (0, w_a] that maximizes f(alpha) = sum_r mu_r log phi_r,
    phi_r = 1 + alpha s_r - alpha^2 t_r, for t_r >= 0 and f'(0) > 0, and
    f(alpha)."""
    if len(s) == 1:
        s_0, t_0 = float(s[0]), float(t[0])
        alpha = w_a if t_0 <= 0.0 else min(s_0 / (2.0 * t_0), w_a)
        return alpha, float(mu[0]) * math.log1p(alpha * (s_0 - alpha * t_0))

    def slope(alpha):
        """f'(alpha) and f''(alpha), or None where some phi_r <= 0."""
        phi = 1.0 + alpha * (s - alpha * t)
        if not (phi > 0.0).all():
            return None
        share = (s - 2.0 * alpha * t) / phi
        return float(mu @ share), -float(mu @ (share * share + 2.0 * t / phi))

    value = slope(w_a)
    if value is not None and value[0] >= 0.0:
        alpha = w_a
    else:
        # Newton inside the bracket (lo, hi): f' > 0 at lo, and f' <= 0
        # or some phi_r <= 0 at hi; a step that leaves it bisects
        lo, hi, alpha = 0.0, w_a, 0.0
        for _ in range(100):
            value = slope(alpha)
            if value is None:
                hi = alpha
                step = 0.5 * (lo + hi)
            elif value[0] == 0.0:
                break
            else:
                if value[0] > 0.0:
                    lo = alpha
                else:
                    hi = alpha
                step = alpha - value[0] / value[1]
                if not lo < step < hi:
                    step = 0.5 * (lo + hi)
            done = abs(step - alpha) <= 1e-15 * step
            alpha = step
            if done:
                break
    return alpha, float(mu @ np.log1p(alpha * (s - alpha * t)))


class _Lattice:
    """The ascent's kernel on the weights of all 2^k settings: one block."""

    def __init__(self, theta: ParameterVector, m: InteractionModel) -> None:
        self.m = m
        self.lam = intensities(theta.with_base_zero(), m)
        self.masks = np.asarray(m.masks, dtype=np.intp)
        self.mu = np.ones(1)

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

    def pair(self, d, minv, j, a):
        """s = d_j - d_a and t = max(d_j d_a - d_ja^2, 0) of the exchange from
        a to j, with d_ja = a_j^T M^{-1} a_a, and what ``moved`` needs."""
        masks = self.masks
        in_a = (masks & a) == masks
        u_j = ((masks & j) == masks) @ minv  # M^{-1} f_j, as M^{-1} is symmetric
        d_ja = math.sqrt(self.lam[j]) * math.sqrt(self.lam[a]) * float(u_j @ in_a)
        d_j, d_a = float(d[j]), float(d[a])
        t = max(d_j * d_a - d_ja * d_ja, 0.0)
        return np.array([d_j - d_a]), np.array([t]), (minv, u_j, in_a, j, a, d_ja)

    def moved(self, w, d, carry, alpha):
        """The sensitivities after the exchange, by a rank-2 identity:
        d'(x) = d(x) - lambda_x v_x^T C^{-1} v_x, v_x = (f(x)^T z_j, f(x)^T z_a),
        z = M^{-1} a and C = diag(1/alpha, -1/alpha) + A^T M^{-1} A, A = (a_j, a_a).
        As c_jj > 0, v^T C^{-1} v = v_j^2 / c_jj + (c_jj / det C) (f(x)^T y)^2
        with y = z_a - (d_ja / c_jj) z_j, built only once the step is taken.
        f(x)^T z for every x is one zeta transform of z placed on the masks,
        so two transforms with one 2^k buffer replace a second factorization.
        """
        minv, u_j, in_a, j, a, d_ja = carry
        c_jj = 1.0 / alpha + float(d[j])
        det_c = c_jj * (float(d[a]) - 1.0 / alpha) - d_ja * d_ja
        z_j = math.sqrt(self.lam[j]) * u_j
        y = math.sqrt(self.lam[a]) * (in_a @ minv) - (d_ja / c_jj) * z_j
        update = np.zeros_like(d)
        lattice = np.empty_like(d)
        for vec, scale in ((z_j, 1.0 / c_jj), (y, c_jj / det_c)):
            lattice.fill(0.0)
            lattice[self.masks] = vec
            zeta(lattice)
            lattice *= lattice
            lattice *= scale
            update += lattice
        update *= self.lam
        return np.subtract(d, update, out=update)

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
            step = _exchange(kernel, w, d, best, state, gain)
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
