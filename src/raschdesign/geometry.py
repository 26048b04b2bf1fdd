"""Information matrix polytope, its LMI relaxation, and analytic centers.

Every design's information matrix is a convex combination of the rank-one
vertex matrices lambda(x) f(x) f(x)^T, so the feasible information
matrices form a polytope.  Replacing the polytope by the spectrahedron
(intersection of the PSD cone with the polytope's affine hull) turns
D-optimal design into log det maximization over a linear matrix
inequality; the maximizer is the analytic center.  When the center is a
convex combination of the vertices, those weights are a D-optimal design.

The affine chart comes from the subset lattice.  Vertex entry (A, B) is
lambda(x) [A|B subset of x], so the vertices live in one moment coordinate
per union U with |U| <= 2d, and those with |x| <= 2d span them.  With gamma
the Moebius transform of 1/lambda and |V| > 2d, the weights
c_x = (-1)^|V - x| / (lambda(x) gamma_V) on the subsets x of V sum to 1 and
annihilate every moment (Laurent, Math. Oper. Res. 2003).  So the chart,
based at x = 0, takes in mask order every x with 0 < |x| <= 2d plus the
*hull witness*: the first V with |V| > 2d and |gamma_V| above its rounding
bound k eps sum_{x subset V} 1/lambda(x).  This is the greedy chart of
exact arithmetic.  A witness puts 0 in the affine hull, so t S lies in the
slice for every t > 0 and log det is unbounded.

Each chart direction is a vertex minus the base vertex, so the polytope
carries its slice as the signed design S(u) = F^T diag(c lambda) F on the
chart rows F of the regression matrix, with c = (1 - sum u, u).  With G2 the
entrywise square of G = Lambda^{1/2} F S^{-1} F^T Lambda^{1/2}, log det S(u)
has gradient G_ii - G_00 and Hessian -(G2_ij - G2_i0 - G2_0j + G2_00)
(Vandenberghe, Boyd & Wu, SIAM J. Matrix Anal. Appl. 1998).  The superset
Moebius transform of a point's moments (its entries at A|B = U) on the
down-set |U| <= 2d, over lambda, gives its weights c on the settings
|y| <= 2d; for a vertex x with |x| > 2d, c_y = (lambda_x / lambda_y)
(-1)^(2d - |y|) C(|x| - |y| - 1, 2d - |y|) on the subsets y of x.  A witness
V adds t (e_V - c(V)), which rebuilds 0, with t = (1 - sum c) / (1 - sum c(V)).

On a simplex chart (dim + 1 = 2^k) a point is in the polytope P when
c = (1 - sum u, u) >= 0.  Beyond it the equivalence theorem (Kiefer &
Wolfowitz 1960) decides only the analytic center S*: P lies in the slice and
log det is strictly concave, so S* is in P exactly when log det S* = max_P
log det, which every design w brackets in [L, L + max d - p], L = log det M(w).

The center is found by damped Newton steps from the chart barycenter
u_i = 1 / (dim + 1), the uniform design on the chart settings, which hold
the corner support; a witnessed slice is answered unbounded there, with no
Hessian.  -log det S(u) is self-concordant (Nesterov & Nemirovskii 1994;
Nesterov, Introductory Lectures on Convex Optimization, 2004, sec. 4.1):
with the Newton decrement lambda^2 = g^T (-H)^{-1} g, the step
u += (-H)^{-1} g / (1 + lambda) stays in the Dikin ellipsoid, where S(u) is
positive definite, and raises log det by at least lambda - ln(1 + lambda),
with no line search.  If lambda < 1 at any iterate, the center exists
(Nesterov 2004, Thm 4.1.11).  So on an unbounded slice every step gains at
least 1 - ln 2 > 0.3069, and log det passes ``LOG_DET_CEILING`` = 50 within
163 steps, inside ``CENTER_MAX_ITERATIONS`` = 200: a receding slice whose
hull excludes 0 is reported unbounded, never max-iterations.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from ._lattice import mobius, union_index, zeta
from ._numpy import np
from .exceptions import InfeasibleStart, NotInAffineHull, NumericalCheckError
from .model import (
    InteractionModel,
    ParameterVector,
    _LOG_MAX,
    _cholesky,
    _overflow,
    intensities,
    log_intensity,
    regression_matrix,
)
from .optimizer import MAX_ITERATIONS, optimize_design

#: Tolerance of membership: on the simplex weights c, or relative on log det.
MEMBERSHIP_TOL = 1e-8
#: Newton steps ``analytic_center`` takes at most.
CENTER_MAX_ITERATIONS = 200
#: A log det gain above the start beyond this is reported as unbounded.
LOG_DET_CEILING = 50.0
#: A Newton decrement below this times max(1, |log det|) is rounding.
_ROUNDING = 8 * sys.float_info.epsilon


@dataclass(frozen=True, eq=False)
class PolytopeModel:
    """The information matrix polytope, held by its lattice chart, and its LMI slice."""

    model: InteractionModel
    theta: ParameterVector
    #: chart settings in mask order; the base setting 0 comes first
    settings: tuple[int, ...]
    rows: np.ndarray  # (dim + 1, p), f(x) at the chart settings
    intensities: np.ndarray  # (dim + 1,), lambda(x) at the chart settings
    #: first set V with |V| > 2d and gamma_V beyond rounding, else None;
    #: when set, the affine hull holds the zero matrix (see the module notes)
    hull_witness: int | None

    @property
    def dim(self) -> int:
        return len(self.settings) - 1

    @property
    def n_vertices(self) -> int:
        return 1 << self.model.k

    def matrix(self, u) -> np.ndarray:
        """The LMI slice: signed design S(u) = F^T diag(c lambda) F, c = (1 - sum u, u)."""
        u = np.asarray(u, dtype=float)
        c = np.concatenate([[1.0 - u.sum()], u])
        return (self.rows.T * (c * self.intensities)) @ self.rows


class CenterStatus(Enum):
    CONVERGED = "converged"
    UNBOUNDED = "unbounded"
    MAX_ITERATIONS = "max-iterations"


@dataclass(frozen=True, eq=False)
class CenterResult:
    coordinates: np.ndarray
    matrix: np.ndarray
    log_det: float
    status: CenterStatus
    gradient_norm: float
    iterations: int
    #: both None exactly when the center did not converge
    inside_polytope: bool | None
    weights: dict[int, float] | None


@dataclass(frozen=True, eq=False)
class MembershipResult:
    inside: bool
    weights: dict[int, float] | None
    coordinates: np.ndarray


def _sizes(k: int) -> np.ndarray:
    """|x| for every mask x: the zeta transform of the singletons."""
    return zeta(np.bincount(1 << np.arange(k), minlength=1 << k))


def polytope_vertices(theta: ParameterVector, m: InteractionModel) -> PolytopeModel:
    """The lattice chart of the module notes, with its rows and intensities."""
    lam = intensities(theta, m)  # checks that theta belongs to m
    low = int(lam.argmin())
    log = log_intensity(low, theta, m)
    if log < -_LOG_MAX:  # 1/lambda, the chart's input, is not a finite float
        raise _overflow(low, log, m.k)
    inverse = 1.0 / lam
    gamma = mobius(inverse.copy())
    bound = m.k * sys.float_info.epsilon * zeta(inverse)
    kept = _sizes(m.k) <= 2 * m.d
    fired = np.flatnonzero(~kept & (np.abs(gamma) > bound))
    kept[fired[:1]] = True
    chart = np.flatnonzero(kept)
    return PolytopeModel(
        model=m, theta=theta, settings=tuple(chart.tolist()),
        rows=regression_matrix(m, chart).astype(float), intensities=lam[chart],
        hull_witness=int(fired[0]) if fired.size else None,
    )


def vertex_coordinates(pm: PolytopeModel) -> np.ndarray:
    """Chart coordinates of every vertex, row x for setting x (module notes)."""
    return _chart_coordinates(pm, _vertex_weights(pm, np.arange(pm.n_vertices)))


def _vertex_weights(pm: PolytopeModel, x: np.ndarray) -> np.ndarray:
    """Weights on the chart settings with |y| <= 2d that rebuild the vertices
    ``x``: e_x for |x| <= 2d, else the closed form of the module notes."""
    k, two_d = pm.model.k, 2 * pm.model.d
    table = np.eye(k + 1)  # table[|x|, |y|]
    for s in range(two_d + 1, k + 1):
        table[s] = [(-1) ** (two_d - j) * math.comb(s - j - 1, two_d - j)
                    if j <= two_d else 0.0 for j in range(k + 1)]
    sizes, chart = _sizes(k), np.asarray(pm.settings)
    c = table[sizes[x][:, None], sizes[chart]]
    c *= (x[:, None] & chart) == chart
    c *= intensities(pm.theta, pm.model)[x][:, None]
    return np.divide(c, pm.intensities, out=c)


def _chart_coordinates(pm: PolytopeModel, c: np.ndarray) -> np.ndarray:
    """Chart coordinates from down-set weights ``c`` (..., dim + 1) and the witness."""
    v = pm.hull_witness
    if v is not None:
        null = -_vertex_weights(pm, np.array([v]))[0]
        null[pm.settings.index(v)] += 1.0  # e_V - c(V) rebuilds the zero matrix
        c = c + (1.0 - c.sum(axis=-1))[..., None] / null.sum() * null
    return c[..., 1:]


def _log_det_gradient(pm: PolytopeModel, u) -> tuple[float, np.ndarray, np.ndarray]:
    """log det S(u), its gradient diag(G)_i - diag(G)_0, and the factor
    ``half`` = L^{-1} F^T Lambda^{1/2} of G = half^T half (module notes)."""
    try:
        low = _cholesky(pm.matrix(u))
    except np.linalg.LinAlgError as exc:
        raise InfeasibleStart("S(u) is not positive definite") from exc
    value = 2.0 * float(np.sum(np.log(np.diag(low))))
    # a solve, not inv(low): its rounding stalls the k=2, d=1 center at
    # intensity 0.2 at max-iterations instead of converging
    half = np.linalg.solve(low, pm.rows.T * np.sqrt(pm.intensities))
    diag = np.einsum("ij,ij->j", half, half)
    return value, diag[1:] - diag[0], half


def log_det_gradient_hessian(pm: PolytopeModel, u) -> tuple[float, np.ndarray, np.ndarray]:
    """Value, gradient, and Hessian of u -> log det S(u) at a feasible point,
    from G (see the module notes).  Raises ``InfeasibleStart`` when S(u) is
    not positive definite."""
    value, grad, half = _log_det_gradient(pm, u)
    g2 = np.square(half.T @ half)
    hess = g2[1:, 1:] - g2[1:, :1] - g2[:1, 1:] + g2[0, 0]
    return value, grad, -hess


def analytic_center(pm: PolytopeModel) -> CenterResult:
    """Damped Newton maximization of log det over the LMI slice, from the
    chart barycenter (module notes).  The run converges once the decrement
    of the step just taken is at most 8 eps max(1, |log det|), the rounding
    level of log det; membership of the center and its convex weights are
    then filled in.  A Hessian whose negative has no Cholesky factor raises
    ``NumericalCheckError`` naming the iteration.
    """
    u = np.full(pm.dim, 1.0 / (pm.dim + 1))
    witnessed = pm.hull_witness is not None
    if witnessed:  # the slice is unbounded (module notes): no Hessian
        value, grad, _ = _log_det_gradient(pm, u)  # raises InfeasibleStart
    else:
        value, grad, hess = log_det_gradient_hessian(pm, u)  # raises InfeasibleStart
    start_value = value
    status = CenterStatus.UNBOUNDED if witnessed else CenterStatus.MAX_ITERATIONS
    iterations = 0
    for iterations in range(1, 1 + (0 if witnessed else CENTER_MAX_ITERATIONS)):
        try:
            low = _cholesky(-hess)
        except np.linalg.LinAlgError as exc:
            raise NumericalCheckError(
                "log det Hessian is not negative definite"
                f" at Newton iteration {iterations}"
            ) from exc
        half = np.linalg.solve(low, grad)
        decrement = float(half @ half)  # lambda^2 = grad^T (-hess)^{-1} grad
        step = np.linalg.solve(low.T, half)
        u = u + step / (1.0 + math.sqrt(decrement))
        value, grad, hess = log_det_gradient_hessian(pm, u)
        if decrement <= _ROUNDING * max(1.0, abs(value)):
            status = CenterStatus.CONVERGED
            break
        if value - start_value > LOG_DET_CEILING:
            status = CenterStatus.UNBOUNDED
            break

    inside = weights = None
    if status is CenterStatus.CONVERGED:
        membership = polytope_membership(pm, u)
        inside, weights = membership.inside, membership.weights
    return CenterResult(
        coordinates=u, matrix=pm.matrix(u), log_det=value, status=status,
        gradient_norm=float(np.linalg.norm(grad)), iterations=iterations,
        inside_polytope=inside, weights=weights,
    )


def polytope_membership(pm: PolytopeModel, point) -> MembershipResult:
    """Test whether a point is a convex combination of the vertices.

    ``point`` is chart coordinates or a p x p matrix, whose coordinates come
    from its moments (module notes); a matrix that they do not rebuild to
    ``MEMBERSHIP_TOL`` raises ``NotInAffineHull``.  Beyond a simplex a point
    above an optimizer iterate's bracket is outside, the center within a
    converged run's bracket is inside with that design as its weights, and
    any other point raises ``ValueError`` (module notes).
    """
    point = np.asarray(point, dtype=float)
    if point.ndim == 2:
        # superset Moebius transform on the down-set, in reversed mask order
        moments = np.zeros(pm.n_vertices)
        moments[union_index(pm.model)] = point
        down = np.where(_sizes(pm.model.k)[::-1] <= 2 * pm.model.d, moments[::-1], 0.0)
        u = _chart_coordinates(pm, mobius(down)[::-1][list(pm.settings)] / pm.intensities)
        residual = np.linalg.norm(pm.matrix(u) - point)
        if residual > MEMBERSHIP_TOL * max(1.0, np.linalg.norm(point - pm.matrix(0 * u))):
            raise NotInAffineHull(f"chart residual {residual:.3e} exceeds"
                                  f" tolerance {MEMBERSHIP_TOL:.0e}")
    else:
        if point.shape != (pm.dim,):
            raise ValueError(f"coordinates have shape {point.shape}, chart dim {pm.dim}")
        u = point.copy()

    if pm.n_vertices == pm.dim + 1:  # the chart is every setting, in mask order
        c = np.concatenate([[1.0 - u.sum()], u])
        if c.min() < -MEMBERSHIP_TOL:
            return MembershipResult(False, None, u)
        c /= np.clip(c, 0.0, None, out=c).sum()
        return MembershipResult(True, {x: float(v) for x, v in enumerate(c) if v > 0.0}, u)

    try:
        value = 2.0 * float(np.sum(np.log(np.diag(_cholesky(pm.matrix(u))))))
    except np.linalg.LinAlgError:  # S(u) is not positive definite: not the center
        value = -math.inf
    for budget in (1, MAX_ITERATIONS):  # iterate 1 settles a point far from the maximum
        opt = optimize_design(pm.theta, pm.model, budget)
        tol = MEMBERSHIP_TOL * max(1.0, abs(opt.log_det))
        if value > opt.log_det + (opt.final_kw_max - pm.model.p) + tol:
            return MembershipResult(False, None, u)
        if value < opt.log_det - tol:
            raise ValueError("beyond a simplex only the slice's analytic center is decided")
        if opt.converged:
            return MembershipResult(True, dict(opt.design.weights), u)
    raise NumericalCheckError(f"optimizer did not converge in {MAX_ITERATIONS} iterations")


@dataclass(frozen=True, eq=False)
class CenterPathRow:
    param: float
    result: CenterResult
    #: the polytope whose slice's center ``result`` is.
    polytope: PolytopeModel


@dataclass(frozen=True, eq=False)
class CenterPathResult:
    rows: tuple[CenterPathRow, ...]
    #: parameter of the first grid point whose center lies outside the polytope.
    first_exit: float | None


def center_path(
    thetas: Sequence[tuple[float, ParameterVector]],
    m: InteractionModel,
) -> CenterPathResult:
    """Analytic centers along a parameter family."""
    if not thetas:
        raise ValueError("empty parameter grid")
    rows = []
    first_exit = None
    for param, theta in thetas:
        pm = polytope_vertices(theta, m)
        result = analytic_center(pm)
        rows.append(CenterPathRow(param=param, result=result, polytope=pm))
        if first_exit is None and result.inside_polytope is False:
            first_exit = param
    return CenterPathResult(rows=tuple(rows), first_exit=first_exit)
