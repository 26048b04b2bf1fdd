"""Information matrix polytope, its LMI relaxation, and analytic centers.

Every design's information matrix is a convex combination of the rank-one
vertex matrices lambda(x) f(x) f(x)^T, so the feasible information
matrices form a polytope.  Replacing the polytope by the spectrahedron
(intersection of the PSD cone with the polytope's affine hull) turns
D-optimal design into log det maximization over a linear matrix
inequality; the maximizer is the analytic center.

The affine chart uses the x = 0 vertex as base point and a maximal
linearly independent set of vertex differences as directions, taken in
increasing setting order.  When the analytic center is a convex
combination of the vertices, those weights are a D-optimal design.
Membership decides at the fixed ``MEMBERSHIP_TOL``.

The center is found by the damped Newton method.  -log det S(u) is
self-concordant (Nesterov & Nemirovskii 1994; Nesterov, Introductory
Lectures on Convex Optimization, 2004, sec. 4.1), so with the Newton
decrement lambda^2 = g^T (-H)^{-1} g the step u += (-H)^{-1} g / (1 + lambda)
stays inside the Dikin ellipsoid, where S(u) is positive definite, and
raises log det by at least lambda - ln(1 + lambda).  No line search is
needed.  If lambda < 1 at any iterate, the center exists (Nesterov 2004,
Thm 4.1.11).  So on an unbounded slice every step gains at least
1 - ln 2 > 0.3069, and log det passes ``LOG_DET_CEILING`` = 50 within 163
steps, fewer than ``CENTER_MAX_ITERATIONS`` = 200: such a slice is
reported as unbounded, never as max-iterations.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from ._numpy import np
from .exceptions import InfeasibleStart, NotInAffineHull, NumericalCheckError
from .model import (
    InteractionModel,
    ParameterVector,
    _cholesky,
    intensities,
    regression_matrix,
    setting_string,
)

#: Feasibility tolerance of the convex-combination membership solver.
MEMBERSHIP_TOL = 1e-8
#: Relative rank threshold for selecting independent directions.
RANK_TOL = 1e-10
#: Newton steps ``analytic_center`` takes at most.
CENTER_MAX_ITERATIONS = 200
#: A log det gain above the start beyond this is reported as unbounded.
LOG_DET_CEILING = 50.0
#: A Newton decrement below this times max(1, |log det|) is rounding.
_ROUNDING = 8 * sys.float_info.epsilon


@dataclass(frozen=True, eq=False)
class PolytopeModel:
    """Vertices of the information matrix polytope plus an affine chart."""

    model: InteractionModel
    theta: ParameterVector
    settings: tuple[int, ...]
    vertices: np.ndarray  # (n_settings, p, p), rank-one PSD
    base_index: int
    direction_settings: tuple[int, ...]
    directions: np.ndarray  # (dim, p, p)

    @property
    def dim(self) -> int:
        return len(self.direction_settings)

    @property
    def n_vertices(self) -> int:
        return len(self.settings)


@dataclass(frozen=True, eq=False)
class LmiSlice:
    """Affine matrix map S(u) = base + sum_i u_i * directions[i]."""

    base: np.ndarray
    directions: np.ndarray
    labels: tuple[str, ...]

    @property
    def dim(self) -> int:
        return len(self.labels)

    def matrix(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return self.base + np.tensordot(u, self.directions, axes=1)


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
    inside_polytope: bool | None = None
    weights: dict[int, float] | None = None


@dataclass(frozen=True, eq=False)
class MembershipResult:
    inside: bool
    weights: dict[int, float] | None
    residual: float
    coordinates: np.ndarray


def polytope_vertices(theta: ParameterVector, m: InteractionModel) -> PolytopeModel:
    """All 2^k rank-one vertices and a chart of independent differences."""
    lam = intensities(theta, m)  # checks that theta belongs to m
    rows = regression_matrix(m).astype(float)
    vertices = lam[:, None, None] * rows[:, :, None] * rows[:, None, :]
    diffs = (vertices - vertices[0]).reshape(len(rows), -1)
    kept: list[int] = []
    basis: list[np.ndarray] = []
    for x in range(1, len(rows)):
        vec = diffs[x]
        residual = vec.copy()
        for b in basis:
            residual -= (b @ residual) * b
        norm = np.linalg.norm(residual)
        if norm > RANK_TOL * max(1.0, np.linalg.norm(vec)):
            kept.append(x)
            basis.append(residual / norm)
    directions = (vertices[kept] - vertices[0]) if kept else np.zeros((0, m.p, m.p))
    return PolytopeModel(
        model=m,
        theta=theta,
        settings=tuple(range(len(rows))),
        vertices=vertices,
        base_index=0,
        direction_settings=tuple(kept),
        directions=directions,
    )


def lmi_slice(pm: PolytopeModel) -> LmiSlice:
    """The LMI relaxation in the polytope's affine chart."""
    labels = tuple(setting_string(x, pm.model.k) for x in pm.direction_settings)
    # a copy, so that a kept slice does not hold on to all 2^k vertices
    return LmiSlice(pm.vertices[pm.base_index].copy(), pm.directions, labels)


def vertex_coordinates(pm: PolytopeModel) -> np.ndarray:
    """Chart coordinates of every vertex (rows follow ``pm.settings``)."""
    diffs = (pm.vertices - pm.vertices[pm.base_index]).reshape(pm.n_vertices, -1)
    return _chart_solve(pm, diffs)[0]


def _chart_solve(pm: PolytopeModel, diffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares chart coordinates of one flattened difference from the
    base, or of a stack of them, and the flattened directions."""
    a = pm.directions.reshape(pm.dim, -1)
    return np.linalg.solve(a @ a.T, a @ diffs.T).T, a


def log_det_gradient_hessian(sl: LmiSlice, u) -> tuple[float, np.ndarray, np.ndarray]:
    """Value, gradient, and Hessian of u -> log det S(u) at a feasible point.

    grad_i = tr(S^{-1} D_i) and hess_ij = -tr(S^{-1} D_i S^{-1} D_j).
    Raises ``InfeasibleStart`` when S(u) is not positive definite.
    """
    s = sl.matrix(u)
    try:
        low = _cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise InfeasibleStart("S(u) is not positive definite") from exc
    value = 2.0 * float(np.sum(np.log(np.diag(low))))
    # K_i = low^{-1} D_i low^{-T}, by two solves batched over the directions.
    # Not via inv(low): its rounding stalls the k=2, d=1 center at
    # intensity 0.2 at max-iterations instead of converging.
    t = np.linalg.solve(low, sl.directions)
    kmats = np.linalg.solve(low, t.transpose(0, 2, 1)).transpose(0, 2, 1)
    grad = np.einsum("ijj->i", kmats)
    gram = np.einsum("aij,bij->ab", kmats, kmats)
    return value, grad, -gram


def _is_pd(mat: np.ndarray) -> bool:
    try:
        _cholesky(mat)
        return True
    except np.linalg.LinAlgError:
        return False


def analytic_center(
    sl: LmiSlice,
    start: Sequence[float] | None = None,
    polytope: PolytopeModel | None = None,
) -> CenterResult:
    """Damped Newton maximization of log det over the LMI slice.

    Every step is the Newton step scaled by 1 / (1 + lambda), with lambda^2
    the Newton decrement (see the module notes), for at most
    ``CENTER_MAX_ITERATIONS`` steps.  The run converges once the decrement
    of the step just taken is at most 8 eps max(1, |log det|), the
    rounding level of log det.  A log det gain beyond ``LOG_DET_CEILING``
    above the start is reported as unbounded, which on an unbounded slice
    happens within 163 steps.  A Hessian whose negative has no Cholesky
    factor raises ``NumericalCheckError`` naming the iteration.  The
    default start is the coordinate centroid of the vertices, which
    requires ``polytope``; when ``polytope`` is given, membership of the
    center and its convex weights are filled in on convergence.
    """
    if start is None:
        if polytope is None:
            raise ValueError("need an explicit start or the polytope for the centroid")
        u = vertex_coordinates(polytope).mean(axis=0)
    else:
        u = np.asarray(start, dtype=float).copy()
        if u.shape != (sl.dim,):
            raise ValueError(f"start has shape {u.shape}, chart has dim {sl.dim}")

    value, grad, hess = log_det_gradient_hessian(sl, u)  # raises InfeasibleStart
    start_value = value
    status = CenterStatus.MAX_ITERATIONS
    iterations = 0
    for iterations in range(1, CENTER_MAX_ITERATIONS + 1):
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
        value, grad, hess = log_det_gradient_hessian(sl, u)
        if decrement <= _ROUNDING * max(1.0, abs(value)):
            status = CenterStatus.CONVERGED
            break
        if value - start_value > LOG_DET_CEILING:
            status = CenterStatus.UNBOUNDED
            break

    inside: bool | None = None
    weights = None
    if polytope is not None and status is CenterStatus.CONVERGED:
        membership = polytope_membership(polytope, u)
        inside = membership.inside
        weights = membership.weights
    return CenterResult(
        coordinates=u,
        matrix=sl.matrix(u),
        log_det=value,
        status=status,
        gradient_norm=float(np.linalg.norm(grad)),
        iterations=iterations,
        inside_polytope=inside,
        weights=weights,
    )


def polytope_membership(pm: PolytopeModel, point) -> MembershipResult:
    """Test whether a point is a convex combination of the vertices.

    ``point`` is either chart coordinates or a p x p matrix (projected to
    the chart first; off-hull matrices raise ``NotInAffineHull``).  When
    the vertex count is dim + 1 the polytope is a simplex and membership
    is a barycentric sign check; otherwise a nonnegative least-squares
    solve finds weights.  Both use ``MEMBERSHIP_TOL``: a barycentric
    weight may fall to minus it, and the NNLS residual may reach it.
    """
    point = np.asarray(point, dtype=float)
    if point.ndim == 2:
        rhs = (point - pm.vertices[pm.base_index]).ravel()
        u, a = _chart_solve(pm, rhs)
        residual = np.linalg.norm(a.T @ u - rhs)
        if residual > MEMBERSHIP_TOL * max(1.0, np.linalg.norm(rhs)):
            raise NotInAffineHull(f"projection residual {residual:.3e} exceeds"
                                  f" tolerance {MEMBERSHIP_TOL:.0e}")
    else:
        if point.shape != (pm.dim,):
            raise ValueError(f"coordinates have shape {point.shape}, chart dim {pm.dim}")
        u = point.copy()

    if pm.n_vertices == pm.dim + 1:
        bary = np.empty(pm.n_vertices)
        bary[0] = 1.0 - float(np.sum(u))
        bary[1:] = u
        inside = bool(bary.min() >= -MEMBERSHIP_TOL)
        weights = None
        if inside:
            clipped = np.clip(bary, 0.0, None)
            clipped /= clipped.sum()
            weights = {
                x: float(v) for x, v in zip(pm.settings, clipped) if v > 0.0
            }
        return MembershipResult(inside, weights, 0.0, u)

    # Imported here, not at module level: scipy.optimize is slow to load
    # and only this branch needs it, so importing the package stays cheap.
    from scipy.optimize import nnls

    system = np.vstack([vertex_coordinates(pm).T, np.ones(pm.n_vertices)])
    rhs = np.concatenate([u, [1.0]])
    solution, residual = nnls(system, rhs)
    inside = bool(residual <= MEMBERSHIP_TOL)
    weights = None
    if inside:
        total = solution.sum()
        weights = {
            x: float(v / total)
            for x, v in zip(pm.settings, solution)
            if v > 0.0
        }
    return MembershipResult(inside, weights, float(residual), u)


@dataclass(frozen=True, eq=False)
class CenterPathRow:
    param: float
    result: CenterResult
    #: the LMI slice whose center ``result`` is.
    lmi: LmiSlice


@dataclass(frozen=True, eq=False)
class CenterPathResult:
    rows: tuple[CenterPathRow, ...]
    #: parameter of the first grid point whose center lies outside the polytope.
    first_exit: float | None


def center_path(
    thetas: Sequence[tuple[float, ParameterVector]],
    m: InteractionModel,
) -> CenterPathResult:
    """Analytic centers along a parameter family, warm-starting each Newton run.

    A previous center seeds the next run only when the charts agree and it
    is still strictly feasible; otherwise the run starts from the centroid.
    """
    if not thetas:
        raise ValueError("empty parameter grid")
    rows = []
    first_exit = None
    prev_u, prev_dirs = None, None
    for param, theta in thetas:
        pm = polytope_vertices(theta, m)
        sl = lmi_slice(pm)
        # prev_dirs is None, and so never equal, after a run that did not converge
        warm = prev_dirs == pm.direction_settings and _is_pd(sl.matrix(prev_u))
        result = analytic_center(sl, start=prev_u if warm else None, polytope=pm)
        rows.append(CenterPathRow(param=param, result=result, lmi=sl))
        if first_exit is None and result.inside_polytope is False:
            first_exit = param
        if result.status is CenterStatus.CONVERGED:
            prev_u, prev_dirs = result.coordinates, pm.direction_settings
        else:
            prev_u, prev_dirs = None, None
    return CenterPathResult(rows=tuple(rows), first_exit=first_exit)
