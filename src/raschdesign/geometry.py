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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .exceptions import InfeasibleStart, NotInAffineHull
from .model import (
    InteractionModel,
    ParameterVector,
    _check_model,
    _cholesky,
    regression_matrix,
    setting_string,
)

#: Feasibility tolerance of the convex-combination membership solver.
MEMBERSHIP_TOL = 1e-8
#: Relative rank threshold for selecting independent directions.
RANK_TOL = 1e-10


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
    _check_model(theta, m)
    rows = regression_matrix(m).astype(float)
    lam = np.exp(rows @ theta.values)
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
    return LmiSlice(pm.vertices[pm.base_index], pm.directions, labels)


def vertex_coordinates(pm: PolytopeModel) -> np.ndarray:
    """Chart coordinates of every vertex (rows follow ``pm.settings``)."""
    a = pm.directions.reshape(pm.dim, -1)
    gram = a @ a.T
    diffs = (pm.vertices - pm.vertices[pm.base_index]).reshape(pm.n_vertices, -1)
    return np.linalg.solve(gram, a @ diffs.T).T


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
    max_iterations: int = 200,
    log_det_ceiling: float = 50.0,
    decrement_tol: float = 1e-18,
) -> CenterResult:
    """Damped Newton maximization of log det over the LMI slice.

    Backtracking halves the step until the iterate stays positive definite
    and achieves sufficient increase.  A log det gain beyond
    ``log_det_ceiling`` above the start is reported as unbounded.  The
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
    for iterations in range(1, max_iterations + 1):
        try:
            step = np.linalg.solve(-hess, grad)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(-hess, grad, rcond=None)
        decrement = float(grad @ step)
        if decrement <= decrement_tol:
            status = CenterStatus.CONVERGED
            break
        scale = 1.0
        moved = False
        while scale > 1e-14:
            candidate = u + scale * step
            if _is_pd(sl.matrix(candidate)):
                new_value, new_grad, new_hess = log_det_gradient_hessian(sl, candidate)
                if new_value >= value + 0.25 * scale * decrement:
                    u, value, grad, hess = candidate, new_value, new_grad, new_hess
                    moved = True
                    break
            scale *= 0.5
        if not moved:
            status = (
                CenterStatus.CONVERGED
                if np.linalg.norm(grad) <= 1e-8
                else CenterStatus.MAX_ITERATIONS
            )
            break
        if value - start_value > log_det_ceiling:
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


def _project_to_chart(pm: PolytopeModel, point: np.ndarray, tol: float) -> np.ndarray:
    a = pm.directions.reshape(pm.dim, -1)
    rhs = (point - pm.vertices[pm.base_index]).ravel()
    gram = a @ a.T
    u = np.linalg.solve(gram, a @ rhs)
    residual = np.linalg.norm(a.T @ u - rhs)
    if residual > tol * max(1.0, np.linalg.norm(rhs)):
        raise NotInAffineHull(
            f"projection residual {residual:.3e} exceeds tolerance {tol:.0e}"
        )
    return u


def polytope_membership(
    pm: PolytopeModel, point, tol: float = MEMBERSHIP_TOL
) -> MembershipResult:
    """Test whether a point is a convex combination of the vertices.

    ``point`` is either chart coordinates or a p x p matrix (projected to
    the chart first; off-hull matrices raise ``NotInAffineHull``).  When
    the vertex count is dim + 1 the polytope is a simplex and membership
    is a barycentric sign check; otherwise a nonnegative least-squares
    solve finds weights, feasible when its residual is at most ``tol``.
    """
    point = np.asarray(point, dtype=float)
    if point.ndim == 2:
        u = _project_to_chart(pm, point, tol)
    else:
        if point.shape != (pm.dim,):
            raise ValueError(f"coordinates have shape {point.shape}, chart dim {pm.dim}")
        u = point.copy()

    coords = vertex_coordinates(pm)
    if pm.n_vertices == pm.dim + 1:
        bary = np.empty(pm.n_vertices)
        bary[0] = 1.0 - float(np.sum(u))
        bary[1:] = u
        inside = bool(bary.min() >= -tol)
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

    system = np.vstack([coords.T, np.ones(pm.n_vertices)])
    rhs = np.concatenate([u, [1.0]])
    solution, residual = nnls(system, rhs)
    inside = bool(residual <= tol)
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


@dataclass(frozen=True, eq=False)
class CenterPathResult:
    rows: tuple[CenterPathRow, ...]
    #: parameter of the first grid point whose center lies outside the polytope.
    first_exit: float | None


def center_path(
    thetas: Sequence[tuple[float, ParameterVector]],
    m: InteractionModel,
    warm_start: bool = True,
) -> CenterPathResult:
    """Analytic centers along a parameter family, warm-starting each Newton run.

    A previous center seeds the next run only when the charts agree and it
    is still strictly feasible; otherwise the run starts from the centroid.
    """
    if not thetas:
        raise ValueError("empty parameter grid")
    rows = []
    first_exit = None
    prev_u = None
    prev_dirs = None
    for param, theta in thetas:
        pm = polytope_vertices(theta, m)
        sl = lmi_slice(pm)
        start = None
        if (
            warm_start
            and prev_u is not None
            and prev_dirs == pm.direction_settings
            and _is_pd(sl.matrix(prev_u))
        ):
            start = prev_u
        result = analytic_center(sl, start=start, polytope=pm)
        rows.append(CenterPathRow(param=param, result=result))
        if (
            first_exit is None
            and result.inside_polytope is not None
            and not result.inside_polytope
        ):
            first_exit = param
        if result.status is CenterStatus.CONVERGED:
            prev_u, prev_dirs = result.coordinates, pm.direction_settings
        else:
            prev_u, prev_dirs = None, None
    return CenterPathResult(rows=tuple(rows), first_exit=first_exit)
