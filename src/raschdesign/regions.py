"""Optimality regions of the corner design.

The corner design puts weight 1/p on every setting with at most d active
rules.  Its D-optimality region in parameter space is cut out by one
polynomial inequality per subset C of {1..k} with |C| > d:

    sum over B in C, |B| <= d of
        C(|C|-|B|-1, d-|B|)^2  *  prod over {A in C, |A| <= d, A != B} mu_A
    <= 1.

This module generates and evaluates that inequality system, and provides
two deliberately independent D-optimality certificates for cross-checking:

* ``kw_certificate`` computes the sensitivity lambda(x) f(x)^T M^{-1} f(x)
  for every setting from the dense information matrix (the equivalence
  theorem; the bound is p).
* ``saturated_kw_values`` computes the same quantity for saturated uniform
  designs through the inverse of the support's regression matrix and the
  support intensities, without ever forming M.

For d = 1 (with base parameter 0) the inequality system and the
certificates agree point by point.  For d >= 2 the system's product
condition "A != B" differs from the condition "A not a subset of B" that
the direct saturated computation yields; both readings are kept and can
be compared with the ``compare`` command of ``raschdesign.cli``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from .exceptions import NotSaturated, SingularInformation, SingularSupport
from .model import (
    Design,
    InteractionModel,
    ParameterVector,
    _check_model,
    _cholesky,
    choose,
    fisher_information,
    mask_subset,
    regression_matrix,
    setting_bits,
    subset_mask,
)

#: Verdict tolerance for the polynomial inequality system (LHS <= 1 + tol).
THEOREM_TOL = 1e-9
#: Relative verdict tolerance for sensitivity checks (d(x) <= p * (1 + tol)).
KW_TOL = 1e-7


def _exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class MonomialInequality:
    """One inequality of the corner-optimality system: LHS <= 1.

    ``label`` is the generating set C.  ``support_all`` lists every subset
    A of C with |A| <= d in canonical order; the term generated by
    B = support_all[i] has coefficient ``coefficients[i]`` (a squared
    binomial coefficient) and squarefree monomial  prod_{A != B} mu_A.
    """

    label: tuple[int, ...]
    support_all: tuple[tuple[int, ...], ...]
    coefficients: tuple[int, ...]

    def terms(self) -> Iterator[tuple[int, tuple[tuple[int, ...], ...]]]:
        """Yield (coefficient, exponent support) per term."""
        for i, b in enumerate(self.support_all):
            yield self.coefficients[i], tuple(a for a in self.support_all if a != b)

    def __str__(self) -> str:
        parts = []
        for coeff, support in self.terms():
            mono = "".join(
                "mu_{%s}" % ",".join(map(str, a)) for a in support if a
            ) or "1"
            parts.append(f"{coeff}*{mono}" if coeff != 1 else mono)
        return " + ".join(parts) + " <= 1"


@dataclass(frozen=True)
class OptimalityVerdict:
    """Outcome of an optimality check.

    ``max_directional_value`` is the largest left-hand side (bound 1 for
    the inequality system, bound p for sensitivity checks).  ``boundary``
    marks verdicts within tolerance of equality.
    """

    optimal: bool
    max_directional_value: float
    bound: float
    tolerance: float
    worst_setting: tuple[int, ...]
    violated_labels: tuple[tuple[int, ...], ...]
    boundary: bool


def corner_design(m: InteractionModel) -> Design:
    """Uniform weight 1/p on every setting with at most d active rules."""
    support = [x for x in m.settings() if x.bit_count() <= m.d]
    assert len(support) == m.p
    return Design(m.k, {x: 1.0 / m.p for x in support})


def corner_inequalities(m: InteractionModel) -> list[MonomialInequality]:
    """The full inequality system, one entry per C with |C| > d.

    Entries are ordered by (|C|, lexicographic), giving
    sum_{c=d+1}^{k} C(k, c) inequalities.
    """
    out = []
    for csize in range(m.d + 1, m.k + 1):
        for c_subset in combinations(range(1, m.k + 1), csize):
            support_all = []
            for bsize in range(m.d + 1):
                support_all.extend(combinations(c_subset, bsize))
            coeffs = tuple(
                choose(csize - len(b) - 1, m.d - len(b)) ** 2 for b in support_all
            )
            out.append(MonomialInequality(c_subset, tuple(support_all), coeffs))
    return out


def evaluate_inequality(q: MonomialInequality, theta: ParameterVector) -> float:
    """Left-hand side value at the given parameters.

    Each term is evaluated as coeff * exp(sum of beta over its support);
    the shared exponent sum is accumulated once in log space.
    """
    m = theta.model
    pos = [m.position(subset_mask(a)) for a in q.support_all]
    betas = theta.values[pos]
    total = float(np.sum(betas))
    return math.fsum(
        coeff * _exp(total - float(b))
        for coeff, b in zip(q.coefficients, betas)
    )


def is_corner_optimal_by_theorem(
    theta: ParameterVector, m: InteractionModel, tol: float = THEOREM_TOL
) -> OptimalityVerdict:
    """Check every corner inequality; optimal iff all LHS <= 1 + tol."""
    _check_model(theta, m)
    best = -math.inf
    worst: tuple[int, ...] = ()
    violated = []
    for q in corner_inequalities(m):
        lhs = evaluate_inequality(q, theta)
        if lhs > best:
            best, worst = lhs, q.label
        if lhs > 1.0 + tol:
            violated.append(q.label)
    return OptimalityVerdict(
        optimal=not violated,
        max_directional_value=best,
        bound=1.0,
        tolerance=tol,
        worst_setting=setting_bits(subset_mask(worst), m.k),
        violated_labels=tuple(violated),
        boundary=abs(best - 1.0) <= tol,
    )


def sensitivities(
    w: Design, theta: ParameterVector, m: InteractionModel
) -> np.ndarray:
    """Sensitivity d(x) = lambda(x) f(x)^T M^{-1} f(x) for every setting."""
    _check_model(theta, m)
    mat = fisher_information(w, theta, m)
    try:
        low = _cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise SingularInformation(
            f"information matrix of a design on {len(w.support)} points "
            f"is not positive definite (p={m.p})"
        ) from exc
    rows = regression_matrix(m).astype(float)
    return _sensitivities_from_factor(low, rows, np.exp(rows @ theta.values))


def _sensitivities_from_factor(
    low: np.ndarray, rows: np.ndarray, lam: np.ndarray
) -> np.ndarray:
    """lambda(x) f(x)^T M^{-1} f(x) per row, given M = low low^T.

    With Z = low^{-1} F^T, f(x)^T M^{-1} f(x) is the squared norm of Z's
    column x.  Z is formed from the explicit p x p inverse of the factor
    and one matrix product, which for the 2^k x p regression matrix is
    faster than a triangular solve against its transpose.
    """
    z = np.linalg.inv(low) @ rows.T
    return lam * np.einsum("ij,ij->j", z, z)


def kw_certificate(
    w: Design, theta: ParameterVector, m: InteractionModel, tol: float = KW_TOL
) -> OptimalityVerdict:
    """Equivalence-theorem check: optimal iff max_x d(x) <= p (1 + tol)."""
    d = sensitivities(w, theta, m)
    p = float(m.p)
    worst = int(np.argmax(d))
    bad = np.nonzero(d > p * (1.0 + tol))[0]
    return OptimalityVerdict(
        optimal=bad.size == 0,
        max_directional_value=float(d[worst]),
        bound=p,
        tolerance=tol,
        worst_setting=setting_bits(worst, m.k),
        violated_labels=tuple(mask_subset(int(x)) for x in bad),
        boundary=abs(float(d[worst]) - p) <= p * tol,
    )


def saturated_kw_values(
    w: Design,
    theta: ParameterVector,
    m: InteractionModel,
    uniform_tol: float = 1e-6,
) -> dict[int, float]:
    """Sensitivity/p at every setting for a saturated uniform design.

    Uses the factorization of the information matrix through the support's
    regression matrix: with F_w the stacked support regression vectors and
    the diagonal holding the support intensities, the value at x is
    lambda(x) * sum_i v_i^2 / lambda(x_i) where v = F_w^{-T} f(x).  Values
    at support points are exactly 1 up to rounding; the design is optimal
    iff all values are <= 1.
    """
    _check_model(theta, m)
    support = sorted(w.support)
    if len(support) != m.p:
        raise NotSaturated(
            f"design has {len(support)} support points, saturation needs p={m.p}"
        )
    target = 1.0 / m.p
    off = max(abs(w.weights[x] - target) for x in support)
    if off > uniform_tol * target:
        raise NotSaturated(
            f"saturated weights deviate from 1/p by {off:.3e} (tol {uniform_tol:.0e})"
        )
    f_w = regression_matrix(m, support).astype(float)
    rows = regression_matrix(m).astype(float)
    try:
        v = np.linalg.solve(f_w.T, rows.T)
    except np.linalg.LinAlgError as exc:
        raise SingularSupport(
            "support regression vectors do not form an invertible matrix"
        ) from exc
    lam = np.exp(rows @ theta.values)
    lam_support = np.exp(f_w @ theta.values)
    vals = lam * np.einsum("ij,i->j", v**2, 1.0 / lam_support)
    return {x: float(vals[x]) for x in m.settings()}


def symmetric_slice(
    m: InteractionModel, s: float, t: float
) -> dict[int, float]:
    """Exchangeable specialization of the system at d = 2.

    With mu_i = s, mu_ij = t and base intensity 1, all inequalities with
    |C| = c collapse to a single value; returns {c: LHS} for c = 3..k.
    """
    if m.d != 2:
        raise ValueError(f"symmetric slice is defined for d=2 models, got d={m.d}")
    if s <= 0 or t <= 0:
        raise ValueError("s and t must be positive")
    ls, lt = math.log(s), math.log(t)
    out = {}
    for c in range(3, m.k + 1):
        pairs = c * (c - 1) // 2
        out[c] = math.fsum(
            (
                choose(c - 1, 2) ** 2 * _exp(c * ls + pairs * lt),
                c * choose(c - 2, 1) ** 2 * _exp((c - 1) * ls + pairs * lt),
                choose(c, 2) * _exp(c * ls + (pairs - 1) * lt),
            )
        )
    return out


def _slice_values(
    m: InteractionModel, s: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """Vectorized symmetric slice: rows = points, columns = c = 3..k."""
    if m.d != 2:
        raise ValueError(f"symmetric slice is defined for d=2 models, got d={m.d}")
    ls = np.log(s)[:, None]
    lt = np.log(t)[:, None]
    cs = np.arange(3, m.k + 1)
    pairs = cs * (cs - 1) // 2
    lead = np.array([choose(c - 1, 2) ** 2 for c in cs], dtype=float)
    single = np.array([c * choose(c - 2, 1) ** 2 for c in cs], dtype=float)
    pair = np.array([choose(c, 2) for c in cs], dtype=float)
    with np.errstate(over="ignore", under="ignore"):
        return (
            lead * np.exp(cs * ls + pairs * lt)
            + single * np.exp((cs - 1) * ls + pairs * lt)
            + pair * np.exp(cs * ls + (pairs - 1) * lt)
        )


@dataclass(frozen=True)
class SliceRow:
    """One grid point of a region slice: all LHS values plus the verdict.

    ``binding_c`` is the most restrictive cardinality: the smallest
    violated one when the point is outside the region, otherwise the one
    whose LHS is closest to the bound.
    """

    s: float
    t: float
    lhs: tuple[float, ...]
    binding_c: int
    verdict: str


def region_slice(
    m: InteractionModel,
    s_values: Sequence[float],
    t_values: Sequence[float],
    tol: float = THEOREM_TOL,
) -> list[SliceRow]:
    """Evaluate the symmetric slice on a rectangular grid.

    Rows are ordered s-major then t, matching the grid index order.
    """
    s_values = np.asarray(list(s_values), dtype=float)
    t_values = np.asarray(list(t_values), dtype=float)
    if s_values.size == 0 or t_values.size == 0:
        raise ValueError("empty grid")
    if np.any(s_values <= 0) or np.any(t_values <= 0):
        raise ValueError("grid values must be positive")
    ss, tt = np.meshgrid(s_values, t_values, indexing="ij")
    ss, tt = ss.ravel(), tt.ravel()
    values = _slice_values(m, ss, tt)
    cs = np.arange(3, m.k + 1)
    rows = []
    for i in range(ss.size):
        lhs = values[i]
        violated = np.nonzero(lhs > 1.0 + tol)[0]
        if violated.size:
            binding = int(cs[violated[0]])
            verdict = "not-optimal"
        else:
            binding = int(cs[int(np.argmax(lhs))])
            verdict = "boundary" if lhs.max() >= 1.0 - tol else "optimal"
        rows.append(SliceRow(float(ss[i]), float(tt[i]), tuple(lhs), binding, verdict))
    return rows


@dataclass(frozen=True)
class ProbeEntry:
    """Sampling evidence about one cardinality c.

    A witness is a sampled point violating the c-inequality while every
    other cardinality's inequality holds; its existence shows c cannot be
    dropped from the system on this region.
    """

    c: int
    witness: tuple[float, float] | None
    n_violated: int
    n_witness: int

    @property
    def redundant_in_region(self) -> bool:
        return self.witness is None


@dataclass(frozen=True)
class ProbeReport:
    s_range: tuple[float, float]
    t_range: tuple[float, float]
    n_samples: int
    seed: int
    entries: dict[int, ProbeEntry]

    def as_dict(self) -> dict:
        return {
            str(c): {
                "redundant_in_region": e.redundant_in_region,
                "witness": list(e.witness) if e.witness else None,
                "n_violated": e.n_violated,
                "n_witness": e.n_witness,
            }
            for c, e in self.entries.items()
        }


def redundancy_probe(
    m: InteractionModel,
    s_range: tuple[float, float],
    t_range: tuple[float, float],
    n_samples: int,
    seed: int,
    tol: float = THEOREM_TOL,
) -> ProbeReport:
    """Seeded uniform sampling of the symmetric slice for non-redundancy.

    Deterministic given the seed.  Absence of a witness is sampling
    evidence of redundancy on the region, not a proof.
    """
    if m.d != 2:
        raise ValueError(f"redundancy probe is defined for d=2 models, got d={m.d}")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if not (0 < s_range[0] < s_range[1]) or not (0 < t_range[0] < t_range[1]):
        raise ValueError("sampling ranges must satisfy 0 < low < high")
    rng = np.random.default_rng(seed)
    ss = rng.uniform(s_range[0], s_range[1], size=n_samples)
    tt = rng.uniform(t_range[0], t_range[1], size=n_samples)
    values = _slice_values(m, ss, tt)
    violated = values > 1.0 + tol
    n_violated_per_row = violated.sum(axis=1)
    entries = {}
    for j, c in enumerate(range(3, m.k + 1)):
        unique = violated[:, j] & (n_violated_per_row == 1)
        idx = np.nonzero(unique)[0]
        witness = (float(ss[idx[0]]), float(tt[idx[0]])) if idx.size else None
        entries[c] = ProbeEntry(
            c=c,
            witness=witness,
            n_violated=int(violated[:, j].sum()),
            n_witness=int(idx.size),
        )
    return ProbeReport(
        s_range=tuple(s_range),
        t_range=tuple(t_range),
        n_samples=n_samples,
        seed=seed,
        entries=entries,
    )
