"""Optimality regions of the corner design.

The corner design puts weight 1/p on every setting with at most d active
rules.  Its D-optimality region in parameter space is cut out by one
polynomial inequality per subset C of {1..k} with |C| > d:

    sum over B in C, |B| <= d of
        C(|C|-|B|-1, d-|B|)^2  *  prod over {A in C, |A| <= d, A != B} mu_A
    <= 1.

This module generates and evaluates that inequality system.
``corner_inequalities`` lists it term by term and ``evaluate_inequality``
evaluates one inequality; that symbolic form is the reference.
``corner_lhs`` computes every left-hand side at once: with
S(C) = sum of beta_A over A in C, |A| <= d, and
Z_j(C) = sum of e^{-beta_B} over B in C, |B| = j, the left-hand side of C
is sum_j C(|C|-j-1, d-j)^2 e^{S(C)} Z_j(C), and S and Z_0..Z_d are d + 2
subset-sum (zeta) transforms over the 2^k bitmasks.  The cost is
O((d+1) k 2^k) instead of one Python loop over every term of every C.
The module also provides two deliberately independent D-optimality
certificates for cross-checking:

* ``kw_certificate`` computes the sensitivity lambda(x) f(x)^T M^{-1} f(x)
  for every setting (the equivalence theorem; the bound is p) from two
  zeta transforms: one builds M, one sums M^{-1} over the pairs A|B in x.
* ``saturated_kw_values`` computes the same quantity for saturated uniform
  designs through the inverse of the support's regression matrix and the
  support intensities, without ever forming M.

Both verdicts, ``is_corner_optimal_by_theorem`` (bound 1) and
``kw_certificate`` (bound p), come from one rule at a fixed tolerance,
``THEOREM_TOL`` and ``KW_TOL``: a value above bound (1 + tol) is violated,
and the verdict is on the boundary when the largest value is within
bound * tol of the bound.  The slice and the probe use ``THEOREM_TOL`` too.
No function takes a tolerance argument; each reads its constant when it runs.

On the exchangeable d = 2 slice (mu_i = s, mu_ij = t) every C with
|C| = c has the same left-hand side,
LHS_c = s^(c-1) t^(P-1) (C(c-1,2)^2 s t + c (c-2)^2 t + P s), P = C(c,2).
``symmetric_slice`` sums its three terms with ``fsum`` at one point and is
the reference.  ``_slice_values`` is the one array kernel, with a single
exp per entry; ``region_slice``, the CLI's region-slice writer and
``redundancy_probe`` run it over blocks of ``_BLOCK`` points, so their
temporaries stay at a few hundred KB whatever the grid or sample count;
the probe draws its samples block by block as well, so its memory does
not grow with the sample count.

For d = 1 (with base parameter 0) the inequality system and the
certificates agree point by point.  For d >= 2 the system's product
condition "A != B" differs from the condition "A not a subset of B" that
the direct saturated computation yields; both readings are kept and can
be compared with the ``compare`` command of ``raschdesign.cli``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Sequence

from ._numpy import np
from .exceptions import NotSaturated, SingularInformation, SingularSupport
from .model import (
    Design,
    InteractionModel,
    ParameterVector,
    _check_model,
    _cholesky,
    _sensitivities,
    _zeta,
    choose,
    fisher_information,
    intensities,
    mask_subset,
    regression_matrix,
    setting_bits,
    subset_mask,
)

#: Verdict tolerance for the polynomial inequality system (LHS <= 1 + tol).
THEOREM_TOL = 1e-9
#: Relative verdict tolerance for sensitivity checks (d(x) <= p * (1 + tol)).
KW_TOL = 1e-7
#: Relative deviation from 1/p that a saturated design's weights may show.
UNIFORM_TOL = 1e-6


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
    marks a maximum within bound * tol of the bound.
    """

    optimal: bool
    max_directional_value: float
    bound: float
    worst_setting: tuple[int, ...]
    violated_labels: tuple[tuple[int, ...], ...]
    boundary: bool


def corner_design(m: InteractionModel) -> Design:
    """Uniform weight 1/p on every setting with at most d active rules.

    Those settings are the masks of the parameter subsets, |A| <= d.
    """
    return Design(m.k, {x: 1.0 / m.p for x in m.masks})


def corner_inequalities(m: InteractionModel) -> list[MonomialInequality]:
    """The full inequality system, one entry per C with |C| > d.

    Entries are ordered by (|C|, lexicographic), giving
    sum_{c=d+1}^{k} C(k, c) inequalities.
    """
    return [_inequality(c, m.d) for c in _corner_index(m.k, m.d)[0]]


def _inequality(label: tuple[int, ...], d: int) -> MonomialInequality:
    """The inequality generated by the set C = ``label``."""
    support_all = []
    for bsize in range(d + 1):
        support_all.extend(combinations(label, bsize))
    coeffs = tuple(
        choose(len(label) - len(b) - 1, d - len(b)) ** 2 for b in support_all
    )
    return MonomialInequality(label, tuple(support_all), coeffs)


@lru_cache(maxsize=8)
def _corner_index(k: int, d: int):
    """Labels, masks and coefficients of the system, in (|C|, lex) order.

    ``coeffs[j, i]`` is C(|C|-j-1, d-j)^2 for the i-th set C, the
    coefficient shared by every term whose omitted subset has size j.
    """
    labels = tuple(
        c for size in range(d + 1, k + 1) for c in combinations(range(1, k + 1), size)
    )
    masks = np.fromiter((subset_mask(c) for c in labels), dtype=np.intp,
                        count=len(labels))
    sizes = np.array([len(c) for c in labels], dtype=np.intp)
    table = np.array(
        [[choose(c - j - 1, d - j) ** 2 for c in range(k + 1)] for j in range(d + 1)],
        dtype=float,
    )
    coeffs = table[:, sizes]
    # the cache hands these arrays to every caller
    masks.setflags(write=False)
    coeffs.setflags(write=False)
    return labels, masks, coeffs


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


def corner_lhs(
    theta: ParameterVector, m: InteractionModel
) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Left-hand side of every corner inequality, from subset-sum transforms.

    Returns ``(labels, values)`` in ``corner_inequalities`` order.  With
    S(C) the sum of beta_A over A in C, |A| <= d, the inequality of C is

        sum_j C(|C|-j-1, d-j)^2 * e^{S(C)} * Z_j(C),
        Z_j(C) = sum over B in C, |B| = j of e^{-beta_B},

    and S and every Z_j are zeta transforms on the 2^k lattice.  Z_j is
    summed with the shift s_j = max_{|B|=j} (-beta_B), so no term exceeds
    1 and each term is e^{S + s_j + log Z_j}.  A set C whose shifted sum
    has fallen below the smallest normal float (beta spanning about 700)
    is evaluated term by term with ``evaluate_inequality`` instead.
    Overflow gives inf, as there, and never NaN.
    """
    _check_model(theta, m)
    labels, masks, coeffs = _corner_index(m.k, m.d)
    beta = theta.values
    where = np.asarray(m.masks, dtype=np.intp)
    cards = np.asarray(m.cards)
    lattice = np.zeros((m.d + 2, 1 << m.k))
    lattice[0, where] = beta
    shifts = np.empty((m.d + 1, 1))
    for j in range(m.d + 1):
        level = cards == j
        neg = -beta[level]
        shifts[j] = neg.max()
        lattice[j + 1, where[level]] = np.exp(neg - shifts[j])
    picked = _zeta(lattice)[:, masks]
    sums, z = picked[0], picked[1:]
    with np.errstate(over="ignore", divide="ignore"):
        values = (coeffs * np.exp(sums + shifts + np.log(z))).sum(axis=0)
    for i in np.flatnonzero((z < np.finfo(float).tiny).any(axis=0)):
        values[i] = evaluate_inequality(_inequality(labels[i], m.d), theta)
    return labels, values


def is_corner_optimal_by_theorem(
    theta: ParameterVector, m: InteractionModel
) -> OptimalityVerdict:
    """Check every corner inequality; optimal iff all LHS <= 1 + THEOREM_TOL."""
    return _theorem_verdict(corner_lhs(theta, m)[1], m)


def _theorem_verdict(values: np.ndarray, m: InteractionModel) -> OptimalityVerdict:
    """Verdict of the system from its ``corner_lhs`` values."""
    return _verdict(values, _corner_index(m.k, m.d)[1], 1.0, THEOREM_TOL, m.k)


def _verdict(
    values: np.ndarray, masks: Sequence[int], bound: float, tol: float, k: int
) -> OptimalityVerdict:
    """The one optimality rule of both certificates.

    ``values[i]`` belongs to the set or setting ``masks[i]``; a ``range``
    serves for settings indexed by mask, at no memory cost.  A value is
    violated when it exceeds bound (1 + tol); the verdict is on the
    boundary when the largest value is within bound * tol of the bound.
    An empty system (k = d) is optimal, with maximum -inf at setting 0.
    """
    best, worst = -math.inf, 0
    if values.size:
        i = int(np.argmax(values))
        best, worst = float(values[i]), int(masks[i])
    over = np.flatnonzero(values > bound * (1.0 + tol))
    violated = tuple(mask_subset(int(masks[i])) for i in over)
    return OptimalityVerdict(
        optimal=not violated,
        max_directional_value=best,
        bound=bound,
        worst_setting=setting_bits(worst, k),
        violated_labels=violated,
        boundary=abs(best - bound) <= bound * tol,
    )


def sensitivities(
    w: Design, theta: ParameterVector, m: InteractionModel
) -> np.ndarray:
    """Sensitivity d(x) = lambda(x) f(x)^T M^{-1} f(x) for every setting."""
    try:
        low = _cholesky(fisher_information(w, theta, m))
    except np.linalg.LinAlgError as exc:
        raise SingularInformation(
            f"information matrix of a design on {len(w.support)} points "
            f"is not positive definite (p={m.p})"
        ) from exc
    return _sensitivities(low, intensities(theta, m), m)[1]


def kw_certificate(
    w: Design, theta: ParameterVector, m: InteractionModel
) -> OptimalityVerdict:
    """Equivalence-theorem check: optimal iff max_x d(x) <= p (1 + KW_TOL)."""
    d = sensitivities(w, theta, m)
    return _verdict(d, range(d.size), float(m.p), KW_TOL, m.k)


def saturated_kw_values(
    w: Design,
    theta: ParameterVector,
    m: InteractionModel,
) -> dict[int, float]:
    """Sensitivity/p at every setting for a saturated uniform design.

    Uses the factorization of the information matrix through the support's
    regression matrix: with F_w the stacked support regression vectors and
    the diagonal holding the support intensities, the value at x is
    lambda(x) * sum_i v_i^2 / lambda(x_i) where v = F_w^{-T} f(x).  Values
    at support points are exactly 1 up to rounding; the design is optimal
    iff all values are <= 1.  The weights must be 1/p within a relative
    ``UNIFORM_TOL``.
    """
    _check_model(theta, m)
    support = sorted(w.support)
    if len(support) != m.p:
        raise NotSaturated(
            f"design has {len(support)} support points, saturation needs p={m.p}"
        )
    target = 1.0 / m.p
    off = max(abs(w.weights[x] - target) for x in support)
    if off > UNIFORM_TOL * target:
        raise NotSaturated(
            f"saturated weights deviate from 1/p by {off:.3e} (tol {UNIFORM_TOL:.0e})"
        )
    f_w = regression_matrix(m, support).astype(float)
    rows = regression_matrix(m).astype(float)
    try:
        v = np.linalg.solve(f_w.T, rows.T)
    except np.linalg.LinAlgError as exc:
        raise SingularSupport(
            "support regression vectors do not form an invertible matrix"
        ) from exc
    lam = intensities(theta, m)
    vals = lam * np.einsum("ij,i->j", v**2, 1.0 / lam[support])
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


#: Points per block of the slice kernel.  ``region_slice``, the CLI's
#: region-slice writer and ``redundancy_probe`` evaluate their points this
#: many at a time, so no temporary grows with the grid or the sample count.
#: At k = 12 a block's arrays are 80 KB, below glibc's default 128 KiB
#: mmap threshold; 8192-point blocks, mapped and faulted in afresh each
#: time, made a fresh 10^6-sample probe 20% slower on a 2-core Linux host.
_BLOCK = 1 << 10

#: Verdict names of the slice, indexed by the codes of ``_slice_verdicts``.
_VERDICTS = ("optimal", "boundary", "not-optimal")


@lru_cache(maxsize=8)
def _slice_coefficients(k: int):
    """Per-c constants of the exchangeable slice, c = 3..k.

    ``LHS_c = s^(c-1) t^(P-1) (lead s t + single t + pair s)`` with
    P = C(c, 2), lead = C(c-1, 2)^2, single = c (c-2)^2 and pair = P.
    ``cs`` is a vector; the float constants are (k - 2, 1) columns, so
    they broadcast against a block of points along the second axis.
    """
    cs = np.arange(3, k + 1)
    pairs = cs * (cs - 1) // 2
    table = (
        cs,
        *(np.asarray(a, dtype=float)[:, None] for a in (
            cs - 1,
            pairs - 1,
            [choose(c - 1, 2) ** 2 for c in cs],
            [c * choose(c - 2, 1) ** 2 for c in cs],
            pairs,
        )),
    )
    # the cache hands these arrays to every caller
    for a in table:
        a.setflags(write=False)
    return table


def _check_slice_model(m: InteractionModel, what: str) -> None:
    """The exchangeable slice needs d = 2, and has inequalities only for k >= 3."""
    if m.d != 2:
        raise ValueError(f"{what} is defined for d=2 models, got d={m.d}")
    if m.k < 3:
        raise ValueError(
            f"the d = 2 slice has inequalities only for k >= 3, got k={m.k}"
        )


def _slice_values(
    m: InteractionModel, s: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """Vectorized symmetric slice: rows = points, columns = c = 3..k.

    The values are computed c-major, as a C-contiguous (k - 2, n) array,
    so numpy's inner loops run over the n points; the result is its
    transpose, a view, and ``.T`` gives the c-major array back.  One exp
    per entry: ``s^(c-1) t^(P-1)`` times the bracket of
    ``_slice_coefficients``.  Each term is a product of finite factors, so
    an entry is 0 or inf where the exponent under- or overflows, never NaN.
    """
    _check_slice_model(m, "symmetric slice")
    _, s_pow, t_pow, lead, single, pair = _slice_coefficients(m.k)
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", under="ignore"):
        base = np.exp(np.log(s) * s_pow + np.log(t) * t_pow)
        st = base * s
        return (lead * (st * t) + single * (base * t) + pair * st).T


def _slice_verdicts(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``binding_c`` and verdict code of every column of c-major slice values.

    ``values`` is ``_slice_values(...).T``, one column per point.  The rule
    of ``SliceRow``: outside the region the smallest violated c, otherwise
    the argmax; the verdict is "boundary" when the maximum is at least
    1 - THEOREM_TOL.
    """
    violated = values > 1.0 + THEOREM_TOL
    outside = violated.any(axis=0)
    column = np.where(outside, violated.argmax(axis=0), values.argmax(axis=0))
    near = values.max(axis=0) >= 1.0 - THEOREM_TOL
    return _slice_coefficients(k)[0][column], np.where(outside, 2, near)


def _slice_grid(
    m: InteractionModel,
    s_values: Sequence[float],
    t_values: Sequence[float],
) -> Iterator[tuple[np.ndarray, ...]]:
    """Check a rectangular grid, then evaluate it block by block.

    The checks run at once; the returned iterator yields, for ``_BLOCK``
    consecutive points in s-major order, the arrays
    ``(s, t, values, binding_c, verdict code)``, with ``values`` c-major:
    row j holds LHS_{j+3} of every point in the block.
    """
    s_values = np.asarray(list(s_values), dtype=float)
    t_values = np.asarray(list(t_values), dtype=float)
    if s_values.size == 0 or t_values.size == 0:
        raise ValueError("empty grid")
    if np.any(s_values <= 0) or np.any(t_values <= 0):
        raise ValueError("grid values must be positive")
    _check_slice_model(m, "symmetric slice")
    n_points = s_values.size * t_values.size

    def blocks():
        for start in range(0, n_points, _BLOCK):
            index = np.arange(start, min(start + _BLOCK, n_points))
            ss, tt = s_values[index // t_values.size], t_values[index % t_values.size]
            values = _slice_values(m, ss, tt).T
            yield (ss, tt, values, *_slice_verdicts(values, m.k))

    return blocks()


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
) -> list[SliceRow]:
    """Evaluate the symmetric slice on a rectangular grid.

    Rows are ordered s-major then t, matching the grid index order.
    """
    rows: list[SliceRow] = []
    for ss, tt, values, binding, verdict in _slice_grid(m, s_values, t_values):
        rows.extend(map(
            SliceRow, ss.tolist(), tt.tolist(), zip(*values.tolist()),
            binding.tolist(), map(_VERDICTS.__getitem__, verdict.tolist()),
        ))
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
) -> ProbeReport:
    """Seeded uniform sampling of the symmetric slice for non-redundancy.

    Deterministic given the seed.  Absence of a witness is sampling
    evidence of redundancy on the region, not a proof.

    The samples come from one PCG64 stream, ``np.random.default_rng(seed)``,
    at one 64-bit draw per sample: s takes draws 0..n-1 and t takes draws
    n..2n-1, so sample i is the i-th entry of ``rng.uniform(*s_range, n)``
    and of the ``rng.uniform(*t_range, n)`` drawn after it.  The probe
    keeps this layout.  Two generators of the seed, the second advanced by
    n draws, deal the samples out ``_BLOCK`` at a time, so no array grows
    with the sample count; a witness is the first sample, in that order,
    that violates c alone.
    """
    _check_slice_model(m, "redundancy probe")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if not (0 < s_range[0] < s_range[1]) or not (0 < t_range[0] < t_range[1]):
        raise ValueError("sampling ranges must satisfy 0 < low < high")
    s_rng = np.random.default_rng(seed)
    t_rng = np.random.default_rng(seed)
    t_rng.bit_generator.advance(n_samples)
    cs = _slice_coefficients(m.k)[0]
    n_violated = np.zeros(cs.size, dtype=np.intp)
    n_witness = np.zeros(cs.size, dtype=np.intp)
    witnesses: list[tuple[float, float] | None] = [None] * cs.size
    for start in range(0, n_samples, _BLOCK):
        size = min(_BLOCK, n_samples - start)
        ss = s_rng.uniform(s_range[0], s_range[1], size=size)
        tt = t_rng.uniform(t_range[0], t_range[1], size=size)
        violated = _slice_values(m, ss, tt).T > 1.0 + THEOREM_TOL
        unique = violated & (np.count_nonzero(violated, axis=0) == 1)
        found = np.count_nonzero(unique, axis=1)
        n_violated += np.count_nonzero(violated, axis=1)
        n_witness += found
        for j in np.flatnonzero(found).tolist():
            if witnesses[j] is None:
                i = int(unique[j].argmax())
                witnesses[j] = (float(ss[i]), float(tt[i]))
    entries = {
        c: ProbeEntry(c=c, witness=witness, n_violated=n_v, n_witness=n_w)
        for c, witness, n_v, n_w in zip(cs.tolist(), witnesses, n_violated.tolist(),
                                        n_witness.tolist())
    }
    return ProbeReport(
        s_range=tuple(s_range),
        t_range=tuple(t_range),
        n_samples=n_samples,
        seed=seed,
        entries=entries,
    )
