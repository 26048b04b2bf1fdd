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
is sum_j C(|C|-j-1, d-j)^2 exp(S(C) + log Z_j(C)).  S is a zeta transform
and log Z_0..log Z_d are log-space zeta transforms over the 2^k bitmasks
(``_lattice``), so every set takes one path whatever the span of beta.
``_lattice.corner_coefficients`` holds the coefficient once per size, and
``corner_lhs`` applies each size's column to that size's run of sets.  The
cost is O((d+1) k 2^k) instead of one Python loop over every term of every
C.  Both forms read the system at base intensity mu_{} = 1.  A set C is
held only as its bitmask; ``_lattice.corner_labels`` spells the sets out
in the same order for the listings.
The module also provides two deliberately independent D-optimality
certificates for cross-checking:

* ``kw_certificate`` computes the sensitivity lambda(x) f(x)^T M^{-1} f(x)
  for every setting (the equivalence theorem; the bound is p) from two
  zeta transforms: one builds M, one sums M^{-1} over the pairs A|B in x.
  At an exchangeable parameter and an S_k-invariant design it reads them
  on the k + 1 orbits (``_orbits``), with the lattice as that path's oracle.
* ``saturated_kw_values`` computes the same quantity for saturated uniform
  designs through the inverse of the support's regression matrix and the
  support intensities, without ever forming M, ``_BLOCK`` settings at a
  time.

Both verdicts, ``is_corner_optimal_by_theorem`` (bound 1) and
``kw_certificate`` (bound p), come from one rule at a fixed tolerance,
``THEOREM_TOL`` and ``KW_TOL``: a value above bound (1 + tol) is violated,
and the verdict is on the boundary when the largest value is within
bound * tol of the bound.  The slice and the probe use ``THEOREM_TOL`` too.
No function takes a tolerance argument; each reads its constant when it runs.

On the exchangeable slice of order d >= 2 (mu_i = s, mu_ij = t, mu_A = 1
above), read on the S_k orbits (Gatermann and Parrilo, JPAA 2004), every C
with |C| = c has one left-hand side: Z_j(C) = C(c, j) e^(-b_j), so with
a_j = C(c-j-1, d-j)^2 C(c, j), P = C(c, 2) and lead the sum of a_j, j != 1, 2,
LHS_c = s^(c-1) t^(P-1) (lead s t + a_1 t + a_2 s); at d = 2 the bracket is
C(c-1,2)^2 s t + c (c-2)^2 t + P s, which ``symmetric_slice`` sums with
``fsum`` as the reference.  ``_slice_values`` is the one array kernel, with
a single exp per entry; ``region_slice``, the CLI's region-slice writer and
``redundancy_probe`` run it over blocks of ``_BLOCK`` points, writing into
scratch they allocate once, so their arrays stay at a few hundred KB
whatever the grid or sample count; the probe draws its samples a few
blocks at a time (``_splitmix``), so its memory does not grow with the
sample count either.

The base parameter beta_{} scales every intensity by one factor, which
moves no D-optimality answer, so the sensitivities and both certificates
read it as 0 (``ParameterVector.with_base_zero``), as the system does.
For d = 1 the inequality system and the certificates then agree point by
point, at every base parameter.  For d >= 2 the system's product
condition "A != B" differs from the condition "A not a subset of B" that
the direct saturated computation yields; both readings are kept and can
be compared with the ``compare`` command of ``raschdesign.cli``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations
from typing import Callable, Iterator, Sequence

from ._lattice import (_BLOCK, corner_coefficients, corner_index, corner_labels,
                       log_zeta, zeta)
from ._numpy import np
from .exceptions import NotSaturated, SingularInformation, SingularSupport
from .model import (
    Design,
    InteractionModel,
    ParameterVector,
    _check_model,
    _cholesky,
    _information,
    _sensitivities,
    _weighted,
    choose,
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


@dataclass(frozen=True, eq=False)
class OptimalityVerdict:
    """Outcome of an optimality check.

    ``max_directional_value`` is the largest left-hand side (bound 1 for
    the inequality system, bound p for sensitivity checks).  ``boundary``
    marks a maximum within bound * tol of the bound.  The masks of the
    violated sets or settings are named only when ``violated_labels`` is read.
    """

    optimal: bool
    max_directional_value: float
    bound: float
    worst_setting: tuple[int, ...]
    _violated: Callable[[], list[int]]
    boundary: bool

    @property
    def violated_labels(self) -> tuple[tuple[int, ...], ...]:
        """The rules of each violated set or setting, in the checked order."""
        return tuple(map(mask_subset, self._violated()))


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
    return [_inequality(c, m.d) for c in corner_labels(m.k, m.d)]


def _inequality(label: tuple[int, ...], d: int) -> MonomialInequality:
    """The inequality generated by the set C = ``label``."""
    support_all = []
    for bsize in range(d + 1):
        support_all.extend(combinations(label, bsize))
    coeffs = tuple(
        choose(len(label) - len(b) - 1, d - len(b)) ** 2 for b in support_all
    )
    return MonomialInequality(label, tuple(support_all), coeffs)


def evaluate_inequality(q: MonomialInequality, theta: ParameterVector) -> float:
    """Left-hand side value at the given parameters, with mu of the empty set 1.

    Each term is evaluated as coeff * exp(sum of beta over its support);
    the shared exponent sum is accumulated once in log space.  The base
    parameter is read as 0 (``ParameterVector.with_base_zero``).
    """
    m = theta.model
    pos = [m.position(subset_mask(a)) for a in q.support_all]
    betas = theta.with_base_zero().values[pos]
    total = float(np.sum(betas))
    return math.fsum(
        coeff * _exp(total - float(b))
        for coeff, b in zip(q.coefficients, betas)
    )


def corner_lhs(theta: ParameterVector, m: InteractionModel) -> np.ndarray:
    """Left-hand side of every corner inequality, from subset-sum transforms.

    Returns the values in ``corner_inequalities`` order, read at mu of the
    empty set 1, as ``evaluate_inequality`` reads them.  With
    S(C) the sum of beta_A over A in C, |A| <= d, the inequality of C is

        sum_j C(|C|-j-1, d-j)^2 * exp(S(C) + log Z_j(C)),
        Z_j(C) = sum over B in C, |B| = j of e^{-beta_B}.

    S is a zeta transform and log Z_0..log Z_d are ``log_zeta`` transforms
    of -beta placed level by level on the 2^k lattice, so no sum under- or
    overflows before the one exp per term, made a block of whole sizes at
    a time (``_size_blocks``).  The levels are made one at a time, in one
    2^k array, and added in the order j = 0..d, as a sum over axis 0 adds.
    Overflow gives inf, never NaN: where the partial sums of S(C) overflow
    to both +inf and -inf, a ``ValueError`` names the first such set C.
    """
    _check_model(theta, m)
    masks = corner_index(m)
    beta = theta.with_base_zero().values
    where = np.asarray(m.masks, dtype=np.intp)
    cards = np.asarray(m.cards)
    sums = np.zeros(1 << m.k)
    sums[where] = beta
    log_z = np.empty(1 << m.k)
    values = np.zeros(masks.size)
    with np.errstate(over="ignore", invalid="ignore"):
        zeta(sums)
        # one level j at a time, its terms added in the order j = 0..d; no
        # term is -0.0, so the first sum, 0 + term, is the term
        for j in range(m.d + 1):
            log_z.fill(-np.inf)
            log_z[where[cards == j]] = -beta[cards == j]
            log_zeta(log_z)
            for start, stop, runs in _size_blocks(m.k, m.d):
                terms = log_z[masks[start:stop]]
                terms += sums[masks[start:stop]]
                np.exp(terms, out=terms)
                for first, last, coefficients in runs:
                    terms[first:last] *= coefficients[j]
                values[start:stop] += terms
    if np.isnan(values).any():
        rules = ",".join(map(str, mask_subset(int(masks[np.isnan(values).argmax()]))))
        raise ValueError(f"the beta sum overflows at C={{{rules}}}: its partial sums "
                         "reach both +inf and -inf, so its lhs would be NaN")
    return values


@lru_cache(maxsize=8)
def _size_blocks(k: int, d: int) -> tuple:
    """The corner system in blocks of whole sizes, each closed once it holds
    ``_BLOCK`` sets: a block's span and, per size in it, its run in the block
    and its column of ``corner_coefficients``.  A small system is one block;
    a large one holds about one size's terms at a time."""
    table, blocks, runs, start, stop = corner_coefficients(k, d), [], [], 0, 0
    for column, c in enumerate(range(d + 1, k + 1)):
        runs.append((stop - start, stop - start + math.comb(k, c), table[:, column, None]))
        stop += math.comb(k, c)
        if c == k or stop - start >= _BLOCK:
            blocks.append((start, stop, tuple(runs)))
            runs, start = [], stop
    return tuple(blocks)


def is_corner_optimal_by_theorem(
    theta: ParameterVector, m: InteractionModel
) -> OptimalityVerdict:
    """Check every corner inequality; optimal iff all LHS <= 1 + THEOREM_TOL."""
    return _theorem_verdict(corner_lhs(theta, m), m)


def _theorem_verdict(values: np.ndarray, m: InteractionModel) -> OptimalityVerdict:
    """Verdict of the system from its ``corner_lhs`` values."""
    return _verdict(values, corner_index(m), 1.0, THEOREM_TOL, m.k)


def _verdict(
    values: np.ndarray, masks: np.ndarray, bound: float, tol: float, k: int,
    expand: Callable[[np.ndarray], list[int]] | None = None,
) -> OptimalityVerdict:
    """The one optimality rule of both certificates.

    ``values[i]`` belongs to the set or setting ``masks[i]``.  A value is
    violated when it exceeds bound (1 + tol); the verdict is on the
    boundary when the largest value is within bound * tol of the bound.
    The verdict holds the violated masks and names their rules only when
    asked; ``expand``, when given, lists the violated sets or settings
    from those masks.  An empty system (k = d) is optimal, with maximum -inf at
    setting 0.
    """
    best, worst = -math.inf, 0
    if values.size:
        i = int(np.argmax(values))
        best, worst = float(values[i]), int(masks[i])
    over = masks[values > bound * (1.0 + tol)]
    return OptimalityVerdict(
        optimal=not over.size,
        max_directional_value=best,
        bound=bound,
        worst_setting=setting_bits(worst, k),
        _violated=over.tolist if expand is None else partial(expand, over),
        boundary=abs(best - bound) <= bound * tol,
    )


def sensitivities(
    w: Design, theta: ParameterVector, m: InteractionModel
) -> np.ndarray:
    """Sensitivity d(x) = lambda(x) f(x)^T M^{-1} f(x) for every setting.

    Read at base parameter 0: d does not depend on it.
    """
    lam, wl = _weighted(w, theta.with_base_zero(), m)
    try:
        low = _cholesky(_information(wl, m))
    except np.linalg.LinAlgError as exc:
        raise _singular(w, m) from exc
    return _sensitivities(low, lam, m)[1]


def _singular(w: Design, m: InteractionModel) -> SingularInformation:
    return SingularInformation(
        f"information matrix of a design on {len(w.support)} points "
        f"is not positive definite (p={m.p})"
    )


def kw_certificate(
    w: Design, theta: ParameterVector, m: InteractionModel
) -> OptimalityVerdict:
    """Equivalence-theorem check: optimal iff max_x d(x) <= p (1 + KW_TOL).

    At an exchangeable ``theta`` and an S_k-invariant ``w`` the check runs
    on the k + 1 orbits (``_orbits.orbit_sensitivities``): the worst setting
    is the first mask of the worst orbit, (1 << c) - 1, and the violated
    settings are every setting of each violated orbit, in mask order.
    Anything else runs on the 2^k lattice (``sensitivities``), which raises
    for a mismatch.
    """
    if theta.exchangeable:
        from ._orbits import orbit_members, orbit_sensitivities

        try:
            d = orbit_sensitivities(w, theta, m)
        except SingularInformation as exc:
            raise _singular(w, m) from exc
        if d is not None:
            return _verdict(d, (1 << np.arange(m.k + 1)) - 1, float(m.p), KW_TOL, m.k,
                            partial(orbit_members, m.k))
    d = sensitivities(w, theta, m)
    return _verdict(d, np.arange(d.size), float(m.p), KW_TOL, m.k)


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
    ``UNIFORM_TOL``.  The values are read at base parameter 0.
    """
    _check_model(theta, m)
    theta = theta.with_base_zero()
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
    lam = intensities(theta, m)
    inverse = 1.0 / lam[support]
    out: dict[int, float] = {}
    # _BLOCK settings at a time, not the 2^k x p regression matrix
    for start in range(0, 1 << m.k, _BLOCK):
        settings = range(start, min(start + _BLOCK, 1 << m.k))
        rows = regression_matrix(m, settings).astype(float)
        try:
            v = np.linalg.solve(f_w.T, rows.T)
        except np.linalg.LinAlgError as exc:
            raise SingularSupport(
                "support regression vectors do not form an invertible matrix"
            ) from exc
        vals = lam[start:settings.stop] * np.einsum("ij,i->j", v**2, inverse)
        out.update(zip(settings, vals.tolist()))
    return out


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


# The slice kernel runs ``_BLOCK`` points at a time: ``region_slice``, the
# CLI's region-slice writer and ``redundancy_probe`` evaluate their points
# this many at a time, so no temporary grows with the grid or the sample
# count.  The kernel's scratch is allocated once per run and reused by every
# block.  When each block allocated its own ten 80 KB temporaries (k = 12),
# a fresh 10^6-sample probe sometimes took 16 times the page faults and
# a third more time, which fits glibc trimming and regrowing the heap.

#: Samples per call of the probe's sampler; a block per call took twice as long.
_DRAWS = 8 * _BLOCK

#: Verdict names of the slice, indexed by the codes of ``_slice_verdicts``.
_VERDICTS = ("optimal", "boundary", "not-optimal")


@lru_cache(maxsize=8)
def _slice_coefficients(k: int, d: int):
    """Per-c constants of the exchangeable slice, c = d+1..k: ``cs``, then
    as (k - d, 1) columns, which broadcast against a block of points, the
    powers c - 1 and P - 1 and the module's lead (the sum of a_j over
    j != 1, 2), single (a_1) and pair (a_2), from ``corner_coefficients``."""
    cs = np.arange(d + 1, k + 1)
    a = corner_coefficients(k, d) * [[math.comb(c, j) for c in cs.tolist()]
                                     for j in range(d + 1)]
    table = (cs, *(np.asarray(x, dtype=float)[:, None] for x in (
        cs - 1, cs * (cs - 1) // 2 - 1, np.delete(a, [1, 2], axis=0).sum(axis=0), a[1], a[2],
    )))
    # the cache hands these arrays to every caller
    for x in table:
        x.setflags(write=False)
    return table


def _check_slice_model(m: InteractionModel) -> None:
    """The (s, t) slice needs d >= 2, and has inequalities only for k >= d + 1."""
    if m.d < 2 or m.k <= m.d:
        raise ValueError(f"the (s, t) slice needs d >= 2 and has inequalities only for "
                         f"k >= {max(m.d, 2) + 1}, got k={m.k}, d={m.d}")


def _slice_values(
    m: InteractionModel, s: np.ndarray, t: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Vectorized symmetric slice: rows = points, columns = c = d+1..k.

    The values are computed c-major, as a (k - d, n) array, so numpy's
    inner loops run over the n points; the result is its transpose, a
    view, and ``.T`` gives the c-major array back.  One exp per entry:
    ``s^(c-1) t^(P-1)`` times the bracket of ``_slice_coefficients``.
    Each term is a product of finite factors, so an entry is 0 or inf
    where the exponent under- or overflows, never NaN.

    ``out`` is scratch of shape (3, k - d, n') with n' >= n, which a
    caller that runs block after block allocates once; the result is a
    view of it, valid until the next call.  Without it the kernel
    allocates its own, and the c-major array is C-contiguous.
    """
    _, s_pow, t_pow, lead, single, pair = _slice_coefficients(m.k, m.d)
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if out is None:
        out = np.empty((3, m.k - m.d, s.size))
    base, st, values = out[:, :, :s.size]
    with np.errstate(over="ignore", under="ignore"):
        np.multiply(np.log(s), s_pow, out=base)
        np.multiply(np.log(t), t_pow, out=values)
        np.exp(np.add(base, values, out=base), out=base)
        np.multiply(base, s, out=st)
        # lead (st t) + single (base t) + pair st, summed in that order
        np.multiply(st, t, out=values)
        values *= lead
        base *= t
        base *= single
        values += base
        st *= pair
        values += st
    return values.T


def _slice_verdicts(values: np.ndarray, m: InteractionModel) -> tuple[np.ndarray, np.ndarray]:
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
    return _slice_coefficients(m.k, m.d)[0][column], np.where(outside, 2, near)


def _slice_grid(
    m: InteractionModel,
    s_values: Sequence[float],
    t_values: Sequence[float],
) -> Iterator[tuple[np.ndarray, ...]]:
    """Check a rectangular grid, then evaluate it block by block.

    The checks run at once; the returned iterator yields, for ``_BLOCK``
    consecutive points in s-major order, the arrays
    ``(s, t, values, binding_c, verdict code)``, with ``values`` c-major:
    row j holds LHS_{j+d+1} of every point in the block.  ``values`` lives
    in scratch that every block reuses, so it is valid until the next one.
    """
    s_values = np.asarray(list(s_values), dtype=float)
    t_values = np.asarray(list(t_values), dtype=float)
    if s_values.size == 0 or t_values.size == 0:
        raise ValueError("empty grid")
    if np.any(s_values <= 0) or np.any(t_values <= 0):
        raise ValueError("grid values must be positive")
    _check_slice_model(m)
    n_points = s_values.size * t_values.size

    def blocks():
        scratch = np.empty((3, m.k - m.d, min(_BLOCK, n_points)))
        for start in range(0, n_points, _BLOCK):
            index = np.arange(start, min(start + _BLOCK, n_points))
            ss, tt = s_values[index // t_values.size], t_values[index % t_values.size]
            values = _slice_values(m, ss, tt, scratch).T
            yield (ss, tt, values, *_slice_verdicts(values, m))

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

    Sample i is (s, t) = draw i of the seed's SplitMix64 streams 0 and 1
    (``_splitmix``), a fixed function of the seed, the stream and i, so no
    sample depends on how many are drawn at once.  The probe draws
    ``_DRAWS`` samples per call and checks them ``_BLOCK`` at a time, so no
    array grows with the sample count.  A witness is the first sample, in
    that order, that violates c alone.
    """
    from ._splitmix import Uniforms

    _check_slice_model(m)
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if not (0 < s_range[0] < s_range[1]) or not (0 < t_range[0] < t_range[1]):
        raise ValueError("sampling ranges must satisfy 0 < low < high")
    cs = _slice_coefficients(m.k, m.d)[0]
    n_violated = np.zeros(cs.size, dtype=np.intp)
    n_witness = np.zeros(cs.size, dtype=np.intp)
    witnesses: list[tuple[float, float] | None] = [None] * cs.size
    # every block reuses the samples, the kernel's scratch and two flag arrays
    width, drawn = min(_BLOCK, n_samples), min(_DRAWS, n_samples)
    draws = Uniforms(seed, (0, 1), drawn)
    low, high = (np.array([[s_range[i]], [t_range[i]]]) for i in (0, 1))
    samples = np.empty((2, drawn))
    scratch = np.empty((3, cs.size, width))
    flags = np.empty((2, cs.size, width), dtype=bool)
    for start in range(0, n_samples, _BLOCK):
        size = min(_BLOCK, n_samples - start)
        at = start % _DRAWS
        if not at:
            draws.draw(start, low, high, samples[:, :min(_DRAWS, n_samples - start)])
        ss, tt = samples[:, at:at + size]
        violated, unique = flags[:, :, :size]
        np.greater(_slice_values(m, ss, tt, scratch).T, 1.0 + THEOREM_TOL, out=violated)
        np.bitwise_and(violated, np.count_nonzero(violated, axis=0) == 1, out=unique)
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
