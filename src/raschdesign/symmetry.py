"""Group actions on settings, designs, and parameters.

The relevant symmetries are rule permutations and 0/1 exchanges on chosen
rules.  A group element g = (perm, flips) acts on a setting by applying
the flips first and the permutation second; this composition order is
fixed so that representation matrices multiply as Q_{gh} = Q_g Q_h.

Each action lifts linearly to regression vectors: f(g o x) = Q_g f(x) for
an integer matrix Q_g with |det Q_g| = 1.  Parameters transform with the
inverse transpose, which keeps the regression response invariant, and
information matrices transform by congruence with Q_g (determinant
unchanged).

Q_g is solved exactly on the corner settings and checked by its support:
f_A(g o x) reads only the rules in A' = perm^-1(A), so a row A of Q_g that
is zero outside the subsets of A' holds on all 2^k settings once it holds
on the subsets of A', which are corner settings.  The check costs O(p^2),
so ``symmetry --orbit`` runs at (k, d) = (20, 2) in about a second.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._numpy import np
from .model import (
    Design,
    InteractionModel,
    ParameterVector,
    _check_model,
    fisher_information,
    regression_matrix,
    inverse_model_matrix,
    setting_mask,
    subset_mask,
)


@dataclass(frozen=True)
class GroupElement:
    """A rule permutation combined with a set of 0/1 exchanges.

    ``perm[i-1]`` is the image of rule i; ``flips`` lists the rules whose
    on/off states are exchanged before permuting.
    """

    perm: tuple[int, ...]
    flips: tuple[int, ...]

    def __post_init__(self) -> None:
        k = len(self.perm)
        if sorted(self.perm) != list(range(1, k + 1)):
            raise ValueError(f"{self.perm} is not a permutation of 1..{k}")
        flips = tuple(sorted(self.flips))
        if any(not 1 <= i <= k for i in flips) or len(set(flips)) != len(flips):
            raise ValueError(f"invalid flip set {self.flips} for k={k}")
        object.__setattr__(self, "flips", flips)

    @classmethod
    def identity(cls, k: int) -> "GroupElement":
        return cls(tuple(range(1, k + 1)), ())

    @property
    def k(self) -> int:
        return len(self.perm)

    def compose(self, other: "GroupElement") -> "GroupElement":
        """Element acting as self after other: (self * other)(x) = self(other(x))."""
        if self.k != other.k:
            raise ValueError("group elements act on different rule counts")
        perm = tuple(self.perm[other.perm[i] - 1] for i in range(self.k))
        inv_other = _inverse_perm(other.perm)
        moved = {inv_other[i - 1] for i in self.flips}
        flips = tuple(sorted(moved.symmetric_difference(other.flips)))
        return GroupElement(perm, flips)

    def inverse(self) -> "GroupElement":
        inv = _inverse_perm(self.perm)
        return GroupElement(inv, tuple(sorted(self.perm[i - 1] for i in self.flips)))


def _inverse_perm(perm: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(perm)
    for i, image in enumerate(perm, start=1):
        out[image - 1] = i
    return tuple(out)


def act_on_setting(g: GroupElement, x, k: int | None = None) -> int:
    """Transformed setting bitmask: flips applied first, permutation second."""
    k = k if k is not None else g.k
    if g.k != k:
        raise ValueError(f"group element on {g.k} rules, setting on {k}")
    mask = setting_mask(x, k) ^ subset_mask(g.flips)
    out = 0
    for i in range(1, k + 1):
        if mask & (1 << (i - 1)):
            out |= 1 << (g.perm[i - 1] - 1)
    return out


@dataclass(frozen=True, eq=False)
class Representation:
    """The integer matrix Q with f(g o x) = Q f(x) for all settings."""

    element: GroupElement
    model: InteractionModel
    q: np.ndarray

    @property
    def det(self) -> int:
        return _integer_det(self.q)


def representation_matrix(g: GroupElement, m: InteractionModel) -> Representation:
    """Solve for Q exactly on the corner support and check it by its support.

    The corner support's regression matrix is unimodular with a known
    integer inverse, so Q comes out in exact integer arithmetic.  Row A of
    Q must be zero outside the subsets of perm^-1(A) (see the module notes).
    """
    if g.k != m.k:
        raise ValueError(f"group element on {g.k} rules, model on {m.k}")
    moved = [act_on_setting(g, x, m.k) for x in m.masks]
    q = (inverse_model_matrix(m) @ regression_matrix(m, moved)).T
    masks = np.asarray(m.masks, dtype=np.int64)
    pulled = np.zeros_like(masks)  # A' = perm^-1(A): rule i is in A' iff perm(i) is in A
    for i, image in enumerate(g.perm):
        pulled |= ((masks >> (image - 1)) & 1) << i
    if np.any((q != 0) & ((masks[None, :] & ~pulled[:, None]) != 0)):
        raise AssertionError(
            "regression action is not linear; representation solve is inconsistent"
        )
    return Representation(g, m, q)


def _integer_det(mat: np.ndarray) -> int:
    """Exact determinant of a small integer matrix (elimination over rationals)."""
    a = [[Fraction(int(v)) for v in row] for row in mat]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor:
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    assert det.denominator == 1
    return int(det)


def act_on_parameters(
    g: GroupElement, theta: ParameterVector, m: InteractionModel
) -> ParameterVector:
    """Transform parameters with Q^{-T}, keeping the response invariant.

    Q^{-1} is the representation of the inverse element, so no numerical
    inversion is involved.  The action may move mass into the base
    parameter; renormalize explicitly with ``with_base_zero`` if needed.
    """
    _check_model(theta, m)
    q_inv = representation_matrix(g.inverse(), m).q
    return ParameterVector(m, q_inv.T @ theta.values)


def parameter_orbit(
    g: GroupElement, theta: ParameterVector, m: InteractionModel
) -> list[ParameterVector]:
    """theta, g theta, g^2 theta, ... up to the first repeat.

    Points are compared rounded to 12 decimals.  Q^{-1} is built once for
    the whole orbit, so each further point costs one matrix-vector product.
    """
    _check_model(theta, m)
    q_inv = representation_matrix(g.inverse(), m).q
    orbit = [theta]
    seen = {tuple(np.round(theta.values, 12))}
    while True:
        current = ParameterVector(m, q_inv.T @ orbit[-1].values)
        key = tuple(np.round(current.values, 12))
        if key in seen:
            return orbit
        seen.add(key)
        orbit.append(current)


def act_on_design(g: GroupElement, w: Design) -> Design:
    """Relabeled design: the weight of setting x moves to g o x.

    This direction pairs with the parameter action so that information
    matrices transform by congruence with Q_g; relabeling by the inverse
    element gives the opposite convention.
    """
    k = w.k
    return Design(k, {act_on_setting(g, x, k): v for x, v in w.weights.items()})


@dataclass(frozen=True)
class TransformReport:
    """Residuals of the information-matrix transformation law."""

    max_residual: float
    det_difference: float


def verify_transformation(
    g: GroupElement, w: Design, theta: ParameterVector, m: InteractionModel
) -> TransformReport:
    """Compare M(g o w, g o theta) against Q M(w, theta) Q^T.

    Returns the max-entry residual and the determinant difference, both
    relative to the matrix scale.  theta is read at base parameter 0: as
    f_empty = 1, Q^{-T} e_empty = e_empty, so a shift of beta_empty scales
    both sides of the law by one factor, and a large one cannot overflow M.
    """
    theta = theta.with_base_zero()
    q = representation_matrix(g, m).q
    m_orig = fisher_information(w, theta, m)
    m_moved = fisher_information(act_on_design(g, w), act_on_parameters(g, theta, m), m)
    congruent = q @ m_orig @ q.T
    scale = max(1.0, float(np.max(np.abs(congruent))))
    max_residual = float(np.max(np.abs(m_moved - congruent))) / scale
    _, logdet_a = np.linalg.slogdet(m_moved)
    _, logdet_b = np.linalg.slogdet(m_orig)
    # a rank-deficient M has a determinant of pure rounding, sign and log included
    if min(np.linalg.matrix_rank(a, hermitian=True) for a in (m_moved, m_orig)) < m.p:
        det_difference = float(
            abs(np.linalg.det(m_moved) - np.linalg.det(m_orig))
        )
    else:
        det_difference = float(abs(logdet_a - logdet_b))
    return TransformReport(max_residual=max_residual, det_difference=det_difference)
