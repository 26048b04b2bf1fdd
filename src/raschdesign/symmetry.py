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

Q_g has a closed form.  With A' = perm^-1(A) and F the flip set,
f_A(g o x) = prod_{i in A'-F} x_i prod_{i in A'&F} (1 - x_i), so
Q[A, B] = (-1)^|B&F| when A'-F <= B <= A' (a model subset) and 0 otherwise.
Ordered by A -> A', the rows of Q form a lower triangular matrix in the
subset order, since B < A' forces |B| < |A'|, with diagonal (-1)^|A'&F|.
So det Q is the sign of the index permutation A -> A' times
prod_A (-1)^|A'&F|, and |det Q| = 1 always.  Q costs O(p 2^d) entries to
set and its determinant O(p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from ._numpy import np
from .model import (
    Design,
    InteractionModel,
    ParameterVector,
    _check_model,
    fisher_information,
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
    """The integer matrix Q with f(g o x) = Q f(x) for all settings, and det Q."""

    element: GroupElement
    model: InteractionModel
    q: np.ndarray
    det: int


@lru_cache(maxsize=8)
def representation_matrix(g: GroupElement, m: InteractionModel) -> Representation:
    """Q_g and its determinant from the closed form (see the module notes).

    Cached, so one command builds Q_g and Q_{g^-1} once each; ``q`` is
    read-only.
    """
    if g.k != m.k:
        raise ValueError(f"group element on {g.k} rules, model on {m.k}")
    pull = GroupElement(_inverse_perm(g.perm), ())  # A -> A' = perm^-1(A)
    flips = subset_mask(g.flips)
    rows, cols, signs = [], [], []
    diagonal, parity = [], 0
    for row, a in enumerate(act_on_setting(pull, mask, m.k) for mask in m.masks):
        free = a & flips
        diagonal.append(m.position(a))
        parity += free.bit_count()
        sub = free
        while True:  # B = (A' - F) | sub over the subsets sub of A' & F
            rows.append(row)
            cols.append(m.position((a ^ free) | sub))
            signs.append((-1) ** sub.bit_count())
            if not sub:
                break
            sub = (sub - 1) & free
    q = np.zeros((m.p, m.p), dtype=np.int64)
    q[rows, cols] = signs
    q.setflags(write=False)
    # sign(A -> A'): a cycle of length L has sign (-1)^(L-1)
    parity += m.p - len(_cycles(diagonal))
    return Representation(g, m, q, (-1) ** parity)


def _cycles(image: list[int]) -> list[list[int]]:
    """Cycles of the permutation i -> image[i] of 0..n-1."""
    cycles, seen = [], set()
    for start in range(len(image)):
        cycle = []
        i = start
        while i not in seen:
            seen.add(i)
            cycle.append(i)
            i = image[i]
        if cycle:
            cycles.append(cycle)
    return cycles


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
    """theta, g theta, g^2 theta, ... until the orbit returns to theta.

    An orbit of the cyclic group of g can close only at theta, so each point
    is compared with theta alone, at 1e-12 max(1, |theta|_inf), and the orbit
    never grows past the order of g.  Q^{-T} is cast to float once for the
    whole orbit, so each further point costs one matrix-vector product.
    """
    _check_model(theta, m)
    q_inv = representation_matrix(g.inverse(), m).q
    # the C-ordered float copy that ``q_inv.T @ values`` makes at every step
    q_inv_t = np.ascontiguousarray(q_inv.T, dtype=float)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(theta.values))))
    orbit = [theta]
    for _ in range(_order(g) - 1):
        current = ParameterVector(m, q_inv_t @ orbit[-1].values)
        if np.max(np.abs(current.values - theta.values)) <= tol:
            break
        orbit.append(current)
    return orbit


def _order(g: GroupElement) -> int:
    """Order of g: a cycle of length L of perm returns its rules after L
    steps, flipped once per flip on the cycle, so it needs 2L when those
    flips are odd in number."""
    flips = {i - 1 for i in g.flips}
    return math.lcm(*(
        len(cycle) << (len(flips.intersection(cycle)) % 2)
        for cycle in _cycles([image - 1 for image in g.perm])
    ))


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
