"""Core objects of the Rasch Poisson counts model with interactions.

A model on ``k`` binary rules with interaction order ``d`` carries one
log-linear parameter ``beta_A`` per subset ``A`` of ``{1..k}`` with
``|A| <= d``.  A rule setting is a vector in {0,1}^k, stored as a bitmask
with bit ``i-1`` holding the state of rule ``i``.  The intensity of the
Poisson response at a setting is ``exp(f(x) . beta)`` where the regression
vector ``f(x)`` consists of all squarefree monomials of degree at most
``d`` in the rule indicators; equivalently it is the product of ``e^beta_A``
over the active subsets ``A`` of the setting.

The subset index is ordered by (cardinality, lexicographic), starting with
the empty set.  This order makes the model matrix of the corner support
unit lower triangular and fixes the column convention used throughout.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Mapping

from ._numpy import np
from .exceptions import InputFormatError, ModelSizeError

#: Hard ceiling for full enumeration of {0,1}^k.
MAX_ENUMERABLE_RULES = 20
#: Largest log intensity whose exponential is a finite float (about 709.78).
_LOG_MAX = math.log(sys.float_info.max)


def choose(n: int, r: int) -> int:
    """Binomial coefficient with the convention C(n, r) = 0 for r < 0 or r > n."""
    if r < 0 or r > n:
        return 0
    return math.comb(n, r)


def subset_mask(subset: Iterable[int]) -> int:
    """Bitmask of a set of 1-based rule indices."""
    mask = 0
    for i in subset:
        mask |= 1 << (i - 1)
    return mask


def mask_subset(mask: int) -> tuple[int, ...]:
    """Sorted 1-based rule indices encoded by a bitmask."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def setting_mask(x, k: int) -> int:
    """Canonical bitmask of a rule setting.

    Accepts a bitmask, a bit string like ``"0110"`` (first character is
    rule 1), or a 0/1 sequence ``(x_1, ..., x_k)``.
    """
    if isinstance(x, (int, np.integer)):
        mask = int(x)
        if not 0 <= mask < (1 << k):
            raise ValueError(f"setting mask {mask} out of range for k={k}")
        return mask
    if isinstance(x, str):
        bits = x.strip()
        if len(bits) != k or any(c not in "01" for c in bits):
            raise ValueError(f"bit string {x!r} is not a length-{k} 0/1 string")
        return sum(1 << i for i, c in enumerate(bits) if c == "1")
    bits = tuple(int(v) for v in x)
    if len(bits) != k or any(b not in (0, 1) for b in bits):
        raise ValueError(f"setting {x!r} is not a length-{k} 0/1 vector")
    return sum(1 << i for i, b in enumerate(bits) if b)


def setting_bits(mask: int, k: int) -> tuple[int, ...]:
    """The 0/1 vector (x_1, ..., x_k) of a setting bitmask."""
    return tuple((mask >> i) & 1 for i in range(k))


def setting_string(mask: int, k: int) -> str:
    """Bit-string form ``"x1 x2 ... xk"`` (no spaces) of a setting bitmask."""
    return "".join("1" if (mask >> i) & 1 else "0" for i in range(k))


@dataclass(frozen=True)
class InteractionModel:
    """Interaction model of order ``d`` on ``k`` binary rules.

    ``subsets`` lists all parameter indices (subsets of {1..k} with
    cardinality <= d) ordered by (cardinality, lexicographic); the list is
    downward closed and begins with the empty set.  ``p = len(subsets)``
    is the model dimension.
    """

    k: int
    d: int
    subsets: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False
    )
    masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    cards: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _positions: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"need at least one rule, got k={self.k}")
        if not 1 <= self.d <= self.k:
            raise ValueError(f"interaction order d={self.d} outside 1..k={self.k}")
        if self.k > MAX_ENUMERABLE_RULES:
            raise ModelSizeError(
                f"k={self.k} exceeds the enumeration limit of "
                f"{MAX_ENUMERABLE_RULES} rules"
            )
        subsets = []
        for c in range(self.d + 1):
            subsets.extend(combinations(range(1, self.k + 1), c))
        masks = tuple(subset_mask(s) for s in subsets)
        object.__setattr__(self, "subsets", tuple(subsets))
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "cards", tuple(len(s) for s in subsets))
        object.__setattr__(self, "_positions", {m: i for i, m in enumerate(masks)})

    @property
    def p(self) -> int:
        """Model dimension: sum of C(k, i) for i = 0..d."""
        return len(self.subsets)

    @property
    def n_settings(self) -> int:
        return 1 << self.k

    def settings(self) -> range:
        """All rule settings as bitmasks, in increasing mask order."""
        return range(1 << self.k)

    def position(self, subset) -> int:
        """Index of a parameter subset (given as mask or iterable of rules)."""
        mask = subset if isinstance(subset, (int, np.integer)) else subset_mask(subset)
        try:
            return self._positions[int(mask)]
        except KeyError:
            raise ValueError(
                f"{mask_subset(int(mask))} is not a parameter subset of "
                f"the (k={self.k}, d={self.d}) model"
            ) from None


def _cholesky(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix.

    ``np.linalg.cholesky`` returns NaN for input holding an inf or a NaN;
    this raises ``ValueError`` instead, so that no NaN verdict can follow.
    A finite matrix that is not positive definite raises
    ``np.linalg.LinAlgError``.
    """
    if not np.isfinite(mat).all():
        raise ValueError("array must not contain infs or NaNs")
    return np.linalg.cholesky(mat)


def _check_model(theta: "ParameterVector", m: InteractionModel) -> None:
    if theta.model != m:
        raise ValueError(
            f"parameter vector indexed by (k={theta.model.k}, d={theta.model.d}) "
            f"does not match model (k={m.k}, d={m.d})"
        )


@dataclass(frozen=True, eq=False)
class ParameterVector:
    """Log-scale parameters ``beta_A`` aligned with a model's subset index.

    The intensities are ``mu_A = e^beta_A``; beta is the stored
    parameterization and mu is derived on demand.
    """

    model: InteractionModel
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.model.p,):
            raise ValueError(
                f"expected {self.model.p} parameter values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("all beta values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def zeros(cls, m: InteractionModel) -> "ParameterVector":
        return cls(m, np.zeros(m.p))

    @classmethod
    def from_dict(cls, m: InteractionModel, beta: Mapping) -> "ParameterVector":
        """Build from a mapping subset -> beta_A.

        Keys may be rule tuples, bitmasks, or strings of comma-separated
        1-based indices ("" for the empty set).  Unspecified subsets
        default to 0.
        """
        vals = np.zeros(m.p)
        for key, value in beta.items():
            vals[m.position(parse_subset_key(key, m))] = float(value)
        return cls(m, vals)

    @classmethod
    def symmetric(cls, m: InteractionModel, s: float, t: float | None = None):
        """Exchangeable point: mu_i = s for singletons, mu_ij = t for pairs.

        The base parameter stays at 0 (mu of the empty set is 1) and all
        higher-order parameters are 0.
        """
        if s <= 0:
            raise ValueError("s must be positive")
        vals = np.zeros(m.p)
        cards = np.asarray(m.cards)
        vals[cards == 1] = math.log(s)
        if t is not None:
            if m.d < 2:
                raise ValueError("pair intensity t requires a model with d >= 2")
            if t <= 0:
                raise ValueError("t must be positive")
            vals[cards == 2] = math.log(t)
        return cls(m, vals)

    def beta(self, subset) -> float:
        return float(self.values[self.model.position(subset)])

    def mu(self, subset) -> float:
        return math.exp(self.beta(subset))

    @property
    def normalized(self) -> bool:
        """Whether the base parameter beta of the empty set is exactly 0."""
        return self.values[0] == 0.0

    def with_base_zero(self) -> "ParameterVector":
        """Copy with the base parameter reset to 0 (global intensity rescale)."""
        vals = np.array(self.values)
        vals[0] = 0.0
        return ParameterVector(self.model, vals)

    def as_dict(self) -> dict[str, float]:
        """Mapping with comma-separated-index keys, as used in JSON files."""
        return {
            ",".join(str(i) for i in subset): float(v)
            for subset, v in zip(self.model.subsets, self.values)
        }


def parse_subset_key(key, m: InteractionModel) -> tuple[int, ...]:
    """Normalize a subset key (tuple, mask, or "1,2"-style string)."""
    if isinstance(key, str):
        stripped = key.strip()
        if not stripped:
            return ()
        try:
            subset = tuple(sorted(int(part) for part in stripped.split(",")))
        except ValueError:
            raise InputFormatError(f"cannot parse subset key {key!r}") from None
    elif isinstance(key, (int, np.integer)):
        subset = mask_subset(int(key))
    else:
        subset = tuple(sorted(int(i) for i in key))
    if len(set(subset)) != len(subset):
        raise InputFormatError(f"subset key {key!r} has repeated indices")
    if subset and not (1 <= subset[0] and subset[-1] <= m.k):
        raise InputFormatError(f"subset key {key!r} outside rules 1..{m.k}")
    if len(subset) > m.d:
        raise InputFormatError(
            f"subset key {key!r} has cardinality {len(subset)} > d={m.d}"
        )
    return subset


@dataclass(frozen=True, eq=False)
class Design:
    """Approximate design: nonnegative weights on settings, summing to one.

    Only strictly positive weights are stored; keys are setting bitmasks.
    """

    k: int
    weights: Mapping[int, float]

    def __post_init__(self) -> None:
        if self.k > MAX_ENUMERABLE_RULES:
            raise ModelSizeError(f"k={self.k} exceeds the enumeration limit")
        clean: dict[int, float] = {}
        for key in sorted(self.weights):
            w = float(self.weights[key])
            mask = int(key)
            if not 0 <= mask < (1 << self.k):
                raise ValueError(f"setting mask {mask} out of range for k={self.k}")
            if w < 0:
                raise ValueError(f"negative weight {w} at setting {mask}")
            if w > 0:
                clean[mask] = w
        total = math.fsum(clean.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"design weights sum to {total!r}, not 1")
        if not clean:
            raise ValueError("design has empty support")
        object.__setattr__(self, "weights", clean)

    @classmethod
    def uniform(cls, k: int) -> "Design":
        w = 1.0 / (1 << k)
        return cls(k, {x: w for x in range(1 << k)})

    @classmethod
    def from_weights(cls, k: int, weights: Mapping) -> "Design":
        """Build from a mapping keyed by masks, bit strings, or 0/1 tuples."""
        return cls(k, {setting_mask(key, k): float(v) for key, v in weights.items()})

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(self.weights)

    def weight(self, x) -> float:
        return self.weights.get(setting_mask(x, self.k), 0.0)

    def as_dict(self) -> dict[str, float]:
        """Mapping keyed by bit strings, as used in JSON design files."""
        return {setting_string(x, self.k): w for x, w in self.weights.items()}


def regression_vector(x, m: InteractionModel) -> np.ndarray:
    """Regression vector f(x): entry for subset A is 1 iff A is active in x."""
    xm = setting_mask(x, m.k)
    masks = np.asarray(m.masks, dtype=np.int64)
    return ((xm & masks) == masks).astype(np.int64)


def regression_matrix(m: InteractionModel, settings=None) -> np.ndarray:
    """Stack of regression vectors, one row per setting (all 2^k by default)."""
    if settings is None:
        settings = np.arange(1 << m.k, dtype=np.int64)
    else:
        settings = np.asarray(list(settings), dtype=np.int64)
    masks = np.asarray(m.masks, dtype=np.int64)
    return ((settings[:, None] & masks) == masks).astype(np.int64)


def log_intensity(x, theta: ParameterVector, m: InteractionModel) -> float:
    _check_model(theta, m)
    return float(regression_vector(x, m) @ theta.values)


def intensity(x, theta: ParameterVector, m: InteractionModel) -> float:
    """Poisson intensity at a setting: product of mu_A over active subsets.

    Evaluated as ``exp(sum of beta_A)``; products of small mu values are
    never formed directly.
    """
    return math.exp(log_intensity(x, theta, m))


def _zeta(r: np.ndarray) -> np.ndarray:
    """Subset-sum (zeta) transform over the last axis, in place.

    The last axis of the C-contiguous array ``r`` has length 2^k and is
    indexed by bitmask; afterwards ``r[..., C]`` holds the sum of the old
    ``r[..., B]`` over all subsets B of C.  Pass i adds every entry
    without bit i into its partner with bit i (Yates 1937), so the cost is
    k 2^(k-1) additions per row.  Returns ``r``.
    """
    half = 1
    while half < r.shape[-1]:
        view = r.reshape(r.shape[:-1] + (-1, 2, half))
        view[..., 1, :] += view[..., 0, :]
        half *= 2
    return r


def intensities(theta: ParameterVector, m: InteractionModel) -> np.ndarray:
    """Intensity at every setting, indexed by setting bitmask.

    The log intensity at x is the sum of beta_A over the subsets A of x,
    so it is the zeta transform of beta placed on the 2^k lattice.  A log
    intensity above log(float max) raises ``ValueError`` naming its
    setting, since every matrix built from it would hold infs or NaNs.
    """
    _check_model(theta, m)
    lattice = np.zeros(1 << m.k)
    lattice[list(m.masks)] = theta.values
    logs = _zeta(lattice)
    if logs.max() > _LOG_MAX:
        x = int(logs.argmax())
        raise ValueError(
            f"intensity overflows at setting {setting_string(x, m.k)}: log intensity "
            f"{logs[x]:.12g} exceeds log(float max) = {_LOG_MAX:.12g}, so the "
            "information would hold infs or NaNs"
        )
    return np.exp(logs)


def fisher_information(
    w: Design, theta: ParameterVector, m: InteractionModel
) -> np.ndarray:
    """Fisher information: weighted sum of lambda(x) f(x) f(x)^T over the support."""
    if w.k != m.k:
        raise ValueError(f"design on k={w.k} rules does not match model k={m.k}")
    sup = np.fromiter(w.support, dtype=np.intp)
    wl = np.zeros(1 << m.k)
    wl[sup] = np.fromiter(w.weights.values(), dtype=float) * intensities(theta, m)[sup]
    return _information(wl, m)


@lru_cache(maxsize=8)
def _union_index(k: int, d: int) -> np.ndarray:
    """p x p masks A|B over pairs of parameter subsets; cached, so read-only."""
    masks = np.asarray(InteractionModel(k, d).masks, dtype=np.intp)
    index = masks[:, None] | masks[None, :]
    index.setflags(write=False)
    return index


def _information(wl: np.ndarray, m: InteractionModel) -> np.ndarray:
    """sum_x wl[x] f(x) f(x)^T.  M_AB sums ``wl`` (weight times intensity, by
    mask) over the supersets of A|B: a zeta transform of the reversed ``wl``."""
    return _zeta(wl[::-1].copy())[((1 << m.k) - 1) ^ _union_index(m.k, m.d)]


def _sensitivities(
    low: np.ndarray, lam: np.ndarray, m: InteractionModel
) -> tuple[np.ndarray, np.ndarray]:
    """M^{-1} and lambda(x) f(x)^T M^{-1} f(x) for M = low low^T.  The zeta
    transform of M^{-1} scattered onto the masks A|B sums (M^{-1})_AB over
    A|B inside x."""
    inv = np.linalg.inv(low)
    minv = inv.T @ inv
    g = np.bincount(_union_index(m.k, m.d).ravel(), minv.ravel(), 1 << m.k)
    return minv, lam * _zeta(g)


def model_matrix(m: InteractionModel) -> np.ndarray:
    """0/1 inclusion matrix F with F[A, B] = 1 iff B is a subset of A.

    Rows and columns follow the canonical subset order, making F unit
    lower triangular with determinant one.
    """
    masks = np.asarray(m.masks, dtype=np.int64)
    return ((masks[:, None] & masks[None, :]) == masks[None, :]).astype(np.int64)


def inverse_model_matrix(m: InteractionModel) -> np.ndarray:
    """Exact integer inverse of the model matrix.

    Entry (A, B) is (-1)^(|A|-|B|) when B is a subset of A and 0 otherwise.
    """
    cards = np.asarray(m.cards, dtype=np.int64)
    signs = np.where((cards[:, None] - cards[None, :]) % 2 == 0, 1, -1)
    return model_matrix(m) * signs


def transform_vector(x, m: InteractionModel) -> np.ndarray:
    """The integer vector F^{-T} f(x) in closed form.

    For a setting with at most d active rules this is the standard basis
    vector of the active subset.  Otherwise the entry at subset A equals
    (-1)^(d-|A|) C(|A(x)|-|A|-1, d-|A|) when A is active in x, else 0.
    """
    xm = setting_mask(x, m.k)
    a = xm.bit_count()
    out = np.zeros(m.p, dtype=np.int64)
    if a <= m.d:
        out[m.position(xm)] = 1
        return out
    for idx, (mask, c) in enumerate(zip(m.masks, m.cards)):
        if xm & mask == mask:
            sign = -1 if (m.d - c) % 2 else 1
            out[idx] = sign * choose(a - c - 1, m.d - c)
    return out
