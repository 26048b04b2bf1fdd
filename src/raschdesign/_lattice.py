"""Transforms on the 2^k subset lattice, shared by ``model``, ``regions``,
``optimizer`` and ``geometry``.

An array over the lattice has a last axis of length 2^k indexed by
bitmask (bit ``i-1`` holds rule ``i``).  This module owns the subset-sum
(zeta) transform in linear and in log space, its inverse (the Moebius
transform), the masks of the subsets of one size, and the two cached
index tables that read the lattice in a model's subset order: the masks
A|B of the information matrix and the sets C of the corner inequality
system, whose rule tuples ``corner_labels`` makes on demand, with its
coefficients once per size (``corner_coefficients``).
Like every module of the package, it runs no numpy code at import.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, combinations

from ._numpy import np

#: Entries per block of every loop that goes through the lattice, the corner
#: system or a grid a block at a time, so that its arrays do not grow with
#: the size of the whole.
_BLOCK = 1 << 10


def _passes(r: np.ndarray, add) -> np.ndarray:
    """k in-place passes of ``add`` over the last axis: pass i folds every
    entry without bit i into its partner with bit i (Yates 1937)."""
    half = 1
    while half < r.shape[-1]:
        view = r.reshape(r.shape[:-1] + (-1, 2, half))
        add(view[..., 1, :], view[..., 0, :], out=view[..., 1, :])
        half *= 2
    return r


def zeta(r: np.ndarray) -> np.ndarray:
    """Subset-sum transform over the last axis of C-contiguous ``r``, in place.

    Afterwards ``r[..., C]`` holds the sum of the old ``r[..., B]`` over all
    subsets B of C, at k 2^(k-1) additions per row.  Returns ``r``.
    """
    return _passes(r, np.add)


def log_zeta(r: np.ndarray) -> np.ndarray:
    """``zeta`` in log space, in place: afterwards ``r[..., C]`` holds
    log sum of exp(old ``r[..., B]``) over the subsets B of C.

    Empty cells hold -inf, and a cell with no nonempty subset stays -inf;
    ``logaddexp`` never under- or overflows, so no sum is shifted by hand.
    Returns ``r``.
    """
    return _passes(r, np.logaddexp)


def mobius(r: np.ndarray) -> np.ndarray:
    """Inverse of ``zeta``, in place: afterwards ``r[..., C]`` holds the sum
    of (-1)^|C - B| old ``r[..., B]`` over all subsets B of C.  Returns ``r``.
    """
    return _passes(r, np.subtract)


@lru_cache(maxsize=8)
def union_index(m) -> np.ndarray:
    """p x p masks A|B over pairs of the parameter subsets of model ``m``;
    cached, so read-only."""
    masks = np.asarray(m.masks, dtype=np.intp)
    index = masks[:, None] | masks[None, :]
    index.setflags(write=False)
    return index


def masks_of_size(k: int, size: int):
    """Bitmasks of the ``size``-subsets of {1..k}, in the lexicographic order
    of their rules: the same combinations of the rule bits, summed."""
    return map(sum, combinations([1 << i for i in range(k)], size))


def corner_labels(k: int, d: int):
    """The rule tuples of ``corner_index``'s masks, in order, made on demand."""
    return chain.from_iterable(
        combinations(range(1, k + 1), size) for size in range(d + 1, k + 1)
    )


@lru_cache(maxsize=8)
def corner_index(m) -> np.ndarray:
    """Masks of the sets C with |C| > d of model ``m``, in (|C|, lexicographic)
    order, one run per size; cached, so read-only."""
    sizes = range(m.d + 1, m.k + 1)
    masks = np.fromiter(chain.from_iterable(masks_of_size(m.k, c) for c in sizes),
                        dtype=np.intp, count=sum(math.comb(m.k, c) for c in sizes))
    masks.setflags(write=False)
    return masks


@lru_cache(maxsize=8)
def corner_coefficients(k: int, d: int) -> np.ndarray:
    """``table[j, c-d-1]`` is C(c-j-1, d-j)^2, the coefficient of every term of
    a set of size c whose omitted subset has size j; cached, so read-only."""
    table = np.array([[math.comb(c - j - 1, d - j) ** 2 for c in range(d + 1, k + 1)]
                      for j in range(d + 1)], dtype=float)
    table.setflags(write=False)
    return table
