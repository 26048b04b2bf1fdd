"""Seeded uniform draws from counter-based SplitMix64 streams.

SplitMix64 (Steele, Lea and Flood, "Fast splittable pseudorandom number
generators", OOPSLA 2014) adds the odd constant ``GAMMA`` to a 64-bit
state and returns a bijective mix of the new state.  So draw i of the
stream that starts at ``start`` is

    mix(start + (i + 1) GAMMA mod 2^64),

a fixed function of the start and i: any run of draws is made without
the draws before it, and the draws of a sample do not depend on how many
are made at once.  Stream j of a seed starts at SplitMix64's mix folded
over the 64-bit words of the exact integer key seed * 2^32 + j, so
distinct (seed, stream) pairs have distinct keys, and distinct starts
while the key is below 2^64 (seeds below 2^32).  A draw in [low, high) is
low + (high - low) u with u = (bits >> 11) 2^-53, numpy's ``uniform``
formula, or the float below high where that sum rounds up to high.

The sampler works only on arrays.  A uint64 wrap in an array is silent,
while one in a numpy scalar warns, so the per-call offsets are Python ints
taken mod 2^64 and converted once.  Every constant is a ``np.uint64``, so
the promotion is the same under numpy 1 and 2.  Nothing here imports
``numpy.random``.
"""

from __future__ import annotations

from ._numpy import np

GAMMA = 0x9E3779B97F4A7C15
_MIX = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))
_MASK = (1 << 64) - 1


def mix(z: int) -> int:
    """SplitMix64's output mix of a 64-bit state."""
    for shift, factor in _MIX:
        z = (z ^ (z >> shift)) * factor & _MASK
    return z ^ (z >> 31)


def stream_start(seed: int, stream: int) -> int:
    """The start of stream ``stream`` of ``seed``: ``mix`` folded over the
    64-bit words of the key seed * 2^32 + stream, the lowest word first."""
    if seed < 0 or not 0 <= stream < 1 << 32:
        raise ValueError(f"need seed >= 0 and 0 <= stream < 2^32, got {seed}, {stream}")
    key, start = seed << 32 | stream, 0
    while True:
        start = mix((start + (key & _MASK) + GAMMA) & _MASK)
        key >>= 64
        if not key:
            return start


class Uniforms:
    """Draws of the streams ``streams`` of ``seed``, up to ``width`` per stream
    and call, made in scratch allocated once."""

    def __init__(self, seed: int, streams: tuple[int, ...], width: int) -> None:
        self.starts = [stream_start(seed, j) for j in streams]
        self.steps = np.arange(1, width + 1, dtype=np.uint64)
        self.steps *= np.uint64(GAMMA)
        self.bits = np.empty((len(self.starts), width), dtype=np.uint64)
        self.spare = np.empty_like(self.bits)
        self.mix = [(np.uint64(shift), np.uint64(factor)) for shift, factor in _MIX]
        self.last = np.uint64(31)
        self.drop = np.uint64(11)

    def draw(self, first: int, low, high, out: np.ndarray) -> np.ndarray:
        """Draws first..first + n - 1 of each stream, one row per stream, into
        ``out`` of shape (streams, n), in [low, high); ``low`` and ``high`` are
        numbers or columns, one per stream.  Returns ``out``."""
        n = out.shape[-1]
        offsets = np.array([(start + first * GAMMA) & _MASK for start in self.starts],
                           dtype=np.uint64)
        z, spare = self.bits[:, :n], self.spare[:, :n]
        np.add(self.steps[:n], offsets[:, None], out=z)
        for shift, factor in self.mix:
            np.right_shift(z, shift, out=spare)
            z ^= spare
            z *= factor
        np.right_shift(z, self.last, out=spare)
        z ^= spare
        # (high - low) 2^-53 is exact, so this is (high - low) u
        high = np.asarray(high, dtype=float)
        np.right_shift(z, self.drop, out=z)
        np.multiply(z, (high - low) * 2.0 ** -53, out=out)
        out += low
        # the sum can round up to high; the float below it stands in
        return np.minimum(out, np.nextafter(high, low), out=out)
