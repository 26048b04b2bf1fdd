"""Text of whole blocks of records, built as byte rows in numpy.

``region-slice`` and ``inequalities`` write up to 10^6 records.
Formatting them one Python call per value costs more than computing them,
so each writer formats a block at a time.  A field of the block is a
``uint8`` array with one row per record that holds the field's ASCII
text, with NUL bytes as padding anywhere in the row; ``join`` lays the
fields and the constant separators side by side and drops every NUL.
The bytes are those of the Python formatting they replace:

- ``g12`` prints ``'%.12g' % x``;
- ``set_rows`` spells a set mask's rule numbers, ``sep.join(map(str, C))``;
- ``repr_rows`` prints ``float.__repr__``, once per distinct value;
- ``text_rows`` pads a list of byte strings, for tables of fixed texts.

Only the commands that write with this module import it.  Like every
module of the package, it runs no numpy code at import.
"""

from __future__ import annotations

from functools import cache

from ._lattice import _BLOCK
from ._numpy import np

#: Values per pass of ``g12``.  Its two dozen temporaries of this length
#: stay in malloc's free lists; at 10 240 values the heap was trimmed and
#: grown again on every call (about 370 page faults), and a value took
#: twice as long.  At 1024 values a pass took 45% more time, and at 2048
#: `region-slice` at (12,2) about 10 ms more in process; at 4096 a pass
#: held about 200 KB more.
PASS = 5 * _BLOCK // 2
#: Bytes of rows that ``join`` lays out and squeezes at once.
_SQUEEZE = 96 << 10

#: A ``g12`` row is three little-endian uint64 words: the sign at byte 0,
#: the mantissa from byte 1 and, in scientific notation, the exponent from
#: byte 16.  The mantissa is at most 17 bytes ("0.000" and 12 digits), and
#: at most 13 in scientific notation, so bytes 21-23 stay NUL.  Holes in it
#: are NUL bytes.
G12_WIDTH = 24
#: Decimal exponents that the tables cover: every nonzero float64 has one
#: in [-324, 308], and a clipped nan or inf gets 309.
_E_MIN, _E_MAX = -324, 309
#: Below this exponent 10^(11 - e) overflows, and ``g12`` defers to Python.
_E_TINY = -296


def _columns(texts, width: int) -> tuple[np.ndarray, ...]:
    """The little-endian uint64 words of ``texts`` padded to ``width``
    bytes, one array per word."""
    rows = np.array(texts, dtype=f"S{width}").view("<u8").reshape(len(texts), -1)
    return tuple(rows.T.copy())


@cache
def _g12_tables():
    """The read-only tables of ``g12``.

    ``digits[v]`` holds the 4 digits of v < 10^4, and ``digits[v + 10^4]``
    the same without trailing zeros, as a little-endian uint32; the pass
    widens them with ``dtype=np.uint64`` wherever it shifts them, which
    numpy 1's promotion would not do.  By the
    exponent e, at ``e - _E_MIN``: ``scale`` is 10^(11 - e) as Python's
    correctly rounded parse gives it (0 where that overflows),
    ``exponent`` the third word of a row (%g's exponent text, or nothing
    in fixed notation), and ``place`` the class c of the point.  c = q in
    1..12 puts the point after digit q: fixed notation at e = q - 1, and
    scientific notation at c = 1.  c = 13..16 is fixed notation at
    e = 12 - c, "0." and c - 13 zeros before all 12 digits.

    By c: ``head`` keeps the integer part's digits where digit i sits at
    byte 1 + i; ``tail`` keeps the fraction's digits where digit i sits at
    byte i, and ``shift`` is the bits that then move them past the point;
    ``point[c + 17 * f]`` is the text of the point, or of "0." and its
    zeros, which goes only before a nonempty fraction (f = 1).
    """
    v = np.arange(10_000, dtype=np.uint32)
    digit = np.empty_like(v)
    digits = np.zeros(20_000, dtype=np.uint32)
    full, trimmed = digits[:10_000], digits[10_000:]
    for i in range(4):
        # digit i of v, counted from the left, in byte i
        np.floor_divide(v, 10 ** (3 - i), out=digit)
        digit %= 10
        digit += ord("0")
        digit <<= 8 * i
        full |= digit
        # while v ends in 4 - i zeros, only its first i digits stay
        np.remainder(v, 10 ** (4 - i), out=digit)
        trimmed[(digit == 0) & (trimmed == 0)] = 1 << 8 * i
    trimmed -= 1
    trimmed &= full
    e = np.arange(_E_MIN, _E_MAX + 1).tolist()
    scale = np.array([float(f"1e{11 - x}") if x >= _E_TINY else 0.0 for x in e])
    exponent, = _columns([b"" if -4 <= x < 12 else b"e%+03d" % x for x in e], 8)
    place = np.array([x + 1 if 0 <= x < 12 else 12 - x if -4 <= x < 0 else 1 for x in e])
    classes = range(17)
    head = _columns([b"\0" + b"\xff" * q if q <= 12 else b"" for q in classes], 16)
    tail = _columns([b"\0" * q + b"\xff" * (12 - q) if q <= 12 else b"\xff" * 12
                     for q in classes], 16)
    shift = np.array([16 if q <= 12 else 8 * (q - 10) for q in classes], dtype=np.uint64)
    point = _columns([b""] * 17 + [b"\0" * (1 + q) + b"." for q in range(13)]
                     + [b"\x000." + b"0" * z for z in range(4)], 16)
    tables = (digits, scale, exponent, place, *head, *tail, shift, *point)
    for table in tables:
        table.setflags(write=False)
    return tables


def g12(values, end: bytes = b"") -> np.ndarray:
    """Rows of ``'%.12g' % x`` for the float64 ``values``, NUL padded,
    shape (n, 24).

    Each |x| is scaled to y = |x| 10^(11 - e), e = floor(log10 |x|), with
    one rounding where 0 <= 11 - e <= 22 and two otherwise, so y is within
    3e-4 of the exact value.  Its 12 digits are y rounded to an integer r.
    The integer part is r's digits masked to those before the point; the
    fraction is r's digits without trailing zeros, masked to those after
    it and shifted past the point, which goes only before a nonempty
    fraction.  Where the rounding could go either way (frac(y) within 1e-3
    of 1/2), where e was one off (y outside [1e11, 1e12)), on a carry to
    10^12, below 10^-296, and for 0, inf and nan, the row is Python's own
    text.

    ``end``, at most one byte, follows each value's text in its row's last
    byte, which the text never reaches: a field separator that costs no
    field of its own.
    """
    x = np.asarray(values, dtype=float).ravel()
    out = np.empty((x.size, G12_WIDTH), dtype=np.uint8)
    words = out.view(np.uint64)
    for start in range(0, x.size, PASS):
        _g12_pass(x[start:start + PASS], words[start:start + PASS])
    if end:
        out[:, -1] = ord(end)
    return out


def _g12_pass(x: np.ndarray, rows: np.ndarray) -> None:
    """``g12`` of ``x`` into the (n, 3) uint64 view ``rows``."""
    (digits, scale, exponent, place, head0, head1, tail0, tail1, shift,
     point0, point1) = _g12_tables()
    # each temporary goes as soon as it is used, to hold few at once
    y = np.abs(x)
    # 0, inf and nan come out of range, and so go to Python
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.log10(y)
        np.floor(e, out=e)
        np.fmin(e, _E_MAX, out=e)
        e = np.fmax(e, _E_MIN, out=e).astype(np.intp)
        e -= _E_MIN
        y *= scale[e]
        r = np.rint(y)
        slow = ~(y >= 1e11)
        slow |= r >= 1e12
        y -= r
        slow |= ~(np.abs(y, out=y) < 0.499)
    del y
    r[slow] = 0.0
    # the three 4-digit groups of r, exact in float64
    g0 = np.floor(r / 1e8)
    r -= g0 * 1e8
    g0 = g0.astype(np.intp)
    g1 = np.floor(r / 1e4)
    r -= g1 * 1e4
    g1 = g1.astype(np.intp)
    g2 = r.astype(np.intp)
    del r
    c = place[e]
    # the fraction: a group loses its trailing zeros when every later one is 0
    zero = g2 == 0
    low = np.left_shift(digits[g1 + 10_000 * zero], 32, dtype=np.uint64)
    zero &= g1 == 0
    low |= digits[g0 + 10_000 * zero]
    low &= tail0[c]
    high = digits[g2 + 10_000] & tail1[c]
    dot = c + 17 * ((low | high) != 0)
    bits = shift[c]
    rows[:, 2] = high >> (np.uint64(64) - bits) | exponent[e]
    high <<= bits
    high |= low >> (np.uint64(64) - bits)
    low <<= bits
    # the integer part, digit i at byte 1 + i
    group = digits[g1]
    low |= (np.left_shift(digits[g0], 8, dtype=np.uint64)
            | np.left_shift(group, 40, dtype=np.uint64)) & head0[c]
    high |= (group >> 24 | np.left_shift(digits[g2], 8, dtype=np.uint64)) & head1[c]
    low |= point0[dot]
    low |= np.signbit(x) * np.uint64(ord("-"))
    rows[:, 0] = low
    rows[:, 1] = high | point1[dot]
    if slow.any():
        # about 1 value in 500 of a grid: each row is written as bytes
        slow = np.flatnonzero(slow)
        flat = memoryview(rows).cast("B")
        for i, v in zip(slow.tolist(), x[slow].tolist()):
            flat[G12_WIDTH * i:G12_WIDTH * (i + 1)] = (b"%.12g" % v).ljust(G12_WIDTH, b"\0")


@cache
def _set_tokens(k: int, sep: bytes) -> np.ndarray:
    """Row i - 1 is ``sep`` and the number of rule i, NUL padded."""
    width = len(sep) + len(str(k))
    tokens = np.array([sep + b"%d" % i for i in range(1, k + 1)], dtype=f"S{width}")
    tokens = tokens.view(np.uint8).reshape(k, width)
    tokens.setflags(write=False)
    return tokens


def _bits(masks, k: int) -> np.ndarray:
    """(n, k) 0/1 bytes of the masks' bits, bit i - 1 (rule i) first."""
    little = np.asarray(masks, dtype="<u4").view(np.uint8).reshape(-1, 4)
    return np.unpackbits(little, axis=1, bitorder="little")[:, :k]


def set_rows(masks, k: int, sep: bytes) -> np.ndarray:
    """Rows of the rule numbers of each nonempty set mask, ascending and
    joined by ``sep``, NUL padded: the text of ``sep.join(map(str, C))``."""
    bits = _bits(masks, k)
    tokens = _set_tokens(k, sep)
    rows = tokens * bits[:, :, None]
    # the smallest rule of each set has no separator before it
    rows[np.arange(len(bits)), bits.argmax(axis=1), :len(sep)] = 0
    return rows.reshape(len(bits), -1)


def text_rows(texts) -> np.ndarray:
    """Rows of the byte strings ``texts``, NUL padded to the longest."""
    table = np.array(texts, dtype=bytes)
    return table.view(np.uint8).reshape(len(table), table.dtype.itemsize)


def repr_rows(values) -> np.ndarray:
    """Rows of ``float.__repr__`` of the float64 ``values``, NUL padded,
    with one Python call per distinct bit pattern."""
    bits = np.asarray(values, dtype=float).view(np.uint64)
    distinct, where = np.unique(bits, return_inverse=True)
    return text_rows([b"%r" % v for v in distinct.view(float).tolist()])[where]


def join(*fields) -> bytes:
    """The bytes of each row's fields in order, without their padding.

    A field is a (n, width) ``uint8`` array of rows, or ``bytes`` that
    every row shares; no field holds a NUL of its own text.  The rows are
    laid out and squeezed a few at a time, so that no temporary reaches
    malloc's mmap threshold (128 KB) and each is reused by the next.
    """
    n = next(len(f) for f in fields if not isinstance(f, bytes))
    widths = [len(f) if isinstance(f, bytes) else f.shape[1] for f in fields]
    step = max(1, _SQUEEZE // sum(widths))
    rows = np.empty((min(n, step), sum(widths)), dtype=np.uint8)
    parts = []
    for start in range(0, n, step):
        part = rows[:min(step, n - start)]
        at = 0
        for field, width in zip(fields, widths):
            if isinstance(field, bytes):
                part[:, at:at + width] = np.frombuffer(field, dtype=np.uint8)
            else:
                part[:, at:at + width] = field[start:start + step]
            at += width
        # bytes.translate deletes in one pass, faster than a boolean mask
        parts.append(part.tobytes().translate(None, b"\0"))
    return b"".join(parts)
