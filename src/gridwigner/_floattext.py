"""JSON text of finite float64 tables, formatted a block of entries at a time.

Each row comes out byte-identical to ``json.dumps(row.tolist())``: every entry
is written as ``repr`` writes it, the shortest decimal that reads back as the
same double (the one closest to it when there are several), positional from
``1e-4`` up to ``1e16`` and in exponent form outside.

The shortest decimal comes from Schubfach (R. Giulietti, "The Schubfach way to
render doubles", 2020), the algorithm of Java's ``Double.toString``, in uint64
numpy arithmetic: each 64 x 64 -> 128-bit product is built from 32-bit halves,
and a 126-bit power of ten comes from a 617-entry table built with Python
ints.  Java keeps two digits where one would do (``4.9E-324``); ``repr`` and
this module keep one (``5e-324``).

The text of an entry fills a 40-byte cell of five little-endian uint64 words:
its sign and the ``0.000`` lead of a positional fraction, the digits with the
decimal point, the exponent and the separator that follows it in the row.
Bytes a cell does not use are zero, and ``bytes.translate`` drops them from a
block of cells at once.  The separator after the last entry of a row ends in
``"\\n"``, which marks where the row ends; JSON numbers never hold one.

The tables cost a few milliseconds to build, so ``_jsonio`` imports this
module only for the first table large enough to use it.
"""

from __future__ import annotations

import numpy as np

#: Entries formatted at once (rounded to whole rows): it bounds the working set.
BLOCK = 4096

_U = np.uint64
_M32 = _U(2**32 - 1)
_M63 = _U(2**63 - 1)


def _g(e: int) -> int:
    """``floor(10**e / 2**r) + 1`` with ``r`` chosen so the result has 126 bits."""
    shift = 125 - ((e * 913_124_641_741) >> 38)  # 125 - floor(e log2 10)
    if e < 0:
        return (1 << shift) // 10**-e + 1
    return (10**e << shift if shift >= 0 else 10**e >> -shift) + 1


_G = [_g(e) for e in range(-292, 325)]
_G_LO = np.array([g & (2**63 - 1) for g in _G], np.uint64)  # by -k + 292
_G_HI = np.array([g >> 63 for g in _G], np.uint64)
_POW10 = np.array([10**i for i in range(18)], np.uint64)


def _word_table(texts, at: int = 0) -> np.ndarray:
    """uint64 words holding each ASCII text from byte ``at`` on."""
    return np.array([int.from_bytes(b"\0" * at + t.encode(), "little") for t in texts], np.uint64)


def _digit_groups() -> np.ndarray:
    """Word of each 4-digit group 0000..9999: its ASCII digits in bytes 0..3, and in
    byte 4 the place of its last nonzero digit (1..4) plus 32, or 0 for 0000."""
    g = np.arange(10_000)
    digits = g[:, None] // 10 ** np.arange(3, -1, -1) % 10
    nonzero = digits != 0
    last = np.where(nonzero.any(1), 4 - nonzero[:, ::-1].argmax(1) + 32, 0)
    return ((digits + 48) @ 256 ** np.arange(4) + (last << 32)).astype(np.uint64)


_DIGITS = _digit_groups()

# The cell: byte 2 the sign, bytes 3..7 the lead "0." + up to three zeros, bytes
# 8..25 the field F of the digits with the point, bytes 26..30 the exponent,
# bytes 32..39 the separator.  With D the 17 digits of the decimal (trailing
# zeros pad it to 17), F holds D[j] before the point at byte p and D[j - 1]
# after it, up to its length L.  p, L and the lead follow from the decimal
# exponent dc (-4 and 17 stand for every exponent form) and the digit count n.
_CODES = 22 * 18


def _layouts():
    """Per code ``(dc + 4) * 18 + n``: masks of the cell bytes taken from D and from
    D shifted one byte up, and the constant bytes, each as five words."""
    dc, n = np.divmod(np.arange(_CODES), 18)
    dc -= 4
    sci = (dc < -3) | (dc > 16)
    lead = ~sci & (dc <= 0)
    p = np.where(sci, 1, np.where(lead, 99, dc))[:, None]
    length = np.where(sci, n + (n > 1), np.where(lead, n, np.maximum(n, dc + 1) + 1))[:, None]
    byte = np.arange(40)
    j = byte - 8
    field = (j >= 0) & (j < length)
    fixed = (byte == 2) | ((26 <= byte) & (byte <= 30)) | (byte >= 32)
    from_d = (field & (j < p)) | fixed
    from_shifted = field & (j > p)
    const = np.where(field & (j == p), ord("."), 0)
    zeros = np.where(lead, -dc, -1)[:, None]
    zero_at = (byte == 3) | ((5 <= byte) & (byte < 5 + zeros))
    const += lead[:, None] * np.where(byte == 4, ord("."), np.where(zero_at, ord("0"), 0))
    def as_words(a):
        return np.ascontiguousarray(a.astype(np.uint8)).view("<u8")

    return as_words(from_d * 255), as_words(from_shifted * 255), as_words(const)


_FROM_D, _FROM_SHIFTED, _CONST = _layouts()
# exponent word of cell word 3 by decimal point position decpt + 323; 0 where positional
_EXPONENT = _word_table(
    ["" if -3 <= d <= 16 else f"e{d - 1:+03d}" for d in range(-323, 310)], at=2
)


def _decimal(bits: np.ndarray):
    """``(s, k)`` with ``s * 10**k`` the shortest decimal that rounds to the finite
    nonzero double of each of ``bits``, the one closest to it if there are several.

    Names follow Schubfach: ``c * 2**q`` is the double, ``vb``, ``vbl`` and ``vbr``
    are four times it and the ends of its rounding interval, scaled by ``10**-k``
    and rounded to odd, each from the product of ``g`` with ``c`` shifted (``cp``).
    """
    t = bits & _U(2**52 - 1)
    bq = (bits >> _U(52)) & _U(0x7FF)
    c = t | (np.minimum(bq, _U(1)) << _U(52))
    # the interval is irregular (its lower half is half as wide) at a power of two above the smallest normal
    irregular = ((t - _U(1)) >> _U(63)) & ((_U(1) - bq) >> _U(63))
    q = np.maximum(bq, _U(1)).view(np.int64) - 1075
    k = (q * 661_971_961_083 - irregular.view(np.int64) * 274_743_187_321) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).view(np.uint64)
    g0, g1 = _G_LO.take(292 - k), _G_HI.take(292 - k)
    cp = c << (h + _U(2))
    cp0, cp1 = cp & _M32, cp >> _U(32)

    def high(g):  # the high word of g * cp; g < 2**63 and cp < 2**60, so no sum overflows
        a0, a1 = g & _M32, g >> _U(32)
        return a1 * cp1 + ((a0 * cp1 + a1 * cp0 + ((a0 * cp0) >> _U(32))) >> _U(32))

    def rop(y1, y0_half, x1):
        z = y0_half + x1
        return (y1 + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))

    # the products g1 * cp as (y1, y0) and g0 * cp as (x1, x0), with the low words halved
    # so that a carry out of a sum of them is its top bit
    x1, x0, y1, y0 = high(g0), (g0 * cp) >> _U(1), high(g1), (g1 * cp) >> _U(1)
    vb = rop(y1, y0, x1)
    # the same for the ends of the interval, cp + 2**(h + 1) and cp - 2**(h + 1) (cp - 2**h
    # if irregular): add or subtract g0 and g1 times the power of two
    out = c & _U(1)
    up = h + _U(1)
    y0r = y0 + ((g1 << (up - _U(1))) & _M63)
    y1r = y1 + (g1 >> (_U(64) - up)) + (y0r >> _U(63))
    x1r = x1 + (g0 >> (_U(64) - up)) + ((x0 + ((g0 << (up - _U(1))) & _M63)) >> _U(63))
    vbr = rop(y1r, y0r & _M63, x1r) - out
    up -= irregular
    y0l = y0 - ((g1 << (up - _U(1))) & _M63)
    y1l = y1 - (g1 >> (_U(64) - up)) - (y0l >> _U(63))
    x1l = x1 - (g0 >> (_U(64) - up)) - ((x0 - ((g0 << (up - _U(1))) & _M63)) >> _U(63))
    vbl = rop(y1l, y0l & _M63, x1l) + out
    s = vb >> _U(2)
    s4 = s << _U(2)
    sp10 = s // _U(10) * _U(10)
    sp40 = sp10 << _U(2)
    # whether sp10 and s (times 10**k) lie below the interval, and sp10 + 10 and s + 1
    # above it: 0/1 from the borrow of a subtraction, as every value is below 2**62
    below_sp10 = (sp40 - vbl) >> _U(63)
    above_sp10 = (vbr - sp40 - _U(40)) >> _U(63)
    below_s = (s4 - vbl) >> _U(63)
    above_s = (vbr - s4 - _U(4)) >> _U(63)
    # s + 1 is closer to the double than s, or as close and s is odd
    nearer_up = ((vb & _U(3)) + (s & _U(1)) + _U(1)) >> _U(2)
    longer = s + ((above_s ^ _U(1)) & (below_s | nearer_up))
    shorter = sp10 + _U(10) - _U(10) * above_sp10
    return longer + (below_sp10 ^ above_sp10) * (shorter - longer), k


def _cells(x: np.ndarray, separators: np.ndarray) -> np.ndarray:
    """The ``(len(x), 5)`` uint64 cells of the entries of ``x``, a finite 1-D float64
    array, each followed by its word of ``separators``."""
    bits = x.view(np.uint64)
    s, k = _decimal(bits)
    nonzero = np.minimum(bits & _M63, _U(1))
    s *= nonzero
    k = np.where(nonzero, k, 1)  # 0 is written "0.0": D = "000...", point after one digit
    # digit count of s: t is floor(log10 s) or one less, from the bit length of s
    # (one too large where the float conversion rounds up, which t absorbs)
    t = (np.frexp(s.astype(np.float64))[1] * 1233) >> 12
    digits = t + (s >= _POW10.take(t))
    s17 = s * _POW10.take(17 - digits)
    d0 = s17 // _U(10**16)
    r = s17 - d0 * _U(10**16)
    hi = r // _U(10**8)
    lo = r - hi * _U(10**8)
    g1 = hi // _U(10**4)
    g3 = lo // _U(10**4)
    w1, w2 = _DIGITS.take(g1), _DIGITS.take(hi - g1 * _U(10**4))
    w3, w4 = _DIGITS.take(g3), _DIGITS.take(lo - g3 * _U(10**4))
    last = np.maximum(np.maximum(w1 >> _U(32), (w2 >> _U(32)) + _U(4)), np.maximum((w3 >> _U(32)) + _U(8), (w4 >> _U(32)) + _U(12)))
    n = np.maximum(last.view(np.int64) - 31, 1)
    decpt = digits + k
    code = (np.minimum(np.maximum(decpt, -4), 17) + 4) * 18 + n
    w1 &= _M32
    w2 &= _M32
    w3 &= _M32
    w4 &= _M32
    d = np.empty((len(x), 5), "<u8")  # byte j of the text is bits 8j..8j+7 of its word
    d[:, 0] = (bits >> _U(63)) * _U(ord("-") << 16)
    d[:, 1] = (d0 + _U(48)) | (w1 << _U(8)) | (w2 << _U(40))
    d[:, 2] = (w2 >> _U(24)) | (w3 << _U(8)) | (w4 << _U(40))
    d[:, 3] = (w4 >> _U(24)) | _EXPONENT.take(decpt + 323)
    d[:, 4] = separators
    flat = d.reshape(-1)
    shifted = flat << _U(8)
    shifted[1:] |= flat[:-1] >> _U(56)
    flat &= _FROM_D.take(code, axis=0).reshape(-1)
    flat |= shifted & _FROM_SHIFTED.take(code, axis=0).reshape(-1)
    flat |= _CONST.take(code, axis=0).reshape(-1)
    return d


def _separator_words(inner: tuple) -> np.ndarray:
    """Word of the text after each entry of a row of shape ``inner``: ", " inside a
    list, "], [" between lists, and the closing brackets and "\n" after the last."""
    j = np.arange(1, int(np.prod(inner)))
    depth = np.zeros(len(j), int)
    for span in np.cumprod(inner[::-1])[:-1]:  # entries of each nested list, innermost first
        depth += j % span == 0
    between = _word_table(["]" * d + ", " + "[" * d for d in range(len(inner))])
    return np.append(between[depth], _word_table(["]" * len(inner) + "\n"]))


def json_rows(table: np.ndarray):
    """Yield ``json.dumps(row.tolist())`` for each row of ``table``, a finite float64
    array of two or more dimensions, formatting ``BLOCK`` entries at a time."""
    rows = table.reshape(len(table), -1)
    head = "[" * (table.ndim - 1)
    per = max(1, BLOCK // max(rows.shape[1], 1))
    separators = np.tile(_separator_words(table.shape[1:]), per)
    for start in range(0, len(rows), per):
        x = np.ascontiguousarray(rows[start:start + per]).reshape(-1)
        text = _cells(x, separators[:len(x)]).tobytes().translate(None, b"\0").decode("ascii")
        for row in text.split("\n")[:-1]:
            yield head + row
