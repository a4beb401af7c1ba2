"""JSON text of finite float64 tables and CSV text of grids, a block of entries at a time.

Each JSON row comes out byte-identical to ``json.dumps(row.tolist())``: every
entry is written as ``repr`` writes it, the shortest decimal that reads back as
the same double (the one closest to it when there are several), positional from
``1e-4`` up to ``1e16`` and in exponent form outside.  Each CSV value comes out as
``'%.17g' % x``: the exact double rounded half to even to 17 significant digits,
trailing zeros and a bare point dropped, positional from ``1e-4`` up to ``1e17``.

The shortest decimal comes from Schubfach (R. Giulietti, "The Schubfach way to
render doubles", 2020), the algorithm of Java's ``Double.toString``, in uint64
numpy arithmetic: each 64 x 64 -> 128-bit product is built from 32-bit halves,
and a 126-bit power of ten comes from a 617-entry table built with Python
ints.  Java keeps two digits where one would do (``4.9E-324``); ``repr`` and
this module keep one (``5e-324``).  The 17-digit rounding, the fixed-precision
problem of Adams' Ryu printf (2019), reads the same product (:func:`_rounded17`):
where the scaled double has 17 digits its round-to-odd bits settle the rounding
exactly, and where it has 16 the 63 bits below them give the last digit, settled
unless the value lies within the product's error bound of a half.  Those
entries, exact ties among them, and the subnormals with fewer digits are
formatted by Python: about one in 4500 random bit patterns, and none of a
million normal draws.

The text of an entry fills a cell of little-endian uint64 words: its sign and
the ``0.000`` lead of a positional fraction, the digits with the decimal point,
the exponent and the separator that follows it in the row.  Bytes a cell does
not use are zero, and ``bytes.translate`` drops them.  A JSON cell is five words
and a row's last separator closes its lists.  A CSV cell is four words and
ends in ``"\\n"``; a CSV line is the texts of its level, column and angle and the
cell, as fields of fixed width.  A non-finite CSV value is formatted as 0.0, then
its cell replaced by that of ``nan`` (a NaN of either sign), ``inf`` or ``-inf``.

Text already made is reused (``_jsonio`` says which tables come here, and why).
One row loop, :func:`_rows`, serves both formats: a row bit for bit equal to the
row before it is that row's text, a CSV row with its own level and angle written
into the template of its source.  One rule reuses a cell: the sign byte is the
only byte of a cell that depends on the sign of x, so a reused cell is its source
cell with the sign byte written from the entry's own sign bit.  A table of
``[re, im]`` pairs Hermitian bit for bit (real parts symmetric, imaginary parts off
the diagonal their mirrors' with the sign bit flipped), as ``reconstruct`` returns a
state, formats its diagonal and upper triangle and reuses the mirror cells below.

:func:`read_table` reads such a table back, as ``json.loads`` and ``float`` would.  It
finds the entries from the commas, checks every separator byte and each entry
against the JSON number grammar, reads an entry's digits eight at a time from
64-bit words at any byte offset (SWAR), and turns the significand ``w`` (19 digits
at most) and decimal exponent ``q`` into the nearest double by Eisel-Lemire
(D. Lemire, "Number Parsing at a Gigabyte per Second", 2021) on the top word of
the same table of powers of ten.  An entry whose product lies within its error of
a tie between two doubles, or whose double is subnormal or out of range, is read
by ``float``; a table in another layout is left to ``json.loads``.

The tables cost a few milliseconds to build, so ``_jsonio`` imports this
module only for the first CSV grid, or JSON table large enough to use it.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from . import _jsonio

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
_POW10 = np.array([10**i for i in range(20)], np.uint64)


def _word_table(texts, at: int = 0) -> np.ndarray:
    """uint64 words holding each ASCII text from byte ``at`` on."""
    return np.array([int.from_bytes(b"\0" * at + t.encode(), "little") for t in texts], np.uint64)


def _digit_groups() -> np.ndarray:
    """Word of each 4-digit group 0000..9999: its ASCII digits in bytes 0..3, and in
    byte 7 the place of its last nonzero digit (1..4) plus 64, or 0 for 0000."""
    g = np.arange(10_000)
    digits = g[:, None] // 10 ** np.arange(3, -1, -1) % 10
    nonzero = digits != 0
    last = np.where(nonzero.any(1), 68 - nonzero[:, ::-1].argmax(1), 0)
    return ((digits + 48) @ 256 ** np.arange(4) + (last << 56)).astype(np.uint64)


_DIGITS = _digit_groups()

# The cell: byte 2 the sign, bytes 3..7 the lead "0." + up to three zeros, bytes
# 8..25 the field F of the digits with the point, bytes 26..30 the exponent, and
# the separator in byte 31 (CSV) or bytes 32..39 (JSON).  With D the 17 digits of
# the decimal (trailing zeros pad it to 17), F holds D[j] before the point at byte
# p and D[j - 1] after it, up to its length L.  p, L and the lead follow from the
# decimal exponent dc (-4 and 18 stand for every exponent form), the digit count
# n and the style: ``repr`` writes "1.0" and 1e16 as "1e+16", ``%.17g`` "1" and
# "10000000000000000".
_CODES = 23 * 18


def _layouts(g: bool):
    """Per code ``(dc + 4) * 18 + n``: masks of the cell bytes taken from D and from
    D shifted one byte up, and the constant bytes, each as five words (four for
    ``%.17g``)."""
    dc, n = np.divmod(np.arange(_CODES), 18)
    dc -= 4
    sci = (dc < -3) | (dc > 16 + g)
    lead = ~sci & (dc <= 0)
    whole = np.where(g & (n <= dc), dc, np.maximum(n, dc + 1) + 1)  # "1" or "1.0"
    p = np.where(sci, 1, np.where(lead, 99, dc))[:, None]
    length = np.where(sci, n + (n > 1), np.where(lead, n, whole))[:, None]
    byte = np.arange(40 - 8 * g)
    j = byte - 8
    field = (j >= 0) & (j < length)
    fixed = (byte == 2) | (sci[:, None] & (26 <= byte) & (byte <= 30)) | (byte >= 31)
    from_d = (field & (j < p)) | fixed
    from_shifted = field & (j > p)
    const = np.where(field & (j == p), ord("."), 0)
    zeros = np.where(lead, -dc, -1)[:, None]
    zero_at = (byte == 3) | ((5 <= byte) & (byte < 5 + zeros))
    const += lead[:, None] * np.where(byte == 4, ord("."), np.where(zero_at, ord("0"), 0))
    const[:, 31:] += g * ord("\n")  # a CSV value ends its line
    def as_words(a):
        return np.ascontiguousarray(a.astype(np.uint8)).view("<u8")

    return as_words(from_d * 255), as_words(from_shifted * 255), as_words(const)


_REPR, _G17 = _layouts(False), _layouts(True)
# by decimal point position decpt + 323: the exponent word of cell word 3, and the code less n
_EXPONENT = _word_table([f"e{d - 1:+03d}" for d in range(-323, 310)], at=2)
_CODE = (np.clip(np.arange(-323, 310), -4, 18) + 4).astype(np.uint64) * _U(18)
# the CSV cells of nan, inf and -inf, as %.17g writes them: the text from byte 0, "\n" in byte 31
_NONFINITE = np.frombuffer(b"".join(t.ljust(31, b"\0") + b"\n" for t in (b"nan", b"inf", b"-inf")), "<u8").reshape(3, 4)


def _decimal(bits: np.ndarray, shortest: bool = True):
    """``(s, k)`` with ``s * 10**k`` the shortest decimal that rounds to the finite
    nonzero double of each of ``bits``, the one closest to it if there are several;
    or, unless ``shortest``, the triple of :func:`_rounded17`.

    Names follow Schubfach: ``c * 2**q`` is the double, ``vb``, ``vbl`` and ``vbr``
    are four times it and the ends of its rounding interval, scaled by ``10**-k``
    and rounded to odd, each from the product of ``g`` with ``c`` shifted (``cp``).
    """
    t = bits & _U(2**52 - 1)
    bq = (bits >> _U(52)) & _U(0x7FF)
    c = t | (np.minimum(bq, _U(1)) << _U(52))
    q = np.maximum(bq, _U(1)).view(np.int64) - 1075
    k = q * 661_971_961_083
    if shortest:
        # the interval is irregular (its lower half is half as wide) at a power of two above
        # the smallest normal; a rounding to 17 digits needs no interval
        irregular = ((t - _U(1)) >> _U(63)) & ((_U(1) - bq) >> _U(63))
        k -= irregular.view(np.int64) * 274_743_187_321
    k >>= 41
    h = (q + ((k * -913_124_641_741) >> 38) + 2).view(np.uint64)
    i = 292 - k
    g0, g1 = _G_LO.take(i), _G_HI.take(i)
    cp = c << (h + _U(2))
    cp0, cp1 = cp & _M32, cp >> _U(32)

    def high(g):  # the high word of g * cp; g < 2**63 and cp < 2**60, so no sum overflows
        a0, a1 = g & _M32, g >> _U(32)
        return a1 * cp1 + ((a0 * cp1 + a1 * cp0 + ((a0 * cp0) >> _U(32))) >> _U(32))

    def rop(y1, y0_half, x1):
        z = y0_half + x1
        return (y1 + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))

    # the products g1 * cp as (y1, y0) and g0 * cp as (x1, x0), with the low words halved
    # so that a carry out of a sum of them is its top bit; f + z / 2**63 is 4 v 10**-k
    x1, y1, y0 = high(g0), high(g1), (g1 * cp) >> _U(1)
    z = y0 + x1
    f = y1 + (z >> _U(63))
    vb = f | (((z & _M63) + _M63) >> _U(63))
    s = vb >> _U(2)
    if not shortest:
        return _rounded17(s, vb, f, z, k)
    del z, f, i  # the working set of the interval search below
    # s + 1 is closer to the double than s, or as close and s is odd
    nearer_up = ((vb & _U(3)) + (s & _U(1)) + _U(1)) >> _U(2)
    # the ends of the interval, cp + 2**(h + 1) and cp - 2**(h + 1) (cp - 2**h if
    # irregular): add or subtract g0 and g1 times the power of two
    x0 = (g0 * cp) >> _U(1)
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
    s4 = s << _U(2)
    sp10 = s // _U(10) * _U(10)
    sp40 = sp10 << _U(2)
    # whether sp10 and s (times 10**k) lie below the interval, and sp10 + 10 and s + 1
    # above it: 0/1 from the borrow of a subtraction, as every value is below 2**62
    below_sp10 = (sp40 - vbl) >> _U(63)
    above_sp10 = (vbr - sp40 - _U(40)) >> _U(63)
    below_s = (s4 - vbl) >> _U(63)
    above_s = (vbr - s4 - _U(4)) >> _U(63)
    longer = s + ((above_s ^ _U(1)) & (below_s | nearer_up))
    shorter = sp10 + _U(10) - _U(10) * above_sp10
    return longer + (below_sp10 ^ above_sp10) * (shorter - longer), k


def _rounded17(s, vb, f, z, k):
    """``(t, k, undecided)``: ``t * 10**k`` the double rounded half to even to 17
    significant digits (``10**16 <= t < 10**17``), and where that is not settled.

    ``vb`` is the round to odd of ``4 v 10**-k``, so where ``s`` has 17 digits the
    answer is ``(vb + 1 + s % 2) // 4``.  With 16 digits the last one comes from
    ``u = 10 (f % 4 + z / 2**63) / 4``, read as ``r / 2**60``: ``f + z / 2**63`` lies
    within ``2**-62`` of ``4 v 10**-k`` (the dropped low words are below ``2**-63``,
    and ``g`` is too large by less than ``cp / 2**127``), and ``r`` drops less than
    ``2**-61`` of ``u / 10``, so ``r`` lies within 6 of the exact ``u * 2**60``.  The
    rounding is settled unless ``r`` lies within 64 of a half, where the double may
    be a tie; those entries, and the nonzero subnormals with fewer than 16 digits,
    are left to the caller.
    """
    short = s < _U(10**16)
    r = (((f & _U(3)) << _U(59)) | ((z & _M63) >> _U(4))) * _U(5) + _U(2**59)  # a half added
    t = np.where(short, s * _U(10) + (r >> _U(60)), (vb + _U(1) + (s & _U(1))) >> _U(2))
    undecided = short & ((((r + _U(64)) & _U(2**60 - 1)) <= _U(128)) | ((s - _U(1)) < _U(10**15 - 1)))
    carry = t == _U(10**17)
    t[carry] = 10**16
    return t, k - short + carry, undecided


def _cells(x: np.ndarray, g: bool = False) -> np.ndarray:
    """The uint64 cells of the entries of ``x``, a finite 1-D float64 array, as
    ``repr`` writes them (five words, the last left to the caller), or ``%.17g``
    (four words, ending in ``"\\n"``)."""
    bits = x.view(np.uint64)
    if g:
        s17, k, undecided = _decimal(bits, shortest=False)
        for i in np.flatnonzero(undecided):
            text = "%.16e" % abs(x[i])  # the same rounding as %.17g: d.ddd...e+XX
            s17[i], k[i] = int(text[0] + text[2:18]), int(text[19:]) - 16
        at = np.where(s17, k + 340, 324)  # decpt + 323; 0 is written "0": D = "000...", point after one digit
    else:
        s, k = _decimal(bits)
        nonzero = np.minimum(bits & _M63, _U(1))
        s *= nonzero
        k = np.where(nonzero, k, 1)  # 0 is written "0.0"
        # digit count of s: t is floor(log10 s) or one less, from the bit length of s
        # (one too large where the float conversion rounds up, which t absorbs)
        t = (np.frexp(s.astype(np.float64))[1] * 1233) >> 12
        digits = t + (s >= _POW10.take(t))
        s17 = s * _POW10.take(17 - digits)
        at = digits + k + 323
    d0 = s17 // _U(10**16)
    r = s17 - d0 * _U(10**16)
    hi = r // _U(10**8)
    lo = r - hi * _U(10**8)
    g1 = hi // _U(10**4)
    g3 = lo // _U(10**4)
    w1, w2 = _DIGITS.take(g1), _DIGITS.take(hi - g1 * _U(10**4))
    w3, w4 = _DIGITS.take(g3), _DIGITS.take(lo - g3 * _U(10**4))
    # digit count n up to the last nonzero digit: the group's place plus 4 per group before it
    top = np.maximum(np.maximum(w1, w2 + _U(4 << 56)), np.maximum(w3 + _U(8 << 56), w4 + _U(12 << 56)))
    n = np.maximum(top >> _U(56), _U(64)) - _U(63)
    code = _CODE.take(at) + n
    from_d, from_shifted, const = _G17 if g else _REPR
    d = np.empty((len(x), from_d.shape[1]), "<u8")  # byte j of the text is bits 8j..8j+7 of its word
    d[:, 0] = (bits >> _U(63)) * _U(ord("-") << 16)
    d[:, 1] = (d0 + _U(48)) | (w1 << _U(8)) | (w2 << _U(40))
    d[:, 2] = ((w2 >> _U(24)) & _U(255)) | (w3 << _U(8)) | (w4 << _U(40))
    d[:, 3] = ((w4 >> _U(24)) & _U(255)) | _EXPONENT.take(at)
    flat = d.reshape(-1)
    shifted = flat << _U(8)
    shifted[1:] |= flat[:-1] >> _U(56)
    flat &= from_d.take(code, axis=0).reshape(-1)
    flat |= shifted & from_shifted.take(code, axis=0).reshape(-1)
    flat |= const.take(code, axis=0).reshape(-1)
    return d


def _separator_words(inner: tuple) -> np.ndarray:
    """Word of the text after each entry of a row of shape ``inner``: ", " inside a
    list, "], [" between lists, and the closing brackets after the last."""
    j = np.arange(1, int(np.prod(inner)))
    depth = np.zeros(len(j), int)
    for span in np.cumprod(inner[::-1])[:-1]:  # entries of each nested list, innermost first
        depth += j % span == 0
    between = _word_table(["]" * d + ", " + "[" * d for d in range(len(inner))])
    return np.append(between[depth], _word_table(["]" * len(inner)]))


def _fresh(rows: np.ndarray) -> np.ndarray:
    """Whether each row of the 2-D ``rows`` differs bit for bit from the row before it (so ``0.0``
    and ``-0.0`` differ, as their texts do); row 0 has none before it."""
    bits = rows.view(np.uint64)
    return np.append(True, (bits[1:] != bits[:-1]).any(axis=1))


def _mirrored(table: np.ndarray) -> bool:
    """Whether ``table`` is a table of pairs Hermitian bit for bit (module docstring) whose diagonal
    and upper triangle, d (d + 1) floats, are fewer than its rows would format."""
    d, bits = len(table), table.view(np.uint64)
    return bool(table.shape == (d, d, 2) and (bits[..., 0] == bits[..., 0].T).all()
                and ((bits[..., 1] ^ bits[..., 1].T == _U(1 << 63)) | np.eye(d, dtype=bool)).all()
                and d + 1 < 2 * np.count_nonzero(_fresh(table.reshape(d, -1))))


def _blocks(rows: np.ndarray, starts: np.ndarray, g: bool, cut, mirror: bool = False):
    """Yield ``cut(block, cells)`` for each block of the rows ``starts`` of the 2-D ``rows`` that formats
    about ``BLOCK`` floats (a mirror's in 8 rows or more: fewer stored pieces), ``cells`` an array (rows,
    floats, words).  A non-finite value is formatted as 0.0 and given the cell of its ``%.17g`` text.  A
    :func:`_mirrored` table formats its upper triangle and reuses the mirror cells below (module docstring);
    ``store`` keeps the cells of rows written in each later block's columns, at most d**2 / 4 entries."""
    d, width = rows.shape
    bounds, store = [0], {}
    while bounds[-1] < len(starts):
        own = width - mirror * width * int(starts[bounds[-1]]) // d  # floats the block's first row formats
        bounds.append(min(len(starts), bounds[-1] + max(1, mirror * BLOCK // 512, BLOCK // own)))

    def cells_of(b, block):  # a call, so that a block's arrays are freed before the next is made
        if not mirror:
            x = rows[block].reshape(-1)
            odd = ~np.isfinite(x)
            cells = _cells(np.where(odd, 0.0, x) if odd.any() else x, g)
            if odd.any():
                cells[odd] = _NONFINITE.take(np.isinf(x[odd]) * (1 + np.signbit(x[odd])), axis=0)
            return cells.reshape(len(block), width, -1)
        (r0, r1), n = bounds[b:b + 2], len(block)  # a mirror's starts are all its rows
        out = np.empty((n, d, 2, 5), "<u8")
        for column, cells in store.pop(b, ()):
            out[:, column:column + len(cells), :, :4] = cells.transpose(1, 0, 2, 3)
        upper = np.arange(r0, d) >= block[:, None]
        out[:, r0:][upper] = _cells(rows[r0:r1].reshape(n, d, 2)[:, r0:][upper].reshape(-1)).reshape(-1, 2, 5)
        lower = ~upper[:, :n]
        out[:, r0:r1][lower] = out[:, r0:r1].transpose(1, 0, 2, 3)[lower]
        signs = rows[r0:r1].view(np.uint64).reshape(n, d, 2) >> _U(63)
        out[..., 0] &= ~_U(255 << 16)
        out[..., 0] |= signs * _U(ord("-") << 16)
        for later in range(b + 1, len(bounds) - 1):
            store.setdefault(later, []).append((r0, out[:, bounds[later]:bounds[later + 1], :, :4].copy()))
        return out.reshape(n, width, 5)

    for b in range(len(bounds) - 1):
        block = starts[bounds[b]:bounds[b + 1]]
        yield cut(block, cells_of(b, block))


def _rows(table: np.ndarray, fresh: np.ndarray, small, blocks, angles=None):
    """The row loop of both formats.  A ``fresh`` row is formatted once: by ``small`` below ``_jsonio.VECTOR_MIN``
    such floats, else by ``blocks``.  Every other row is its source's text, the last fresh row's.  A CSV template,
    given as its pieces split at the level placeholder "\x01", takes each row's own level and angle ("\x02")."""
    starts = np.flatnonzero(fresh)
    if len(starts) * (table.size // len(table)) < _jsonio.VECTOR_MIN:
        texts = map(small, table[starts].tolist())
    else:
        texts = chain.from_iterable(blocks(starts))
    for m, new in enumerate(fresh.tolist()):
        if new:
            text = next(texts)
        yield text if text.__class__ is str else str(m).join(text).replace("\x02", angles[m])


def json_rows(table: np.ndarray):
    """Yield ``json.dumps(row.tolist())`` for each row of ``table``, a finite float64 array of two or
    more dimensions, through :func:`_rows`; every row of a :func:`_mirrored` table is formatted."""
    rows, mirror = table.reshape(len(table), -1), _mirrored(table)

    def blocks(starts):
        head, separators = "[" * (table.ndim - 1), _separator_words(table.shape[1:])

        def cut(block, cells):
            cells[..., 4] = separators
            return [head + row.tobytes().translate(None, b"\0").decode("ascii") for row in cells]

        return _blocks(rows, starts, False, cut, mirror)

    return _rows(table, np.ones(len(table), bool) if mirror else _fresh(rows), json.dumps, blocks)


def grid_csv_rows(phis: np.ndarray, values: np.ndarray):
    """Yield the lines ``m,n,phi,value`` of each row ``m`` of a float64 grid ``values`` with row angles ``phis``,
    through :func:`_rows`: a template below ``_jsonio.VECTOR_MIN`` and where a repeat follows, else the lines."""
    (rows, lines), fresh = values.shape, _fresh(values)
    angles = ["%.17g" % phi for phi in phis.tolist()]
    template = "\x01,%d,\x02,%%.17g\n" * lines % tuple(range(lines))

    def blocks(starts):
        levels = np.array(["%d," % i for i in range(max(rows, lines))], "S")
        fields = np.array([angle + "," for angle in angles], "S")
        repeated = np.append(~fresh[1:], False)  # rows that a repeat follows
        layout = [("m", levels.dtype), ("n", levels.dtype), ("phi", fields.dtype), ("value", "V32")]

        def cut(block, cells):
            runs = np.flatnonzero(repeated[block])  # the block's rows that a repeat follows: templates
            out = np.empty(cells.shape[:2], layout)
            out["m"], out["n"], out["phi"] = levels[block, None], levels[:lines], fields[block, None]
            out["m"][runs], out["phi"][runs], out["value"] = b"\x01,", b"\x02,", cells.view("V32")[..., 0]
            texts = [row.tobytes().translate(None, b"\0").decode("ascii") for row in out]
            for i in runs.tolist():
                texts[i] = texts[i].split("\x01")
            return texts

        return _blocks(values, starts, True, cut)

    return _rows(values, fresh, lambda row: (template % tuple(row)).split("\x01"), blocks, angles)


# The reader.  A word read at any byte offset is little-endian: the last digit of a field is
# the top byte of the word that ends with it.
_G64 = (_G_HI << _U(1)) | (_G_LO >> _U(62))  # the top 64 bits of each _G entry
_TOP = np.array([2**64 - 2 ** (64 - 8 * c) for c in range(9)], np.uint64)  # the top c bytes of a word


def _digit_value(words: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Value of the ASCII digits in the top ``counts`` bytes (up to 8) of each word: the digits
    less "0", the bytes below them cleared, then pairs, quads and all eight combined (SWAR)."""
    v = (words ^ _U(0x3030303030303030)) & _TOP.take(np.clip(counts, 0, 8))
    v = (v * _U(10 << 8 | 1) >> _U(8)) & _U(0x00FF00FF00FF00FF)
    v = (v * _U(100 << 16 | 1) >> _U(16)) & _U(0x0000FFFF0000FFFF)
    return v * _U(10000 << 32 | 1) >> _U(32)


def _binary(w: np.ndarray, q: np.ndarray):
    """``(bits, undecided)``: the double nearest ``w * 10**q`` for ``0 < w < 10**19``, by
    Eisel-Lemire on the top word of ``_G``; undecided where a tie between two doubles lies
    within the error of the product, and where the double is subnormal or out of range."""
    # the bit length of w, or one more where w rounds up to 2**bitlen; wn * t then still
    # reaches bit 126 (t > 1.001 * 2**63) but at q = 0, where it rounds to 2**bitlen too
    bitlen = (w.astype(np.float64).view(np.uint64) >> _U(52)) - _U(1022)
    qc = np.clip(q, -292, 324)  # beyond it the double is 0 or inf, and q * 913... may wrap
    wn, t = w << (_U(64) - bitlen), _G64.take(qc + 292)
    # hi, the high word of wn * t, lies below the exact product by less than 2**64 + 4
    a0, a1, b0, b1 = wn & _M32, wn >> _U(32), t & _M32, t >> _U(32)
    mid1, mid2 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> _U(32)) + (mid1 & _M32) + (mid2 & _M32)
    hi = a1 * b1 + (mid1 >> _U(32)) + (mid2 >> _U(32)) + (mid >> _U(32))
    upper = hi >> _U(63)
    hi <<= _U(1) - upper  # its top bit set; bit 10 is the round bit below the 53 of the double
    near_tie = (hi & _U(2047)) - _U(1022) <= _U(2)  # the bits from bit 10 down lie within 2 of a half
    m = ((hi >> _U(10)) + _U(1)) >> _U(1)
    carry = m >> _U(53)
    e = (((qc * 913_124_641_741) >> 38) + 1022).astype(np.uint64) + upper + carry + bitlen
    return (e << _U(52)) | ((m >> carry) & _U(2**52 - 1)), near_tie | (qc != q) | (e - _U(1) > _U(2045))


def read_table(data: bytes, start: int, stop: int, ndim: int, n: int):
    """The float64 array of ``data[start:stop]``, ``ndim`` levels of JSON lists of numbers
    from ``ndim`` "[" to ``ndim`` "]" in the layout of :func:`json_rows`, each entry as
    ``json.loads`` and ``float`` read it; or None where the text has another layout or a
    significand of more than 19 digits.  ``n`` is one more than the commas of the text, and
    ``data`` goes on after ``stop``."""
    buf, span = np.frombuffer(data, np.uint8), 16 * BLOCK  # text bytes scanned at once
    # entries in the first list of each level, innermost first: up to the level's first separator
    sizes = [n if at < 0 else data.count(b",", start, at) + 1
             for at in (data.find(b"]" * k + b", " + b"[" * k, start, stop) for k in range(1, ndim))]
    shape = [n // sizes[-1], *(a // b for a, b in zip(sizes[::-1], sizes[-2::-1])), sizes[0]]
    if start + ndim < 23 or np.prod(shape) != n:  # an entry's words reach 24 bytes back
        return None
    # the 8 and the 24 bytes from each offset
    words, triples = (np.ndarray(len(data) + 1 - size, f"V{size}", data, 0, (1,)) for size in (8, 24))
    # the separator that closes t lists, in the word that ends ndim bytes after its comma
    expected = _word_table(["\0" * (7 - ndim - t) + "]" * t + ", " + "[" * t for t in range(ndim)])
    masks = (expected.view(np.uint8) != 0).view(np.uint64) * _U(255)
    out = np.empty(n)
    i, first, at = 0, start + ndim, start  # entries read, where the next one starts, where to scan

    def entry_of(marks):  # the entry of each mark; None where one entry holds two
        if len(marks) == k and ((marks >= starts) & (marks < ends)).all():
            return slice(None)
        e = np.searchsorted(commas, marks)
        return e if (np.diff(e) > 0).all() else None

    while i < n:
        commas = np.flatnonzero(buf[at:min(at + span, stop)] == 44) + at
        final = i + len(commas) == n - 1
        if not (final or len(commas)):
            return None
        text = buf[at:stop if final else commas[-1]]  # the entries read in this pass
        dots, exps = np.flatnonzero(text == 46) + at, np.flatnonzero((text | np.uint8(32)) == 101) + at
        depth = np.zeros(len(commas), np.intp)  # the lists each comma closes: entry j + 1 ends
        for size in sizes:  # one per level whose size divides j + 1
            depth[(-1 - i) % size::size] += 1
        if not ((words[commas + ndim - 7].view("<u8") & masks[depth]) == expected[depth]).all():
            return None
        k, starts = len(commas) + final, np.append(first, commas + 2 + depth)  # and the next one's
        ends, first = np.append(commas - depth, stop - ndim)[:k], starts[-1]
        starts = starts[:k]
        neg = buf[starts] == 45
        m0, token_exp, token_dot = starts + neg, entry_of(exps), entry_of(dots)
        if token_exp is None or token_dot is None:
            return None
        end = ends.copy()  # where the significand ends, and the point or that end
        end[token_exp] = exps
        point = end.copy()
        point[token_dot] = dots
        after = buf[exps + 1]
        exp_sign = (after == 43) - (after == 45).astype(np.intp)  # 1, -1, or 0 without one
        exp_at = exps + 1 + (exp_sign != 0)
        signs = np.count_nonzero(((text - np.uint8(43)) | np.uint8(2)) == 2)
        digits = np.count_nonzero((text - np.uint8(48)) < 10)
        # every byte of an entry is a digit, point, sign or exponent mark (no separator holds
        # one); a sign leads an entry or follows a mark; each point and mark has a digit on
        # either side (after the mark's sign), one of each per entry, the point first; and
        # an entry starts with a digit, with no digit after a leading 0
        if ((point > end).any() or signs != np.count_nonzero(neg) + np.count_nonzero(exp_sign)
                or digits + len(dots) + len(exps) + signs != (ends - starts).sum()
                or ((buf[np.concatenate((dots - 1, dots + 1, exps - 1, exp_at, m0))] - np.uint8(48)) >= 10).any()
                or ((buf[m0] == 48) & (buf[m0 + 1] - np.uint8(48) < 10)).any()):
            return None
        exp_digits = ends[token_exp] - exp_at  # up to 8 are read here, more by float()
        q = np.zeros(k, np.int64)
        q[token_exp] = _digit_value(words[exp_at + exp_digits - 8].view("<u8"), exp_digits)
        q[token_exp] *= exp_sign | 1
        whole = point - m0  # digits before the point, up to 8 read here
        frac = np.maximum(end - point - 1, 0)  # digits after it, up to 24 in three words
        fields = [words[point - 8].view("<u8")[None], triples[end - 24].view("<u8").reshape(k, 3).T]
        a, b2, b1, b0 = _digit_value(np.concatenate(fields), np.stack((whole, frac - 16, frac - 8, frac)))
        if np.where((whole > 8) | (a > 0), whole + frac > 19, b2 >= 1000).any():
            return None
        w = a * _POW10.take(np.minimum(frac, 19)) + b2 * _U(10**16) + b1 * _U(10**8) + b0
        bits, undecided = _binary(np.maximum(w, _U(1)), q - frac)
        zero = w == 0
        sign = neg & ~(zero & (point == ends))  # an integer zero ("-0") reads as json reads it, 0.0
        out[i:i + k] = (np.where(zero, _U(0), bits) | (sign.astype(np.uint64) << _U(63))).view(np.float64)
        slow = (whole > 8) | (frac > 24) | (undecided & ~zero)
        slow[token_exp] |= exp_digits > 8
        for e in np.flatnonzero(slow).tolist():
            out[i + e] = float(data[starts[e]:ends[e]])
        i, at = i + k, at + len(text) + 1
    out.shape = shape
    return out
