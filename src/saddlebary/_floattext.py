"""Float64 arrays as text, byte for byte the `repr` of each value.

`repr` prints a float's shortest round-trip digits: the fewest significant
digits that read back as the same double, the closest such string to the
value when several qualify.  This module computes those digits for a block
of values at once, in NumPy `uint64` arithmetic, by Schubfach (Giulietti,
"The Schubfach way to render doubles", 2020), and lays them out as `repr`
does.

A double v = c 2^q (c < 2^53) rounds from every real in an interval of
width 2^q about it (endpoints in iff c is even).  With k = floor(log10 2^q)
(one less past a power of two, where the interval is lopsided) that interval
holds at most one multiple of 10^(k+1) and at least one of 10^k: the first,
if present, is the shortest decimal, else the closer of the two multiples of
10^k around v.  The bounds are compared in units of 10^k / 4 from
round-to-odd products of c 2^q with a 126-bit g(k) > 10^-k 2^r, each taken
as two 64 x 64 -> 128-bit products on 32-bit limbs.

The wrapping `uint64` arithmetic runs on arrays only, where NumPy wraps
silently.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_BLOCK = 4096  # values a kernel call formats; bounds its work arrays
_M32, _M63 = 0xFFFFFFFF, (1 << 63) - 1
_K_MIN, _K_MAX = -324, 292  # the decimal exponents k of all doubles

# Each value's text is gathered from a 32-byte row: the 17 significant digits
# (digit 0 at byte 16, digit j >= 1 at byte j - 1), the sign ('-' or blank),
# '.', '0', the exponent's sign and three digits, 'e', the separator after the
# value, a blank, and 'n', 'a', 'i', 'f'.  A layout lists the bytes of one
# shape of text; blanks (zero bytes) pad it to _WIDTH and are dropped.
_ROW = 32
_DIGITS = (16, *range(16))
_SIGN, _POINT, _ZERO, _EXP, _E, _SEP, _BLANK = 17, 18, 19, 20, 24, 25, 26
_N, _A, _I, _F = 27, 28, 29, 30
_WIDTH = 25  # the longest text, -1.2345678901234567e-308, and its separator
_FIXED = 20 * 17  # fixed-notation layouts: decimal point at -3..16, 1..17 digits
_ZERO_ID, _INF_ID, _NAN_ID = _FIXED + 34, _FIXED + 35, _FIXED + 36


def _fixed(digits, point):
    """Layout of `digits` significant digits, the decimal point `point` places after the first."""
    d = list(_DIGITS[:digits])
    if point <= 0:
        body = [_ZERO, _POINT] + [_ZERO] * -point + d
    elif point < digits:
        body = d[:point] + [_POINT] + d[point:]
    else:
        body = d + [_ZERO] * (point - digits) + [_POINT, _ZERO]
    return [_SIGN, *body, _SEP]


def _scientific(digits, width):
    """Layout of `digits` significant digits times a power of ten of `width` digits."""
    d = list(_DIGITS[:digits])
    mantissa = d[:1] + ([_POINT] + d[1:] if digits > 1 else [])
    return [_SIGN, *mantissa, _E, _EXP, *range(_EXP + 4 - width, _EXP + 4), _SEP]


@cache
def _tables():
    """Lookup tables, built on first use (about a millisecond).

    First three indexed by a double's biased exponent, plus 2048 at a power
    of two: k, the shift h that scales 4c to the product's operand, and
    g(k) as four 32-bit limbs, high first.  Then the powers of ten 10^0..
    10^17, each exponent's text as four bytes (sign, three digits) and the
    layouts, one row of byte offsets each.
    """
    powers = [1]
    for _ in range(-_K_MIN):
        powers.append(powers[-1] * 10)
    words = bytearray()
    for k in range(_K_MIN, _K_MAX + 1):
        p = powers[abs(k)]
        if k <= 0:  # g = floor(10^-k 2^r) + 1 in [2^125, 2^126]
            r = 126 - p.bit_length()
            g = (p << r if r >= 0 else p >> -r) + 1
        else:
            g = (1 << 125 + p.bit_length()) // p + 1
        words += (g >> 63 << 64 | g & _M63).to_bytes(16, "little")  # 63-bit halves
    bq = np.arange(4096) % 2048
    q = np.maximum(bq, 1) - 1075
    k = (q * 661971961083 - np.where(np.arange(4096) < 2048, 0, 274743187321)) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(np.uint64)
    limbs = np.frombuffer(words, dtype="<u4").reshape(-1, 4).astype(np.uint64)[k - _K_MIN, ::-1]
    pow10 = np.array(powers[:18], dtype=np.uint64)
    e = np.arange(-324, 325)
    a = abs(e)
    zero = ord("0")
    text = (np.where(e < 0, ord("-"), ord("+")) | (a // 100 + zero) << 8
            | (a // 10 % 10 + zero) << 16 | (a % 10 + zero) << 24)
    layouts = [_fixed(n, p) for p in range(-3, 17) for n in range(1, 18)]
    layouts += [_scientific(n, w) for n in range(1, 18) for w in (2, 3)]
    layouts += [[_SIGN, _ZERO, _POINT, _ZERO, _SEP], [_SIGN, _I, _N, _F, _SEP], [_N, _A, _N, _SEP]]
    table = b"".join(bytes(row).ljust(_WIDTH, bytes([_BLANK])) for row in layouts)
    table = np.frombuffer(table, dtype=np.uint8).reshape(-1, _WIDTH).astype(np.intp)
    return k, h, tuple(np.ascontiguousarray(limbs.T)), pow10, text.astype(np.uint64), table


def _product(ah, al, bh, bl):
    """The 128-bit products of 64-bit numbers given as 32-bit limbs: (high, low) words."""
    ll, lh, hl = al * bl, al * bh, ah * bl
    mid = (ll >> 32) + (lh & _M32) + (hl & _M32)
    return ah * bh + (lh >> 32) + (hl >> 32) + (mid >> 32), mid << 32 | ll & _M32


def _round_to_odd(g, cp):
    """floor(g cp / 2^127), its last bit set when the rest is not zero (Schubfach's rop)."""
    g1h, g1l, g0h, g0l = g
    ch, cl = cp >> 32, cp & _M32
    x1 = _product(g0h, g0l, ch, cl)[0]
    y1, y0 = _product(g1h, g1l, ch, cl)
    z = (y0 >> 1) + x1
    return y1 + (z >> 63) | ((z & _M63) + _M63) >> 63


def _shortest(bits, tables):
    """Shortest round-trip digits f and exponent k, v = f 10^k, of finite positive doubles."""
    k_of, h_of, g_of = tables[:3]
    bq = bits >> 52
    t = bits & (1 << 52) - 1
    lopsided = (t == 0) & (bq > 1)  # a power of two: the gap below is half the gap above
    index = (bq | lopsided.astype(np.uint64) << 11).astype(np.intp)
    c = np.where(bq > 0, t | 1 << 52, t)
    h = h_of[index]
    g = [np.take(limb, index) for limb in g_of]
    cb = c << 2
    vb = _round_to_odd(g, cb << h)
    vbl = _round_to_odd(g, (cb - 2 + lopsided) << h)
    vbr = _round_to_odd(g, (cb + 2) << h)
    vbl += c & 1  # bounds are in iff c is even
    vbr -= c & 1
    s = vb >> 2
    sp10 = s // 10 * 10
    # at most one multiple of 10^(k+1) lies in the interval: if one does, it is the shortest
    upin, wpin = vbl <= sp10 << 2, sp10 + 10 << 2 <= vbr
    shorter = (upin != wpin) & (s >= 10)
    uin, win = vbl <= s << 2, s + 1 << 2 <= vbr
    mid = s << 2 | 2  # 4 s + 2: the point halfway to s + 1
    low = np.where(uin != win, uin, (vb < mid) | (vb == mid) & (s & 1 == 0))
    f = np.where(shorter, np.where(upin, sp10, sp10 + 10), np.where(low, s, s + 1))
    return f, k_of[index]


def _digit_words(x):
    """The eight decimal digits of each x < 10^8 as the bytes of a little-endian word."""
    upper = x // 10000
    x = upper | x - upper * 10000 << 32  # two 4-digit halves, one a 32-bit lane
    tens = (x * 10486 >> 20) & 0x7F0000007F  # //100 in each lane
    x = tens | x - tens * 100 << 16  # four 2-digit lanes of 16 bits
    tens = (x * 103 >> 10) & 0x000F000F000F000F  # //10 in each lane
    return tens | x - tens * 10 << 8


def _block_text(values, width):
    """`repr` of each value, a comma after it, a newline after every `width`-th but the last."""
    k_of, h_of, g_of, pow10, exponent_text, layouts = tables = _tables()
    count = values.shape[0]
    bits = np.ascontiguousarray(values).view(np.uint64)
    magnitude = bits & _M63
    special = (magnitude == 0) | (magnitude >= 0x7FF << 52)
    # zeros, infinities and NaNs go through as 1.0; their layouts replace the text
    f, k = _shortest(np.where(special, 0x3FF << 52, magnitude), tables)
    length = np.searchsorted(pow10, f, side="right")  # f has this many digits
    f *= pow10[17 - length]  # 17 digits, 10^16 <= f < 10^17
    point = k + length  # the decimal point's place from the first digit
    upper = f // 10**8
    first = upper // 10**8
    high, low = _digit_words(upper - first * 10**8), _digit_words(f - upper * 10**8)
    # Significant digits: adding 0x7F to a digit byte sets its top bit iff the
    # digit is not 0.  The float of those marks over digits 1..16 has its
    # exponent at the last nonzero digit's mark, exactly (few bits are set):
    # 8j + 8 for digit j + 1, and 0 when all are zero.
    marks = [(word + 0x7F7F7F7F7F7F7F7F & 0x8080808080808080).astype(float) for word in (high, low)]
    top = np.frexp(marks[1] * 2.0**64 + marks[0])[1]
    digits = ((top - 8) >> 3) + 2
    row = np.empty((count, _ROW // 8), dtype=np.uint64)  # the 32-byte rows as words
    row[:, 0] = high + 0x3030303030303030  # + ord("0") in every byte
    row[:, 1] = low + 0x3030303030303030
    row[:, 2] = (first + ord("0") | (bits >> 63) * ord("-") << 8
                 | int.from_bytes(b".0", "little") << 16 | exponent_text[point + 323] << 32)
    row[:, 3] = int.from_bytes(b"e,\0naif\0", "little")
    fixed = (point >= -3) & (point <= 16)
    layout = np.where(fixed, (point + 3) * 17 + digits - 1,
                      _FIXED + 2 * (digits - 1) + (abs(point - 1) >= 100))
    if special.any():
        layout[magnitude == 0] = _ZERO_ID
        layout[magnitude == 0x7FF << 52] = _INF_ID
        layout[magnitude > 0x7FF << 52] = _NAN_ID
    text = row.view(np.uint8)
    text[width - 1::width, _SEP] = ord("\n")
    text[-1, _SEP] = 0
    index = np.take(layouts, layout, axis=0)
    index += np.arange(0, count * _ROW, _ROW)[:, None]
    chars = np.take(text, index)
    return chars[chars != 0].tobytes().decode("ascii")


def rows_text(values):
    """Yield each row of a 2-D float array as its values' `repr`s joined by commas.

    Values are formatted `_BLOCK` at a time, several short rows to a block or
    a long row in pieces, so the work arrays stay a block's size and no more
    than one row's text is held.
    """
    values = np.asarray(values, dtype=np.float64)
    count, width = values.shape
    if width == 0:
        yield from [""] * count
    elif width <= _BLOCK:
        per = _BLOCK // width
        for start in range(0, count, per):
            yield from _block_text(values[start:start + per].ravel(), width).split("\n")
    else:
        for row in values:
            text = _block_text(row[:_BLOCK], _BLOCK)
            for start in range(_BLOCK, width, _BLOCK):
                # CPython grows a str only this name holds in place, so the
                # row's text is not copied as it grows
                text += "," + _block_text(row[start:start + _BLOCK], _BLOCK)
            yield text
