"""Exact vectorised ``"%.17g" % x`` for float64 arrays, as fixed-width byte cells.

``cells(x)`` returns a uint8 array of shape ``(x.size, WIDTH)``.  Row i,
without its NUL bytes, is ``"%.17g" % x[i]``, byte for byte, followed by the
separator in the last column (a ","; the CSV writer turns the last cell of a
row into its newline).  The writer lays the cells of a table's columns side by
side and drops the NUL bytes of the whole.  ``text_cells`` lays out any other
byte strings in the same way (the CSV writer's str cells and the SVG writer's
point texts).

Digits.  For |x| in [1e-280, 1e280] and e = floor(log10 |x|), the scaled
value S = |x| 10^(16 - e) lies in [1e16, 1e17).  It is formed as a
double-double p + lo by Dekker's error-free product of |x| with a (hi, lo)
table of powers of ten, correctly rounded from exact integers.  As
p >= 2^53 is an integer, the 17 significant digits are p + floor(lo), plus
one when the fraction of lo exceeds 1/2.  Values whose fraction is not
provably away from 1/2 (exact ties among them), zero, non-finite, subnormal
and out-of-range values are rendered by ``"%.17g"`` one at a time.

Layout.  Every cell has the same frame of WIDTH columns: the sign and "0.";
the 17 digits after three zeros (the zeros that lead fixed notation below
1); a point; the 17 digits again after three zeros; "e", the exponent sign
and three exponent digits; the separator.  The integer digits show from the
first copy and the fraction digits from the second, so which columns show
depends only on (sign, notation and exponent, number of significant digits),
and a table of 2 x 23 x 17 masks lays out every cell: the bytes it hides are
set to NUL.  The digits are
written four at a time from a table of 10^4 words.
"""

from __future__ import annotations

import numpy as np

WIDTH = 56
_COPY1, _POINT, _COPY2, _EXP = 7, 24, 31, 48    # columns of d0, ".", d0 again, "e"
_FAST_LO, _FAST_HI = 1e-280, 1e280
_K0 = 300                       # powers of ten 10^k for k in [-_K0, _K0]
_MARGIN = 1e-12                 # least distance of the fraction from 1/2 that is rounded here
_SPLIT = 134217729.0            # 2^27 + 1, Veltkamp's splitter for doubles


def _split(a):
    """Veltkamp's split a = hi + lo, each half with at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _powers() -> tuple[np.ndarray, ...]:
    """hi, lo with hi + lo = 10^k to 2^-106 relative, and the split of hi.

    Both are correctly rounded from exact integers: int / int and int -> float
    round correctly, and h = num / den exactly, so 10^-n - h is the exact
    ratio (den - num 10^n) / (den 10^n).
    """
    hi, lo = [0.0] * (2 * _K0 + 1), [0.0] * (2 * _K0 + 1)
    p = 1                                   # 10^n, by running products
    for n in range(_K0 + 1):
        h = 1 / p
        num, den = h.as_integer_ratio()
        hi[_K0 - n], lo[_K0 - n] = h, (den - num * p) / (den * p)
        h = float(p)
        hi[_K0 + n], lo[_K0 + n] = h, float(p - int(h))
        p *= 10
    hi = np.array(hi)
    return (hi, np.array(lo), *_split(hi))


def _frame_masks() -> np.ndarray:
    """The shown bytes as word masks, row (neg * 23 + notation) * 17 + nsig - 1.

    Notation e + 4 is fixed notation for an exponent e in [-4, 16]; 21 and 22
    are exponent notation with two and with three exponent digits.  nsig
    digits remain once trailing zeros are dropped.
    """
    notation = np.arange(23)[:, None, None]
    nsig = np.arange(1, 18)[:, None]
    c = np.arange(WIDTH)
    x = np.where(notation <= 20, notation - 4, 0)   # index of the last integer digit
    fraction = (nsig > x + 1) & ((c == _POINT) | (c >= _COPY2 + x + 1) & (c < _COPY2 + nsig))
    show = np.where(x < 0,
                    (c == 1) | (c == 2) | (c >= _COPY1 + x + 1) & (c < _COPY1 + nsig),  # 0.00ddd
                    (c >= _COPY1) & (c <= _COPY1 + x) | fraction)                       # dd.ddd
    exponent = (c == _EXP) | (c == _EXP + 1) | (c >= _EXP + 2 + (notation == 21)) & (c < _EXP + 5)
    show = show | (notation > 20) & exponent | (c == WIDTH - 1)          # and the separator
    masks = np.stack([show, show | (c == 0)]).reshape(-1, WIDTH)        # and the sign
    return (masks * np.uint8(255)).view(np.uint32)


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """_QUADS[q]: the four digits of q < 10^4 as one word.  _NSIG[k][q]: the
    significant digits when q, the (k+1)-th group of four digits after the
    leading one, is the last group that is not zero; 1 when q is zero."""
    q = np.arange(10**4, dtype=np.int32)
    quads = (48 + q[:, None] // np.array([1000, 100, 10, 1], dtype=np.int32) % 10).astype(np.uint8)
    trailing_zeros = (q % 10 == 0).astype(np.int8) + (q % 100 == 0) + (q % 1000 == 0)
    nsig = np.where(q > 0, np.arange(5, 18, 4, dtype=np.int8)[:, None] - trailing_zeros, 1)
    return quads.view(np.uint32).ravel(), nsig.astype(np.int8)


_POW_HI, _POW_LO, _POW_HH, _POW_HL = _powers()
_MASKS = _frame_masks()
_SIGN_WORD, _POINT_WORD = np.frombuffer(b"-0.0.000", dtype=np.uint32)
# "e", the exponent's sign and three digits, and the separator, by exponent
_EXPONENTS = np.frombuffer(b"".join(b"e%+04d\0\0," % e for e in range(-_K0, _K0 + 1)),
                           dtype=np.uint64)
_NOTATION = np.array([17 * (e + 4 if -4 <= e < 17 else 21 if abs(e) < 100 else 22)
                      for e in range(-_K0, _K0 + 1)])
_QUADS, _NSIG = _digit_tables()


def _divmod(a: np.ndarray, b: int):
    """np.divmod(a, b), which is slower than a floor division and a product."""
    q = a // b
    return q, a - q * b


def _scaled(a: np.ndarray, k: np.ndarray):
    """(p, lo) with p + lo = a 10^k within 4.2e-15 when a 10^k < 1.1e17.

    p = fl(a hi) and its rounding error are exact (Dekker); the error of lo is
    the rounding of a lo_k (at most 1.2e-15), of err + a lo_k (1.8e-15), and
    the table's own 2^-106 relative error (1.2e-15).
    """
    i = k + _K0
    p = a * _POW_HI[i]
    ah, al = _split(a)
    bh, bl = _POW_HH[i], _POW_HL[i]
    err = al * bl - (((p - ah * bh) - al * bh) - ah * bl)
    return p, err + a * _POW_LO[i]


def cells(x: np.ndarray) -> np.ndarray:
    """The fixed-width cells of ``"%.17g" % v`` for every v in the 1-d array x."""
    x = np.asarray(x, dtype=np.float64)
    a = np.abs(x)
    fast = (a >= _FAST_LO) & (a <= _FAST_HI)        # false on nan
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    p, lo = _scaled(a, 16 - e)
    # log10 may be one off near powers of ten: move S into [1e16, 1e17)
    shift = ((p - 1e16) + lo < 0).astype(np.int64) - ((p - 1e17) + lo >= 0)
    moved = np.flatnonzero(shift)
    if moved.size:
        e[moved] -= shift[moved]
        pm, lm = _scaled(a[moved], 16 - e[moved])
        p[moved], lo[moved] = pm, lm
        fast[moved] &= ((pm - 1e16) + lm >= 0) & ((pm - 1e17) + lm < 0)
    whole = np.floor(lo)
    frac = lo - whole
    # p + lo is within 4.2e-15 of S (see _scaled), so a fraction at least
    # _MARGIN = 1e-12 away from 1/2 rounds as S does; ties fall back.
    fast &= np.abs(frac - 0.5) >= _MARGIN
    digits = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = digits == 10**17                        # 9.99...95 rounds up to 10.0
    digits[carry] = 10**16
    e += carry

    hi, lo8 = _divmod(digits, 10**8)
    lead, hi8 = _divmod(hi, 10**8)
    groups = [lead, *_divmod(hi8, 10**4), *_divmod(lo8, 10**4)]   # digit 0, then 4 at a time
    words = np.empty((x.size, WIDTH // 4), dtype=np.uint32)
    words[:, 0] = _SIGN_WORD
    words[:, 6] = _POINT_WORD
    for k, group in enumerate(groups):
        words[:, 1 + k] = words[:, 7 + k] = _QUADS[group]
    words.view(np.uint64)[:, 6] = _EXPONENTS[e + _K0]
    nsig = _NSIG[0][groups[1]]
    for table, group in zip(_NSIG[1:], groups[2:]):
        np.maximum(nsig, table[group], out=nsig)
    key = _NOTATION[e + _K0] + (x < 0) * (23 * 17) + nsig - 1
    words &= np.take(_MASKS, key, axis=0)
    chars = words.view(np.uint8)

    for i in np.flatnonzero(~fast):
        text = b"%.17g" % x[i]
        chars[i, :-1] = 0
        chars[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return chars


def text_cells(texts: list[bytes]) -> np.ndarray:
    """The byte strings as cells of the widest one's width, right-aligned
    (each separator, if it ends with one, in the last column), NUL padded."""
    width = max(map(len, texts), default=0)
    chars = np.frombuffer(b"".join(t.rjust(width, b"\0") for t in texts), dtype=np.uint8)
    return chars.reshape(len(texts), width)
