"""The bytes of Python's "%.17g" for a block of doubles, in numpy.

A normal cell x = M * 2**E2 is scaled by 10**(16 - k), k = floor(log10|x|)
from np.log10 and corrected once where that puts the scaled value outside
[10**16, 10**17). 10**q is held as its 93-bit truncation T * 2**e, in
three 32-bit limbs; M, shifted so that the binary point lands on bit 96
of M * T, times T gives floor(|x| * 10**(16 - k)) and 64 bits of fraction,
with an error below 2**-32 of the last digit. So the 17 digits round
half-even from those bits, and % itself prints the cells this cannot
certify: a fraction within 2**-30 of a half, digits that round up to
10**17, a subnormal, an infinity and a nan.

The text of a cell is laid out in a 64-byte row holding every byte any
cell may print, each at a fixed place, and a 64-bit keep mask picks the
bytes printed:

    byte  0      '-'
    2-6          '0.000', the zeros of 0.0001 to 0.1
    7-23         the 17 digits, integer part
    27           '.'
    28-43        digits 2 to 17 again, fraction part
    44-48        'e+308'
    49           ',' or the newline that ends the row
"""

import numpy as np

_K = 310        # the tables cover decimal exponents -_K .. _K
_U = np.uint64  # every uint64 operand is one: numpy 1.x promotes
                # uint64 with int64 to float64
_LOW32 = _U(0xFFFFFFFF)
_E4, _E8, _E16, _E17 = (_U(10 ** n) for n in (4, 8, 16, 17))
_NEAR = _U(2 ** 63 - 2 ** 34)   # f - _NEAR <= 2**35: within 2**-30 of a half


# 10**(16 - k) ~ (T2:T1:T0) * 2**e at [k + _K], the 93-bit truncation
# 2**92 <= T < 2**93, made for the decimal exponents met (_MET): all 621
# take longer to make than a short CSV takes to format.
_T0, _T1, _T2 = (np.zeros(2 * _K + 1, _U) for _ in range(3))
_E = np.zeros(2 * _K + 1, np.int64)
_MET = np.zeros(2 * _K + 1, bool)


def _powers(lo, hi):
    """Make the powers of ten at [lo .. hi]."""
    for i in range(lo, hi + 1):
        q = 16 + _K - i
        ten = 10 ** abs(q)
        if q >= 0:                  # the top 93 bits of 10**q
            e = ten.bit_length() - 93
            t = ten >> e if e >= 0 else ten << -e
        else:                       # 2**-e // 10**-q
            e = -ten.bit_length() - 92
            t = (1 << -e) // ten
        _T2[i], _T1[i], _T0[i] = t >> 64, t >> 32 & 0xFFFFFFFF, t & 0xFFFFFFFF
        _E[i] = e
    _MET[lo:hi + 1] = True


def _keep_masks():
    """uint64 keep mask of the row of a cell of decimal exponent X and nd
    significant digits, at [(X + _K) * 18 + nd]; with its separator. The
    mask is that of X's class: one fixed form for each X in -4 .. 16,
    then exponent forms of 2 and of 3 digits."""
    x = np.arange(-4, 19)[:, None]          # the classes: X, then 17 and 18
    nd = np.arange(18)[None, :]
    fixed = x <= 16
    whole = np.where(fixed, np.maximum(x, 0), 0)    # integer digits after the first
    lo = 28 + whole
    hi = np.maximum(lo, 27 + nd)
    mask = ((1 << 8 + whole) - (1 << 7) | (1 << hi) - (1 << lo)
            | np.where(hi > lo, 1 << 27, 0))
    small = np.minimum(x, -1)
    mask = np.where(x < 0, (1 << 3 - small) - (1 << 2) | (1 << 7 + nd) - (1 << 7),
                    mask)
    mask |= np.where(fixed, 0, 0b11011 << 44 | np.where(x == 18, 1 << 46, 0))
    mask |= 1 << 49
    x = np.arange(-_K, _K + 1)
    cls = np.where((x >= -4) & (x <= 16), x, np.where(abs(x) >= 100, 18, 17))
    return mask.astype(_U)[cls + 4].ravel()


def _exponents():
    """'e', its sign and the hundreds and tens of |X| as one uint32, and
    the units digit, for X = -_K .. _K."""
    x = np.arange(-_K, _K + 1)
    chars = np.stack([np.full_like(x, ord("e")),
                      np.where(x < 0, ord("-"), ord("+")), 48 + abs(x) // 100,
                      48 + abs(x) // 10 % 10, 48 + abs(x) % 10], axis=1)
    chars = chars.astype(np.uint8)
    return np.ascontiguousarray(chars[:, :4]).view(np.uint32).ravel(), chars[:, 4]


def _words():
    """The 4 ASCII digits of w = 0 .. 9999 as one uint32, and [i][w]: the
    significant digits through w's last nonzero digit when w is the i-th
    4-digit word after the leading digit, 0 for w = 0."""
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1)
    last = ((digits != 0) * np.arange(1, 5, dtype=np.uint8)[:, None]).max(0)
    through = (last + np.arange(1, 17, 4, dtype=np.uint8)[:, None]) * (last > 0)
    return np.ascontiguousarray(digits.T + 48).view(np.uint32).ravel(), through


_KEEP = _keep_masks()
_EXP4, _EXP1 = _exponents()
_WORD, _THROUGH = _words()


def _scale(m, e2, k):
    """floor(y) and the 64 bits of y's fraction below it, for
    y = m * 2**e2 * 10**(16 - k) within [10**15, 10**18)."""
    i = k + _K
    lo, hi = i.min(), i.max()
    if not _MET[lo:hi + 1].all():
        _powers(lo, hi)
    m = m << (96 + e2 + _E[i]).astype(_U)   # shift by 0 .. 11 bits
    m0, m1 = m & _LOW32, m >> _U(32)
    t0, t1, t2 = _T0[i], _T1[i], _T2[i]
    a, b, c = m0 * t0, m0 * t1, m1 * t0
    col = (a >> _U(32)) + (b & _LOW32) + (c & _LOW32)
    low = col & _LOW32
    d, f = m0 * t2, m1 * t1
    col = ((col >> _U(32)) + (b >> _U(32)) + (c >> _U(32))
           + (d & _LOW32) + (f & _LOW32))
    frac = (col & _LOW32) << _U(32) | low
    return (col >> _U(32)) + (d >> _U(32)) + (f >> _U(32)) + m1 * t2, frac


def rows(columns, step):
    """Yield the text of the rows of columns (1-D float arrays and 2-D
    groups of adjacent columns, of one row count), step rows at a time,
    each block copied from slices of them into one buffer, reused: each
    cell as "%.17g", cells joined by ',' and each row ended by a newline."""
    n_cols = sum(1 if c.ndim == 1 else c.shape[1] for c in columns)
    n_rows = min(step, len(columns[0]))
    sep = np.full(n_cols, ord(","), np.uint8)
    sep[-1] = ord("\n")
    blank = np.empty((n_rows * n_cols, 64), np.uint8)
    blank[:, 0] = ord("-")
    blank[:, 2:7] = np.frombuffer(b"0.000", np.uint8)
    blank[:, 27] = ord(".")
    blank[:, 49] = np.tile(sep, n_rows)
    buf = blank.copy()
    for start in range(0, len(columns[0]), step):
        x = np.column_stack([c[start:start + step] for c in columns]).ravel()
        yield _cells(x, buf[:x.size], blank)


def _cells(x, buf, blank):
    """The text of the cells x, laid out in buf, whose constant bytes are
    blank's and are left so."""
    ax = np.abs(x)
    zero = ax == 0
    normal = np.isfinite(ax) & (ax >= 2.2250738585072014e-308)
    ax[~normal] = 1.0                       # k = 0, digits 1, no warning
    bits = ax.view(_U)
    m = bits & _U(2 ** 52 - 1) | _U(2 ** 52)
    e2 = (bits >> _U(52)).astype(np.int64) - 1075
    k = np.floor(np.log10(ax)).astype(np.int64)
    d, f = _scale(m, e2, k)
    off = np.flatnonzero((d < _E16) | (d >= _E17))
    if off.size:                            # k one off floor(log10|x|)
        k[off] += np.where(d[off] >= _E17, 1, -1)
        d[off], f[off] = _scale(m[off], e2[off], k[off])
    d += f > _U(2 ** 63)
    slow = np.flatnonzero(~(normal | zero) | (f - _NEAR <= _U(2 ** 35))
                          | (d < _E16) | (d >= _E17))
    d[zero] = 0

    top = d // _E8
    low = d - top * _E8
    lead = top // _E8
    top -= lead * _E8
    w1, w3 = top // _E4, low // _E4
    w2, w4 = top - w1 * _E4, low - w3 * _E4
    nd = np.maximum(np.maximum(_THROUGH[0][w1], _THROUGH[1][w2]),
                    np.maximum(_THROUGH[2][w3], _THROUGH[3][w4]))
    buf[:, 7] = lead + _U(48)
    words = buf.view(np.uint32)
    words[:, 2], words[:, 3], words[:, 4], words[:, 5] = \
        _WORD[w1], _WORD[w2], _WORD[w3], _WORD[w4]
    words[:, 7:11] = words[:, 2:6]
    i = k + _K
    words[:, 11] = _EXP4[i]
    buf[:, 48] = _EXP1[i]
    keep = _KEEP[i * 18 + np.maximum(nd, 1)] | x.view(_U) >> _U(63)

    for j in slow:
        cell = b"%.17g%c" % (x[j], int(buf[j, 49]))
        buf[j, :len(cell)] = np.frombuffer(cell, np.uint8)
        keep[j] = (1 << len(cell)) - 1
    picked = np.unpackbits(keep.astype("<u8", copy=False).view(np.uint8),
                           bitorder="little").view(bool)
    text = buf.ravel()[picked].tobytes().decode("ascii")
    buf[slow] = blank[slow]
    return text
