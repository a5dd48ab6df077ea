"""``repr`` of every float of a float64 array, from one vectorised kernel.

``repr`` gives the shortest digits that read back to the float, and of
those the nearest to it (Gay's algorithm).  Here, after Ryu (Adams,
2018), each ``|x|`` is scaled by a double-double power of ten to
``s = |x| * 10**(16 - E)``, ``E ~ floor(log10 |x|)``, held as an int64
plus a fraction.  The floats that read back to ``x`` scale to the
interval ``s +- w``, ``w`` half a unit in the last place scaled alike,
and its integers ``[L, U]``.  The digits are the multiple of the
largest power ``10**q`` in ``[L, U]`` nearest to ``s``; the interval is
symmetric, so that multiple lies in it.  The arithmetic errs by under
``1e-13``, so a float is certified unless an interval end or the
rounding midpoint lies within ``1e-9`` of an integer.  Those, the
power-of-two significands (whose interval is not symmetric), zeros,
``|x|`` outside ``[1e-280, 1e290]``, NaN and inf get ``float.__repr__``.
An integer below ``1e17`` scales exactly, so its interval ends are
exact: they belong to the interval when its significand is even, as
round-half-even reads them, and it is certified either way.
Cells are laid out by Python's rules (positional for
``1e-4 <= |x| < 1e16``, else ``d.ddde+XX``) in the caller's rows of five
NUL-padded 8-byte words, each ending in a ``,`` or newline; the same
digit bytes lay out ``str`` of an int64 below ``10**16``.  Dropping the
NULs of a table of such rows gives its CSV bytes.
"""

from __future__ import annotations

import numpy as np

_K0, _K1 = -280, 300  # the tables hold 10**k for k in [_K0, _K1)
_SLICE = 4096  # floats per pass, which bounds the temporaries


def _pow10() -> tuple:
    """``10**k ~ hi + lo``, both correctly rounded, from exact integers."""
    hi, lo = [], []
    for k in range(_K0, _K1):
        d = 10 ** abs(k)
        h = float(d) if k >= 0 else 1 / d
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append(float(d - a) if k >= 0 else (b - a * d) / (d * b))
    return np.array(hi), np.array(lo)


_HI, _LO = _pow10()
_U8 = np.dtype("<u8")  # a cell is five little-endian 8-byte words
_ZEROS = 0x3030303030303030  # "0" in every byte


def _words(rows) -> np.ndarray:
    return np.frombuffer(b"".join(r.ljust(8, b"\0") for r in rows), _U8)


# word j of the 24-byte digit lane: its bytes before byte t, and "." at t
_BEFORE = [_words(b"\xff" * min(max(t - 8 * j, 0), 8) for t in range(25))
           for j in range(3)]
_DOT = [_words(b"\0" * (t - 8 * j) + b"." if 0 <= t - 8 * j < 8 else b""
               for t in range(25)) for j in range(3)]
# sign and "0.000" lead of a small positional number, or the sign alone
_LEAD = _words(sign + lead for lead in (b"0.", b"0.0", b"0.00", b"0.000", b"")
               for sign in (b"", b"-"))
_EXP0 = -330
# the exponent and end of a cell, for each end; the last one has no exponent
_EXPS = {end: _words([f"e{e:+03d}{end}".encode() for e in range(_EXP0, 310)]
                     + [end.encode()]) for end in ",\n"}
_INT_MAX = 10 ** 16
_POW10_INT = 10 ** np.arange(1, 16, dtype=np.int64)


def _split(a):
    c = a * (2.0 ** 27 + 1.0)
    h = c - (c - a)
    return h, a - h


def _near_int(v):
    return np.abs(v - np.round(v)) < 1e-9


def cells(values: np.ndarray, out: np.ndarray, end: str) -> None:
    """Write ``repr`` of each float, or ``str`` of each int, of a 1-d
    float64 or int64 array, then ``end``, into its row of the
    ``(len(values), 5)`` uint64 array ``out``, NUL-padded."""
    write = _floats if values.dtype.kind == "f" else _ints
    for lo in range(0, len(values), _SLICE):
        write(values[lo:lo + _SLICE], out[lo:lo + _SLICE], end)


def _by_python(values, out, end, where) -> None:
    """``repr`` of each value where ``where`` is set, into its row of ``out``."""
    rows = np.flatnonzero(where)
    if rows.size:
        text = [repr(v) + end for v in values[rows].tolist()]
        out[rows] = np.array(text, "S40").view(_U8).reshape(-1, 5)


def _floats(values, out, end) -> None:
    x = np.abs(values)
    exact = (x >= 1e-280) & (x <= 1e290) & (values.view(np.int64) << 12 != 0)
    x = np.where(exact, x, 1.5)
    e10 = np.floor(np.log10(x)).astype(np.int64)
    # an integer x scaled by 10**k, k >= 0, is an exact integer and half
    # its ulp an exact float: its interval ends are exact
    whole = (e10 <= 16) & (x == np.floor(x))
    odd = whole & (values.view(np.int64) & 1 == 1)
    digits, sure = _digits(*_scaled(x, 16 - e10 - _K0), whole, odd)
    big = (digits >= 10 ** 16).astype(np.int64) + (digits >= 10 ** 17)
    digits *= np.array([100, 10, 1])[big]  # 18 digits, left-aligned
    _layout(values, digits, e10 + big, out, end)
    _by_python(values, out, end, ~(exact & sure))


def _ints(values, out, end) -> None:
    """``str`` of each int: its 16-digit lane with the leading zeros NUL."""
    fits = (values > -_INT_MAX) & (values < _INT_MAX)
    v = np.where(fits, np.abs(values), 0)
    skip = 15 - np.searchsorted(_POW10_INT, v, side="right")  # leading zeros
    out[:, 0] = _LEAD[8 + (values < 0)]
    top = v // 10 ** 8
    for j, word in enumerate(_digit_bytes(np.stack([top, v - top * 10 ** 8]))):
        out[:, 1 + j] = (word | _ZEROS) & ~_BEFORE[j][skip]
    out[:, 3] = 0
    out[:, 4] = _EXPS[end][-1]
    _by_python(values, out, end, ~fits)


def _scaled(x, row):
    """``x * 10**(row + _K0)`` as int64 plus fraction, and half an ulp of
    ``x`` so scaled, within ``1e-13`` (Dekker's exact product)."""
    hi = _HI[row]
    p = x * hi
    (xh, xl), (hh, hl) = _split(x), _split(hi)
    whole = np.floor(p)
    rest = (p - whole) + ((xh * hh - p) + xh * hl + xl * hh) + xl * hl + x * _LO[row]
    return (whole.astype(np.int64) + np.floor(rest).astype(np.int64),
            rest - np.floor(rest), np.spacing(x) * 0.5 * hi)


def _digits(s_int, frac, w, exact, odd):
    """The shortest digits in ``s +- w``, nearest ``s``, and which are sure.

    Where the ends are ``exact``, an integer end is left out for an
    ``odd`` significand, as round-half-even does, and no end is in doubt.
    """
    top, bottom = np.floor(frac + w), np.ceil(frac - w)
    upper = s_int + top.astype(np.int64) - (odd & (top == frac + w))
    lower = s_int + bottom.astype(np.int64) + (odd & (bottom == frac - w))
    width = upper - lower
    sure = exact | ~(_near_int(frac + w) | _near_int(frac - w))
    # [L, U] spans under 23: a multiple of 100 in it is its only multiple
    # of the largest power of ten in it; else take the multiple of 10, or
    # of 1, nearest s (a remainder is formed as ``a - a // k * k``,
    # as NumPy divides by a constant much faster than it takes ``%``)
    m100 = upper - upper // 100 * 100
    hundred = m100 <= width
    ten = ~hundred & (m100 - m100 // 10 * 10 <= width)
    step = np.where(ten, 10, 1)
    r = np.where(ten, s_int - s_int // 10 * 10, 0)
    half = r + frac - 0.5 * step  # s less the midpoint
    sure &= hundred | (np.abs(half) >= 1e-9)
    return np.where(hundred, upper - m100, s_int - r + step * (half > 0)), sure


def _digit_bytes(v):
    """Byte ``j`` of each word is the ``j``-th of the 8 decimal digits of
    ``v < 10**8`` (4-, 2-, then 1-digit lanes split within the word)."""
    v = v.astype(_U8)
    top = v // 10000
    x = top | (v - top * 10000) << 32
    y = (x * 5243 >> 19) & 0x7F0000007F  # each 32-bit lane // 100
    x = y | (x - y * 100) << 16
    y = (x * 103 >> 10) & 0x000F000F000F000F  # each 16-bit lane // 10
    return y | (x - y * 10) << 8


def _last_nonzero(x):
    """Index of the last nonzero byte of each nonzero word; bytes of at
    most 9 keep its conversion to float from rounding up to 2**k."""
    return (np.frexp(x.astype(np.float64))[1] - 1) >> 3


def _layout(values, digits, decpt, out, end) -> None:
    """Python's layout of ``0.d1d2...d18 * 10**decpt``, then ``end``."""
    top = digits // 10 ** 10
    low = digits - top * 10 ** 10
    mid = low // 100
    two = low - mid * 100
    tens = two * 103 >> 10  # two // 10
    head, mid = _digit_bytes(np.stack([top, mid]))
    tail = (tens | (two - tens * 10) << 8).astype(_U8)
    n_sig = 1 + np.where(tail != 0, 16 + (tail >> 8 != 0), np.where(
        mid != 0, 8 + _last_nonzero(mid), _last_nonzero(head)))
    fixed = (decpt > -4) & (decpt <= 16)
    whole = fixed & (decpt > 0)
    # a whole number keeps its zeros up to the point and one after it
    keep = np.where(whole, np.maximum(n_sig, decpt + 1), n_sig)
    point = np.where(whole, decpt, np.where(~fixed & (n_sig > 1), 1, 24))
    out[:, 0] = _LEAD[2 * np.where(fixed & (decpt <= 0), -decpt, 4) + (values < 0)]
    carry = 0
    for j, word in enumerate((head, mid, tail)):
        kept = (word | _ZEROS) & _BEFORE[j][keep]
        before = kept & _BEFORE[j][point]
        after = kept ^ before  # moved one byte up, past the point
        out[:, 1 + j] = before | _DOT[j][point] | after << 8 | carry
        carry = after >> 56
    exps = _EXPS[end]
    out[:, 4] = exps[np.where(fixed, len(exps) - 1, decpt - 1 - _EXP0)]
