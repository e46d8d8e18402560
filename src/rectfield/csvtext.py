"""CSV lines from arrays: exact ``%.17g`` text of float64 values, at array
speed.

``format_17g(x)`` gives, for each value v of x, the bytes ``b"%.17g" % v``
as one row of a NUL-padded uint8 matrix.  ``write_lines`` builds the one
block of CSV lines it is given as one such matrix, a row per line with its
cells side by side, and writes it with its NULs deleted; its caller picks
the block's size.

The exact path takes 1e-6 <= |v| < 1e17.  The 17 digits of v are the
integer N nearest to the exact product |v| 10^(16 - X) in [1e16, 1e17),
X the decimal exponent.  10^p is an exact double for p <= 22, and
Dekker's two-product (Numer. Math. 18, 1971) gives the product as
hi + lo exactly from unfused double operations.  X starts at
floor(log10 |v|) and moves by one where hi + lo lies outside
[1e16, 1e17); lo decides at the ends, since the double 1e-6 is
9.9999999999999995e-07.  hi >= 1e16 > 2^53 is an even integer, so
N = hi + rint(lo) rounds half to even, as ``%.17g`` does.  N never rounds
up to 1e17: no double of the range lies within 5e-18 (relative) below a
power of ten.  The text follows %g: positional for -4 <= X < 17, else the
exponent form, without trailing zeros or a bare point.  Python's own
``%.17g`` writes zeros, subnormals, non-finite values, |v| outside the
exact path's range and any value whose X a second step would still move.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["format_17g", "labels", "write_lines"]

# A cell is CELL bytes: an 8-byte head (the sign, and "0." and its zeros
# when X is in [-4, 0)), 20 bytes of integer digits, 20 of fraction (the
# point or, when X < 0, the first digit, then the digits after the point)
# and a 4-byte exponent ("e-05").  The 17 digits sit in five lanes of 4
# bytes, the first digit alone in the first lane, so that each lane of each
# part is one uint32 of the matrix.
CELL = 52
_LANES = (0, 1, 5, 9, 13)      # the first digit of each lane
_GROUP = 10_000                # a lane's four digits are one table entry
_X_MIN, _X_MAX = -6, 16        # the decimal exponents of the exact path
_VELTKAMP = 134217729.0        # 2^27 + 1 splits a double into two halves


def _split(a):
    """Veltkamp's split a = hi + lo, each half of at most 26 bits."""
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _pow10():
    """10^p for p = 0..22, which are exact doubles, and its two halves."""
    pow10 = np.array([10 ** p for p in range(23)], dtype=float)
    return (pow10, *_split(pow10))


@functools.cache
def _text_tables():
    """The tables of the text, built at the first call of ``format_17g``.

    ``lanes[g]`` is g's four digits as one little-endian uint32, and
    ``lanes[g + _GROUP]`` the same with its trailing zeros NUL; and, per
    exponent X from _X_MIN, the mask of the integer digits in each lane,
    the head (row 0 for positive, row 1 for negative values) and the
    exponent text.
    """
    g = np.arange(_GROUP)
    lanes = np.empty((2, _GROUP, 4), np.uint8)
    for k, unit in enumerate((1000, 100, 10, 1)):
        lanes[0, :, k] = g // unit % 10 + 48
        # the digit and all after it are zero: a trailing zero
        lanes[1, :, k] = lanes[0, :, k] * (g % (10 * unit) != 0)
    x = np.arange(_X_MIN, _X_MAX + 1)
    positional = (x >= -4) & (x < 17)   # %g's rule at 17 digits
    n_int = np.where(positional, np.maximum(x + 1, 0), 1)
    kept = np.clip(n_int - np.array(_LANES)[:, None], 0, 4)
    heads = [sign + (b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"")
             for sign in (b"", b"-") for e in x.tolist()]
    tails = [b"" if pos else b"e%+03d" % e
             for e, pos in zip(x.tolist(), positional.tolist())]
    return (lanes.view("<u4").reshape(-1),
            ((1 << 8 * kept) - 1).astype("<u4"),
            np.array(heads, "S8").view("<u8").reshape(2, -1),
            np.array(tails, "S4").view("<u4"))


def _times_pow10(v, p):
    """(hi, lo) with hi + lo == v * 10**p exactly: Dekker's two-product,
    with 10**p exact (p <= 22) and no product near under- or overflow."""
    pow10, b1, b2 = _pow10()
    b1, b2 = b1[p], b2[p]
    hi = v * pow10[p]
    a1, a2 = _split(v)
    return hi, ((a1 * b1 - hi) + a1 * b2 + a2 * b1) + a2 * b2


def _outside(hi, lo):
    """Which exact products hi + lo lie below 1e16, and which from 1e17."""
    return ((hi < 1e16) | ((hi == 1e16) & (lo < 0)),
            (hi > 1e17) | ((hi == 1e17) & (lo >= 0)))


def format_17g(x, out=None):
    """``b"%.17g" % v`` for each v of the float array x, as the rows of a
    uint8 matrix of CELL columns: row k with its NUL bytes deleted is the
    text of x[k].  ``out``, if given, is the matrix to write, for example
    a block of columns of a wider one.
    """
    lanes, int_mask, heads, tails = _text_tables()
    x = np.asarray(x, dtype=float).reshape(-1)
    if out is None:
        out = np.empty((len(x), CELL), np.uint8)
    v = np.abs(x)
    exact = (v >= 1e-6) & (v < 1e17)   # NaN is neither
    v[~exact] = 1.0                    # a stand-in; Python writes these
    X = np.log10(v)
    X = np.floor(X, out=X).astype(np.int8).clip(_X_MIN, _X_MAX)
    hi, lo = _times_pow10(v, 16 - X)
    below, above = _outside(hi, lo)
    moved = np.flatnonzero(below | above)
    if len(moved):
        X[moved] = (X[moved] + above[moved] - below[moved]).clip(_X_MIN, _X_MAX)
        hi[moved], lo[moved] = _times_pow10(v[moved], 16 - X[moved])
        below, above = _outside(hi[moved], lo[moved])
        exact[moved[below | above]] = False
    N = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    first, rest = np.divmod(N, 10 ** 16)
    a, b = np.divmod(rest, 10 ** 8)
    groups = (first, *np.divmod(a, _GROUP), *np.divmod(b, _GROUP))
    row = X - _X_MIN

    def word(col, dtype="<u4"):   # the cell's bytes from col as one integer
        return out[:, col:col + np.dtype(dtype).itemsize].view(dtype)[:, 0]

    word(0, "<u8")[:] = heads[(x < 0).astype(np.int8), row]
    word(48)[:] = tails[row]
    fraction = np.zeros(len(x), np.uint32)
    zeros_after = np.ones(len(x), bool)
    for k in range(4, 0, -1):   # from the last lane, to drop trailing zeros
        g, mask = groups[k], int_mask[k][row]
        word(8 + 4 * k)[:] = lanes[g] & mask
        frac = lanes[g + _GROUP * zeros_after] & ~mask
        word(28 + 4 * k)[:] = frac
        fraction |= frac
        zeros_after &= g == 0
    first_digit = (first + 48).astype(np.uint32)
    integer = int_mask[0][row] != 0
    word(8)[:] = first_digit * integer
    # the point if a fraction digit follows it, or the first digit if X < 0
    word(28)[:] = np.where(integer, 46 * (fraction != 0), first_digit)
    slow = np.flatnonzero(~exact)
    if len(slow):
        out[slow] = np.array([b"%.17g" % f for f in x[slow].tolist()],
                             f"S{CELL}").view(np.uint8).reshape(-1, CELL)
    return out


def labels(ints, suffix=b""):
    """``b"%d" % k + suffix`` for each k, as a numpy bytes array."""
    return np.array([b"%d%s" % (k, suffix) for k in ints], dtype=bytes)


def write_lines(fh, cells):
    """One block of CSV lines to the binary file fh, in one write.

    ``cells`` are a line's cells in order: fixed text (bytes), or a numpy
    array of the block's cells, floats (written ``%.17g``) or text.
    ``format_17g`` writes all of the block's floats in one call.
    """
    parts = [np.array([c]) if isinstance(c, bytes) else c for c in cells]
    n_lines = max(len(p) for p in parts)
    widths = [CELL if p.dtype.kind == "f" else p.itemsize for p in parts]
    lines = np.empty((n_lines, sum(widths)), np.uint8)
    col, floats = 0, []
    for p, w in zip(parts, widths):
        cols = lines[:, col:col + w]
        col += w
        if p.dtype.kind == "f":
            floats.append((p, cols))
        else:   # one fixed text is broadcast to every line
            cols[:] = p.view(np.uint8).reshape(-1, w)
    text = format_17g(np.stack([p for p, _ in floats], axis=1))
    for k, (_, cols) in enumerate(floats):
        cols[:] = text[k::len(floats)]
    fh.write(lines.tobytes().translate(None, b"\0"))
