"""csvtext's float text is Python's own %.17g, byte for byte."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from rectfield.csvtext import CELL, _LANES, _X_MAX, _X_MIN, _text_tables, \
    format_17g, labels, write_lines


def _texts(cells):
    """The rows of a format_17g matrix with their NULs deleted."""
    return [bytes(c[c != 0]) for c in cells]


_EXACT_RANGE = st.floats(min_value=1e-6, max_value=1e17, exclude_max=True)


@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          _EXACT_RANGE, _EXACT_RANGE.map(lambda v: -v)),
                min_size=1, max_size=64))
@settings(max_examples=300, deadline=None)
def test_format_17g_is_percent_17g_hypothesis(values):
    # finite doubles over the whole exponent range, and more of them where
    # the exact path, not Python's own %.17g, writes the text
    assert _texts(format_17g(np.array(values))) == \
        [b"%.17g" % v for v in values]


def test_no_double_of_the_exact_path_rounds_up_to_a_power_of_ten():
    # format_17g takes no carry from N = 1e17: the 17 digits of a double
    # v < 10^k in [1e-6, 1e17) round up to 10^k only if v lies within half
    # a unit of the 17th digit, 5e-18 relative, below it
    for k in range(-5, 18):
        p = Fraction(10) ** k
        below = float(p) if Fraction(float(p)) < p else \
            math.nextafter(float(p), 0.0)
        assert (p - Fraction(below)) / p > Fraction(5, 10 ** 18), k


def test_format_17g_near_powers_of_ten():
    # the exponent estimate is one off on some of these; every double next
    # to 10^k, random digits on the exact path and past its ends, and the
    # non-finite values, which Python writes
    p = 10.0 ** np.arange(-8, 19)
    x = np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf),
                        np.random.default_rng(3).standard_normal(20_000)
                        * 10.0 ** np.linspace(-8, 18, 20_000),
                        [np.nan, np.inf]])
    x = np.concatenate([x, -x])
    assert _texts(format_17g(x)) == [b"%.17g" % v for v in x.tolist()]


def test_text_tables_are_the_text_of_percent_17g():
    # a lane is four digits, and its twin has its trailing zeros NUL; per
    # exponent X, the integer bytes of each lane, the head before the first
    # digit and the exponent text are those of Python's %.17g
    lanes, int_mask, heads, tails = _text_tables()
    digits = [b"%04d" % g for g in range(10_000)]
    assert lanes.tobytes() == b"".join(digits) + b"".join(
        d.rstrip(b"0").ljust(4, b"\0") for d in digits)
    for row, x in enumerate(range(_X_MIN, _X_MAX + 1)):
        for negative in (0, 1):
            text = b"%.17g" % ((-1) ** negative * 1.25 * 10.0 ** x)
            mantissa = text.split(b"e")[0]
            head = mantissa[:mantissa.index(b"1")]
            assert heads[negative, row].tobytes() == head.ljust(8, b"\0")
            assert tails[row].tobytes() == text[len(mantissa):].ljust(4, b"\0")
        # the digits before the point: none after a head of "0."
        n_int = 0 if b"0." in head else len(mantissa.split(b".")[0]) - negative
        for lane, first in enumerate(_LANES):
            kept = min(max(n_int - first, 0), 4)
            assert int_mask[lane, row].tobytes() == \
                b"\xff" * kept + b"\0" * (4 - kept)


_EDGES = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
                          math.inf, -math.inf, math.nan, 1e17, -3.5e20,
                          1.7976931348623157e308, 9.9999999999999995e-07,
                          -4.2e-300])


@given(st.integers(1, 6).flatmap(lambda k: st.lists(
    st.lists(st.one_of(st.floats(), _EXACT_RANGE, _EDGES,
                       st.floats(min_value=1e17, allow_infinity=False),
                       st.floats(min_value=0.0, max_value=1e-6,
                                 exclude_min=True, exclude_max=True)),
             min_size=k, max_size=k), min_size=1, max_size=16)))
@settings(max_examples=200, deadline=None)
def test_format_17g_of_columns_is_one_call_per_column_hypothesis(rows):
    # csvtext.write_lines formats a block's k float columns in one call of
    # an (n, k) array: its text at [line, column] is that column's own
    # call, on the exact path and on Python's, whose values are mixed in
    x = np.array(rows)
    x[:, 1::2] *= -1.0
    text = format_17g(x).reshape(*x.shape, CELL)
    for m in range(x.shape[1]):
        assert np.array_equal(text[:, m], format_17g(x[:, m]))


def test_write_lines_writes_its_block_in_one_write():
    # the lines it is given and no more, in one write: fixed text on every
    # line, a text column, and one float column or two, each block's floats
    # formatted together in one call, on both of format_17g's paths
    class File:
        def __init__(self):
            self.writes = []

        def write(self, data):
            self.writes.append(data)

    x = np.array([0.1, -1e-300, 1e23])
    y = np.array([1 / 3, 0.0, -2.5])
    lines = [b"%d:%.17g,%.17g\r\n" % row for row in zip(range(3), x, y)]
    for cells, want in (
            ([labels(range(3), b":"), x, b",", y, b"\r\n"], lines),
            ([b"v=", x[:1], b"\n"], [b"v=0.10000000000000001\n"]),
            ([labels(range(3)), b",", x, b"\r\n"],
             [b"%d,%.17g\r\n" % row for row in zip(range(3), x)])):
        fh = File()
        write_lines(fh, cells)
        assert fh.writes == [b"".join(want)]
