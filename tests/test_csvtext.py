"""csvtext's float text is Python's own %.17g, byte for byte."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from rectfield.csvtext import format_17g


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
