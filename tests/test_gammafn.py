"""Special-function primitives: magnitudes, constants, safe helpers."""

import importlib.machinery
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from oracle import GammaPoleError, abs_gamma, c1
from rectfield.gammafn import _LOGGAMMA, _scipy_extension, c2, ma_basis
from rectfield.kernels import _spectral_mass, moving_constraint_residual

# reference values from a 50-digit evaluation
ABS_GAMMA_03_07 = 0.91103832586926864218
C1_025 = 0.31580938887303235065
C1_075 = 0.38678592935955833995
C2_025 = 0.64599800374075196761
C2_09 = 0.81122064814335251477


def test_abs_gamma_half():
    assert abs_gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_abs_gamma_reflection_value():
    # |Gamma(1/2 + ix)|^2 = pi / cosh(pi x)
    want = math.sqrt(math.pi / math.cosh(math.pi))
    assert abs_gamma(complex(0.5, 1.0)) == pytest.approx(want, rel=1e-12)


def test_abs_gamma_reference_point():
    assert abs_gamma(complex(0.3, 0.7)) == pytest.approx(ABS_GAMMA_03_07,
                                                         rel=1e-12)


def test_reflection_identity_along_critical_line():
    for x in np.linspace(-20.0, 20.0, 81):
        val = abs_gamma(complex(0.5, x)) ** 2 * math.cosh(math.pi * x)
        assert val == pytest.approx(math.pi, rel=1e-10)


@given(st.floats(min_value=-30.0, max_value=30.0),
       st.floats(min_value=0.05, max_value=5.0))
@settings(max_examples=200)
def test_conjugate_symmetry(im, re):
    a = abs_gamma(complex(re, im))
    b = abs_gamma(complex(re, -im))
    assert abs(a - b) <= 1e-14 * max(a, b)


def test_recurrence_on_lattice():
    for re in np.arange(0.25, 2.01, 0.25):
        for im in np.arange(-3.0, 3.01, 0.5):
            z = complex(re, im)
            lhs = abs_gamma(z + 1)
            rhs = abs(z) * abs_gamma(z)
            assert lhs == pytest.approx(rhs, rel=1e-11)


@pytest.mark.parametrize("z", [0.0, -1.0, -2.0, complex(-5.0, 0.0)])
def test_pole_error(z):
    with pytest.raises(GammaPoleError):
        abs_gamma(z)


def test_overflow_is_an_error():
    with pytest.raises(OverflowError):
        abs_gamma(200.0)


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        abs_gamma(complex(math.nan, 0.0))


def test_c1_values():
    assert c1(0.5) == pytest.approx(math.sqrt(1.0 / (2 * math.pi)), rel=1e-14)
    assert c1(0.25) == pytest.approx(C1_025, rel=1e-13)
    assert c1(0.75) == pytest.approx(C1_075, rel=1e-13)


def test_c2_values():
    assert c2(0.5) == pytest.approx(1.0, rel=1e-14)
    assert c2(0.25) == pytest.approx(C2_025, rel=1e-13)
    assert c2(0.9) == pytest.approx(C2_09, rel=1e-13)


@pytest.mark.parametrize("fn", [c1, c2])
@pytest.mark.parametrize("H", [-0.1, 0.0, 1.0, 1.5])
def test_constants_domain(fn, H):
    with pytest.raises(ValueError):
        fn(H)


@pytest.mark.parametrize("H", [0.999, 0.9999, 0.99999])
def test_sin_pi_h_near_one_matches_mpmath(H):
    # pi H rounded costs sin(pi H) its digits as H nears 1: c1 and c2 were
    # 1.2e-14 off at 0.999 and 2.2e-12 at 0.99999; 1 - H is exact
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        h, sin = mp.mpf(H), mp.sin(mp.pi * mp.mpf(H))
        sin_03 = mp.sin(mp.pi * mp.mpf(0.3))
        want = {
            c1: mp.sqrt(h * mp.gamma(2 * h) * sin / mp.pi),
            c2: mp.sqrt(mp.gamma(1 + 2 * h) * sin) / mp.gamma(h + 0.5),
            _spectral_mass: mp.gamma(1 + 2 * h) * sin / mp.pi,
            # d0 = d1 = 1/2: every other operation is exact
            moving_constraint_residual: 0.5 * sin * sin_03 - 0.5,
        }
    got = {c1: c1(H), c2: c2(H), _spectral_mass: _spectral_mass((H,)),
           moving_constraint_residual:
               moving_constraint_residual(H, 0.3, 0.5, 0.5)}
    for fn, value in got.items():
        assert abs(value - float(want[fn])) <= 2e-15 * abs(float(want[fn])), \
            fn.__name__


@pytest.mark.parametrize("fn", [c1, c2])
def test_constants_continuity(fn):
    for H in (0.01, 0.3, 0.5, 0.75, 0.99):
        left = fn(H)
        right = fn(H + 1e-6)
        assert abs(left - right) < 1e-4


@pytest.mark.parametrize("h", [0.05, 0.3, 0.5, 0.7, 0.95])
def test_ma_basis_is_the_one_sided_power_reference(h):
    # the bits of the basis built on oracle.pow_plus (repr tells the sign
    # of a zero apart), on each side of the supports and at {0, s, t}
    t, s = 1.3, 0.6
    xs = (-2.5, -1.0, -1e-9, 0.0, 1e-9, 0.3, s, 0.9, t, 2.0, 40.0)
    for got, want in zip(ma_basis(h), oracle.ma_basis(h)):
        for u in (t, s):
            for x in xs:
                assert repr(got(u, x)) == repr(want(u, x)), (u, x)
    # the markers at x in {0, u}: the powers below 1/2, the log at 1/2
    edges = [[b(u, x) for u in (t, s) for x in (0.0, u)] for b in ma_basis(h)]
    inf = math.inf
    if h < 0.5:
        assert edges == [[-inf, inf, -inf, inf]] * 2
    elif h == 0.5:
        assert edges == [[1.0] * 4, [inf, -inf, inf, -inf]]
    else:
        assert all(map(math.isfinite, edges[0] + edges[1]))


# --------------------------------------------------------------------------
# SciPy's compiled modules, loaded from their files
# --------------------------------------------------------------------------

def test_loggamma_is_scipy_special_loggamma_on_a_complex_grid():
    # the package may not import scipy.special; its tests may
    import scipy.special

    loggamma = _scipy_extension(_LOGGAMMA).loggamma
    assert loggamma is scipy.special.loggamma
    imag = np.geomspace(1e-3, 1e3, 25)
    real, imag = np.meshgrid(np.linspace(-4.75, 6.0, 44),
                             np.concatenate([-imag, [0.0], imag]))
    z = real + 1j * imag
    assert np.array_equal(loggamma(z), scipy.special.loggamma(z),
                          equal_nan=True)


def test_a_missing_extension_names_its_file_and_the_scipy_version():
    import scipy

    with pytest.raises(ImportError, match=re.escape(
            f"SciPy {scipy.__version__} has no compiled module "
            f"scipy.special._no_such_module")) as err:
        _scipy_extension("special._no_such_module")
    assert "_no_such_module" + importlib.machinery.EXTENSION_SUFFIXES[0] in \
        str(err.value)
