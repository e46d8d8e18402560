"""Spectral densities, Fourier inversion, density-level criterion."""

import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracle
import rectfield
from rectfield import quadrature, spectral
from rectfield.lamperti import c_fbs_stationary
from rectfield.spectral import (
    SpectralDensity,
    cov_from_density,
    density_criterion_residual,
    fbm_density,
    fbm_spectral_cov_check,
    g_fbm,
    g_product,
    g_w,
    product_density,
)

# reference value from a 50-digit evaluation of the closed formula
G_FBM_03_AT_1 = 0.10388798748998728943


def test_density_reduces_to_cauchy_at_half():
    for x in np.arange(-10.0, 10.0 + 1e-9, 0.01):
        rel = abs(g_fbm(0.5, x) - g_w(x)) / g_w(x)
        assert rel <= 1e-10
    # beyond |x| = 20, g_fbm sums Stirling's series; g_{1/2} = g_w exactly
    far = np.geomspace(20.0, 1e8, 400)
    for x in np.concatenate([far, -far, [20.0 + 1e-12, 20.5, 21.0, 300.0]]):
        assert abs(g_fbm(0.5, x) - g_w(x)) <= 1e-14 * g_w(x), x
    far_got = g_fbm(0.5, far)
    assert np.all(np.abs(far_got - g_w(far)) <= 1e-14 * g_w(far))


def test_density_even():
    for H in (0.2, 0.5, 0.8):
        for x in (0.3, 1.7, 12.0, 150.0):
            assert g_fbm(H, x) == g_fbm(H, -x)


def test_density_reference_point():
    assert g_fbm(0.3, 1.0) == pytest.approx(G_FBM_03_AT_1, rel=1e-12)


def test_density_against_cosine_transform_oracle():
    # independent route: g(x) = (1/pi) int_0^inf cos(x v) C(v) dv, by
    # SciPy's own quad rather than the package's engine
    from scipy.integrate import quad

    for H, x in ((0.3, 1.0), (0.7, 0.4), (0.2, 2.5)):
        value, _ = quad(lambda v: c_fbs_stationary((H,), (v,)), 0.0, np.inf,
                        epsabs=2.5e-10, weight="cos", wvar=x, limlst=100)
        assert g_fbm(H, x) == pytest.approx(value / math.pi, abs=1e-8)


def test_density_far_tail_is_finite_and_powerlike():
    # naive evaluation overflows past x ~ 200; the tail must follow
    # c_H |x|^{-1-2H}
    for H in (0.1, 0.5, 0.9):
        v1, v2 = g_fbm(H, 500.0), g_fbm(H, 1000.0)
        assert 0.0 < v2 < v1
        ratio = v2 / v1
        assert ratio == pytest.approx(2.0 ** -(1 + 2 * H), rel=1e-3)


def test_mass_is_one():
    for H in (0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98):
        res = cov_from_density(fbm_density(H), (0.0,))
        assert res.value == pytest.approx(1.0, abs=1e-6)
        assert res.imag_residual == 0.0


def test_transform_of_cauchy_density():
    dens = SpectralDensity(((1.0, (g_w,)),))
    for v in (-2.0, 0.5, 3.0):
        res = cov_from_density(dens, (v,))
        assert res.value == pytest.approx(math.exp(-abs(v) / 2), abs=1e-8)
        assert res.imag_residual <= 1e-7


def test_transform_reconstructs_stationary_covariance():
    for H in (0.1, 0.3, 0.7, 0.9):
        dens = fbm_density(H)
        for v in (-3.0, -1.2, 0.4, 2.0, 3.0):
            res = cov_from_density(dens, (v,))
            want = c_fbs_stationary((H,), (v,))
            assert abs(res.value - want) <= 1e-4
            assert abs(res.value - want) <= 10 * max(res.err_estimate, 1e-10)


def test_transform_2d_product():
    H = (0.3, 0.7)
    dens = product_density(H)
    for v in ((0.0, 0.0), (1.0, -2.0), (-2.5, 0.6)):
        res = cov_from_density(dens, v)
        want = c_fbs_stationary(H, v)
        assert abs(res.value - want) <= 1e-4


@pytest.mark.parametrize("H, v", [((0.4, 0.6), (0.8, -0.5)),
                                  ((0.3, 0.5, 0.7), (0.8, -1.2, 2.0))],
                         ids=["2-D", "3-D"])
def test_transform_of_a_product_in_two_and_three_dimensions(H, v):
    res = cov_from_density(product_density(H), v, tol=1e-5)
    want = c_fbs_stationary(H, v)
    assert abs(res.value - want) <= 1e-4
    assert res.imag_residual <= 1e-4


def _skewed(x):
    """A positive one-dimensional density that is not even."""
    return g_w(x) * (1.0 + 0.5 * np.tanh(x))


def test_transform_of_a_sum_is_the_weighted_sum_of_its_terms():
    H = (0.3, 0.7)
    (_, g), = product_density(H).terms
    terms = ((1.0, g), (-0.4, (_skewed, g_w)), (0.25, (g_w, _skewed)))
    v = (0.9, -1.3)
    got = cov_from_density(SpectralDensity(terms), v)
    parts = [cov_from_density(SpectralDensity(((1.0, fs),)), v)
             for _, fs in terms]
    assert got.value == sum(c * p.value for (c, _), p in zip(terms, parts))
    assert got.err_estimate == sum(abs(c) * p.err_estimate
                                   for (c, _), p in zip(terms, parts))
    assert got.imag_residual <= sum(abs(c) * p.imag_residual
                                    for (c, _), p in zip(terms, parts))
    assert got.imag_residual > 1e-3          # the skewed terms are not even
    # and the terms add up pointwise as well
    x = np.array([[0.5, -0.2], [-3.0, 1.5]])
    assert np.all(SpectralDensity(terms)(x) == sum(
        c * fs[0](x[:, 0]) * fs[1](x[:, 1]) for c, fs in terms))


@pytest.mark.parametrize("a", [1.0, 100.0, 1e4])
def test_error_estimate_bounds_the_error_of_a_product(a):
    # the transform of a g_w at v is a e^{-|v|/2}; a sum of the factors'
    # estimates alone, without the other factors' magnitudes, read 2.5e-7
    # against an actual error of 3.5e-6 at a = 1e4
    ag = lambda x: a * g_w(x)
    res = cov_from_density(SpectralDensity(((1.0, (ag, ag)),)), (0.7, -1.3),
                           tol=1e-6)
    assert abs(res.value - a * a * math.exp(-1.0)) <= res.err_estimate


@pytest.mark.parametrize("terms", [
    (),
    ((1.0, ()),),
    ((1.0, (g_w,)), (1.0, (g_w, g_w))),
    ((math.inf, (g_w,)),),
    ((math.nan, (g_w, g_w)),),
], ids=["no terms", "no factors", "factor counts differ", "inf coefficient",
        "nan coefficient"])
def test_spectral_density_rejects_malformed_terms(terms):
    with pytest.raises(ValueError):
        SpectralDensity(terms)


def test_transform_dimension_checks():
    with pytest.raises(ValueError):
        cov_from_density(fbm_density(0.3), (1.0, 2.0))
    with pytest.raises(ValueError):
        cov_from_density(product_density((0.3, 0.5, 0.7)), (1.0, 2.0))


def test_transform_stops_at_the_quadrature_budget(monkeypatch):
    # quadrature.BUDGET is read at each call, by the transform too
    dens, v = product_density((0.3, 0.7)), (0.7, -1.3)
    used = cov_from_density(dens, v)
    monkeypatch.setattr(quadrature, "BUDGET", 10)
    with pytest.raises(quadrature.QuadratureError, match="budget"):
        cov_from_density(dens, v)
    monkeypatch.undo()
    assert cov_from_density(dens, v) == used


def test_density_criterion_even_density_vanishes():
    H = (0.3, 0.7)
    dens = product_density(H)
    for x in ((0.5, 0.4), (-1.0, 2.0), (3.0, -0.2)):
        assert density_criterion_residual(dens, H, x) == pytest.approx(
            0.0, abs=1e-14)


def test_density_criterion_odd_perturbation_vanishes():
    # f = g (1 + delta odd(x1) odd(x2)) satisfies the membership identity
    H = (0.3, 0.7)

    (_, g), = product_density(H).terms
    dens = SpectralDensity(
        ((1.0, g), (0.5, tuple(lambda x, gk=gk: gk(x) * np.tanh(x)
                               for gk in g))))
    for x in ((0.5, 0.4), (-1.0, 2.0), (1.5, -0.7)):
        assert density_criterion_residual(dens, H, x) == pytest.approx(
            0.0, abs=1e-14)
        assert dens(x) >= 0.0


def test_density_criterion_detects_scaling():
    H = (0.3, 0.7)
    dens = SpectralDensity(((1.1, product_density(H).terms[0][1]),))
    x = (0.5, 0.4)
    want = 0.1 * 4 * g_product(H, x)
    assert density_criterion_residual(dens, H, x) == pytest.approx(
        want, rel=1e-12)


def test_fbm_spectral_cov_check_examples():
    sp, cl = fbm_spectral_cov_check(0.4, 1.3, 1.3)
    assert cl == pytest.approx(1.3 ** 0.8, rel=1e-13)
    assert sp == pytest.approx(cl, abs=1e-5)

    sp, cl = fbm_spectral_cov_check(0.5, 1.0, math.e)
    assert cl == pytest.approx(1.0, rel=1e-13)
    assert sp == pytest.approx(1.0, abs=1e-6)

    sp, cl = fbm_spectral_cov_check(0.7, 1.0, 2.0)
    assert abs(sp - cl) <= 1e-4


def test_fbm_spectral_cov_check_domain():
    with pytest.raises(ValueError):
        fbm_spectral_cov_check(0.7, 0.0, 1.0)


def test_fbm_spectral_cov_check_random_sweep():
    rng = np.random.default_rng(31)
    for _ in range(50):
        H = rng.uniform(0.05, 0.95)
        s, t = rng.uniform(0.5, 4.0, 2)
        sp, cl = fbm_spectral_cov_check(H, s, t)
        assert abs(sp - cl) <= 1e-4, (H, s, t)


# --------------------------------------------------------------------------
# The array forms against the scalar oracle, and one call per criterion
# --------------------------------------------------------------------------

_FREQS = np.concatenate([np.linspace(-300.0, 300.0, 601),
                         [0.0, 1e-9, -0.05, 0.05, 199.7]])


def _oracle_rtol(x):
    """Relative error allowed against ``oracle.g_fbm`` at frequencies (..., N).

    Up to |x| = 20 ``g_fbm`` is the oracle's formula, and the bound is
    1e-14.  Beyond it the oracle cancels terms of size up to 2 pi|x| to a
    result of size log|x|, so its own rounding error is a few ulp of pi|x|
    (at most 3.1 ulp over ``_FREQS``); the bound is 8 ulp of pi|x| per far
    coordinate.  The tail itself is checked against g_w at H = 1/2, against
    mpmath, and against its power law.
    """
    ax = np.abs(np.asarray(x, dtype=float))
    ulps = np.where(ax > 20.0, 8 * np.finfo(float).eps * np.pi * ax, 0.0)
    return np.maximum(1e-14, ulps.sum(axis=-1))


@pytest.mark.parametrize("H", [0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95])
def test_g_fbm_array_matches_the_scalar_oracle(H):
    want = np.array([oracle.g_fbm(H, x) for x in _FREQS])
    got = g_fbm(H, _FREQS)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= _oracle_rtol(_FREQS[:, None]) * want)
    assert isinstance(g_fbm(H, 1.7), np.float64)
    assert abs(g_fbm(H, 1.7) - oracle.g_fbm(H, 1.7)) <= 1e-14 * g_fbm(H, 1.7)


_TAIL_H = (0.1, 0.3, 0.5, 0.7, 0.9)


def test_g_fbm_far_tail_matches_mpmath():
    # the pi|x| terms used to cancel after rounding: relative error 1e-9 at
    # 1e6, 1e-3 at 1e12, and the constant 1/(2 pi) from about 1e17 on
    mp = pytest.importorskip("mpmath")
    for H in _TAIL_H:
        for x in (20.0, 20.5, 25.0, 100.0, 1e3, 1e6, 1e12, 1e17):
            with mp.workdps(40):
                h, y = mp.mpf(H), mp.mpf(x)
                want = float(
                    (2 * h / (h * h + y * y)) * mp.gamma(2 * h)
                    * mp.sin(mp.pi * h) / (2 * abs(mp.gamma(h + 1j * y)) ** 2)
                    * mp.cosh(mp.pi * y)
                    / (mp.cosh(mp.pi * y) ** 2 - mp.cos(mp.pi * h) ** 2))
            assert abs(g_fbm(H, x) - want) <= 1e-13 * want, (H, x)
            assert abs(g_fbm(H, np.array([x]))[0] - want) <= 1e-13 * want


@pytest.mark.parametrize("H", [1e-4, 1e-3, 0.5, 0.999, 0.9999])
def test_g_fbm_near_h_0_and_1_matches_mpmath(H):
    # the denominator cosh^2(pi x) - cos^2(pi H) cancelled to sin^2(pi H):
    # 9.2e-10 off at H = 0.9999, x = 0.  g_H carries twice the error of
    # SciPy's Re log Gamma(H + ix), 1.3e-14 at H = 1e-4, x = 20; the bound
    # is 1e-14 beyond that
    mp = pytest.importorskip("mpmath")
    from scipy.special import loggamma

    letter = spectral._fbm_letter(H)
    for x in (0.0, 1e-3, 1.0, 20.0):
        with mp.workdps(40):
            h, y = mp.mpf(H), mp.mpf(x)
            sin2, cos2 = mp.sin(mp.pi * h) ** 2, mp.cos(mp.pi * h) ** 2
            want = float(
                (2 * h / (h * h + y * y)) * mp.gamma(2 * h) * mp.sin(mp.pi * h)
                / (2 * abs(mp.gamma(h + 1j * y)) ** 2) * mp.cosh(mp.pi * y)
                / (sin2 * mp.cosh(mp.pi * y) ** 2
                   + cos2 * mp.sinh(mp.pi * y) ** 2))
            input_err = 2 * abs(float(
                loggamma(complex(H, x)).real
                - mp.re(mp.loggamma(mp.mpc(H, x)))))
        rtol = 1e-14 + input_err
        assert abs(g_fbm(H, np.array([x]))[0] - want) <= rtol * want, (H, x)
        assert abs(letter(x) - want) <= rtol * want, (H, x)


def test_g_fbm_tail_is_its_power_law_and_finite():
    # g_H(x) ~ c1(H)^2 |x|^{-1-2H}; the corrections are below 1e-15 here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for H in _TAIL_H:
            for x in (1e8, 1e17, 1e100):
                log_ratio = (math.log(g_fbm(H, -x)) + (1 + 2 * H) * math.log(x)
                             - 2 * math.log(oracle.c1(H)))
                assert abs(log_ratio) <= 1e-9, (H, x)
            xs = np.array([1e8, 1e154, 1e200, 1e300, -1e300])
            assert np.all(np.isfinite(g_fbm(H, xs)))
            assert all(np.isfinite(g_fbm(H, x)) for x in xs)


def test_g_fbm_is_zero_at_infinity():
    # the far form is inf * 0 there; g_H tends to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for H in _TAIL_H:
            for x in (math.inf, -math.inf, np.float64(math.inf)):
                got = g_fbm(H, x)
                assert got == 0.0 and isinstance(got, np.float64)
            got = g_fbm(H, np.array([math.inf, 1.0, -math.inf, 30.0]))
            assert np.array_equal(got, [0.0, g_fbm(H, 1.0), 0.0,
                                        g_fbm(H, 30.0)])
            assert g_fbm(H, np.array(-math.inf)) == 0.0


def test_g_w_and_g_product_arrays_match_the_scalar_oracle():
    want = np.array([oracle.g_w(x) for x in _FREQS])
    assert np.all(np.abs(g_w(_FREQS) - want) <= 1e-14 * want)
    X = np.stack(np.meshgrid(_FREQS[::10], _FREQS[::10], indexing="ij"),
                 axis=-1)
    for H in ((0.3, 0.7), (0.5, 0.5), (0.1, 0.9)):
        want = np.array([[oracle.g_product(H, x) for x in row] for row in X])
        got = g_product(H, X)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= _oracle_rtol(X) * want)
        assert isinstance(g_product(H, (0.5, -0.4)), np.float64)
    with pytest.raises(ValueError):
        g_product((0.3, 0.7), (0.5, 0.4, 0.1))


_GRID_21 = np.stack(np.meshgrid(np.linspace(-3.0, 3.0, 21),
                               np.linspace(-3.0, 3.0, 21), indexing="ij"),
                   axis=-1)


@pytest.mark.parametrize("freqs", [np.array([0.5, 0.4]), _GRID_21],
                         ids=["one frequency", "21x21 grid"])
def test_density_criterion_calls_f_once(freqs):
    H = (0.3, 0.7)
    calls = []

    def counted(name, f):
        return lambda x: calls.append((name, x.shape)) or f(x)

    g1, g2 = (lambda x: g_fbm(H[0], x)), (lambda x: g_fbm(H[1], x))
    dens = SpectralDensity((
        (1.0, (counted("g1", g1), counted("g2", g2))),
        (0.5, (counted("g1 tanh", lambda x: g1(x) * np.tanh(x)),
               counted("g2 tanh", lambda x: g2(x) * np.tanh(x))))))
    got = density_criterion_residual(dens, H, freqs)
    # each factor of each term once, on the flipped frequencies (..., 4)
    assert calls == [(name, freqs.shape[:-1] + (4,))
                     for name in ("g1", "g2", "g1 tanh", "g2 tanh")]
    assert got.shape == freqs.shape[:-1]
    # the flips and the sum are those of the scalar loop
    want = [oracle.density_criterion_residual(dens, H, x)
            for x in freqs.reshape(-1, 2)]
    assert np.all(np.abs(got.reshape(-1) - want) <= 1e-14)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("call", [
    lambda x: g_product((0.3, 0.7), (x, 0.5)),
    lambda x: product_density((0.3, 0.7))((x, 0.5)),
    lambda x: density_criterion_residual(product_density((0.3, 0.7)),
                                         (0.3, 0.7), (0.5, x)),
], ids=["g_product", "SpectralDensity", "density_criterion_residual"])
def test_non_finite_frequencies_raise(call, bad):
    with pytest.raises(ValueError, match="finite"):
        call(bad)


# Each call crashed the interpreter inside QUADPACK's QAWF (exit 139), so
# they run in an interpreter of their own: a regression fails this test, not
# the whole run, and the last line printed names the call that crashed.
_QAWF_CRASHES = {
    "_quad_panel": "_quad_panel(lambda x: 1 / (1 + x * x), 1.0, inf, "
                   "_Budget(10_000), 1e-8, weight='sin', wvar=nan)",
    "cov_from_density inf": "cov_from_density(fbm_density(0.3), (inf,))",
    "cov_from_density nan": "cov_from_density(fbm_density(0.3), (nan,))",
    "fbm_spectral_cov_check": "fbm_spectral_cov_check(0.3, 1.0, inf)",
    "check_increment_integral": "check_increment_integral(0.3, nan, 1.0)",
}


def test_non_finite_frequency_raises_instead_of_crashing():
    script = ("from math import inf, nan\n"
              "from rectfield.quadrature import (_Budget, _quad_panel, "
              "check_increment_integral)\n"
              "from rectfield.spectral import (cov_from_density, fbm_density,"
              " fbm_spectral_cov_check)\n")
    for name, call in _QAWF_CRASHES.items():
        script += (f"print({name!r}, end=' ', flush=True)\n"
                   f"try:\n    {call}\n    print('returned')\n"
                   "except ValueError:\n    print('ValueError')\n")
    src = str(Path(rectfield.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [f"{name} ValueError"
                                        for name in _QAWF_CRASHES]


_LETTER_X = (0.0, 1e-3, 1.0, 19.999999, 20.0, 20.000001, 36.0, 100.0, 700.0,
             1e6, 1e17, 1e308)


@pytest.mark.parametrize("H", (0.05,) + _TAIL_H + (0.95,))
def test_letter_gives_the_same_bits_for_a_float_and_in_an_array(H):
    # QUADPACK's abscissae are floats; arrays map the same formula over them
    letter = spectral._fbm_letter(H)
    xs = [sign * x for x in _LETTER_X for sign in (1.0, -1.0)]
    got = [letter(x) for x in xs]
    assert all(type(v) is float for v in got)
    want = np.array(got)
    assert np.array_equal(letter(np.array(xs)), want)
    assert np.array_equal(g_fbm(H, np.array(xs).reshape(4, -1)),
                          want.reshape(4, -1))
    for i, x in enumerate(xs):
        for other in (np.float64(x), np.array(x)):
            value = letter(other)
            assert type(value) is np.float64 and value == want[i]
    for k in (0, 1, -36):
        value = letter(k)
        assert type(value) is np.float64 and value == letter(float(k))
    assert math.isnan(letter(math.nan))
    assert np.isnan(letter(np.array([math.nan, -math.nan]))).all()
    assert letter(math.inf) == letter(-math.inf) == 0.0
    assert np.array_equal(letter(np.array([math.inf, -math.inf])), [0.0, 0.0])
    assert spectral._fbm_letter(H) is letter
    (_, (factor,)), = fbm_density(H).terms
    assert factor is letter


def test_density_far_in_the_tail_is_zero_without_overflow():
    # the deleted array form overflowed in its 2 y atan(H/y) at |x| >= 9e307
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = g_fbm(0.3, np.array([9e307, 1e308, -1e308]))
    assert np.array_equal(got, [0.0, 0.0, 0.0])


@pytest.mark.parametrize("lag", [[[1.0]], [[1.0], [2.0]], np.ones((1, 1, 1))],
                         ids=["(1, 1)", "(2, 1)", "(1, 1, 1)"])
def test_cov_from_density_takes_one_lag(lag):
    # a stack of lags failed inside the quadrature with numpy's TypeError
    shape = re.escape(str(np.shape(lag)))
    with pytest.raises(ValueError, match=f"one point.*{shape}"):
        cov_from_density(fbm_density(0.3), lag)
