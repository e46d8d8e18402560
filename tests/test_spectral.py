"""Spectral densities, Fourier inversion, density-level criterion."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
import rectfield
from rectfield.lamperti import c_fbs_stationary
from rectfield.quadrature import QuadratureError, integrate_1d
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


def test_density_even():
    for H in (0.2, 0.5, 0.8):
        for x in (0.3, 1.7, 12.0, 150.0):
            assert g_fbm(H, x) == g_fbm(H, -x)


def test_density_reference_point():
    assert g_fbm(0.3, 1.0) == pytest.approx(G_FBM_03_AT_1, rel=1e-12)


def test_density_against_cosine_transform_oracle():
    # independent route: g(x) = (1/pi) int_0^inf cos(x v) C(v) dv
    for H, x in ((0.3, 1.0), (0.7, 0.4), (0.2, 2.5)):
        res = integrate_1d(lambda v: c_fbs_stationary((H,), (v,)),
                           0.0, np.inf, tol=1e-9, oscillation=("cos", x))
        oracle = res.value / math.pi
        assert g_fbm(H, x) == pytest.approx(oracle, abs=1e-8)


def test_density_far_tail_is_finite_and_powerlike():
    # naive evaluation overflows past x ~ 200; the tail must follow
    # c_H |x|^{-1-2H}
    for H in (0.1, 0.5, 0.9):
        v1, v2 = g_fbm(H, 500.0), g_fbm(H, 1000.0)
        assert 0.0 < v2 < v1
        ratio = v2 / v1
        assert ratio == pytest.approx(2.0 ** -(1 + 2 * H), rel=1e-3)


def test_mass_is_one():
    for H in (0.1, 0.3, 0.5, 0.7, 0.9):
        res = cov_from_density(fbm_density(H), (0.0,))
        assert res.value == pytest.approx(1.0, abs=1e-6)
        assert res.imag_residual == 0.0


def test_transform_of_cauchy_density():
    dens = SpectralDensity(1, lambda x: g_w(x[..., 0]))
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


def test_transform_2d_nonproduct_path():
    H = (0.4, 0.6)
    dens = SpectralDensity(2, lambda x: g_product(H, x))
    res = cov_from_density(dens, (0.8, -0.5), tol=1e-5)
    want = c_fbs_stationary(H, (0.8, -0.5))
    assert abs(res.value - want) <= 1e-4
    assert res.imag_residual <= 1e-4


def _transform_2d_uncached(f, v, budget, tol, seen):
    """The nested transform as it was before its inner slices were kept:
    every outer evaluation recomputes inner(x1) and inner(-x1)."""
    from rectfield import spectral

    inner_tol = max(tol * 0.1, 1e-9)

    def inner(x1):
        seen.append(x1)
        re, im, _ = spectral._transform_1d(
            lambda x2: f.evaluate((x1, x2)), float(v[1]),
            spectral._Budget(budget.limit), inner_tol)
        return complex(re, im)

    def outer_part(part):
        geven = lambda x1: part(inner(x1) + inner(-x1))
        godd = lambda x1: part(inner(x1) - inner(-x1))
        re, e1 = spectral._quad_panel(geven, 0.0, np.inf, budget,
                                      epsabs=tol * 0.25, weight="cos",
                                      wvar=abs(float(v[0])))
        im, e2 = spectral._quad_panel(godd, 0.0, np.inf, budget,
                                      epsabs=tol * 0.25, weight="sin",
                                      wvar=abs(float(v[0])))
        return re, math.copysign(1.0, float(v[0])) * im, e1 + e2

    re_a, im_a, err_a = outer_part(lambda z: z.real)
    re_b, im_b, err_b = outer_part(lambda z: z.imag)
    return spectral.TransformResult(re_a - im_b, abs(im_a + re_b),
                                    err_a + err_b)


def test_transform_2d_computes_each_inner_slice_once(monkeypatch):
    from rectfield import spectral

    # a smooth density that is not a product, nor even in x1 alone
    dens = SpectralDensity(2, lambda x: math.exp(
        -x[0] ** 2 - 0.5 * x[0] * x[1] - x[1] ** 2 + 0.3 * x[0]))
    v = np.array([0.7, -0.4])
    seen = []
    want = _transform_2d_uncached(dens, v, spectral._Budget(
        spectral.DEFAULT_BUDGET), 1e-6, seen)

    calls = []
    real = spectral._transform_1d
    monkeypatch.setattr(spectral, "_transform_1d",
                        lambda *a: calls.append(1) or real(*a))
    got = cov_from_density(dens, v, tol=1e-6)
    # one inner transform per distinct x1, and the two outer transforms
    assert len(calls) == len(set(seen)) + 2
    assert len(set(seen)) < len(seen)
    assert (got.value, got.imag_residual, got.err_estimate) == \
        (want.value, want.imag_residual, want.err_estimate)


def test_transform_dimension_checks():
    with pytest.raises(ValueError):
        cov_from_density(fbm_density(0.3), (1.0, 2.0))
    dens3 = SpectralDensity(3, lambda x: 0.0)
    with pytest.raises(QuadratureError):
        cov_from_density(dens3, (0.0, 0.0, 0.0))


def test_density_criterion_even_density_vanishes():
    H = (0.3, 0.7)
    dens = product_density(H)
    for x in ((0.5, 0.4), (-1.0, 2.0), (3.0, -0.2)):
        assert density_criterion_residual(dens, H, x) == pytest.approx(
            0.0, abs=1e-14)


def test_density_criterion_odd_perturbation_vanishes():
    # f = g (1 + delta odd(x1) odd(x2)) satisfies the membership identity
    H = (0.3, 0.7)

    def f(x):
        x = np.asarray(x, dtype=float)
        return g_product(H, x) * (1 + 0.5 * np.tanh(x[..., 0])
                                  * np.tanh(x[..., 1]))

    dens = SpectralDensity(2, f)
    for x in ((0.5, 0.4), (-1.0, 2.0), (1.5, -0.7)):
        assert density_criterion_residual(dens, H, x) == pytest.approx(
            0.0, abs=1e-14)
        assert f(x) >= 0.0


def test_density_criterion_detects_scaling():
    H = (0.3, 0.7)
    dens = SpectralDensity(2, lambda x: 1.1 * g_product(H, x))
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


@pytest.mark.parametrize("H", [0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95])
def test_g_fbm_array_matches_the_scalar_oracle(H):
    want = np.array([oracle.g_fbm(H, x) for x in _FREQS])
    got = g_fbm(H, _FREQS)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-14 * want)
    assert isinstance(g_fbm(H, 1.7), np.float64)
    assert abs(g_fbm(H, 1.7) - oracle.g_fbm(H, 1.7)) <= 1e-14 * g_fbm(H, 1.7)


def test_g_w_and_g_product_arrays_match_the_scalar_oracle():
    want = np.array([oracle.g_w(x) for x in _FREQS])
    assert np.all(np.abs(g_w(_FREQS) - want) <= 1e-14 * want)
    X = np.stack(np.meshgrid(_FREQS[::10], _FREQS[::10], indexing="ij"),
                 axis=-1)
    for H in ((0.3, 0.7), (0.5, 0.5), (0.1, 0.9)):
        want = np.array([[oracle.g_product(H, x) for x in row] for row in X])
        got = g_product(H, X)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-14 * want)
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

    def f(x):
        calls.append(x.shape)
        return g_product(H, x) * (1 + 0.5 * np.tanh(x[..., 0])
                                  * np.tanh(x[..., 1]))

    dens = SpectralDensity(2, f)
    got = density_criterion_residual(dens, H, freqs)
    assert calls == [freqs.shape[:-1] + (4, 2)]
    assert got.shape == freqs.shape[:-1]
    # the flips and the sum are those of the scalar loop
    want = [oracle.density_criterion_residual(dens, H, x)
            for x in freqs.reshape(-1, 2)]
    assert np.all(np.abs(got.reshape(-1) - want) <= 1e-14)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("call", [
    lambda x: g_product((0.3, 0.7), (x, 0.5)),
    lambda x: density_criterion_residual(product_density((0.3, 0.7)),
                                         (0.3, 0.7), (0.5, x)),
], ids=["g_product", "density_criterion_residual"])
def test_non_finite_frequencies_raise(call, bad):
    with pytest.raises(ValueError, match="finite"):
        call(bad)


# Each call crashed the interpreter inside QUADPACK's QAWF (exit 139), so
# they run in an interpreter of their own: a regression fails this test, not
# the whole run, and the last line printed names the call that crashed.
_QAWF_CRASHES = {
    "integrate_1d": "integrate_1d(lambda x: 1 / (1 + x * x), 0.0, inf, "
                    "oscillation=('cos', inf))",
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
              "check_increment_integral, integrate_1d)\n"
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
