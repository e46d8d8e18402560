"""Spectral densities of the time-changed fields and Fourier reconstruction.

The stationary covariance of the exponentially time-changed fractional
Brownian motion has an explicit spectral density

    g_H(x) = (1/2pi) (2H/(H^2+x^2)) (pi Gamma(2H)/|Gamma(H+ix)|^2)
             * sin(pi H) cosh(pi x)
               / (sin^2(pi H) cosh^2(pi x) + cos^2(pi H) sinh^2(pi x)),

reducing at H = 1/2 to the Cauchy density 1/(2 pi ((1/2)^2 + x^2)).  The
denominator simplifies to cosh^2(pi x) - cos^2(pi H), which this module
exploits for a log-space evaluation that stays finite far into the tails
(the density itself decays like |x|^{-1-2H}, not exponentially).

For a product field the density is the product of the one-dimensional
densities, one 1/(2 pi) factor per coordinate; this normalization is pinned
down by requiring that the Fourier transform of the product density
reproduce the stationary sheet covariance (total mass one).

A ``SpectralDensity`` is a sum of separable terms c_k prod_j f_kj(x_j),
the shape of the paper's spectral representations: the sheet's density is
one term, and a mild-class density g(x1) g(x2) - theta mu(x1) mu(x2) is
two.  ``cov_from_density`` inverts it to a covariance at a finite lag,
factor by factor, by one-dimensional quadrature (Fourier-weight rules with
cycle acceleration on the oscillatory tails) in any dimension, and reports
the imaginary residual; ``density_criterion_residual`` evaluates the
density-level membership identity for the mild class.

``g_w``, ``g_fbm`` and the factors of a density map frequencies
elementwise; ``g_product``, a ``SpectralDensity`` and the criterion map
frequencies (..., N) to (...), one call of each factor for all 2^N sign
flips of a grid.  A single frequency gives a ``np.float64``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import loggamma

from .gammafn import log_cosh
from .kernels import _points, _sign_vectors, validate_hurst
from .quadrature import DEFAULT_BUDGET, _Budget, _quad_panel

__all__ = [
    "SpectralDensity",
    "TransformResult",
    "g_w",
    "g_fbm",
    "g_product",
    "fbm_density",
    "product_density",
    "cov_from_density",
    "density_criterion_residual",
    "fbm_spectral_cov_check",
]


def g_w(x):
    """Cauchy density of the time-changed Brownian motion, elementwise in x."""
    return 1.0 / (2.0 * math.pi * (0.25 + x * x))


_STIRLING_X = 20.0   # g_fbm's tail form holds beyond this |x|


def _log_g_near(ax, H):
    """log g_H at |x| = ax <= _STIRLING_X, from log Gamma and log cosh."""
    log_gamma2 = 2.0 * loggamma(H + 1j * ax).real
    lc = log_cosh(math.pi * ax)
    cos_h = math.cos(math.pi * H)
    # log(cosh^2 - cos^2) = 2 log cosh + log1p(-(cos/cosh)^2)
    log_den = 2.0 * lc + np.log1p(-(cos_h * cos_h) * np.exp(-2.0 * lc))
    return (np.log(2.0 * H / (H * H + ax * ax))
            + math.log(math.pi) + math.lgamma(2.0 * H) - log_gamma2
            + math.log(math.sin(math.pi * H)) + lc - log_den
            - math.log(2.0 * math.pi))


def _log_g_far(y, H):
    """log g_H at |x| = y > _STIRLING_X.  With z = H + iy, Stirling's series
    gives Re log Gamma(z) + pi y/2 = (H - 1/2) log|z| + y atan(H/y) - H
    + log(2 pi)/2 + sum_k B_2k/(2k(2k-1)) Re z^{1-2k}, to 2e-17 at y = 20
    with k <= 5, and log cosh(pi y) = pi y - log 2 + O(e^{-2 pi y}): the pi y
    terms cancel unrounded and neither y^2 nor |z|^2 is formed."""
    r = H / y
    log_z = np.log(y) + 0.5 * np.log1p(r * r)
    w = (r - 1j) / (y * (1.0 + r * r))                              # 1 / z
    w2 = w * w
    series = w * (1 / 12 - w2 * (1 / 360 - w2 * (1 / 1260 - w2 * (
        1 / 1680 - w2 / 1188))))
    return (math.log(2.0 * H * math.gamma(2.0 * H) * math.sin(math.pi * H))
            - (2.0 * H + 1.0) * log_z - 2.0 * y * np.arctan(r) + 2.0 * H
            - math.log(2.0 * math.pi) - 2.0 * series.real)


def g_fbm(H: float, x):
    """Spectral density g_H(x) of the time-changed fractional Brownian motion.

    x is a number or an array, mapped elementwise.  Evaluated in log space:
    the exponential growth of 1/|Gamma(H+ix)|^2 and the exponential decay of
    cosh(pi x)/(cosh^2(pi x) - cos^2(pi H)) cancel analytically, leaving the
    power-law tail ~ c_H |x|^{-1-2H} that a naive evaluation loses to
    overflow beyond |x| of about 200; beyond |x| = 20 they cancel in
    Stirling's series, exact to rounding at every finite x.
    """
    (H,) = validate_hurst(H)
    ax = abs(x)
    # each form on its own frequencies; at |x| = inf the far form is inf * 0
    # and g_H is its limit 0
    if isinstance(ax, np.ndarray):
        ax = ax.astype(float)
        return np.exp(np.piecewise(
            ax, [(ax > _STIRLING_X) & (ax < math.inf), ax == math.inf],
            [_log_g_far, -math.inf, _log_g_near], H))
    if ax == math.inf:
        return np.float64(0.0)
    return np.exp((_log_g_far if ax > _STIRLING_X else _log_g_near)(ax, H))


def g_product(H, x) -> np.ndarray:
    """The sheet's density prod_k g_{H_k}(x_k), frequencies (..., N) -> (...)."""
    return product_density(H)(x)


@dataclass(frozen=True)
class SpectralDensity:
    """Density sum_k c_k prod_j f_kj(x_j) on R^N, frequencies (..., N) -> (...).

    ``terms`` is ((c_1, (f_11, ..., f_1N)), ...): finite real coefficients,
    each with N one-dimensional factors that map frequencies elementwise.
    Every term's Fourier transform factorizes coordinate-wise.
    """

    terms: tuple

    def __post_init__(self):
        counts = {len(factors) for _, factors in self.terms}
        if len(counts) != 1 or counts == {0}:
            raise ValueError("a density needs terms with the same number of "
                             "factors, at least one")
        if not all(math.isfinite(c) for c, _ in self.terms):
            raise ValueError("term coefficients must be finite")

    @property
    def n(self) -> int:
        return len(self.terms[0][1])

    def __call__(self, x) -> np.ndarray:
        x = _points(x, self.n)
        return sum(c * math.prod(f(x[..., j]) for j, f in enumerate(factors))
                   for c, factors in self.terms)


def fbm_density(H: float) -> SpectralDensity:
    return product_density((H,))


def product_density(H) -> SpectralDensity:
    return SpectralDensity(((1.0, tuple((lambda x, h=h: g_fbm(h, x))
                                        for h in validate_hurst(H))),))


@dataclass(frozen=True)
class TransformResult:
    value: float
    imag_residual: float
    err_estimate: float


def _half_line(g, budget, tol):
    """int_0^inf g dx, power tails absorbed by the reciprocal substitution."""
    v1, e1 = _quad_panel(g, 0.0, 1.0, budget, epsabs=tol * 0.25)
    v2, e2 = _quad_panel(lambda w: g(1.0 / w) / (w * w), 0.0, 1.0, budget,
                         epsabs=tol * 0.25)
    return v1 + v2, e1 + e2


def _transform_1d(g, v, budget, tol):
    """int_R e^{i x v} g(x) dx as (real, imag, err)."""
    even = lambda x: g(x) + g(-x)
    odd = lambda x: g(x) - g(-x)
    if v == 0.0:
        re, err = _half_line(even, budget, tol)
        return re, 0.0, err
    re, e1 = _quad_panel(even, 0.0, np.inf, budget, epsabs=tol * 0.25,
                         weight="cos", wvar=abs(v))
    im, e2 = _quad_panel(odd, 0.0, np.inf, budget, epsabs=tol * 0.25,
                         weight="sin", wvar=abs(v))
    return re, math.copysign(1.0, v) * im, e1 + e2


def cov_from_density(f: SpectralDensity, v, tol: float = 1e-6,
                     budget: int = DEFAULT_BUDGET) -> TransformResult:
    """Fourier transform int e^{i<x,v>} f(x) dx of a spectral density at lag v.

    sum_k c_k prod_j of the one-dimensional transforms of f_kj at v_j, on
    one evaluation budget; the error estimate is sum_k |c_k| sum_j e_kj.
    The imaginary part of the transform is returned as a residual: it
    vanishes (up to quadrature error) for densities even under x -> -x.
    """
    v = _points(v, f.n)
    bud = _Budget(budget)
    total, err = 0j, 0.0
    for c, factors in f.terms:
        term, term_err = complex(1.0), 0.0
        for g, vj in zip(factors, v):
            re, im, e = _transform_1d(g, float(vj), bud, tol)
            term *= complex(re, im)
            term_err += e
        total += c * term
        err += abs(c) * term_err
    return TransformResult(total.real, abs(total.imag), err)


def density_criterion_residual(f: SpectralDensity, H, x) -> np.ndarray:
    """Residual of the density-level mild-class identity at frequencies x.

    sum_{eps in {-1,+1}^N} f(eps o x) - 2^N prod_k g_{H_k}(x_k) over
    frequency arrays (..., N) -> (...); f is evaluated once, on the flipped
    frequencies (..., 2^N, N).
    """
    H = validate_hurst(H)
    if len(H) != f.n:
        raise ValueError(f"H has {len(H)} components, the density is "
                         f"{f.n}-dimensional")
    x = _points(x, f.n)
    flips = np.asarray(_sign_vectors(f.n), dtype=float)
    return (f(flips * x[..., None, :]).sum(axis=-1)
            - 2.0**f.n * g_product(H, x))


def fbm_spectral_cov_check(H: float, s: float, t: float) -> tuple:
    """Covariance of fractional Brownian motion by two routes.

    Spectral route: (t s)^H int e^{i x log(t/s)} g_H(x) dx, the second
    moment of the harmonizable representation built on g_H, inverted at
    ``cov_from_density``'s default tolerance.  Closed route:
    (t^{2H} + s^{2H} - |t-s|^{2H}) / 2.  Returns (spectral, closed).
    """
    (H,) = validate_hurst(H)
    s, t = float(s), float(t)
    if s <= 0.0 or t <= 0.0:
        raise ValueError("s and t must be strictly positive")
    res = cov_from_density(fbm_density(H), (math.log(t / s),))
    spectral = (t * s)**H * res.value
    closed = 0.5 * (t**(2 * H) + s**(2 * H) - abs(t - s)**(2 * H))
    return spectral, closed
