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

``cov_from_density`` inverts densities to covariances by quadrature
(Fourier-weight rules with cycle acceleration on the oscillatory tails) at
finite lags and reports the imaginary residual; ``density_criterion_residual`` evaluates
the density-level membership identity for the mild class.

``g_w`` and ``g_fbm`` map frequencies elementwise; ``g_product``, the
``evaluate`` of a ``SpectralDensity`` and the criterion map frequencies
(..., N) to (...), one call of the density for all 2^N sign flips of a
grid.  A single frequency gives a ``np.float64``, as quadrature needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import loggamma

from .gammafn import log_cosh
from .kernels import _points, _sign_vectors, validate_hurst
from .quadrature import DEFAULT_BUDGET, QuadratureError, _Budget, _quad_panel

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


def g_fbm(H: float, x):
    """Spectral density g_H(x) of the time-changed fractional Brownian motion.

    x is a number or an array, mapped elementwise.  Evaluated in log space:
    the exponential growth of 1/|Gamma(H+ix)|^2 and the exponential decay of
    cosh(pi x)/(cosh^2(pi x) - cos^2(pi H)) cancel analytically, leaving the
    power-law tail ~ c_H |x|^{-1-2H} that a naive evaluation loses to
    overflow beyond |x| of about 200.
    """
    (H,) = validate_hurst(H)
    ax = abs(x)
    log_gamma2 = 2.0 * loggamma(H + 1j * ax).real
    lc = log_cosh(math.pi * ax)
    cos_h = math.cos(math.pi * H)
    # log(cosh^2 - cos^2) = 2 log cosh + log1p(-(cos/cosh)^2)
    log_den = 2.0 * lc + np.log1p(-(cos_h * cos_h) * np.exp(-2.0 * lc))
    log_val = (np.log(2.0 * H / (H * H + x * x))
               + math.log(math.pi) + math.lgamma(2.0 * H) - log_gamma2
               + math.log(math.sin(math.pi * H)) + lc - log_den
               - math.log(2.0 * math.pi))
    return np.exp(log_val)


def g_product(H, x) -> np.ndarray:
    """The sheet's density prod_k g_{H_k}(x_k), frequencies (..., N) -> (...)."""
    H = validate_hurst(H)
    x = _points(x, len(H))
    return math.prod(g_fbm(h, x[..., k]) for k, h in enumerate(H))


@dataclass(frozen=True)
class SpectralDensity:
    """Nonnegative integrable density on R^N, frequencies (..., N) -> (...).

    ``factors`` optionally lists one-dimensional densities, each mapping
    frequencies elementwise, whose product is ``evaluate``; the Fourier
    inversion then factorizes coordinate-wise.
    """

    n: int
    evaluate: Callable[..., np.ndarray]
    factors: tuple | None = None

    def __call__(self, x) -> np.ndarray:
        return self.evaluate(np.asarray(x, dtype=float))


def fbm_density(H: float) -> SpectralDensity:
    (H,) = validate_hurst(H)
    return SpectralDensity(1, lambda x: g_fbm(H, x[..., 0]),
                           factors=((lambda x, h=H: g_fbm(h, x)),))


def product_density(H) -> SpectralDensity:
    H = validate_hurst(H)
    facs = tuple((lambda x, h=h: g_fbm(h, x)) for h in H)
    return SpectralDensity(len(H), lambda x: g_product(H, x), factors=facs)


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

    Product densities transform coordinate-wise; other densities are
    supported directly in one dimension and by nested quadrature in two.
    The imaginary part of the transform is returned as a residual: it
    vanishes (up to quadrature error) for densities even under x -> -x.
    """
    v = _points(v, f.n)
    bud = _Budget(budget)
    if f.factors is not None:
        if len(f.factors) != f.n:
            raise ValueError("factor count does not match dimension")
        total = complex(1.0)
        err = 0.0
        for gk, vk in zip(f.factors, v):
            re, im, e = _transform_1d(gk, float(vk), bud, tol)
            total *= complex(re, im)
            err += e
        return TransformResult(total.real, abs(total.imag), err)
    if f.n == 1:
        re, im, err = _transform_1d(lambda x: f.evaluate(np.array((x,))),
                                    float(v[0]), bud, tol)
        return TransformResult(re, abs(im), err)
    if f.n == 2:
        return _transform_2d(f, v, bud, tol)
    raise QuadratureError(
        "non-product densities are supported only in dimensions 1 and 2")


def _transform_2d(f, v, budget, tol):
    """Nested transform for non-product densities on R^2.

    Every inner slice is a fresh one-dimensional integral with its own
    evaluation budget; the shared budget meters the outer levels only.  The
    four outer integrals (cos/sin, real/imag) visit the same x1 nodes, so
    each slice is computed once per x1 and kept.
    """
    inner_tol = max(tol * 0.1, 1e-9)
    slices = {}

    def inner(x1):
        if x1 not in slices:
            re, im, _ = _transform_1d(lambda x2: f.evaluate(np.array((x1, x2))),
                                      float(v[1]), _Budget(budget.limit),
                                      inner_tol)
            slices[x1] = complex(re, im)
        return slices[x1]

    def outer_part(part):
        # each part of inner(x1) + inner(-x1) is the sum of the parts
        return _transform_1d(lambda x1: part(inner(x1)), float(v[0]), budget,
                             tol)

    # e^{i x1 v1} (a + ib): real = a cos - b sin, imag = a sin + b cos
    re_a, im_a, err_a = outer_part(lambda z: z.real)
    re_b, im_b, err_b = outer_part(lambda z: z.imag)
    return TransformResult(re_a - im_b, abs(im_a + re_b), err_a + err_b)


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
    return (f.evaluate(flips * x[..., None, :]).sum(axis=-1)
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
