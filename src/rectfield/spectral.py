"""Spectral densities of the time-changed fields and Fourier reconstruction.

The stationary covariance of the exponentially time-changed fractional
Brownian motion has an explicit spectral density

    g_H(x) = (1/2pi) (2H/(H^2+x^2)) (pi Gamma(2H)/|Gamma(H+ix)|^2)
             * sin(pi H) cosh(pi x)
               / (sin^2(pi H) cosh^2(pi x) + cos^2(pi H) sinh^2(pi x)),

reducing at H = 1/2 to the Cauchy density 1/(2 pi ((1/2)^2 + x^2)).  The
denominator equals sinh^2(pi x) + sin^2(pi H), a sum of positive terms that
keeps its digits as H nears 0 or 1 (cosh^2(pi x) - cos^2(pi H), its other
form, cancels there).  This module evaluates g_H in log space, with SciPy's
compiled complex log-gamma (loaded from its file at first use, see
``gammafn._scipy_extension``), to stay finite far into the tails, where the
density decays like |x|^{-1-2H}.

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

g_H is one formula in ``math`` arithmetic, bound once per H
(``product_density``'s factors are these bound letters): a Python float,
which is what QUADPACK passes, gives a float with the same bits it has
inside an array.  ``g_w``, ``g_fbm`` and the factors of a density map
frequencies elementwise; ``g_product``, a ``SpectralDensity`` and the
criterion map frequencies (..., N) to (...), one call of each factor for
all 2^N sign flips of a grid.  A single frequency gives a ``np.float64``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gammafn import _LOGGAMMA, _scipy_extension, _sin_pi, validate_hurst
from .kernels import _one_point, _points, _sign_vectors
from .quadrature import _Budget, _quad_panel

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


def _map_floats(scalar, x) -> np.ndarray:
    """scalar(|x_i|) at each element of x as Python floats, shaped as x."""
    ax = np.abs(np.asarray(x, dtype=float))
    return np.array(list(map(scalar, ax.ravel().tolist())),
                    dtype=float).reshape(ax.shape)[()]


@lru_cache(maxsize=256)
def _fbm_letter(H: float):
    """g_H as a function of x alone, for a validated H.

    ``scalar`` takes |x| in ``math`` and ``complex`` arithmetic on constants
    of H computed here once.  A ``float`` gives a ``float``; anything else is
    mapped over as Python floats by ``_map_floats``.

    At ax = |x| <= _STIRLING_X, with y = pi ax and t = e^{-2y} <= 1, the
    factor cosh(y) / (sinh^2(y) + sin^2(pi H)) is 2 e^{-y} (1 + t) / ((1 -
    t)^2 + 4 sin^2(pi H) t): no term overflows or cancels, and its e^{-y} is
    taken with the growth -2 Re log Gamma(H + i ax) before either is rounded.
    Beyond, with z = H + i ax, Stirling's series gives Re log Gamma(z) +
    pi ax/2 = (H - 1/2) log|z| + ax atan(H/ax) - H + log(2 pi)/2 + sum_k
    B_2k/(2k(2k-1)) Re z^{1-2k}, to 2e-17 at ax = 20 with k <= 5, and
    log cosh(pi ax) = pi ax - log 2 + O(e^{-2 pi ax}): the pi ax terms
    cancel unrounded and neither ax^2 nor |z|^2 is formed.
    """
    loggamma = _scipy_extension(_LOGGAMMA).loggamma
    s = _sin_pi(H)
    hh, two_h, four_s2 = H * H, 2.0 * H, 4.0 * s * s
    log_near = math.log(2.0 * H) + math.log(s) + math.lgamma(2.0 * H)
    log_2pi = math.log(2.0 * math.pi)
    log_far = math.log(2.0 * H * math.gamma(2.0 * H) * s)
    pi = math.pi
    exp, expm1, log, log1p = math.exp, math.expm1, math.log, math.log1p

    def scalar(ax):
        if ax > _STIRLING_X:
            if ax == math.inf:           # 2 ax atan(H/ax) is inf * 0
                return 0.0
            r = H / ax
            scale = 1.0 / (ax * (1.0 + r * r))
            w = complex(r * scale, -scale)                          # 1 / z
            w2 = w * w
            series = w * (1 / 12 - w2 * (1 / 360 - w2 * (1 / 1260 - w2 * (
                1 / 1680 - w2 * (1 / 1188)))))
            return exp(log_far - (two_h + 1.0) * (log(ax) + 0.5 * log1p(r * r))
                       - 2.0 * ax * math.atan(r) + two_h - log_2pi
                       - 2.0 * series.real)
        y = pi * ax
        t = exp(-2.0 * y)
        return exp(log_near - log(hh + ax * ax) + log1p(t)
                   - log(expm1(-2.0 * y) ** 2 + four_s2 * t)
                   + (-2.0 * float(loggamma(complex(H, ax)).real) - y))

    def letter(x):
        if type(x) is float:             # a QUADPACK abscissa
            return scalar(abs(x))
        return _map_floats(scalar, x)

    return letter


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
    value = _fbm_letter(H)(x)
    return np.float64(value) if type(value) is float else value


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
    return SpectralDensity(((1.0, tuple(_fbm_letter(h)
                                        for h in validate_hurst(H))),))


@dataclass(frozen=True)
class TransformResult:
    value: float
    imag_residual: float
    err_estimate: float


def _transform_1d(g, v, budget, tol):
    """int_R e^{i x v} g(x) dx as (real, imag, err).

    Two QAWF runs on [0, inf): the even part g(x) + g(-x) against cos(|v| x)
    and the odd part g(x) - g(-x) against sin(|v| x).  At v = 0 QUADPACK's
    QAWF integrates the even part by QAGI and returns 0 for the odd part
    without evaluating it.
    """
    even = lambda x: g(x) + g(-x)
    odd = lambda x: g(x) - g(-x)
    re, e1 = _quad_panel(even, 0.0, np.inf, budget, epsabs=tol * 0.25,
                         weight="cos", wvar=abs(v))
    im, e2 = _quad_panel(odd, 0.0, np.inf, budget, epsabs=tol * 0.25,
                         weight="sin", wvar=abs(v))
    return re, math.copysign(1.0, v) * im, e1 + e2


def cov_from_density(f: SpectralDensity, v,
                     tol: float = 1e-6) -> TransformResult:
    """Fourier transform int e^{i<x,v>} f(x) dx of a spectral density at lag v.

    sum_k c_k prod_j of the one-dimensional transforms T_kj of f_kj at v_j,
    on one budget of ``quadrature.BUDGET`` evaluations.  With e_kj the
    error estimate of T_kj, the error estimate is sum_k |c_k| sum_j e_kj
    prod_{i != j} (|T_ki| + e_ki), a bound on the error of each product
    that has no cancellation; for one factor it is e.  The imaginary part
    of the transform is returned as a residual: it vanishes (up to
    quadrature error) for densities even under x -> -x.
    """
    v = _one_point(_points(v, f.n))
    bud = _Budget()
    total, err = 0j, 0.0
    for c, factors in f.terms:
        term, errs, bounds = complex(1.0), [], []
        for g, vj in zip(factors, v):
            re, im, e = _transform_1d(g, float(vj), bud, tol)
            term *= complex(re, im)
            errs.append(e)
            bounds.append(abs(complex(re, im)) + e)
        total += c * term
        err += abs(c) * sum(e * math.prod(bounds[:j] + bounds[j + 1:])
                            for j, e in enumerate(errs))
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
