"""Special-function primitives shared by the covariance and density formulas.

The magnitude |Gamma(z)| for complex z, without overflow, from SciPy's
complex log-gamma (imported on the first call); the two normalization
constants, from ``math.gamma``,

    c1(H) = sqrt(H Gamma(2H) sin(pi H) / pi)
    c2(H) = sqrt(Gamma(1+2H) sin(pi H)) / Gamma(H + 1/2)

that calibrate the harmonizable and moving-average representations of a
fractional Brownian sheet; an overflow-safe log cosh for the spectral
densities; and the one-sided power (u)_+^a.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import validate_hurst

__all__ = [
    "GammaPoleError",
    "abs_gamma",
    "c1",
    "c2",
    "log_cosh",
    "pow_plus",
]

# exp() overflows above this; |Gamma| results beyond it are reported as errors
_LOG_OVERFLOW = math.log(np.finfo(float).max)
_loggamma = None   # scipy.special.loggamma, bound on first use


class GammaPoleError(ValueError):
    """Gamma evaluated at a pole (zero or a negative integer)."""


def abs_gamma(z) -> float:
    """|Gamma(z)| for complex z, via exp(Re log Gamma(z)).

    Working through the log keeps the result finite for large |Im z|,
    where Gamma itself underflows, and lets overflow be detected instead
    of silently returning inf.

    Raises
    ------
    GammaPoleError
        If z is zero or a negative real integer.
    OverflowError
        If |Gamma(z)| exceeds the double range.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"abs_gamma requires finite components, got {z}")
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise GammaPoleError(f"Gamma pole at z = {z.real:g}")
    global _loggamma
    if _loggamma is None:
        from scipy.special import loggamma as _loggamma
    log_mag = float(np.real(_loggamma(z)))
    if log_mag > _LOG_OVERFLOW:
        raise OverflowError(f"|Gamma({z})| overflows double precision")
    return math.exp(log_mag)


def c1(H: float) -> float:
    """Spectral normalization sqrt(H Gamma(2H) sin(pi H) / pi), H in (0,1)."""
    H, = validate_hurst((H,))
    return math.sqrt(H * math.gamma(2 * H) * math.sin(math.pi * H) / math.pi)


def c2(H: float) -> float:
    """Moving-average normalization sqrt(Gamma(1+2H) sin(pi H)) / Gamma(H+1/2)."""
    H, = validate_hurst((H,))
    return math.sqrt(math.gamma(1 + 2 * H) * math.sin(math.pi * H)) / math.gamma(H + 0.5)


def log_cosh(x):
    """log(cosh(x)), accurate for all x without overflow; x a number or an array."""
    ax = abs(x)
    # cosh(x) = e^|x| (1 + e^{-2|x|}) / 2
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)


def pow_plus(u: float, a: float) -> float:
    """One-sided power (u)_+^a: u**a on u > 0, zero on u < 0.

    At u == 0 with a < 0 the limit from the right is +inf; that value is
    returned as an explicit marker so quadrature code can recognize the
    singular hyperplane instead of receiving a spurious zero.
    """
    if u > 0.0:
        return u**a
    if u == 0.0 and a < 0.0:
        return math.inf
    return 0.0
